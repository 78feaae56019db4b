//! Counted runs: the statement executor under the budget meter,
//! recording per-loop iteration counts keyed by [`NodePath`] and
//! per-statement materialized sizes.
//!
//! This is the dynamic side of the `TERMINATE-BOUND` differential:
//! `recdb_analyze::analyze_termination` proves per-entry iteration
//! bounds (B0/B1/B2) and a program-level `Terminates {iterations}`
//! claim; a counted run replays the program on a real database under
//! those bounds and stops the moment any of them is exceeded. A
//! `Diverges` verdict is checked the other way around: the run must
//! hit the iteration cap (or exhaust fuel) instead of completing. The
//! cost checks compare the recorded sizes with the cost pass's bounds.
//!
//! The run is [`recdb_qlhs::run`] — the one statement executor, with
//! the interpreter under test's own term semantics — and the
//! `Recorder` hooks wrap the server's budget [`Meter`]. The
//! interpreter's semi-naive engine is switched off, so every loop runs
//! from scratch and a disagreement implicates the claims, not a
//! shadow executor.

use recdb_core::{FiniteStructure, Fuel};
use recdb_hsdb::{FcfDatabase, HsDatabase};
use recdb_qlhs::{
    run, Backend, Budget, ExecEnd, ExecResult, FcfInterp, FinInterp, Hooks, HsInterp, Meter,
    NodePath, Prog,
};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// The result of a counted run.
#[derive(Debug)]
pub struct CountedRun {
    /// Per-loop maximum iteration count over any single entry (a loop
    /// whose guard never held is absent).
    pub per_entry_max: BTreeMap<NodePath, u64>,
    /// Total loop iterations across the whole run.
    pub total: u64,
    /// Per-assignment maximum materialized size (tuples for a finite
    /// value, stored representation size for an fcf value), keyed by
    /// the statement's tree path — the dynamic mirror of the cost
    /// analyzer's per-statement cardinality bounds (DESIGN.md §11).
    pub stmt_tuples: BTreeMap<NodePath, u64>,
    /// Total materialized tuples across every assignment execution —
    /// the dynamic mirror of the whole-program work bound.
    pub work: u64,
    /// How the run ended: a proved per-entry bound exceeded is
    /// `BoundExceeded`, the iteration cap `TotalExceeded`.
    pub end: ExecEnd<()>,
}

/// Budget hooks that also record what the cost and termination checks
/// compare against their static bounds.
#[derive(Clone)]
struct Recorder<'a> {
    meter: Meter<'a, ()>,
    per_entry_max: BTreeMap<NodePath, u64>,
    stmt_tuples: BTreeMap<NodePath, u64>,
}

impl Hooks for Recorder<'_> {
    type Stop = ExecEnd<()>;

    fn round(&mut self, path: &[u32], here: u64) -> Result<(), ExecEnd<()>> {
        let m = self.per_entry_max.entry(path.to_vec()).or_insert(0);
        *m = (*m).max(here);
        self.meter.round(path, here)
    }

    fn work(&mut self, path: &[u32], size: u64) -> Result<(), ExecEnd<()>> {
        let m = self.stmt_tuples.entry(path.to_vec()).or_insert(0);
        *m = (*m).max(size);
        self.meter.work(path, size)
    }
}

fn counted<B: Backend>(
    mut b: B,
    p: &Prog,
    fuel: u64,
    cap: u64,
    bounds: &BTreeMap<NodePath, u64>,
) -> CountedRun {
    b.set_seminaive(false);
    let budget = Budget {
        bounds,
        total_cap: cap,
        fuel,
        work_cap: None,
    };
    let quiet = AtomicBool::new(false);
    let mut rec = Recorder {
        meter: budget.meter(&quiet),
        per_entry_max: BTreeMap::new(),
        stmt_tuples: BTreeMap::new(),
    };
    let r = run(&mut b, p, &mut Fuel::new(fuel), &mut rec).map(|_| ());
    let ExecResult {
        end,
        iterations,
        work,
    } = rec.meter.finish(r);
    CountedRun {
        per_entry_max: rec.per_entry_max,
        total: iterations,
        stmt_tuples: rec.stmt_tuples,
        work,
        end,
    }
}

/// Counted run under the finitary QL interpreter.
pub fn counted_run_fin(
    st: &FiniteStructure,
    p: &Prog,
    fuel_budget: u64,
    cap: u64,
    bounds: &BTreeMap<NodePath, u64>,
) -> CountedRun {
    counted(FinInterp::new(st), p, fuel_budget, cap, bounds)
}

/// Counted run under the QLhs interpreter.
pub fn counted_run_hs(
    hs: &HsDatabase,
    p: &Prog,
    fuel_budget: u64,
    cap: u64,
    bounds: &BTreeMap<NodePath, u64>,
) -> CountedRun {
    counted(HsInterp::new(hs), p, fuel_budget, cap, bounds)
}

/// Counted run under the QLf+ interpreter.
pub fn counted_run_fcf(
    db: &FcfDatabase,
    p: &Prog,
    fuel_budget: u64,
    cap: u64,
    bounds: &BTreeMap<NodePath, u64>,
) -> CountedRun {
    counted(FcfInterp::new(db), p, fuel_budget, cap, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_qlhs::parse_program;

    fn graph() -> FiniteStructure {
        FiniteStructure::graph(0..3, [(0, 1), (1, 2)])
    }

    #[test]
    fn counts_match_the_guard_flip() {
        // The loop runs exactly once: the body flips the guard.
        let p = parse_program("while empty(Y2) { Y2 := E; } Y1 := Y2;").unwrap();
        let r = counted_run_fin(&graph(), &p, 10_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, ExecEnd::Done(())), "{:?}", r.end);
        assert_eq!(r.per_entry_max.get(&vec![0]), Some(&1));
        assert_eq!(r.total, 1);
    }

    #[test]
    fn a_divergent_loop_hits_the_cap() {
        let p = parse_program("while empty(Y2) { Y3 := E; }").unwrap();
        let r = counted_run_fin(&graph(), &p, 1_000_000, 50, &BTreeMap::new());
        assert!(
            matches!(r.end, ExecEnd::TotalExceeded { .. }),
            "{:?}",
            r.end
        );
    }

    #[test]
    fn an_exceeded_bound_is_reported_with_its_path() {
        let p = parse_program("while empty(Y2) { Y3 := E; }").unwrap();
        let bounds: BTreeMap<Vec<u32>, u64> = [(vec![0], 3u64)].into_iter().collect();
        let r = counted_run_fin(&graph(), &p, 1_000_000, 50, &bounds);
        match r.end {
            ExecEnd::BoundExceeded { path, bound } => {
                assert_eq!(path, vec![0]);
                assert_eq!(bound, 3);
            }
            other => panic!("expected BoundExceeded, got {other:?}"),
        }
    }

    #[test]
    fn nested_loops_count_per_entry_not_in_total() {
        // The outer loop runs 2 iterations (Y2 arrives via Y4 with a
        // one-iteration delay); the inner loop is entered twice, one
        // iteration each. `per_entry_max` for the inner loop is the
        // per-entry maximum 1, while its share of `total` is 2.
        let p = parse_program(
            "while empty(Y2) { while empty(Y3) { Y3 := E; } Y3 := Y2; Y2 := Y4; Y4 := E; }",
        )
        .unwrap();
        let r = counted_run_fin(&graph(), &p, 100_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, ExecEnd::Done(())), "{:?}", r.end);
        assert_eq!(r.per_entry_max.get(&vec![0]), Some(&2), "{r:?}");
        assert_eq!(r.per_entry_max.get(&vec![0, 0, 0]), Some(&1), "{r:?}");
        assert_eq!(r.total, 4, "{r:?}");
    }

    #[test]
    fn grandparent_example_counts_materialized_tuples() {
        // The DESIGN.md §10 worked example
        // (`examples/programs/ra_grandparent.ra`), compiled to QLhs
        // and replayed on the 4-chain with per-statement counts: two
        // edge scans, the joined pairs, and the projected endpoints.
        let schema = recdb_ra::RaSchema::parse("E(x, y)").unwrap();
        let p = recdb_ra::parse_ra("project #z (E join rename #x -> #y, #y -> #z (E))").unwrap();
        let compiled = recdb_ra::compile_program(&p, &schema).unwrap();
        let st = FiniteStructure::graph(0..4, [(0, 1), (1, 2), (2, 3)]);
        let r = counted_run_fin(&st, &compiled.prog, 1_000_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, ExecEnd::Done(())), "{:?}", r.end);
        // The query compiles to a single binding, so the statement
        // layer materializes exactly once: the two grandparent pairs
        // of the chain (0→2, 1→3), projected to their far endpoints.
        assert_eq!(
            r.stmt_tuples,
            [(vec![0], 2u64)].into_iter().collect::<BTreeMap<_, _>>()
        );
        assert_eq!(r.work, 2);
    }

    #[test]
    fn work_sums_every_assignment_execution() {
        // Three statements over the 3-element universe: the diagonal
        // `E` (3 tuples), `Y1 & E` (3), and the loop's one flip
        // re-materializing `E` (3).
        let p = parse_program("Y1 := E; Y2 := Y1 & E; while empty(Y3) { Y3 := E; }").unwrap();
        let r = counted_run_fin(&graph(), &p, 100_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, ExecEnd::Done(())), "{:?}", r.end);
        assert_eq!(r.stmt_tuples.get(&vec![0]), Some(&3));
        assert_eq!(r.stmt_tuples.get(&vec![1]), Some(&3));
        assert_eq!(r.stmt_tuples.get(&vec![2, 0, 0]), Some(&3));
        assert_eq!(r.work, 9);
    }

    #[test]
    fn dialect_violations_surface_as_errors() {
        let p = parse_program("while single(Y1) { Y1 := E; }").unwrap();
        let r = counted_run_fin(&graph(), &p, 10_000, 100, &BTreeMap::new());
        assert!(
            matches!(
                r.end,
                ExecEnd::Errored(recdb_qlhs::RunError::DialectViolation(_))
            ),
            "{:?}",
            r.end
        );
    }
}
