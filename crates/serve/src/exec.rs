//! The scheduled executor: how the server runs admitted programs.
//!
//! Statement semantics live in one place, `recdb-qlhs`'s statement
//! executor ([`recdb_qlhs::backend`]), over the interpreters' own
//! [`Backend`] primitives — the server never re-implements them. What
//! a scheduled run adds over the plain `run` entry points is the
//! [`Budget`] meter ([`recdb_qlhs::Meter`]):
//!
//! * **budget enforcement** — a proved-`Terminates` admission carries
//!   per-loop bounds and a whole-program iteration budget; exceeding
//!   either at runtime is an **admission soundness violation** (the
//!   static proof was wrong), counted and surfaced as a 500, never
//!   silently absorbed;
//! * **cooperative preemption** — a shared flag checked at every loop
//!   head, so a draining server can stop fuel-mode programs at the
//!   next iteration boundary instead of waiting out their fuel.
//!
//! Every `while` first goes to the semi-naive engine
//! ([`recdb_qlhs::seminaive::try_loop`]) when the interpreter's
//! `set_seminaive` flag is on, under the same meter: the same round
//! heads, the same per-loop bounds, the same work meter. A loop the
//! engine hands back runs from scratch with the meter restored to its
//! loop-entry state, so only a completed semi-naive loop differs from
//! the from-scratch path, and then only in the fuel it used. The VM's
//! `exec_scheduled` runs under the same meter, and the conformance
//! ledger's counted runs (`TERMINATE-BOUND`) wrap it.

/// The statement executor's backend trait under its former name here;
/// the benchmark harness in `perfbench/` still uses it.
pub use recdb_qlhs::Backend as GuardEval;
pub use recdb_qlhs::{Budget, ExecEnd, ExecResult};

use recdb_core::Fuel;
use recdb_qlhs::{run, Backend, Dialect, Prog, RunError};
use std::sync::atomic::AtomicBool;

/// Runs `p` under `budget`, with term semantics from `b`. The dialect
/// check runs first, exactly as the interpreters' own `run` methods do.
pub fn run_scheduled<B: Backend>(
    b: &mut B,
    dialect: Dialect,
    p: &Prog,
    budget: &Budget<'_>,
    preempt: &AtomicBool,
) -> ExecResult<B::V> {
    let mut meter = budget.meter(preempt);
    let r = match dialect.check(p) {
        Err(v) => Err(RunError::from(v).into()),
        Ok(()) => run(b, p, &mut Fuel::new(budget.fuel), &mut meter),
    };
    meter.finish(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::FiniteStructure;
    use recdb_qlhs::{parse_program, FinInterp, Hooks, Meter, Term, Val};
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering;

    fn graph() -> FiniteStructure {
        FiniteStructure::graph(0..3, [(0, 1), (1, 2)])
    }

    fn run(src: &str, budget: &Budget<'_>) -> ExecResult<Val> {
        let p = parse_program(src).unwrap();
        let st = graph();
        let mut interp = FinInterp::new(&st);
        run_scheduled(
            &mut interp,
            Dialect::Ql,
            &p,
            budget,
            &AtomicBool::new(false),
        )
    }

    fn fueled(fuel: u64) -> Budget<'static> {
        static EMPTY: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
        Budget {
            bounds: &EMPTY,
            total_cap: u64::MAX,
            fuel,
            work_cap: None,
        }
    }

    #[test]
    fn completion_returns_y1() {
        let r = run("Y1 := E;", &fueled(10_000));
        match r.end {
            ExecEnd::Done(v) => assert_eq!(v.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn divergent_loops_run_out_of_fuel() {
        let r = run("while empty(Y2) { Y3 := E; }", &fueled(500));
        assert!(matches!(r.end, ExecEnd::OutOfFuel), "{:?}", r.end);
        assert!(r.iterations > 0);
    }

    #[test]
    fn preemption_stops_at_a_loop_head() {
        let p = parse_program("while empty(Y2) { Y3 := E; }").unwrap();
        let st = graph();
        let mut interp = FinInterp::new(&st);
        let flag = AtomicBool::new(true);
        let r = run_scheduled(&mut interp, Dialect::Ql, &p, &fueled(100_000), &flag);
        assert!(matches!(r.end, ExecEnd::Preempted), "{:?}", r.end);
    }

    #[test]
    fn exceeded_bounds_are_soundness_violations() {
        let bounds: BTreeMap<Vec<u32>, u64> = [(vec![0], 2u64)].into_iter().collect();
        let budget = Budget {
            bounds: &bounds,
            total_cap: 100,
            fuel: 100_000,
            work_cap: None,
        };
        let r = run("while empty(Y2) { Y3 := E; }", &budget);
        assert!(r.end.is_soundness_violation(), "{:?}", r.end);
        match r.end {
            ExecEnd::BoundExceeded { path, bound } => {
                assert_eq!(path, vec![0]);
                assert_eq!(bound, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn total_budget_is_enforced() {
        let bounds = BTreeMap::new();
        let budget = Budget {
            bounds: &bounds,
            total_cap: 5,
            fuel: 100_000,
            work_cap: None,
        };
        let r = run("while empty(Y2) { Y3 := E; }", &budget);
        assert!(
            matches!(r.end, ExecEnd::TotalExceeded { cap: 5 }),
            "{:?}",
            r.end
        );
    }

    #[test]
    fn work_is_counted_and_capped() {
        let r = run("Y1 := E; Y2 := E;", &fueled(10_000));
        assert!(matches!(r.end, ExecEnd::Done(_)), "{:?}", r.end);
        // E on the 3-node graph stores 3 tuples; two assignments.
        assert_eq!(r.work, 6);

        let bounds = BTreeMap::new();
        let budget = Budget {
            bounds: &bounds,
            total_cap: u64::MAX,
            fuel: 10_000,
            work_cap: Some(5),
        };
        let r = run("Y1 := E; Y2 := E;", &budget);
        assert!(
            matches!(r.end, ExecEnd::WorkExceeded { cap: 5 }),
            "{:?}",
            r.end
        );
        assert!(r.end.is_soundness_violation());
    }

    #[test]
    fn runtime_errors_pass_through() {
        let r = run("Y1 := R9;", &fueled(10_000));
        // R9 in the surface syntax is input index 8 (relations are
        // 1-based on the wire, 0-based internally).
        assert!(
            matches!(r.end, ExecEnd::Errored(RunError::NoSuchRelation(8))),
            "{:?}",
            r.end
        );
    }

    // --- semi-naive on vs off -------------------------------------

    fn path_graph(n: u64) -> FiniteStructure {
        FiniteStructure::undirected_graph(0..n, (0..n - 1).map(|i| (i, i + 1)))
    }

    fn grid_graph(w: u64) -> FiniteStructure {
        let edges = (0..w * w).flat_map(|v| {
            let right = (v % w + 1 < w).then_some((v, v + 1));
            let down = (v + w < w * w).then_some((v, v + w));
            right.into_iter().chain(down)
        });
        FiniteStructure::undirected_graph(0..w * w, edges)
    }

    /// Single-source reach from 0 until `last` is reached; the loop
    /// sits at path `[2]` and is semi-naive-eligible.
    /// `Y2 := C0; Y3 := C0 ∩ C1;`
    /// `while |Y3|=0 { Y2 ∪= succ(Y2); Y3 ∪= Y2 ∩ C_last }; Y1 := Y2`.
    /// With `constant`, the body also runs `Y4 ∪= R1` (`Y4 := E`
    /// first), a statement the engine skips after round 1.
    fn reach(last: u64, constant: bool) -> Prog {
        let union = |v: usize, s: Term| Prog::assign(v, Term::Var(v).union(s));
        let succ = Term::Var(1).up().and(Term::Rel(0)).down();
        let mut init = vec![Prog::assign(1, Term::Const(0))];
        let mut body = vec![
            union(1, succ),
            union(2, Term::Var(1).and(Term::Const(last))),
        ];
        if constant {
            init.push(Prog::assign(3, Term::E));
            body.push(union(3, Term::Rel(0)));
        }
        Prog::seq([
            Prog::seq(init),
            Prog::assign(2, Term::Const(0).and(Term::Const(1))),
            Prog::WhileEmpty(2, Box::new(Prog::seq(body))),
            Prog::assign(0, Term::Var(1)),
        ])
    }

    /// The same program run with the semi-naive engine on and off.
    fn on_off(
        st: &FiniteStructure,
        p: &Prog,
        budget: &Budget<'_>,
        preempt: &AtomicBool,
    ) -> (ExecResult<Val>, ExecResult<Val>) {
        let run = |on: bool| {
            let mut interp = FinInterp::new(st);
            interp.set_seminaive(on);
            run_scheduled(&mut interp, Dialect::Ql, p, budget, preempt)
        };
        (run(true), run(false))
    }

    fn same(a: &ExecResult<Val>, b: &ExecResult<Val>) -> bool {
        let ends = match (&a.end, &b.end) {
            (ExecEnd::Done(x), ExecEnd::Done(y)) => x == y,
            (ExecEnd::Errored(x), ExecEnd::Errored(y)) => x == y,
            (x, y) => format!("{x:?}") == format!("{y:?}"),
        };
        ends && a.iterations == b.iterations && a.work == b.work
    }

    fn capped(bounds: &BTreeMap<Vec<u32>, u64>, work_cap: Option<u64>) -> Budget<'_> {
        Budget {
            bounds,
            total_cap: u64::MAX,
            fuel: 10_000_000,
            work_cap,
        }
    }

    fn reach_cases() -> Vec<(FiniteStructure, Prog)> {
        vec![
            (path_graph(16), reach(15, false)),
            (grid_graph(5), reach(24, false)),
            (path_graph(16), reach(15, true)),
        ]
    }

    #[test]
    fn seminaive_matches_from_scratch_on_reach() {
        for (st, p) in reach_cases() {
            let (on, off) = on_off(&st, &p, &fueled(10_000_000), &AtomicBool::new(false));
            assert!(matches!(on.end, ExecEnd::Done(_)), "{:?}", on.end);
            assert!(same(&on, &off), "on {on:?}\noff {off:?}");
            assert!(on.iterations > 3 && on.work > 0);
        }
    }

    #[test]
    fn work_caps_fire_at_the_same_statement() {
        for (st, p) in reach_cases() {
            let full = on_off(&st, &p, &fueled(10_000_000), &AtomicBool::new(false)).1;
            let no_bounds = BTreeMap::new();
            for cap in [1, full.work / 3, full.work / 2, full.work - 1] {
                let budget = capped(&no_bounds, Some(cap));
                let (on, off) = on_off(&st, &p, &budget, &AtomicBool::new(false));
                assert!(
                    matches!(on.end, ExecEnd::WorkExceeded { cap: c } if c == cap),
                    "{:?}",
                    on.end
                );
                assert!(same(&on, &off), "cap {cap}: on {on:?}\noff {off:?}");
            }
            let budget = capped(&no_bounds, Some(full.work));
            let (on, _) = on_off(&st, &p, &budget, &AtomicBool::new(false));
            assert!(matches!(on.end, ExecEnd::Done(_)), "{:?}", on.end);
        }
    }

    #[test]
    fn loop_bounds_fire_on_the_same_path() {
        for (st, p) in reach_cases() {
            let full = on_off(&st, &p, &fueled(10_000_000), &AtomicBool::new(false)).1;
            let bounds: BTreeMap<Vec<u32>, u64> =
                [(vec![2], full.iterations - 2)].into_iter().collect();
            let (on, off) = on_off(&st, &p, &capped(&bounds, None), &AtomicBool::new(false));
            match &on.end {
                ExecEnd::BoundExceeded { path, bound } => {
                    assert_eq!(path, &vec![2]);
                    assert_eq!(*bound, full.iterations - 2);
                }
                other => panic!("{other:?}"),
            }
            assert!(same(&on, &off), "on {on:?}\noff {off:?}");
        }
    }

    /// Budget hooks that raise the preemption flag at the `n`-th
    /// assignment.
    #[derive(Clone)]
    struct Raiser<'a> {
        meter: Meter<'a, Val>,
        flag: &'a AtomicBool,
        works: u64,
        n: u64,
    }

    impl Hooks for Raiser<'_> {
        type Stop = ExecEnd<Val>;
        fn round(&mut self, path: &[u32], here: u64) -> Result<(), ExecEnd<Val>> {
            self.meter.round(path, here)
        }
        fn work(&mut self, path: &[u32], size: u64) -> Result<(), ExecEnd<Val>> {
            self.works += 1;
            if self.works == self.n {
                self.flag.store(true, Ordering::Relaxed);
            }
            self.meter.work(path, size)
        }
    }

    #[test]
    fn preemption_stops_the_seminaive_loop_at_a_round_head() {
        let st = path_graph(16);
        let p = reach(15, false);
        let full = on_off(&st, &p, &fueled(10_000_000), &AtomicBool::new(false)).0;
        // Raised mid-body at the fifth assignment (the two entry
        // assignments, then round 1, then round 2's first statement):
        // the loop stops at the next round head.
        let flag = AtomicBool::new(false);
        let budget = fueled(10_000_000);
        let mut hooks = Raiser {
            meter: budget.meter(&flag),
            flag: &flag,
            works: 0,
            n: 5,
        };
        let r = recdb_qlhs::run(
            &mut FinInterp::new(&st),
            &p,
            &mut Fuel::new(budget.fuel),
            &mut hooks,
        );
        let r = hooks.meter.finish(r);
        assert!(matches!(r.end, ExecEnd::Preempted), "{:?}", r.end);
        assert_eq!(r.iterations, 2, "stopped at the head of round 3");
        assert!(r.iterations < full.iterations);
        // The work meter saw both completed rounds in full.
        assert!(r.work > 0);
    }

    #[test]
    fn eval_error_fallback_reports_the_from_scratch_error() {
        // Round 1 evaluates `Y2 ∩ R9` and fails; the engine falls back
        // with its fuel restored, so every fuel level gives the
        // from-scratch outcome, and at the least fuel that reaches the
        // error the error (not fuel exhaustion) is reported.
        let st = path_graph(6);
        let union = |v: usize, s: Term| Prog::assign(v, Term::Var(v).union(s));
        let p = Prog::seq([
            Prog::assign(1, Term::Const(0)),
            Prog::WhileEmpty(
                2,
                Box::new(Prog::seq([
                    union(1, Term::Var(1).up().and(Term::Rel(0)).down()),
                    union(2, Term::Var(1).and(Term::Rel(8))),
                ])),
            ),
        ]);
        let mut least = None;
        for fuel in 0..400 {
            let (on, off) = on_off(&st, &p, &fueled(fuel), &AtomicBool::new(false));
            assert!(same(&on, &off), "fuel {fuel}: on {on:?}\noff {off:?}");
            if least.is_none() && matches!(off.end, ExecEnd::Errored(_)) {
                least = Some(fuel);
                assert!(
                    matches!(on.end, ExecEnd::Errored(RunError::NoSuchRelation(8))),
                    "{:?}",
                    on.end
                );
            }
        }
        assert!(least.is_some(), "the error was never reached");
    }

    /// The least fuel under which `p` completes.
    fn fuel_needed(st: &FiniteStructure, p: &Prog, on: bool) -> u64 {
        let done = |fuel: u64| {
            let mut interp = FinInterp::new(st);
            interp.set_seminaive(on);
            let r = run_scheduled(
                &mut interp,
                Dialect::Ql,
                p,
                &fueled(fuel),
                &AtomicBool::new(false),
            );
            matches!(r.end, ExecEnd::Done(_))
        };
        let (mut lo, mut hi) = (0u64, 10_000_000u64);
        assert!(done(hi));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if done(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn completed_seminaive_runs_use_no_more_fuel() {
        for (st, p) in reach_cases() {
            let on = fuel_needed(&st, &p, true);
            let off = fuel_needed(&st, &p, false);
            assert!(on <= off, "semi-naive needed {on} fuel, from scratch {off}");
            // Between the two, the only permitted difference: the
            // semi-naive run completes where from scratch runs out.
            if on < off {
                let (a, b) = on_off(&st, &p, &fueled(on), &AtomicBool::new(false));
                assert!(matches!(a.end, ExecEnd::Done(_)), "{:?}", a.end);
                assert!(matches!(b.end, ExecEnd::OutOfFuel), "{:?}", b.end);
            }
        }
    }
}
