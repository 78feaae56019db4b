//! The counted executor: the statement layer the server actually runs
//! admitted programs under.
//!
//! Term semantics are delegated to the real interpreters' `eval_term`
//! (`FinInterp`/`HsInterp`/`FcfInterp`) — the server never re-implements
//! value semantics. What the statement layer adds over the plain `run`
//! entry points is *scheduling*:
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
//! `set_seminaive` flag is on, with the budget checks passed in as
//! [`LoopHooks`]: the same round heads, the same per-loop bounds, the
//! same work meter. A loop the engine hands back runs from scratch
//! with the iteration and work counters reset to their loop-entry
//! values, so only a completed semi-naive loop differs from the
//! from-scratch path, and then only in the fuel it used.
//!
//! This mirrors the conformance crate's counting executor (the
//! `TERMINATE-BOUND` differential) — same guard predicates, same fuel
//! ticks — but lives here because the dependency points the other way:
//! the conformance ledger drives *this* server.

use recdb_core::Fuel;
use recdb_qlhs::seminaive::{try_loop, DeltaBackend, DeltaValue, LoopEnd, LoopHooks, LoopKind};
use recdb_qlhs::{Dialect, FcfInterp, FcfVal, FinInterp, HsInterp, Prog, RunError, Term, Val};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One backend's value operations, as the statement layer needs them.
/// Implemented by all three interpreters; term evaluation is theirs.
pub trait GuardEval {
    /// The value type the backend computes with.
    type V: DeltaValue;
    /// Term evaluation — the real interpreter's `eval_term`.
    fn eval(&mut self, t: &Term, env: &[Self::V], fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// The value an unassigned variable holds.
    fn unset() -> Self::V;
    /// The `while empty(Y)` guard.
    fn empty_guard(v: Option<&Self::V>) -> bool;
    /// The `while single(Y)` guard (dialect violation where not admitted).
    fn single_guard(v: Option<&Self::V>) -> Result<bool, RunError>;
    /// The `while finite(Y)` guard (dialect violation where not admitted).
    fn finite_guard(v: Option<&Self::V>) -> Result<bool, RunError>;
    /// Stored size of a value — the tuples the backend materializes
    /// for it (finite part *or* stored complement for QLf⁺). This is
    /// the unit the cost pass bounds.
    fn size(v: &Self::V) -> u64;
    /// Do `while` loops try the semi-naive engine first? The
    /// interpreter's own `set_seminaive` flag.
    fn seminaive(&self) -> bool;
    /// Sets that flag.
    fn set_seminaive(&mut self, on: bool);
}

impl GuardEval for FinInterp<'_> {
    type V = Val;
    fn eval(&mut self, t: &Term, env: &[Val], fuel: &mut Fuel) -> Result<Val, RunError> {
        FinInterp::eval_term(self, t, env, fuel)
    }
    fn unset() -> Val {
        Val::empty(0)
    }
    fn empty_guard(v: Option<&Val>) -> bool {
        v.is_none_or(Val::is_empty)
    }
    fn single_guard(_: Option<&Val>) -> Result<bool, RunError> {
        Err(RunError::DialectViolation(
            "while |Y|=1 is a QLhs primitive; in finitary QL it is only definable",
        ))
    }
    fn finite_guard(_: Option<&Val>) -> Result<bool, RunError> {
        Err(RunError::DialectViolation(
            "while |Y|<∞ is a QLf+ construct",
        ))
    }
    fn size(v: &Val) -> u64 {
        v.len() as u64
    }
    fn seminaive(&self) -> bool {
        FinInterp::seminaive(self)
    }
    fn set_seminaive(&mut self, on: bool) {
        FinInterp::set_seminaive(self, on);
    }
}

impl GuardEval for HsInterp<'_> {
    type V = Val;
    fn eval(&mut self, t: &Term, env: &[Val], fuel: &mut Fuel) -> Result<Val, RunError> {
        HsInterp::eval_term(self, t, env, fuel)
    }
    fn unset() -> Val {
        Val::empty(0)
    }
    fn empty_guard(v: Option<&Val>) -> bool {
        v.is_none_or(Val::is_empty)
    }
    fn single_guard(v: Option<&Val>) -> Result<bool, RunError> {
        Ok(v.is_some_and(Val::is_singleton))
    }
    fn finite_guard(_: Option<&Val>) -> Result<bool, RunError> {
        Err(RunError::DialectViolation(
            "while |Y|<∞ is a QLf+ construct, not part of QLhs",
        ))
    }
    fn size(v: &Val) -> u64 {
        v.len() as u64
    }
    fn seminaive(&self) -> bool {
        HsInterp::seminaive(self)
    }
    fn set_seminaive(&mut self, on: bool) {
        HsInterp::set_seminaive(self, on);
    }
}

impl GuardEval for FcfInterp<'_> {
    type V = FcfVal;
    fn eval(&mut self, t: &Term, env: &[FcfVal], fuel: &mut Fuel) -> Result<FcfVal, RunError> {
        FcfInterp::eval_term(self, t, env, fuel)
    }
    fn unset() -> FcfVal {
        FcfVal::empty(0)
    }
    fn empty_guard(v: Option<&FcfVal>) -> bool {
        v.is_none_or(FcfVal::is_empty_relation)
    }
    fn single_guard(_: Option<&FcfVal>) -> Result<bool, RunError> {
        Err(RunError::DialectViolation(
            "while |Y|=1 is a QLhs primitive, not part of QLf+",
        ))
    }
    fn finite_guard(v: Option<&FcfVal>) -> Result<bool, RunError> {
        Ok(v.is_none_or(|x| x.finite))
    }
    fn size(v: &FcfVal) -> u64 {
        v.tuples.len() as u64
    }
    fn seminaive(&self) -> bool {
        FcfInterp::seminaive(self)
    }
    fn set_seminaive(&mut self, on: bool) {
        FcfInterp::set_seminaive(self, on);
    }
}

/// The scheduling envelope an admitted program runs under.
#[derive(Clone, Debug)]
pub struct Budget<'a> {
    /// Proved per-entry bounds by loop path (empty in fuel mode).
    pub bounds: &'a BTreeMap<Vec<u32>, u64>,
    /// Whole-program iteration cap. In exact mode this is the proved
    /// `Terminates {iterations}` figure; in fuel mode `u64::MAX` (fuel
    /// is the limiter).
    pub total_cap: u64,
    /// The fuel budget for term evaluation and statement ticks.
    pub fuel: u64,
    /// Statically predicted total work (materialized tuples across
    /// all assignments), when the cost pass derived one at this
    /// database's instantiation. Exceeding it is a cost-soundness
    /// violation.
    pub work_cap: Option<u64>,
}

/// How an execution ended.
#[derive(Debug)]
pub enum ExecEnd<V> {
    /// Completed; the payload is `Y1`.
    Done(V),
    /// The interpreter returned a runtime error (fuel exhaustion is
    /// reported separately).
    Errored(RunError),
    /// Fuel ran out — the fuel-mode analogue of preemption.
    OutOfFuel,
    /// The cooperative-preemption flag was raised at a loop head.
    Preempted,
    /// A proved per-loop bound was exceeded — admission soundness
    /// violation.
    BoundExceeded {
        /// The loop's tree path.
        path: Vec<u32>,
        /// The bound it was proved to respect.
        bound: u64,
    },
    /// The proved whole-program budget was exceeded — admission
    /// soundness violation.
    TotalExceeded {
        /// The proved whole-program budget.
        cap: u64,
    },
    /// The statically predicted work bound was exceeded — a
    /// cost-soundness violation (counted as `serve.cost.overrun`).
    WorkExceeded {
        /// The predicted work bound.
        cap: u64,
    },
}

impl<V> ExecEnd<V> {
    /// Is this end an admission-soundness violation (a static proof
    /// contradicted at runtime)?
    pub fn is_soundness_violation(&self) -> bool {
        matches!(
            self,
            ExecEnd::BoundExceeded { .. }
                | ExecEnd::TotalExceeded { .. }
                | ExecEnd::WorkExceeded { .. }
        )
    }
}

/// An execution outcome plus its iteration accounting.
#[derive(Debug)]
pub struct ExecResult<V> {
    /// How the run ended.
    pub end: ExecEnd<V>,
    /// Total loop iterations executed.
    pub iterations: u64,
    /// Total tuples materialized by assignments (the observed work).
    pub work: u64,
}

enum Stop {
    Run(RunError),
    Fuel,
    Preempt,
    Bound { path: Vec<u32>, bound: u64 },
    Total,
    Work,
}

struct Counter<'b> {
    bounds: &'b BTreeMap<Vec<u32>, u64>,
    total: u64,
    cap: u64,
    work: u64,
    work_cap: Option<u64>,
    preempt: &'b AtomicBool,
}

impl Counter<'_> {
    /// A round head of the loop at `path`, its `here`-th entry so far:
    /// preemption, then the loop's proved bound, then the whole-program
    /// cap.
    fn round(&mut self, path: &[u32], here: &mut u64) -> Result<(), Stop> {
        if self.preempt.load(Ordering::Relaxed) {
            return Err(Stop::Preempt);
        }
        *here += 1;
        self.total += 1;
        if let Some(&bound) = self.bounds.get(path) {
            if *here > bound {
                return Err(Stop::Bound {
                    path: path.to_vec(),
                    bound,
                });
            }
        }
        if self.total > self.cap {
            return Err(Stop::Total);
        }
        Ok(())
    }

    /// Charges one assignment's stored size to the work meter.
    fn charge(&mut self, size: u64) -> Result<(), Stop> {
        self.work = self.work.saturating_add(size);
        if self.work_cap.is_some_and(|cap| self.work > cap) {
            return Err(Stop::Work);
        }
        Ok(())
    }
}

/// The budget checks of one loop, as the semi-naive engine's hooks.
struct LoopBudget<'c, 'b> {
    c: &'c mut Counter<'b>,
    path: &'c [u32],
    here: u64,
}

impl LoopHooks for LoopBudget<'_, '_> {
    type Stop = Stop;
    fn round(&mut self) -> Result<(), Stop> {
        self.c.round(self.path, &mut self.here)
    }
    fn work(&mut self, size: u64) -> Result<(), Stop> {
        self.c.charge(size)
    }
}

/// A [`GuardEval`] backend as the semi-naive engine's term evaluator.
struct Terms<'b, B>(&'b mut B);

impl<B: GuardEval> DeltaBackend for Terms<'_, B> {
    type V = B::V;
    fn eval(&mut self, t: &Term, env: &[B::V], fuel: &mut Fuel) -> Result<B::V, RunError> {
        self.0.eval(t, env, fuel)
    }
}

fn tick(fuel: &mut Fuel) -> Result<(), Stop> {
    fuel.tick().map_err(|_| Stop::Fuel)
}

fn guard<B: GuardEval>(kind: LoopKind, v: Option<&B::V>) -> Result<bool, Stop> {
    match kind {
        LoopKind::Empty => Ok(B::empty_guard(v)),
        LoopKind::Singleton => B::single_guard(v).map_err(Stop::Run),
        LoopKind::Finite => B::finite_guard(v).map_err(Stop::Run),
    }
}

fn cexec<B: GuardEval>(
    b: &mut B,
    p: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
    path: &mut Vec<u32>,
    c: &mut Counter<'_>,
) -> Result<(), Stop> {
    tick(fuel)?;
    match p {
        Prog::Assign(v, t) => {
            let val = b.eval(t, env, fuel).map_err(|e| match e {
                RunError::Fuel(_) => Stop::Fuel,
                other => Stop::Run(other),
            })?;
            c.charge(B::size(&val))?;
            if *v >= env.len() {
                env.resize(*v + 1, B::unset());
            }
            env[*v] = val;
        }
        Prog::Seq(ps) => {
            for (i, q) in ps.iter().enumerate() {
                path.push(i as u32);
                let r = cexec(b, q, env, fuel, path, c);
                path.pop();
                r?;
            }
        }
        Prog::WhileEmpty(v, body) | Prog::WhileSingleton(v, body) | Prog::WhileFinite(v, body) => {
            let kind = match p {
                Prog::WhileEmpty(..) => LoopKind::Empty,
                Prog::WhileSingleton(..) => LoopKind::Singleton,
                _ => LoopKind::Finite,
            };
            // A guard the dialect does not admit fails here, before
            // either engine runs, exactly as the from-scratch loop's
            // first test would.
            guard::<B>(kind, env.get(*v))?;
            if b.seminaive() {
                let entry = (c.total, c.work);
                let mut hooks = LoopBudget {
                    c: &mut *c,
                    path,
                    here: 0,
                };
                match try_loop(&mut Terms(&mut *b), kind, *v, body, env, fuel, &mut hooks) {
                    LoopEnd::Done => return Ok(()),
                    LoopEnd::Stopped(stop) => return Err(stop),
                    LoopEnd::Fallback(_) => (c.total, c.work) = entry,
                }
            }
            let mut here = 0u64;
            while guard::<B>(kind, env.get(*v))? {
                c.round(path, &mut here)?;
                tick(fuel)?;
                path.push(0);
                let r = cexec(b, body, env, fuel, path, c);
                path.pop();
                r?;
            }
        }
    }
    Ok(())
}

/// Runs `p` under `budget`, with term semantics from `b`. The dialect
/// check runs first, exactly as the interpreters' own `run` methods do.
pub fn run_scheduled<B: GuardEval>(
    b: &mut B,
    dialect: Dialect,
    p: &Prog,
    budget: &Budget<'_>,
    preempt: &AtomicBool,
) -> ExecResult<B::V> {
    let mut c = Counter {
        bounds: budget.bounds,
        total: 0,
        cap: budget.total_cap,
        work: 0,
        work_cap: budget.work_cap,
        preempt,
    };
    let mut fuel = Fuel::new(budget.fuel);
    let end = if let Err(v) = dialect.check(p) {
        ExecEnd::Errored(RunError::DialectViolation(v.message()))
    } else {
        let nvars = p.max_var().map_or(1, |m| m + 1);
        let mut env = vec![B::unset(); nvars.max(1)];
        let mut path = Vec::new();
        match cexec(b, p, &mut env, &mut fuel, &mut path, &mut c) {
            Ok(()) => match env.into_iter().next() {
                Some(y1) => ExecEnd::Done(y1),
                None => ExecEnd::Done(B::unset()),
            },
            Err(Stop::Run(e)) => ExecEnd::Errored(e),
            Err(Stop::Fuel) => ExecEnd::OutOfFuel,
            Err(Stop::Preempt) => ExecEnd::Preempted,
            Err(Stop::Bound { path, bound }) => ExecEnd::BoundExceeded { path, bound },
            Err(Stop::Total) => ExecEnd::TotalExceeded { cap: c.cap },
            Err(Stop::Work) => ExecEnd::WorkExceeded {
                cap: c.work_cap.unwrap_or(0),
            },
        }
    };
    ExecResult {
        end,
        iterations: c.total,
        work: c.work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::FiniteStructure;
    use recdb_qlhs::parse_program;

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

    /// A backend that raises the preemption flag at its `n`-th term
    /// evaluation.
    struct Raiser<'a> {
        inner: FinInterp<'a>,
        flag: &'a AtomicBool,
        evals: u64,
        n: u64,
    }

    impl GuardEval for Raiser<'_> {
        type V = Val;
        fn eval(&mut self, t: &Term, env: &[Val], fuel: &mut Fuel) -> Result<Val, RunError> {
            self.evals += 1;
            if self.evals == self.n {
                self.flag.store(true, Ordering::Relaxed);
            }
            self.inner.eval(t, env, fuel)
        }
        fn unset() -> Val {
            <FinInterp<'_> as GuardEval>::unset()
        }
        fn empty_guard(v: Option<&Val>) -> bool {
            <FinInterp<'_> as GuardEval>::empty_guard(v)
        }
        fn single_guard(v: Option<&Val>) -> Result<bool, RunError> {
            <FinInterp<'_> as GuardEval>::single_guard(v)
        }
        fn finite_guard(v: Option<&Val>) -> Result<bool, RunError> {
            <FinInterp<'_> as GuardEval>::finite_guard(v)
        }
        fn size(v: &Val) -> u64 {
            <FinInterp<'_> as GuardEval>::size(v)
        }
        fn seminaive(&self) -> bool {
            GuardEval::seminaive(&self.inner)
        }
        fn set_seminaive(&mut self, on: bool) {
            GuardEval::set_seminaive(&mut self.inner, on);
        }
    }

    #[test]
    fn preemption_stops_the_seminaive_loop_at_a_round_head() {
        let st = path_graph(16);
        let p = reach(15, false);
        let full = on_off(&st, &p, &fueled(10_000_000), &AtomicBool::new(false)).0;
        // Raised mid-body on the fifth statement evaluation (the two
        // entry assignments, then round 1, then round 2's first
        // statement): the loop stops at the next round head.
        let flag = AtomicBool::new(false);
        let mut b = Raiser {
            inner: FinInterp::new(&st),
            flag: &flag,
            evals: 0,
            n: 5,
        };
        let r = run_scheduled(&mut b, Dialect::Ql, &p, &fueled(10_000_000), &flag);
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
