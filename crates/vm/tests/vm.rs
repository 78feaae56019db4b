//! Differential and adversarial tests for the compile → verify → exec
//! pipeline. The semantic oracle is always the tree-walking
//! interpreter with semi-naive evaluation off (the VM recomputes from
//! scratch, as `exec_scheduled`'s serve callers do), compared across a
//! full fuel sweep so fuel accounting must agree at every budget, not
//! just at generous ones.

use recdb_analyze::{
    analyze_full, LoopBound, LoopInfo, LoopKind, TerminationAnalysis, TerminationVerdict,
};
use recdb_core::{CoFiniteRelation, FiniteRelation};
use recdb_core::{Elem, FiniteStructure, Fuel, Tuple};
use recdb_hsdb::{FcfDatabase, FcfRel, FnEquiv, FnTree, HsDatabase};
use recdb_logic::finite_as_db;
use recdb_qlhs::{
    run, Budget, Dialect, ExecEnd, FcfInterp, FinInterp, HsInterp, Meter, NoHooks, Prog, Term, Val,
};
use recdb_vm::{
    compile, exec_hooked, exec_plain, exec_scheduled, verify, Inst, LowerOpts, ObstructionKind,
    VmProg,
};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn and(a: Term, b: Term) -> Term {
    Term::And(Box::new(a), Box::new(b))
}
fn not(e: Term) -> Term {
    Term::Not(Box::new(e))
}
fn up(e: Term) -> Term {
    Term::Up(Box::new(e))
}
fn down(e: Term) -> Term {
    Term::Down(Box::new(e))
}
fn swap(e: Term) -> Term {
    Term::Swap(Box::new(e))
}

fn graph() -> FiniteStructure {
    FiniteStructure::graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
}

fn discrete_hs(st: &FiniteStructure) -> HsDatabase {
    let universe: Vec<Elem> = st.universe().to_vec();
    let tree = FnTree::new(move |_| universe.clone());
    let equiv = FnEquiv::new(|u: &Tuple, v: &Tuple| u == v);
    HsDatabase::with_computed_reps(finite_as_db(st), Arc::new(tree), Arc::new(equiv))
}

fn fcf() -> FcfDatabase {
    FcfDatabase::new(
        "vm-test",
        vec![
            FcfRel::Finite(FiniteRelation::new(
                2,
                [Tuple::from_values([1, 2]), Tuple::from_values([2, 3])],
            )),
            FcfRel::CoFinite(CoFiniteRelation::new(1, [Tuple::from_values([7])])),
        ],
    )
}

/// Compiles under the program's own full analysis and demands the
/// verifier accept, cost claim included.
fn compiled(p: &Prog, schema: &recdb_core::Schema, dialect: Dialect) -> VmProg {
    let full = analyze_full(p, schema, dialect);
    let vm = compile(p, schema, dialect, &full.termination, &LowerOpts::default())
        .unwrap_or_else(|o| panic!("obstructed: {o}\n{p}"));
    verify(
        &vm,
        p,
        schema,
        dialect,
        &full.termination,
        Some(&full.cost.verdict),
    )
    .unwrap_or_else(|r| panic!("rejected: {r}\n{p}\n{vm}"));
    vm
}

/// A straight-line program exercising every operator plus a dead
/// store (`Y3` is never read).
fn straight() -> Prog {
    Prog::Seq(vec![
        Prog::Assign(0, down(and(Term::E, Term::Rel(0)))),
        Prog::Assign(1, up(Term::Var(0))),
        Prog::Assign(0, and(Term::Var(1), swap(Term::Rel(0)))),
        Prog::Assign(2, Term::E),
        Prog::Assign(0, not(down(Term::Var(0)))),
    ])
}

/// `while |Y2|=0 { Y2 := ↓↓R1 }` — exits after one iteration on a
/// structure with edges, and the body keeps `Y2` at rank 0, so the
/// backedge form's rank-stability fixpoint goes through.
fn one_shot_loop() -> Prog {
    Prog::Seq(vec![
        Prog::Assign(0, Term::E),
        Prog::WhileEmpty(1, Box::new(Prog::Assign(1, down(down(Term::Rel(0)))))),
        Prog::Assign(0, and(up(up(Term::Var(1))), Term::Rel(0))),
    ])
}

/// Fuel-sweep equality: at every budget `0..=cap` the VM and the
/// from-scratch tree-walker agree on the exact `Result`, including
/// which fuel level flips from `Fuel` error to success.
fn sweep_fin(p: &Prog, vm: &VmProg, st: &FiniteStructure, cap: u64) {
    let mut flips = 0;
    let mut last_ok = None;
    for f in 0..=cap {
        let mut tree = FinInterp::new(st);
        tree.set_seminaive(false);
        let want = tree.run(p, &mut Fuel::new(f));
        let got = exec_plain(&mut FinInterp::new(st), vm, &mut Fuel::new(f));
        assert_eq!(got, want, "fuel {f}\n{p}\n{vm}");
        let ok = want.is_ok();
        if last_ok == Some(false) && ok {
            flips += 1;
        }
        last_ok = Some(ok);
    }
    assert_eq!(flips, 1, "the sweep must cross the success threshold once");
}

#[test]
fn fin_plain_matches_tree_walk_at_every_fuel_level() {
    let st = graph();
    for p in [straight(), one_shot_loop()] {
        let vm = compiled(&p, st.schema(), Dialect::Ql);
        sweep_fin(&p, &vm, &st, 300);
    }
}

#[test]
fn hs_plain_matches_tree_walk_at_every_fuel_level() {
    let st = graph();
    let hs = discrete_hs(&st);
    let p = Prog::Seq(vec![
        Prog::Assign(0, down(and(Term::E, Term::Rel(0)))),
        Prog::Assign(1, swap(up(Term::Var(0)))),
        Prog::WhileSingleton(
            0,
            Box::new(Prog::Assign(0, and(Term::Var(0), down(Term::Var(1))))),
        ),
        Prog::Assign(0, not(Term::Var(1))),
    ]);
    let vm = compiled(&p, hs.schema(), Dialect::Qlhs);
    for f in 0..=400 {
        let mut tree = HsInterp::new(&hs);
        tree.set_seminaive(false);
        let want = tree.run(&p, &mut Fuel::new(f));
        let got = exec_plain(&mut HsInterp::new(&hs), &vm, &mut Fuel::new(f));
        assert_eq!(got, want, "fuel {f}\n{p}\n{vm}");
    }
}

#[test]
fn fcf_plain_matches_tree_walk_at_every_fuel_level() {
    let db = fcf();
    let schema = db.schema();
    let p = Prog::Seq(vec![
        Prog::Assign(0, down(down(not(Term::E)))),
        Prog::Assign(1, up(and(Term::E, Term::E))),
        Prog::Assign(0, and(not(up(Term::Var(0))), not(Term::Rel(1)))),
        Prog::WhileFinite(0, Box::new(Prog::Assign(0, not(Term::Var(0))))),
    ]);
    let vm = compiled(&p, &schema, Dialect::QlfPlus);
    for f in 0..=300 {
        let mut tree = FcfInterp::new(&db);
        tree.set_seminaive(false);
        let want = tree.run(&p, &mut Fuel::new(f));
        let got = exec_plain(&mut FcfInterp::new(&db), &vm, &mut Fuel::new(f));
        assert_eq!(got, want, "fuel {f}\n{p}\n{vm}");
    }
}

#[test]
fn proved_bounds_unroll_and_stay_exact() {
    let st = graph();
    let p = one_shot_loop();
    // Hand the compiler a (true) certificate so the loop peels.
    let term = TerminationAnalysis {
        verdict: TerminationVerdict::Terminates { iterations: 2 },
        loops: vec![LoopInfo {
            path: vec![1],
            guard: 1,
            kind: LoopKind::Empty,
            bound: LoopBound::Bounded(2),
            on_spine: true,
        }],
        diagnostics: Vec::new(),
    };
    let vm = compile(&p, st.schema(), Dialect::Ql, &term, &LowerOpts::default())
        .expect("bounded loop compiles");
    assert!(
        vm.loops.iter().any(|l| l.peeled == Some(2)),
        "expected an unrolled loop\n{vm}"
    );
    verify(&vm, &p, st.schema(), Dialect::Ql, &term, None).expect("peeled form verifies");
    sweep_fin(&p, &vm, &st, 300);
}

#[test]
fn dead_store_elision_is_verified_and_invisible() {
    let st = graph();
    let p = straight();
    let full = analyze_full(&p, st.schema(), Dialect::Ql);
    let on = compile(
        &p,
        st.schema(),
        Dialect::Ql,
        &full.termination,
        &LowerOpts::default(),
    )
    .unwrap();
    let off = compile(
        &p,
        st.schema(),
        Dialect::Ql,
        &full.termination,
        &LowerOpts {
            dse: false,
            ..LowerOpts::default()
        },
    )
    .unwrap();
    assert!(on.code.len() < off.code.len(), "DSE must drop instructions");
    let r_on = verify(&on, &p, st.schema(), Dialect::Ql, &full.termination, None).unwrap();
    let r_off = verify(&off, &p, st.schema(), Dialect::Ql, &full.termination, None).unwrap();
    assert_eq!(r_on.elided_stores, 1);
    assert_eq!(r_off.elided_stores, 0);
    sweep_fin(&p, &on, &st, 300);
    sweep_fin(&p, &off, &st, 300);
}

#[test]
fn obstructions_carry_stable_codes() {
    let st = graph();
    let full = |p: &Prog, d| analyze_full(p, st.schema(), d).termination;
    let opts = LowerOpts::default();

    let p = Prog::Assign(0, Term::Rel(7));
    let o = compile(&p, st.schema(), Dialect::Ql, &full(&p, Dialect::Ql), &opts).unwrap_err();
    assert_eq!(o.kind, ObstructionKind::Error);
    assert_eq!(o.kind.code(), "error");

    let p = Prog::Assign(0, and(Term::E, Term::Const(1)));
    let o = compile(&p, st.schema(), Dialect::Ql, &full(&p, Dialect::Ql), &opts).unwrap_err();
    assert_eq!(o.kind, ObstructionKind::Error);

    let p = Prog::WhileSingleton(0, Box::new(Prog::Assign(0, Term::E)));
    let o = compile(&p, st.schema(), Dialect::Ql, &full(&p, Dialect::Ql), &opts).unwrap_err();
    assert_eq!(o.kind.code(), "dialect");

    let db = fcf();
    let p = Prog::Assign(0, up(Term::Rel(0)));
    let o = compile(
        &p,
        &db.schema(),
        Dialect::QlfPlus,
        &full(&p, Dialect::QlfPlus),
        &opts,
    )
    .unwrap_err();
    assert_eq!(o.kind, ObstructionKind::Unprovable);
    assert_eq!(o.kind.code(), "unprovable");
}

/// Every single-field mutation of every instruction must be rejected
/// — the streams here have no redundancy, so any tweak breaks either
/// correspondence, tick accounting, or a register rule.
#[test]
fn verifier_rejects_single_instruction_mutations() {
    let st = graph();
    let p = straight();
    let full = analyze_full(&p, st.schema(), Dialect::Ql);
    let vm = compiled(&p, st.schema(), Dialect::Ql);
    let mut rejected = 0;
    for (i, inst) in vm.code.iter().enumerate() {
        let mut mutants: Vec<Inst> = Vec::new();
        match inst.clone() {
            Inst::E { dst, ticks } => {
                mutants.push(Inst::E {
                    dst: dst + 1,
                    ticks,
                });
                mutants.push(Inst::E {
                    dst,
                    ticks: ticks + 1,
                });
                mutants.push(Inst::Rel { dst, rel: 0, ticks });
            }
            Inst::Rel { dst, rel, ticks } => {
                mutants.push(Inst::Rel {
                    dst,
                    rel: rel + 1,
                    ticks,
                });
                mutants.push(Inst::E { dst, ticks });
            }
            Inst::And { dst, a, b, ticks } => {
                mutants.push(Inst::And {
                    dst,
                    a: b,
                    b: a,
                    ticks,
                });
                mutants.push(Inst::And {
                    dst: dst + 1,
                    a,
                    b,
                    ticks,
                });
            }
            Inst::Not { dst, src, ticks }
            | Inst::Up { dst, src, ticks }
            | Inst::Down { dst, src, ticks }
            | Inst::Swap { dst, src, ticks } => {
                mutants.push(Inst::Down {
                    dst,
                    src: src + 1,
                    ticks,
                });
                mutants.push(Inst::Nop { ticks });
            }
            Inst::Commit { src } => {
                mutants.push(Inst::Commit { src: src + 1 });
                mutants.push(Inst::Nop { ticks: 0 });
            }
            Inst::Halt { ticks } => {
                mutants.push(Inst::Halt { ticks: ticks + 1 });
                mutants.push(Inst::Nop { ticks });
            }
            _ => {}
        }
        for m in mutants {
            let mut bad = vm.clone();
            bad.code[i] = m.clone();
            assert!(
                verify(
                    &bad,
                    &p,
                    st.schema(),
                    Dialect::Ql,
                    &full.termination,
                    Some(&full.cost.verdict),
                )
                .is_err(),
                "mutation at {i}: `{}` → `{m}` was accepted\n{vm}",
                vm.code[i]
            );
            rejected += 1;
        }
    }
    assert!(rejected >= 20, "only {rejected} mutants exercised");
}

#[test]
fn verifier_rejects_forged_cost_claims() {
    use recdb_analyze::{CostVerdict, Poly};
    let st = graph();
    let p = straight();
    let full = analyze_full(&p, st.schema(), Dialect::Ql);
    let vm = compiled(&p, st.schema(), Dialect::Ql);
    // A claim of zero work/cardinality cannot dominate the derived
    // bounds of a program that materializes anything.
    let forged = CostVerdict::Bounded {
        cardinality: Poly::zero(),
        work: Poly::zero(),
    };
    let r = verify(
        &vm,
        &p,
        st.schema(),
        Dialect::Ql,
        &full.termination,
        Some(&forged),
    )
    .unwrap_err();
    assert!(r.reason.contains("dominate"), "{r}");
}

#[test]
fn scheduled_run_reports_the_counted_executor_events() {
    let st = graph();
    let p = one_shot_loop();
    let vm = compiled(&p, st.schema(), Dialect::Ql);
    let quiet = AtomicBool::new(false);
    let no_bounds = BTreeMap::new();

    // Done, with iteration and work accounting.
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: 100,
        fuel: 10_000,
        work_cap: None,
    };
    let r = exec_scheduled(&mut FinInterp::new(&st), &vm, &budget, &quiet);
    let mut tree = FinInterp::new(&st);
    tree.set_seminaive(false);
    let want = tree.run(&p, &mut Fuel::new(10_000)).unwrap();
    match r.end {
        ExecEnd::Done(v) => assert_eq!(v, want),
        other => panic!("expected Done, got {other:?}"),
    }
    assert_eq!(r.iterations, 1);
    assert!(r.work > 0);

    // A proved per-loop bound of 0 trips first.
    let bounds: BTreeMap<Vec<u32>, u64> = [(vec![1u32], 0u64)].into_iter().collect();
    let budget = Budget {
        bounds: &bounds,
        total_cap: 100,
        fuel: 10_000,
        work_cap: None,
    };
    match exec_scheduled(&mut FinInterp::new(&st), &vm, &budget, &quiet).end {
        ExecEnd::BoundExceeded { path, bound } => {
            assert_eq!(path, vec![1]);
            assert_eq!(bound, 0);
        }
        other => panic!("expected BoundExceeded, got {other:?}"),
    }

    // Then the total cap, the work cap, preemption, and fuel.
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: 0,
        fuel: 10_000,
        work_cap: None,
    };
    match exec_scheduled(&mut FinInterp::new(&st), &vm, &budget, &quiet).end {
        ExecEnd::TotalExceeded { cap: 0 } => {}
        other => panic!("expected TotalExceeded, got {other:?}"),
    }
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: 100,
        fuel: 10_000,
        work_cap: Some(0),
    };
    match exec_scheduled(&mut FinInterp::new(&st), &vm, &budget, &quiet).end {
        ExecEnd::WorkExceeded { cap: 0 } => {}
        other => panic!("expected WorkExceeded, got {other:?}"),
    }
    let stop = AtomicBool::new(true);
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: 100,
        fuel: 10_000,
        work_cap: None,
    };
    match exec_scheduled(&mut FinInterp::new(&st), &vm, &budget, &stop).end {
        ExecEnd::Preempted => {}
        other => panic!("expected Preempted, got {other:?}"),
    }
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: 100,
        fuel: 1,
        work_cap: None,
    };
    match exec_scheduled(&mut FinInterp::new(&st), &vm, &budget, &quiet).end {
        ExecEnd::OutOfFuel => {}
        other => panic!("expected OutOfFuel, got {other:?}"),
    }
}

#[test]
fn dump_round_trips_through_the_parser() {
    let st = graph();
    for p in [straight(), one_shot_loop()] {
        let vm = compiled(&p, st.schema(), Dialect::Ql);
        let dump = vm.dump();
        let back = recdb_vm::VmProg::parse_dump(&dump).expect("dump parses");
        assert_eq!(back, vm, "round trip\n{dump}");
    }
}

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

/// Single-source reach from 0 until `last` is reached, as a
/// semi-naive-eligible loop: `Y2 := C0; Y3 := C0 ∩ C1;
/// while |Y3|=0 { Y2 ∪= succ(Y2); Y3 ∪= Y2 ∩ C_last }; Y1 := Y2`.
fn reach(last: u64) -> Prog {
    let union = |v: usize, s: Term| Prog::Assign(v, Term::Var(v).union(s));
    let succ = down(and(up(Term::Var(1)), Term::Rel(0)));
    Prog::Seq(vec![
        Prog::Assign(1, Term::Const(0)),
        Prog::Assign(2, and(Term::Const(0), Term::Const(1))),
        Prog::WhileEmpty(
            2,
            Box::new(Prog::Seq(vec![
                union(1, succ),
                union(2, and(Term::Var(1), Term::Const(last))),
            ])),
        ),
        Prog::Assign(0, Term::Var(1)),
    ])
}

/// The budget meter adds no fuel ticks: under an unbounded budget it
/// gives the same value or error as `NoHooks`, with the same fuel
/// left, on the tree executor (semi-naive on and off) and on the VM's
/// instruction loop.
#[test]
fn the_budget_meter_adds_no_fuel_ticks() {
    let no_bounds = BTreeMap::new();
    let quiet = AtomicBool::new(false);
    let unbounded = |fuel| Budget {
        bounds: &no_bounds,
        total_cap: u64::MAX,
        fuel,
        work_cap: None,
    };
    let divergent = Prog::Seq(vec![
        Prog::Assign(0, Term::E),
        Prog::WhileEmpty(1, Box::new(Prog::Assign(2, Term::E))),
    ]);
    // `(Y1 ∩ Y1) ∩ ↑Y2` with `Y2 := ↓E`; the VM half retargets the
    // first `∩` at `Y2`'s register, a rank mismatch the verifier would
    // refuse but the instruction loop still has to report.
    let mismatch = Prog::Seq(vec![
        Prog::Assign(0, Term::E),
        Prog::Assign(1, down(Term::E)),
        Prog::Assign(0, and(Term::Var(0), Term::Var(0))),
        Prog::Assign(0, and(Term::Var(0), up(Term::Var(1)))),
    ]);
    let tree_mismatch = Prog::Assign(0, and(Term::E, down(Term::E)));
    let cases = [
        (path_graph(12), reach(11), reach(11), 1_000_000),
        (grid_graph(4), reach(15), reach(15), 1_000_000),
        (path_graph(4), divergent.clone(), divergent, 5_000),
        (path_graph(4), tree_mismatch, mismatch, 1_000),
    ];
    for (i, (st, tree_p, vm_p, fuel)) in cases.iter().enumerate() {
        let budget = unbounded(*fuel);
        for seminaive in [true, false] {
            let mut b = FinInterp::new(st);
            b.set_seminaive(seminaive);
            let mut plain_fuel = Fuel::new(*fuel);
            let plain = run(&mut b, tree_p, &mut plain_fuel, &mut NoHooks);
            let mut b = FinInterp::new(st);
            b.set_seminaive(seminaive);
            let mut metered_fuel = Fuel::new(*fuel);
            let mut meter: Meter<'_, Val> = budget.meter(&quiet);
            let metered = run(&mut b, tree_p, &mut metered_fuel, &mut meter);
            assert_eq!(plain.map_err(ExecEnd::from), metered, "tree case {i}");
            assert_eq!(
                plain_fuel.remaining(),
                metered_fuel.remaining(),
                "tree case {i} fuel"
            );
        }
        let mut vm = compiled(vm_p, st.schema(), Dialect::Ql);
        if i == 3 {
            let first_and = vm.code.iter_mut().find(|x| matches!(x, Inst::And { .. }));
            let Some(Inst::And { b, .. }) = first_and else {
                panic!("no ∩ instruction\n{vm}");
            };
            *b = 1;
        }
        let mut plain_fuel = Fuel::new(*fuel);
        let plain = exec_plain(&mut FinInterp::new(st), &vm, &mut plain_fuel);
        let mut metered_fuel = Fuel::new(*fuel);
        let mut meter: Meter<'_, Val> = budget.meter(&quiet);
        let metered = exec_hooked(&mut FinInterp::new(st), &vm, &mut metered_fuel, &mut meter);
        assert_eq!(plain.map_err(ExecEnd::from), metered, "vm case {i}\n{vm}");
        assert_eq!(
            plain_fuel.remaining(),
            metered_fuel.remaining(),
            "vm case {i} fuel"
        );
        match i {
            2 => assert_eq!(metered, Err(ExecEnd::OutOfFuel)),
            3 => assert!(
                matches!(
                    metered,
                    Err(ExecEnd::Errored(recdb_qlhs::RunError::RankMismatch { .. }))
                ),
                "{metered:?}"
            ),
            _ => assert!(metered.is_ok(), "{metered:?}"),
        }
    }
}
