//! Every rejection of a `while` test a dialect does not admit carries
//! the one canonical `DialectViolation::message()`, on every path that
//! can reject it: `exec` on a caller-supplied environment (no up-front
//! check, so the loop itself rejects), the server's `run_scheduled`,
//! and the conformance ledger's counted runs.

use recdb_conformance::iter_count::{counted_run_fcf, counted_run_fin, counted_run_hs};
use recdb_core::{FiniteRelation, FiniteStructure, Fuel};
use recdb_hsdb::{infinite_clique, FcfDatabase, FcfRel};
use recdb_qlhs::{
    exec, Backend, Budget, DeltaValue, Dialect, ExecEnd, FcfInterp, FinInterp, HsInterp, LoopKind,
    Prog, RunError, Term,
};
use recdb_serve::exec::run_scheduled;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// `Y1 := E; while <kind>(Y1) { Y1 := E↓ }` — the loop at path `[1]`.
fn looping(kind: LoopKind) -> Prog {
    let body = Box::new(Prog::assign(0, Term::E.down()));
    Prog::seq([
        Prog::assign(0, Term::E),
        match kind {
            LoopKind::Empty => Prog::WhileEmpty(0, body),
            LoopKind::Singleton => Prog::WhileSingleton(0, body),
            LoopKind::Finite => Prog::WhileFinite(0, body),
        },
    ])
}

fn dialect_error<V: std::fmt::Debug>(end: &ExecEnd<V>) -> &'static str {
    match end {
        ExecEnd::Errored(RunError::DialectViolation(m)) => m,
        other => panic!("expected a dialect violation, got {other:?}"),
    }
}

/// Runs the loop of `kind` on a fresh `mk()` backend along all three
/// paths and returns the message they agree on.
fn message<B: Backend>(
    mk: impl Fn() -> B,
    kind: LoopKind,
    counted: impl Fn(&Prog) -> ExecEnd<()>,
) -> &'static str
where
    B::V: std::fmt::Debug,
{
    let p = looping(kind);
    let canonical = B::DIALECT
        .violation(kind, &[1])
        .expect("the test is not admitted")
        .message();
    let mut env = vec![B::V::empty0(); 1];
    let got = exec(&mut mk(), &p, &mut env, &mut Fuel::new(10_000));
    assert_eq!(got, Err(RunError::DialectViolation(canonical)));
    let no_bounds = BTreeMap::new();
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: u64::MAX,
        fuel: 10_000,
        work_cap: None,
    };
    let quiet = AtomicBool::new(false);
    let scheduled = run_scheduled(&mut mk(), B::DIALECT, &p, &budget, &quiet);
    assert_eq!(dialect_error(&scheduled.end), canonical);
    assert_eq!(dialect_error(&counted(&p)), canonical);
    canonical
}

#[test]
fn every_non_admitted_guard_reports_the_canonical_message() {
    let st = FiniteStructure::graph(0..3, [(0, 1), (1, 2)]);
    let hs = infinite_clique();
    let fcf = FcfDatabase::new("d", vec![FcfRel::Finite(FiniteRelation::unary([1, 2]))]);
    let none = BTreeMap::new();
    let fin = |p: &Prog| counted_run_fin(&st, p, 10_000, 100, &none).end;
    let hs_counted = |p: &Prog| counted_run_hs(&hs, p, 10_000, 100, &none).end;
    let fcf_counted = |p: &Prog| counted_run_fcf(&fcf, p, 10_000, 100, &none).end;
    assert_eq!(
        message(|| FinInterp::new(&st), LoopKind::Singleton, fin),
        "while |Y|=1 is a QLhs primitive; in finitary QL it is only definable"
    );
    assert_eq!(
        message(|| FinInterp::new(&st), LoopKind::Finite, fin),
        "while |Y|<∞ is a QLf+ construct"
    );
    assert_eq!(
        message(|| HsInterp::new(&hs), LoopKind::Finite, hs_counted),
        "while |Y|<∞ is a QLf+ construct; QLhs values are always finite sets of representatives"
    );
    assert_eq!(
        message(|| FcfInterp::new(&fcf), LoopKind::Singleton, fcf_counted),
        "while |Y|=1 is a QLhs primitive, not part of QLf+"
    );
    // The dialects that admit a test never report it.
    for (d, kind) in [
        (Dialect::Qlhs, LoopKind::Singleton),
        (Dialect::QlfPlus, LoopKind::Finite),
    ] {
        assert!(d.violation(kind, &[]).is_none(), "{d} admits {kind:?}");
    }
}
