//! Claim audit: each engine DESIGN.md §9 places on the serve path
//! shows up in its counters when that path is exercised. Reach
//! requests must run semi-naively (`fixpoint.seminaive.loops`), and
//! every executed request is accounted to exactly one of
//! `serve.vm.runs`, `serve.vm.fallbacks` and `serve.vm.skipped`.
//!
//! The recorder slot is process-global, so the test binary holds a
//! single test.

use recdb_obs::InMemoryRecorder;
use recdb_qlhs::{Prog, Term};
use recdb_serve::client::Conn;
use recdb_serve::{ServeConfig, Server};

/// Single-source reach from 0 to `last` on a path: one
/// semi-naive-eligible loop, admitted under fuel.
fn reach_body(last: u64) -> String {
    let union = |v: usize, s: Term| Prog::assign(v, Term::Var(v).union(s));
    let succ = Term::Var(1).up().and(Term::Rel(0)).down();
    let p = Prog::seq([
        Prog::assign(1, Term::Const(0)),
        Prog::assign(2, Term::Const(0).and(Term::Const(last))),
        Prog::WhileEmpty(
            2,
            Box::new(Prog::seq([
                union(1, succ),
                union(2, Term::Var(1).and(Term::Const(last))),
            ])),
        ),
        Prog::assign(0, Term::Var(1)),
    ]);
    let universe: Vec<String> = (0..=last).map(|v| v.to_string()).collect();
    let edges: Vec<String> = (0..last)
        .flat_map(|i| [format!("[{i},{}]", i + 1), format!("[{},{i}]", i + 1)])
        .collect();
    format!(
        r#"{{"program":"{}","db":{{"kind":"finite","universe":[{}],"relations":[{{"arity":2,"tuples":[{}]}}]}},"fuel":1000000}}"#,
        p.to_string().replace('\n', " ").trim(),
        universe.join(","),
        edges.join(",")
    )
}

fn finite_query(program: &str) -> String {
    format!(
        r#"{{"program":"{program}","db":{{"kind":"finite","universe":[0,1,2],"relations":[{{"arity":2,"tuples":[[0,1],[1,2]]}}]}},"fuel":10000}}"#
    )
}

/// Was the request executed (admitted, and not answered from the
/// cache)?
fn executed(body: &str) -> bool {
    !body.contains("\"status\":\"rejected\"") && !body.contains("\"cache\":\"hit\"")
}

#[test]
fn serve_engines_show_up_in_their_counters() {
    let rec = InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());

    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let mut c = Conn::connect(server.addr()).expect("connect");
    let bodies = [
        reach_body(12),
        reach_body(7),
        // Straight-line and cacheable: a miss, then a hit.
        finite_query("Y1 := R1;"),
        finite_query("Y1 := R1;"),
        // A loop outside the semi-naive fragment.
        finite_query("Y2 := R1; while empty(Y3) { Y3 := Y2; }"),
        // Provably divergent: rejected at admission.
        finite_query("while empty(Y2) { Y3 := E; }"),
        // A runtime error after admission.
        r#"{"program":"Y1 := up(R1);","db":{"kind":"fcf","relations":[{"cofinite":{"arity":1,"exceptions":[[2]]}}]}}"#.to_string(),
    ];
    let mut ran = 0;
    for body in &bodies {
        let r = c.post("/v1/query", body).expect("round trip");
        assert!(!r.body.contains("\"violation\""), "{}", r.body);
        ran += u64::from(executed(&r.body));
    }
    let mut reach = Conn::connect(server.addr()).expect("connect");
    let r = reach
        .post("/v1/query", &reach_body(12))
        .expect("round trip");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"iterations\":12"), "{}", r.body);
    ran += 1;
    drop((c, reach));
    server.shutdown();

    let runs = rec.counter_value("serve.vm.runs");
    let fallbacks = rec.counter_value("serve.vm.fallbacks");
    let skipped = rec.counter_value("serve.vm.skipped");
    assert_eq!(ran, 6, "the request mix changed");
    assert_eq!(
        runs + fallbacks + skipped,
        ran,
        "runs {runs} + fallbacks {fallbacks} + skipped {skipped} ≠ executed {ran}"
    );
    assert_eq!(skipped, 3, "each reach request skips the VM");
    assert!(runs > 0, "the VM never ran");
    assert_eq!(rec.counter_value("fixpoint.seminaive.loops"), 3);
    assert_eq!(rec.counter_value("fixpoint.seminaive.fallbacks"), 0);

    // With the VM off, the ineligible loop reaches the delta engine,
    // which hands it back and names why.
    rec.reset();
    let server = Server::start(ServeConfig {
        vm: false,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Conn::connect(server.addr()).expect("connect");
    let r = c
        .post(
            "/v1/query",
            &finite_query("Y2 := R1; while empty(Y3) { Y3 := Y2; }"),
        )
        .expect("round trip");
    assert_eq!(r.status, 200, "{}", r.body);
    drop(c);
    server.shutdown();
    recdb_obs::uninstall();
    assert_eq!(rec.counter_value("fixpoint.seminaive.fallbacks"), 1);
    assert_eq!(
        rec.counter_value("fixpoint.seminaive.fallback.ineligible"),
        1
    );
    assert_eq!(rec.counter_value("serve.vm.runs"), 0);
}
