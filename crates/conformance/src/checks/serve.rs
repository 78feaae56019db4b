//! Serving-layer differentials: the wire protocol, admission gate,
//! and cross-tenant result cache of `recdb-serve`, replayed against
//! direct in-process interpreter evaluation.
//!
//! Two rows:
//!
//! * **SERVE-DIFF** — seeded random programs and database slices are
//!   round-tripped through a live server (HTTP parse → admission →
//!   scheduled execution → JSON response) and the response must agree
//!   *byte-for-byte* with direct from-scratch `FinInterp`/`HsInterp`
//!   evaluation under the same budget: completed runs match on the
//!   rendered result, fuel exhaustion maps to 408, runtime errors to
//!   422, and analyzer rejections to 422 with `"status":"rejected"`.
//!   The server runs eligible loops semi-naively, which uses less
//!   fuel; when it completes a round the oracle ran out of fuel on,
//!   the oracle re-runs at `fuel_max` and must give the same result.
//!   Union-biased rounds and single-source reach rounds along random
//!   paths, appended after the original rounds, put eligible loops on
//!   the wire; the longer paths exercise that re-run. Any
//!   `"violation"` field in a response (a proved bound contradicted at
//!   runtime, or a cache hit failing its differential check) fails the
//!   row outright.
//! * **SERVE-CACHE-GENERIC** — the cache-soundness claim (DESIGN.md
//!   §9) made executable: for programs admitted with a proved
//!   `Generic {fixed}` verdict, submit `B` (filling the cache), then
//!   `π(B)` for a seeded random `π` fixing `fixed` pointwise. The
//!   second request must be served *from the cache* (same ≅-orbit ⇒
//!   same canonical key) and its answer must equal `π(q(B))`
//!   byte-for-byte — Def 2.5 commutation, through the wire, the
//!   canonicalizer, and the inverse transport.
//!
//! Both rows run with `verify_hits` on, so the server additionally
//! differentially checks every cache hit against fresh evaluation
//! while the ledger watches for the `cache-differential` violation.

use crate::gen::{self, ProgShape};
use crate::ledger::{CheckCtx, CheckDef};
use recdb_core::{Elem, FiniteStructure, Schema};
use recdb_hsdb::{unary_cells, CellSize};
use recdb_qlhs::{
    Backend, Budget, Dialect, ExecEnd, FinInterp, HsInterp, Permutation, Prog, Term, Val,
};
use recdb_serve::admit::{admit, Admission, AdmitLimits, AdmitOutcome, Plan};
use recdb_serve::exec::run_scheduled;
use recdb_serve::json::esc;
use recdb_serve::proto::result_json;
use recdb_serve::{post_once, Response, ServeConfig, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;

/// The serving rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "SERVE-DIFF",
            result: "§2/§4/§5 semantics through the serving layer",
            title: "server round-trips ≡ direct FinInterp/HsInterp evaluation",
            run: serve_diff,
        },
        CheckDef {
            id: "SERVE-CACHE-GENERIC",
            result: "Def 2.5 / cache soundness (DESIGN.md §9)",
            title: "cache-served answers commute with permutations fixing `fixed`",
            run: serve_cache_generic,
        },
    ]
}

/// Mirrors the server's default admission limits (the ledger computes
/// its expectations under the same budgets the server grants).
const LIMITS: AdmitLimits = AdmitLimits {
    fuel_default: 100_000,
    fuel_max: 10_000_000,
};

/// The fuel the differential rounds request explicitly — small enough
/// that some generated loops exhaust it, so the 408 path is exercised.
const ROUND_FUEL: u64 = 5_000;

fn start_server() -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: 2,
        verify_hits: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server bind failed: {e}"))
}

/// Serializes a finite structure as the wire's `db` object.
fn finite_db_json(st: &FiniteStructure) -> String {
    let universe: Vec<String> = st
        .universe()
        .iter()
        .map(|e| e.value().to_string())
        .collect();
    let mut rels = Vec::new();
    for i in 0..st.schema().len() {
        let tuples: Vec<String> = st
            .relation(i)
            .iter()
            .map(|t| {
                let parts: Vec<String> = t.elems().iter().map(|e| e.value().to_string()).collect();
                format!("[{}]", parts.join(","))
            })
            .collect();
        rels.push(format!(
            "{{\"arity\":{},\"tuples\":[{}]}}",
            st.schema().arities()[i],
            tuples.join(",")
        ));
    }
    format!(
        "{{\"kind\":\"finite\",\"universe\":[{}],\"relations\":[{}]}}",
        universe.join(","),
        rels.join(",")
    )
}

/// Serializes a unary-cells layout as the wire's `db` object.
fn cells_db_json(cells: &[CellSize]) -> String {
    let parts: Vec<String> = cells
        .iter()
        .map(|c| match c {
            CellSize::Infinite => "\"inf\"".to_string(),
            CellSize::Finite(vals) => {
                let vs: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
                format!("[{}]", vs.join(","))
            }
        })
        .collect();
    format!("{{\"kind\":\"cells\",\"cells\":[{}]}}", parts.join(","))
}

/// Runs an admitted program directly on the from-scratch path (the
/// oracle: semi-naive off), under exactly the budget the server would
/// grant it, or under `fuel` when given.
fn direct_run<B: Backend<V = Val>>(
    b: &mut B,
    dialect: Dialect,
    a: &Admission,
    fuel: Option<u64>,
) -> ExecEnd<Val> {
    b.set_seminaive(false);
    let (bounds, cap, granted) = match &a.plan {
        Plan::Exact { iterations, bounds } => (bounds.clone(), *iterations, LIMITS.fuel_max),
        Plan::Fueled { fuel } => (BTreeMap::new(), u64::MAX, *fuel),
    };
    let budget = Budget {
        bounds: &bounds,
        total_cap: cap,
        fuel: fuel.unwrap_or(granted),
        work_cap: None,
    };
    run_scheduled(b, dialect, &a.prog, &budget, &AtomicBool::new(false)).end
}

/// The oracle's outcome for one round, given the server's response.
/// The server's semi-naive loops use less fuel than the from-scratch
/// oracle, so a round that exhausts the oracle's fuel may complete on
/// the server. The oracle then re-runs at `fuel_max`, and the server's
/// answer must equal that run's byte for byte.
fn oracle(resp: &Response, run: impl Fn(Option<u64>) -> ExecEnd<Val>) -> ExecEnd<Val> {
    match run(None) {
        ExecEnd::OutOfFuel if resp.status == 200 => run(Some(LIMITS.fuel_max)),
        end => end,
    }
}

/// Compares one server response against the direct outcome. Returns
/// `Ok(true)` when the round byte-compared a completed result.
fn check_round(
    label: &str,
    resp: &Response,
    direct: Option<&ExecEnd<Val>>,
) -> Result<bool, String> {
    if resp.body.contains("\"violation\"") {
        return Err(format!(
            "{label}: soundness violation reported: {}",
            resp.body
        ));
    }
    match direct {
        None => {
            // Locally rejected at admission.
            if resp.status != 422 || !resp.body.contains("\"status\":\"rejected\"") {
                return Err(format!(
                    "{label}: admission divergence: expected a 422 rejection, got {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(false)
        }
        Some(ExecEnd::Done(v)) => {
            let want = format!("\"result\":{}", result_json(v));
            if resp.status != 200 || !resp.body.contains(&want) {
                return Err(format!(
                    "{label}: result divergence: direct gave {want}, server {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(true)
        }
        Some(ExecEnd::OutOfFuel) => {
            if resp.status != 408 || !resp.body.contains("fuel-exhausted") {
                return Err(format!(
                    "{label}: direct run exhausted fuel but server answered {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(false)
        }
        Some(ExecEnd::Errored(e)) => {
            if resp.status != 422 || !resp.body.contains("\"status\":\"error\"") {
                return Err(format!(
                    "{label}: direct run errored ({e}) but server answered {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(false)
        }
        Some(other) => Err(format!(
            "{label}: direct replay of an admitted program ended abnormally: {other:?}"
        )),
    }
}

fn serve_diff(ctx: &mut CheckCtx) -> Result<(), String> {
    let server = start_server()?;
    let addr = server.addr();
    let mut compared = 0usize;
    // Finite backend: random graphs under QL; then homogeneous-set
    // backend: random unary-cell layouts under QLhs. The union-biased
    // rounds come last, so the earlier rounds' draws are unchanged;
    // they put semi-naive-eligible loops on the wire.
    for round in 0..40 {
        compared += usize::from(fin_round(ctx, addr, &format!("fin round {round}"), false)?);
    }
    for round in 0..30 {
        compared += usize::from(hs_round(ctx, addr, &format!("hs round {round}"), false)?);
    }
    for round in 0..40 {
        compared += usize::from(fin_round(ctx, addr, &format!("fin∪ round {round}"), true)?);
    }
    for round in 0..30 {
        compared += usize::from(hs_round(ctx, addr, &format!("hs∪ round {round}"), true)?);
    }
    for round in 0..16 {
        compared += usize::from(reach_round(ctx, addr, &format!("reach round {round}"))?);
    }
    if compared < 10 {
        return Err(format!(
            "only {compared} rounds byte-compared a completed result (wanted ≥ 10); \
             the generator mix has degenerated"
        ));
    }
    Ok(())
}

/// One SERVE-DIFF round on a random graph under QL; `Ok(true)` when it
/// byte-compared a completed result.
fn fin_round(
    ctx: &mut CheckCtx,
    addr: SocketAddr,
    label: &str,
    union_bias: bool,
) -> Result<bool, String> {
    let shape = ProgShape {
        rels: 1,
        vars: 3,
        allow_singleton: false,
        allow_finite: false,
        consts: 4,
        union_bias,
    };
    ctx.family("random-finite-graph");
    let st = gen::random_finite_graph(ctx.rng(), 6);
    let src = gen::random_prog(ctx.rng(), 2, 3, &shape).to_string();
    let body = format!(
        "{{\"program\":\"{}\",\"db\":{},\"fuel\":{ROUND_FUEL}}}",
        esc(&src),
        finite_db_json(&st)
    );
    let resp = round_trip(addr, &body, label)?;
    let direct = match admit(&src, st.schema(), Dialect::Ql, Some(ROUND_FUEL), &LIMITS) {
        AdmitOutcome::Admitted(a) => Some(oracle(&resp, |fuel| {
            direct_run(&mut FinInterp::new(&st), Dialect::Ql, &a, fuel)
        })),
        AdmitOutcome::Rejected { .. } => None,
    };
    check_round(
        &format!("{label} [{}]", compact(&src)),
        &resp,
        direct.as_ref(),
    )
}

/// One SERVE-DIFF round of single-source reach along a randomly
/// labelled path of 4–27 nodes: the loop shape the server runs
/// semi-naively. On the longer paths the from-scratch oracle exhausts
/// `ROUND_FUEL` where the server completes.
fn reach_round(ctx: &mut CheckCtx, addr: SocketAddr, label: &str) -> Result<bool, String> {
    ctx.family("random-path");
    let n = 4 + ctx.rng().gen_range(0, 24);
    let perm = Permutation::random(ctx.rng(), n);
    let node = |i: u64| perm.apply(Elem(i)).value();
    let edges = (0..n - 1).map(|i| (node(i), node(i + 1)));
    let st = FiniteStructure::undirected_graph(0..n, edges);
    let (s, t) = (node(0), node(n - 1));
    let union = |v: usize, x: Term| Prog::assign(v, Term::Var(v).union(x));
    let prog = Prog::seq([
        Prog::assign(1, Term::Const(s)),
        Prog::assign(2, Term::Const(s).and(Term::Const(t))),
        Prog::WhileEmpty(
            2,
            Box::new(Prog::seq([
                union(1, Term::Var(1).up().and(Term::Rel(0)).down()),
                union(2, Term::Var(1).and(Term::Const(t))),
            ])),
        ),
        Prog::assign(0, Term::Var(1)),
    ]);
    let src = prog.to_string().replace('\n', " ");
    let body = format!(
        "{{\"program\":\"{}\",\"db\":{},\"fuel\":{ROUND_FUEL}}}",
        esc(src.trim()),
        finite_db_json(&st)
    );
    let resp = round_trip(addr, &body, label)?;
    let direct = match admit(&src, st.schema(), Dialect::Ql, Some(ROUND_FUEL), &LIMITS) {
        AdmitOutcome::Admitted(a) => Some(oracle(&resp, |fuel| {
            direct_run(&mut FinInterp::new(&st), Dialect::Ql, &a, fuel)
        })),
        AdmitOutcome::Rejected { .. } => None,
    };
    check_round(&format!("{label} [n={n}]"), &resp, direct.as_ref())
}

/// One SERVE-DIFF round on a random unary-cells layout under QLhs.
fn hs_round(
    ctx: &mut CheckCtx,
    addr: SocketAddr,
    label: &str,
    union_bias: bool,
) -> Result<bool, String> {
    ctx.family("unary-cells");
    let cells = random_cells(ctx);
    let shape = ProgShape {
        rels: cells.len(),
        vars: 3,
        allow_singleton: true,
        allow_finite: false,
        consts: 4,
        union_bias,
    };
    let src = gen::random_prog(ctx.rng(), 2, 3, &shape).to_string();
    let body = format!(
        "{{\"program\":\"{}\",\"db\":{},\"fuel\":{ROUND_FUEL}}}",
        esc(&src),
        cells_db_json(&cells)
    );
    let resp = round_trip(addr, &body, label)?;
    let schema = Schema::new(vec![1usize; cells.len()]);
    let direct = match admit(&src, &schema, Dialect::Qlhs, Some(ROUND_FUEL), &LIMITS) {
        AdmitOutcome::Admitted(a) => {
            let hs = unary_cells(cells.clone());
            Some(oracle(&resp, |fuel| {
                direct_run(&mut HsInterp::new(&hs), Dialect::Qlhs, &a, fuel)
            }))
        }
        AdmitOutcome::Rejected { .. } => None,
    };
    check_round(
        &format!("{label} [{}]", compact(&src)),
        &resp,
        direct.as_ref(),
    )
}

fn serve_cache_generic(ctx: &mut CheckCtx) -> Result<(), String> {
    let server = start_server()?;
    let addr = server.addr();
    let shape = ProgShape {
        rels: 1,
        vars: 2,
        allow_singleton: false,
        allow_finite: false,
        consts: 4,
        union_bias: false,
    };
    let mut verified = 0usize;
    for round in 0..120 {
        if verified >= 12 {
            break;
        }
        ctx.family("random-finite-graph");
        let st = gen::random_finite_graph(ctx.rng(), 5);
        // Straight-line programs: always proved terminating, so
        // cacheability turns purely on the genericity verdict.
        let src = gen::random_prog(ctx.rng(), 0, 2, &shape).to_string();
        let a = match admit(&src, st.schema(), Dialect::Ql, None, &LIMITS) {
            AdmitOutcome::Admitted(a) => a,
            AdmitOutcome::Rejected { .. } => continue,
        };
        let Some(fixed) = a.cache_fixed.clone() else {
            continue;
        };
        let ExecEnd::Done(q_of_b) = direct_run(&mut FinInterp::new(&st), Dialect::Ql, &a, None)
        else {
            continue;
        };

        // Leg 1: submit B; the response must match direct evaluation
        // (and fill — or already hold — this orbit's cache entry).
        let label = format!("cache round {round} [{}]", compact(&src));
        let body = format!(
            "{{\"program\":\"{}\",\"db\":{}}}",
            esc(&src),
            finite_db_json(&st)
        );
        let fill = round_trip(addr, &body, &label)?;
        check_round(&label, &fill, Some(&ExecEnd::Done(q_of_b.clone())))?;

        // Leg 2: submit π(B), π fixing `fixed` pointwise. Same
        // ≅-orbit ⇒ a cache hit, and the served answer must be
        // exactly π(q(B)).
        let perm = Permutation::random_fixing(ctx.rng(), gen::WINDOW, &fixed);
        let pst = FiniteStructure::new(
            st.schema().clone(),
            st.universe().iter().map(|&e| perm.apply(e)),
            (0..st.schema().len())
                .map(|i| st.relation(i).iter().map(|t| perm.apply_tuple(t)).collect())
                .collect(),
        );
        let pbody = format!(
            "{{\"program\":\"{}\",\"db\":{}}}",
            esc(&src),
            finite_db_json(&pst)
        );
        let hit = round_trip(addr, &pbody, &label)?;
        if hit.body.contains("\"violation\"") {
            return Err(format!(
                "{label}: π(B) leg: violation reported: {}",
                hit.body
            ));
        }
        if hit.status != 200 || !hit.body.contains("\"cache\":\"hit\"") {
            return Err(format!(
                "{label}: π(B) is in B's orbit but was not cache-served: {} {}",
                hit.status, hit.body
            ));
        }
        let transported = Val {
            rank: q_of_b.rank,
            tuples: q_of_b.tuples.iter().map(|t| perm.apply_tuple(t)).collect(),
        };
        let want = format!("\"result\":{}", result_json(&transported));
        if !hit.body.contains(&want) {
            return Err(format!(
                "{label}: cache-served answer does not commute: wanted {want}, got {}",
                hit.body
            ));
        }
        verified += 1;
    }
    if verified < 12 {
        return Err(format!(
            "only {verified} cacheable rounds in 120 attempts (wanted ≥ 12); \
             the generator mix has degenerated"
        ));
    }
    Ok(())
}

fn round_trip(addr: SocketAddr, body: &str, label: &str) -> Result<Response, String> {
    post_once(addr, "/v1/query", body).map_err(|e| format!("{label}: transport failure: {e}"))
}

/// A random disjoint unary-cells layout: 1–3 cells, each infinite or a
/// subset of its own 4-element window.
fn random_cells(ctx: &mut CheckCtx) -> Vec<CellSize> {
    let ncells = 1 + ctx.rng().gen_usize(3);
    (0..ncells)
        .map(|i| {
            if ctx.rng().gen_usize(3) == 0 {
                CellSize::Infinite
            } else {
                let base = (i as u64) * 4;
                CellSize::Finite((base..base + 4).filter(|_| ctx.rng().gen_bool()).collect())
            }
        })
        .collect()
}

/// One-line program text for failure messages.
fn compact(src: &str) -> String {
    src.split_whitespace().collect::<Vec<_>>().join(" ")
}
