//! The traced in-process replay: every recorded wire request runs
//! again through the serve crate's public layer functions, with a span
//! around each call. Each replayed response body must equal the one the
//! server sent.
//!
//! The glue between the layers (routing, cache keys, budgets, response
//! shapes) mirrors `recdb_serve::server`, which keeps it private. The
//! byte-for-byte comparison with the wire response keeps the answers
//! honest, but it cannot see the order of the steps or which engine
//! ran. So the replay reports only the layers the server has no span
//! for (HTTP framing, JSON and protocol decoding, response encoding,
//! the RA frontend, canonicalization) and the execution work count; the
//! admission, VM, execution and HS figures come from the server's own
//! recorder data (see `serve.rs`).

use crate::trace::SpanLog;
use crate::wire::CacheLabel;
use recdb_analyze::CostEnv;
use recdb_core::{Elem, FiniteStructure, Fuel, Schema};
use recdb_hsdb::HsDatabase;
use recdb_qlhs::{Dialect, FcfInterp, FcfVal, FinInterp, HsInterp, Permutation, Prog, Val};
use recdb_serve::admit::{admit, Admission, AdmitLimits, AdmitOutcome, Plan};
use recdb_serve::cache::{canonicalize_finite, CachedResult, ResultCache};
use recdb_serve::exec::{run_scheduled, Budget, ExecEnd, ExecResult, GuardEval};
use recdb_serve::http::{read_request, write_response, ReadOutcome};
use recdb_serve::json::{esc, parse};
use recdb_serve::proto::{build_hs, fcf_result_json, result_json, DbSpec, QueryRequest, RaRequest};
use recdb_serve::ServeConfig;
use recdb_vm::{compile, exec_scheduled, verify, LowerOpts, VmBackend, VmBudget, VmEnd};
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-layer samples and counts gathered by the replay.
#[derive(Default)]
pub struct Layers {
    /// Requests replayed.
    pub ops: u64,
    /// Replayed bodies (or statuses) that differ from the wire.
    pub mismatches: u64,
    /// `http::read_request`, µs.
    pub http_read_us: Vec<f64>,
    /// `http::write_response`, µs.
    pub http_write_us: Vec<f64>,
    /// `json::parse` + `QueryRequest`/`RaRequest::decode`, µs.
    pub decode_us: Vec<f64>,
    /// `result_json` + response shaping, µs.
    pub encode_us: Vec<f64>,
    /// Request body size, bytes.
    pub body_bytes: Vec<f64>,
    /// The `recdb_ra` pipeline (schema, parse, typecheck, validate,
    /// optimize, compile), µs.
    pub ra_compile_us: Vec<f64>,
    /// `canonicalize_finite`, µs.
    pub canon_us: Vec<f64>,
    /// Materialized tuples per execution (the `work` count
    /// `run_scheduled` / `exec_scheduled` return).
    pub work: Vec<f64>,
    /// Per request id: a library semi-naive `FinInterp` run on the
    /// input of each finite request that completed.
    pub lib: HashMap<u64, Duration>,
}

/// A finite request's admitted program and structure, for the library
/// comparison.
struct LibJob {
    prog: Prog,
    st: FiniteStructure,
}

/// State shared by the replayed layers.
struct Ctx<'l> {
    log: &'l mut SpanLog,
    cfg: ServeConfig,
    cache: ResultCache,
    preempt: AtomicBool,
    s: Layers,
}

/// The replaying server.
pub struct Replay<'l> {
    cx: Ctx<'l>,
    /// One interpreter per HS database, kept for the whole replay. Only
    /// answers and spans come from it: the cold/warm figures are the
    /// server's own.
    hs: HashMap<String, HsInterp<'static>>,
}

/// How the cache takes part in one request (the server's `CacheMode`).
enum Mode<'a> {
    Off,
    Bypass,
    Keyed {
        key: String,
        transport: Option<&'a Permutation>,
    },
}

impl Mode<'_> {
    fn label(&self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Bypass => "bypass",
            Mode::Keyed { .. } => "miss",
        }
    }
}

/// Per-request facts threaded into the execution path.
struct ReqCtx {
    req: u64,
    parent: u64,
    /// The server answered this request from its cache.
    wire_hit: bool,
}

impl<'l> Replay<'l> {
    /// A replaying server with the benchmark's `ServeConfig`.
    pub fn new(log: &'l mut SpanLog, cfg: ServeConfig) -> Self {
        let shards = cfg.workers.max(1) * 4;
        Replay {
            cx: Ctx {
                log,
                cfg,
                cache: ResultCache::new(shards),
                preempt: AtomicBool::new(false),
                s: Layers::default(),
            },
            hs: HashMap::new(),
        }
    }

    /// The gathered samples.
    pub fn finish(self) -> Layers {
        self.cx.s
    }

    /// Replays one wire exchange; `true` when the replayed status and
    /// body equal the wire's.
    pub fn replay(&mut self, req: u64, raw: &[u8], wire_status: u16, wire_body: &str) -> bool {
        self.cx.s.ops += 1;
        let root = self.cx.log.begin(req, 0, "replay.request");
        let rid = root.id();
        let (max_head, max_body) = (self.cx.cfg.max_head, self.cx.cfg.max_body);
        let (parsed, d) = self.cx.log.time(req, rid, "http.read_request", || {
            read_request(&mut BufReader::new(raw), max_head, max_body)
        });
        self.cx.s.http_read_us.push(us(d));
        let Ok(ReadOutcome::Request(http)) = parsed else {
            self.cx.log.end(root);
            self.cx.s.mismatches += 1;
            return false;
        };
        let rc = ReqCtx {
            req,
            parent: rid,
            wire_hit: CacheLabel::of(wire_body) == CacheLabel::Hit,
        };
        self.cx.s.body_bytes.push(http.body.len() as f64);
        let ((status, body), lib) = match http.path.as_str() {
            "/v1/query" => self.query(&rc, &http.body),
            "/v1/ra" => self.ra(&rc, &http.body),
            _ => ((404, String::new()), None),
        };
        let mut out = Vec::new();
        let (_, d) = self.cx.log.time(req, rid, "http.write_response", || {
            write_response(&mut out, status, &body, true)
        });
        self.cx.s.http_write_us.push(us(d));
        self.cx.log.end(root);
        if let Some(job) = lib {
            // Outside the request span: the library's semi-naive
            // engine on the same structure and program.
            let open = self.cx.log.begin(req, 0, "lib.seminaive");
            let mut interp = FinInterp::new(&job.st);
            interp.set_seminaive(true);
            let done = interp
                .run(&job.prog, &mut Fuel::new(self.cx.cfg.fuel_max))
                .is_ok();
            let d = self.cx.log.end(open);
            if done {
                self.cx.s.lib.insert(req, d);
            }
        }
        let same = status == wire_status && body == wire_body;
        if !same {
            self.cx.s.mismatches += 1;
        }
        same
    }

    fn query(&mut self, rc: &ReqCtx, body: &[u8]) -> ((u16, String), Option<LibJob>) {
        let (decoded, d) = self.cx.log.time(rc.req, rc.parent, "proto.decode", || {
            let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
            let json =
                parse(text).map_err(|e| format!("invalid JSON at byte {}: {}", e.at, e.msg))?;
            QueryRequest::decode(&json).map_err(|e| e.0)
        });
        self.cx.s.decode_us.push(us(d));
        match decoded {
            Ok(q) => self.execute(rc, &q),
            Err(msg) => (bad_request(&msg), None),
        }
    }

    fn ra(&mut self, rc: &ReqCtx, body: &[u8]) -> ((u16, String), Option<LibJob>) {
        let (decoded, d) = self.cx.log.time(rc.req, rc.parent, "proto.decode", || {
            let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
            let json =
                parse(text).map_err(|e| format!("invalid JSON at byte {}: {}", e.at, e.msg))?;
            RaRequest::decode(&json).map_err(|e| e.0)
        });
        self.cx.s.decode_us.push(us(d));
        let req = match decoded {
            Ok(r) => r,
            Err(msg) => return (bad_request(&msg), None),
        };
        let (compiled, d) = self
            .cx
            .log
            .time(rc.req, rc.parent, "ra.compile", || ra_pipeline(&req));
        self.cx.s.ra_compile_us.push(us(d));
        let compiled = match compiled {
            Ok(c) => c,
            Err(resp) => return (resp, None),
        };
        let q = QueryRequest {
            tenant: req.tenant.clone(),
            program: compiled.prog.to_string(),
            db: DbSpec::Finite(req.db),
            fuel: req.fuel,
            no_cache: req.no_cache,
        };
        let ((status, body), lib) = self.execute(rc, &q);
        if status == 200 {
            let attrs: Vec<String> = compiled
                .attrs
                .iter()
                .map(|a| format!("\"{}\"", esc(a)))
                .collect();
            (
                (
                    200,
                    format!("{{\"attrs\":[{}],{}", attrs.join(","), &body[1..]),
                ),
                lib,
            )
        } else {
            ((status, body), lib)
        }
    }

    fn execute(&mut self, rc: &ReqCtx, q: &QueryRequest) -> ((u16, String), Option<LibJob>) {
        let cx = &mut self.cx;
        let dialect = q.db.dialect();
        let schema = match q.db.schema() {
            Ok(s) => s,
            Err(e) => return (bad_request(&e.0), None),
        };
        let limits = AdmitLimits {
            fuel_default: cx.cfg.fuel_default,
            fuel_max: cx.cfg.fuel_max,
        };
        let (admission, _) = cx.log.time(rc.req, rc.parent, "admit", || {
            admit(&q.program, &schema, dialect, q.fuel, &limits)
        });
        let adm = match admission {
            AdmitOutcome::Admitted(a) => a,
            AdmitOutcome::Rejected {
                reasons,
                diagnostics_json,
            } => {
                let tags: Vec<String> = reasons.iter().map(|r| format!("\"{r}\"")).collect();
                return (
                    (
                        422,
                        format!(
                            "{{\"diagnostics\":{diagnostics_json},\"reasons\":[{}],\"status\":\"rejected\"}}",
                            tags.join(",")
                        ),
                    ),
                    None,
                );
            }
        };
        let caching = cx.cfg.cache && !q.no_cache;
        let canon = match (&adm.cache_fixed, &q.db) {
            (Some(fixed), DbSpec::Finite(st)) if caching => {
                let (c, d) = cx.log.time(rc.req, rc.parent, "cache.canonicalize", || {
                    canonicalize_finite(st, fixed)
                });
                cx.s.canon_us.push(us(d));
                Some(c)
            }
            _ => None,
        };
        let mode = match (&adm.cache_fixed, &q.db) {
            _ if !caching => Mode::Off,
            (None, _) => Mode::Off,
            (Some(_), DbSpec::Finite(_)) => match &canon {
                Some(Some(c)) => Mode::Keyed {
                    key: cache_key(dialect, &adm, &c.key),
                    transport: Some(&c.to_canon),
                },
                _ => Mode::Bypass,
            },
            (Some(_), db) => Mode::Keyed {
                key: cache_key(dialect, &adm, &db.descriptor()),
                transport: None,
            },
        };
        let work_cap = predicted_work(&adm, &q.db);
        let ex = Exec {
            dialect,
            adm: &adm,
            schema: &schema,
            mode: &mode,
            work_cap,
        };
        match &q.db {
            DbSpec::Finite(st) => {
                let mut interp = FinInterp::new(st);
                interp.set_seminaive(true);
                let (resp, executed) = serve_rel(cx, rc, &mut interp, &ex);
                let lib = executed.then(|| LibJob {
                    prog: adm.prog.clone(),
                    st: st.clone(),
                });
                (resp, lib)
            }
            DbSpec::Family(_) | DbSpec::Cells(_) => {
                let descr = q.db.descriptor();
                if !self.hs.contains_key(&descr) {
                    let Some(hs) = build_hs(&q.db) else {
                        return (internal("family resolution failed after admission"), None);
                    };
                    let leaked: &'static HsDatabase = Box::leak(Box::new(hs));
                    let mut interp = HsInterp::new(leaked);
                    interp.set_seminaive(true);
                    self.hs.insert(descr.clone(), interp);
                }
                match self.hs.get_mut(&descr) {
                    Some(interp) => (serve_rel(cx, rc, interp, &ex).0, None),
                    None => (internal("replay interpreter missing"), None),
                }
            }
            DbSpec::Fcf(db) => {
                let mut interp = FcfInterp::new(db);
                interp.set_seminaive(true);
                (serve_fcf(cx, rc, &mut interp, &ex), None)
            }
        }
    }
}

/// What every execution of one admitted request shares.
struct Exec<'a> {
    dialect: Dialect,
    adm: &'a Admission,
    schema: &'a Schema,
    mode: &'a Mode<'a>,
    work_cap: Option<u64>,
}

/// The `/v1/ra` front end: typecheck, validate, optimize, compile.
/// The compiled query, or the server's rejection response.
fn ra_pipeline(req: &RaRequest) -> Result<recdb_ra::CompiledRa, (u16, String)> {
    let schema = recdb_ra::RaSchema::parse(&req.schema)
        .map_err(|e| bad_request(&format!("bad schema: {e}")))?;
    let want: Vec<usize> = (0..schema.rels().len())
        .map(|i| schema.attrs(i).len())
        .collect();
    let got: Vec<usize> = (0..req.db.schema().len())
        .map(|i| req.db.schema().arity(i))
        .collect();
    if want != got {
        return Err(bad_request(&format!(
            "schema/slice arity mismatch: schema {want:?}, slice {got:?}"
        )));
    }
    let (prog, spans) = recdb_ra::parse_ra_with_spans(&req.query).map_err(|e| {
        let (line, col) = recdb_qlhs::Span {
            start: e.at,
            end: e.at + 1,
        }
        .line_col(&req.query);
        (
            422,
            format!(
                "{{\"diagnostics\":[{{\"code\":\"PARSE\",\"severity\":\"error\",\
                 \"message\":\"{}\",\"line\":{line},\"col\":{col}}}],\
                 \"reasons\":[\"parse-error\"],\"status\":\"rejected\"}}",
                esc(&e.msg)
            ),
        )
    })?;
    recdb_ra::typecheck(&prog, &schema)
        .and_then(|_| recdb_ra::validate(&prog, &schema))
        .and_then(|()| recdb_ra::optimize_program(&prog, &schema))
        .and_then(|opt| recdb_ra::compile_program(&opt.program, &schema))
        .map_err(|e| {
            let mut d = format!(
                "{{\"code\":\"{}\",\"severity\":\"error\",\"message\":\"{}\"",
                e.code,
                esc(&e.message)
            );
            if let Some(span) = spans.enclosing(&e.path) {
                let (line, col) = span.line_col(&req.query);
                d.push_str(&format!(",\"line\":{line},\"col\":{col}"));
            }
            d.push('}');
            let reason = if e.code == "RA05" {
                "ra-unsafe"
            } else {
                "ra-type"
            };
            (
                422,
                format!(
                    "{{\"diagnostics\":[{d}],\"reasons\":[\"{reason}\"],\"status\":\"rejected\"}}"
                ),
            )
        })
}

fn bad_request(msg: &str) -> (u16, String) {
    (
        400,
        format!("{{\"error\":\"{}\",\"status\":\"error\"}}", esc(msg)),
    )
}

fn internal(msg: &str) -> (u16, String) {
    (
        500,
        format!("{{\"error\":\"{}\",\"status\":\"error\"}}", esc(msg)),
    )
}

fn ok_body(cache: &str, iterations: u64, mode: &str, result: &str) -> String {
    format!(
        "{{\"cache\":\"{cache}\",\"iterations\":{iterations},\"mode\":\"{mode}\",\"result\":{result},\"status\":\"ok\"}}"
    )
}

fn cache_key(dialect: Dialect, adm: &Admission, db_key: &str) -> String {
    let fixed: Vec<String> = adm
        .cache_fixed
        .iter()
        .flatten()
        .map(|c| c.to_string())
        .collect();
    format!(
        "{}|{}|f{}|{}",
        dialect.name(),
        adm.prog,
        fixed.join(","),
        db_key
    )
}

fn predicted_work(adm: &Admission, db: &DbSpec) -> Option<u64> {
    let work = adm.analysis.cost.work()?;
    let env = match db {
        DbSpec::Finite(st) => CostEnv::new(
            st.universe().len() as u64,
            (0..st.schema().len())
                .map(|i| st.relation(i).len() as u64)
                .collect(),
        ),
        DbSpec::Fcf(fcf) => CostEnv::new(
            fcf.df().len() as u64,
            fcf.relations()
                .iter()
                .map(|r| r.finite_part().len() as u64)
                .collect(),
        ),
        DbSpec::Family(_) | DbSpec::Cells(_) => return None,
    };
    Some(work.eval(&env))
}

fn budget_for<'a>(plan: &'a Plan, fuel_max: u64, work_cap: Option<u64>) -> Budget<'a> {
    static NO_BOUNDS: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    match plan {
        Plan::Exact { iterations, bounds } => Budget {
            bounds,
            total_cap: *iterations,
            fuel: fuel_max,
            work_cap,
        },
        Plan::Fueled { fuel } => Budget {
            bounds: &NO_BOUNDS,
            total_cap: u64::MAX,
            fuel: *fuel,
            work_cap,
        },
    }
}

/// One execution: VM compile+verify, then the VM when the verifier
/// accepts, `run_scheduled` otherwise.
fn run_admitted<B>(
    cx: &mut Ctx<'_>,
    rc: &ReqCtx,
    b: &mut B,
    ex: &Exec<'_>,
) -> ExecResult<<B as GuardEval>::V>
where
    B: GuardEval + VmBackend<V = <B as GuardEval>::V>,
{
    let adm = ex.adm;
    let vm = if cx.cfg.vm {
        cx.log
            .time(rc.req, rc.parent, "vm.compile_verify", || {
                compile(
                    &adm.prog,
                    ex.schema,
                    ex.dialect,
                    &adm.analysis.termination,
                    &LowerOpts::default(),
                )
                .ok()
                .filter(|vm| {
                    verify(
                        vm,
                        &adm.prog,
                        ex.schema,
                        ex.dialect,
                        &adm.analysis.termination,
                        Some(&adm.analysis.cost.verdict),
                    )
                    .is_ok()
                })
            })
            .0
    } else {
        None
    };
    let budget = budget_for(&adm.plan, cx.cfg.fuel_max, ex.work_cap);
    let preempt = &cx.preempt;
    let (r, _) = match &vm {
        None => cx.log.time(rc.req, rc.parent, "exec.run_scheduled", || {
            run_scheduled(b, ex.dialect, &adm.prog, &budget, preempt)
        }),
        Some(prog) => cx.log.time(rc.req, rc.parent, "vm.exec_scheduled", || {
            let vb = VmBudget {
                bounds: budget.bounds,
                total_cap: budget.total_cap,
                fuel: budget.fuel,
                work_cap: budget.work_cap,
            };
            let r = exec_scheduled(b, prog, &vb, preempt);
            let end = match r.end {
                VmEnd::Done(v) => ExecEnd::Done(v),
                VmEnd::Errored(e) => ExecEnd::Errored(e),
                VmEnd::OutOfFuel => ExecEnd::OutOfFuel,
                VmEnd::Preempted => ExecEnd::Preempted,
                VmEnd::BoundExceeded { path, bound } => ExecEnd::BoundExceeded { path, bound },
                VmEnd::TotalExceeded { cap } => ExecEnd::TotalExceeded { cap },
                VmEnd::WorkExceeded { cap } => ExecEnd::WorkExceeded { cap },
            };
            ExecResult {
                end,
                iterations: r.iterations,
                work: r.work,
            }
        }),
    };
    cx.s.work.push(r.work as f64);
    r
}

fn transport_val(v: &Val, p: &Permutation, forward: bool) -> Val {
    Val {
        rank: v.rank,
        tuples: v
            .tuples
            .iter()
            .map(|t| t.map(|e: Elem| if forward { p.apply(e) } else { p.apply_inv(e) }))
            .collect(),
    }
}

/// The cache entry under `key`, for a request the server answered from
/// its cache. If the entry was filled before the traced phase, the
/// replay fills it first, in an untimed `replay.fill` span.
fn wire_hit_entry<B: GuardEval>(
    cx: &mut Ctx<'_>,
    rc: &ReqCtx,
    b: &mut B,
    ex: &Exec<'_>,
    key: &str,
    fill: impl FnOnce(<B as GuardEval>::V) -> CachedResult,
) -> Option<std::sync::Arc<CachedResult>> {
    let cache = &cx.cache;
    let (entry, _) = cx
        .log
        .time(rc.req, rc.parent, "cache.lookup", || cache.get(key));
    if entry.is_some() {
        return entry;
    }
    let open = cx.log.begin(rc.req, rc.parent, "replay.fill");
    let budget = budget_for(&ex.adm.plan, cx.cfg.fuel_max, ex.work_cap);
    let r = run_scheduled(b, ex.dialect, &ex.adm.prog, &budget, &cx.preempt);
    cx.log.end(open);
    if let ExecEnd::Done(v) = r.end {
        cx.cache.put(key, fill(v));
    }
    cx.cache.get(key)
}

/// Cache participation, execution and rendering for relation-valued
/// backends; also says whether the request executed to completion. A
/// request the server answered from its cache is answered from the
/// replay's cache. A request the server executed is executed here too,
/// even where a concurrent fill would let the sequential replay hit.
fn serve_rel<B: GuardEval<V = Val> + VmBackend<V = Val>>(
    cx: &mut Ctx<'_>,
    rc: &ReqCtx,
    b: &mut B,
    ex: &Exec<'_>,
) -> ((u16, String), bool) {
    if let (Mode::Keyed { key, transport }, true) = (ex.mode, rc.wire_hit) {
        let entry = wire_hit_entry(cx, rc, b, ex, key, |v| {
            CachedResult::Rel(match transport {
                Some(p) => transport_val(&v, p, true),
                None => v,
            })
        });
        if let Some(CachedResult::Rel(qk)) = entry.as_deref() {
            let (body, d) = cx.log.time(rc.req, rc.parent, "proto.encode", || {
                let answer = match transport {
                    Some(p) => transport_val(qk, p, false),
                    None => qk.clone(),
                };
                ok_body("hit", 0, ex.adm.plan.mode(), &result_json(&answer))
            });
            cx.s.encode_us.push(us(d));
            return ((200, body), false);
        }
    }
    let r = run_admitted(cx, rc, b, ex);
    match r.end {
        ExecEnd::Done(v) => {
            let (body, e) = cx.log.time(rc.req, rc.parent, "proto.encode", || {
                ok_body(
                    ex.mode.label(),
                    r.iterations,
                    ex.adm.plan.mode(),
                    &result_json(&v),
                )
            });
            cx.s.encode_us.push(us(e));
            if let Mode::Keyed { key, transport } = ex.mode {
                let canonical = match transport {
                    Some(p) => transport_val(&v, p, true),
                    None => v,
                };
                cx.cache.put(key, CachedResult::Rel(canonical));
            }
            ((200, body), true)
        }
        end => (error_response(&end, r.iterations, &ex.adm.plan), false),
    }
}

/// The fcf twin of [`serve_rel`] (descriptor-keyed, identity
/// transport).
fn serve_fcf(cx: &mut Ctx<'_>, rc: &ReqCtx, b: &mut FcfInterp<'_>, ex: &Exec<'_>) -> (u16, String) {
    if let (Mode::Keyed { key, .. }, true) = (ex.mode, rc.wire_hit) {
        let entry = wire_hit_entry(cx, rc, b, ex, key, CachedResult::Fcf);
        if let Some(CachedResult::Fcf(qk)) = entry.as_deref() {
            let (body, d) = cx.log.time(rc.req, rc.parent, "proto.encode", || {
                ok_body("hit", 0, ex.adm.plan.mode(), &fcf_result_json(qk))
            });
            cx.s.encode_us.push(us(d));
            return (200, body);
        }
    }
    let r = run_admitted(cx, rc, b, ex);
    match r.end {
        ExecEnd::Done(v) => {
            let (body, e) = cx.log.time(rc.req, rc.parent, "proto.encode", || {
                ok_body(
                    ex.mode.label(),
                    r.iterations,
                    ex.adm.plan.mode(),
                    &fcf_result_json(&v),
                )
            });
            cx.s.encode_us.push(us(e));
            if let Mode::Keyed { key, .. } = ex.mode {
                cx.cache.put(key, CachedResult::Fcf(v));
            }
            (200, body)
        }
        end => error_response::<FcfVal>(&end, r.iterations, &ex.adm.plan),
    }
}

fn error_response<V>(end: &ExecEnd<V>, iterations: u64, plan: &Plan) -> (u16, String) {
    match end {
        ExecEnd::Done(_) => internal("unreachable: Done in error path"),
        ExecEnd::OutOfFuel => {
            let fuel = match plan {
                Plan::Fueled { fuel } => *fuel,
                Plan::Exact { .. } => 0,
            };
            (
                408,
                format!(
                    "{{\"fuel\":{fuel},\"iterations\":{iterations},\"reason\":\"fuel-exhausted\",\"status\":\"preempted\"}}"
                ),
            )
        }
        ExecEnd::Preempted => (
            408,
            format!(
                "{{\"iterations\":{iterations},\"reason\":\"shutdown\",\"status\":\"preempted\"}}"
            ),
        ),
        ExecEnd::Errored(e) => (
            422,
            format!(
                "{{\"error\":\"{}\",\"status\":\"error\"}}",
                esc(&e.to_string())
            ),
        ),
        ExecEnd::BoundExceeded { path, bound } => {
            let path_s: Vec<String> = path.iter().map(|p| p.to_string()).collect();
            (
                500,
                format!(
                    "{{\"bound\":{bound},\"error\":\"proved loop bound exceeded at path [{}]\",\
                     \"status\":\"error\",\"violation\":\"bound-exceeded\"}}",
                    path_s.join(",")
                ),
            )
        }
        ExecEnd::TotalExceeded { cap } => (
            500,
            format!(
                "{{\"cap\":{cap},\"error\":\"proved whole-program budget exceeded\",\
                 \"status\":\"error\",\"violation\":\"total-exceeded\"}}"
            ),
        ),
        ExecEnd::WorkExceeded { cap } => (
            500,
            format!(
                "{{\"cap\":{cap},\"error\":\"predicted work bound exceeded\",\
                 \"status\":\"error\",\"violation\":\"work-exceeded\"}}"
            ),
        ),
    }
}
