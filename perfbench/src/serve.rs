//! The three serve workloads: an in-process `recdb_serve::Server` with
//! two workers, driven in a closed loop by two client threads.

use crate::replay::{Layers, Replay};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::trace::{Served, SpanLog, Tee};
use crate::wire::{closed_loop, CacheLabel, LoopOpts, Op, Phase, RegistryMirror};
use crate::workloads::{
    render_rel, Expect, HsCells, RecursiveReach, RefDb, RefQuery, SmallMix, Workload, WARM_STREAM,
};
use crate::{metric, Args, Metric, Outcome};
use recdb_core::Fuel;
use recdb_hsdb::{catalog, unary_cells, CellSize};
use recdb_qlhs::{parse_program, HsInterp};
use recdb_serve::{ServeConfig, Server};
use std::collections::{HashMap, HashSet};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Client threads, each with one keep-alive connection.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;

/// Stream tags of the timed phase and the traced run's traced phase.
const TIMED_STREAM: u64 = 2;
const TRACED_STREAM: u64 = 3;

/// The server configuration every serve workload runs against.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// Warm-up requests per client: one of each `small_mix` class, or a
/// couple of requests elsewhere (connections, lazy statics, the first
/// cache entries).
fn warm_requests(workload: &str) -> usize {
    match workload {
        "small_mix" => 11,
        "recursive_reach" => 1,
        _ => 2,
    }
}

fn workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "small_mix" => Box::new(SmallMix),
        "recursive_reach" => Box::new(RecursiveReach),
        _ => Box::new(HsCells::new(seed)),
    }
}

/// Set-up: server start and the warm-up phase (which generates its
/// inputs as it goes).
fn set_up(
    name: &str,
    wl: &dyn Workload,
    args: &Args,
    registry: &RegistryMirror,
) -> (Server, Phase) {
    let server = match Server::start(serve_config()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("server start failed: {e}");
            std::process::exit(1);
        }
    };
    let opts = LoopOpts {
        clients: CLIENTS,
        seconds: 0.0,
        requests_per_client: Some(warm_requests(name)),
        keep_wire: false,
        stream: WARM_STREAM,
    };
    let warm = closed_loop(server.addr(), wl, args.seed, &opts, registry);
    (server, warm)
}

/// `--setup-only`: one cold set-up in this fresh process; returns its
/// time from process start.
pub fn setup_only(name: &str, args: &Args, started: Instant) -> f64 {
    let wl = workload(name, args.seed);
    let (server, _) = set_up(name, wl.as_ref(), args, &RegistryMirror::new());
    let t = started.elapsed().as_secs_f64();
    server.shutdown();
    t
}

/// The library reference for an HS query: a fresh database, a fresh
/// `HsInterp`, rendered by the benchmark's own renderer.
fn reference(q: &RefQuery) -> Option<String> {
    let hs = match &q.db {
        RefDb::Cells(cells) => unary_cells(
            cells
                .iter()
                .map(|c| match c {
                    Some(v) => CellSize::Finite(v.clone()),
                    None => CellSize::Infinite,
                })
                .collect(),
        ),
        RefDb::Family(name) => catalog().into_iter().find(|e| e.info.name == *name)?.hs,
    };
    let p = parse_program(&q.program).ok()?;
    let v = HsInterp::new(&hs).run(&p, &mut Fuel::new(1 << 40)).ok()?;
    let tuples = v
        .tuples
        .iter()
        .map(|t| t.elems().iter().map(|e| e.value()).collect())
        .collect();
    Some(render_rel(v.rank, tuples))
}

/// Settles every deferred check against the (memoized) references.
fn settle(ops: &mut [Op], memo: &mut HashMap<RefQuery, Option<String>>) {
    for op in ops {
        if let Some((Expect::Reference(q), got)) = op.deferred.take() {
            let want = memo.entry(q).or_insert_with_key(reference);
            op.ok = Some(want.as_deref() == Some(got.as_str()));
        }
    }
}

fn failures(ops: &[Op]) -> u64 {
    ops.iter().filter(|o| o.ok != Some(true)).count() as u64
}

fn share(ops: &[Op], f: impl Fn(&Op) -> bool) -> f64 {
    ratio(ops.iter().filter(|o| f(o)).count() as f64, ops.len() as f64)
}

fn ops_per_s(p: &Phase) -> f64 {
    ratio(p.ops.len() as f64, p.wall)
}

fn latencies(p: &Phase) -> Vec<f64> {
    p.ops.iter().map(Op::ms).collect()
}

/// The workload-property shares, as one report line.
fn shares_line(ops: &[Op]) -> String {
    format!(
        "shares: cache_hit {:.4}  cache_bypass {:.4}  cold_shard {:.4}  admission_reject {:.4}  \
         seminaive_eligible {:.4}  (of {} ops)",
        share(ops, |o| o.cache == CacheLabel::Hit),
        share(ops, |o| o.cache == CacheLabel::Bypass),
        share(ops, |o| o.cold_shard),
        share(ops, |o| o.rejected),
        share(ops, |o| o.eligible),
        ops.len()
    )
}

/// Runs one serve workload.
pub fn run(name: &str, args: &Args, started: Instant) -> Outcome {
    let wl = workload(name, args.seed);
    let wl = wl.as_ref();
    let registry = RegistryMirror::new();
    let mut memo = HashMap::new();
    let mut report = Vec::new();

    let (server, mut warm) = set_up(name, wl, args, &registry);
    let own_setup = started.elapsed().as_secs_f64();
    settle(&mut warm.ops, &mut memo);
    let mut warm_ops = warm.ops.len() as u64;
    let mut warm_failed = failures(&warm.ops);

    // A traced run splits its time between an untraced and a traced
    // phase of half the length each, so it costs about as much as an
    // untraced run plus the replay.
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed_opts = |stream, keep_wire| LoopOpts {
        clients: CLIENTS,
        seconds: phase_s,
        requests_per_client: None,
        keep_wire,
        stream,
    };
    let mut timed = closed_loop(
        server.addr(),
        wl,
        args.seed,
        &timed_opts(TIMED_STREAM, false),
        &registry,
    );

    if !args.trace {
        server.shutdown();
        settle(&mut timed.ops, &mut memo);
        let setups = crate::cold_setups(args, own_setup);
        let lat = latencies(&timed);
        let attempted = timed.ops.len() as u64 + warm_ops;
        let failed = failures(&timed.ops) + warm_failed;
        report.push(format!(
            "{name}: seed {} — {attempted} ops in {:.3} s from {CLIENTS} clients on {WORKERS} workers \
             ({} cores); failed_ratio {:.4}; latency p90 over {} samples",
            args.seed,
            timed.wall,
            crate::cores(),
            ratio(failed as f64, attempted as f64),
            lat.len()
        ));
        report.push(shares_line(&timed.ops));
        report.push(crate::setups_line(&setups));
        let metrics = vec![
            metric("ops_per_s", "ops/s", ops_per_s(&timed)),
            metric("latency_p50_ms", "ms", quantile(&lat, 0.5)),
            metric("latency_p90_ms", "ms", quantile(&lat, 0.9)),
            metric(
                "ok_ratio",
                "fraction",
                1.0 - ratio(failed as f64, attempted as f64),
            ),
            metric("setup_s", "s", median(&setups)),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
        ];
        return Outcome {
            attempted,
            failed,
            metrics,
            report,
        };
    }

    // Traced run: the phase above was the untraced comparison; now the
    // same kind of phase with the program's recorder installed and
    // every exchange kept, then the in-process replay. It gets a fresh
    // server, warmed the same way, so that it meets an empty result
    // cache and new worker shards as the untraced phase did (the HS
    // registry is process-global and stays filled). The recorder is in
    // place from that server's start, so that the worker threads' HS
    // history includes the warm-up.
    server.shutdown();
    let tee = Tee::install();
    let (server, mut rewarm) = set_up(name, wl, args, &registry);
    settle(&mut rewarm.ops, &mut memo);
    warm_ops += rewarm.ops.len() as u64;
    warm_failed += failures(&rewarm.ops);
    let mut traced = closed_loop(
        server.addr(),
        wl,
        args.seed,
        &timed_opts(TRACED_STREAM, true),
        &registry,
    );
    recdb_obs::uninstall();
    server.shutdown();
    settle(&mut timed.ops, &mut memo);
    settle(&mut traced.ops, &mut memo);
    let mut served = attribute(&[&rewarm, &traced], tee.take_served());
    let traced_served = served.pop().unwrap_or_default();
    let rewarm_served = served.pop().unwrap_or_default();

    let mut log = SpanLog::new(traced.epoch);
    for op in &traced.ops {
        log.record(
            op.id as u64,
            0,
            "client.exchange",
            op.start,
            op.end - op.start,
        );
    }
    let mut replay = Replay::new(&mut log, serve_config());
    let mut replay_failed = 0;
    for op in &traced.ops {
        if let Some((raw, body)) = &op.wire {
            if !replay.replay(op.id as u64, raw, op.status, body) {
                replay_failed += 1;
            }
        }
    }
    let layers = replay.finish();
    let (replay_total, replay_rest) = log.unattributed("replay.request");
    let spans_path =
        std::path::Path::new(&args.out_dir).join(format!("trace-{name}-seed{}.jsonl", args.seed));
    if let Err(e) = log.write_jsonl(&spans_path) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }

    let attempted = (traced.ops.len() + timed.ops.len()) as u64 + warm_ops;
    let failed = failures(&traced.ops) + failures(&timed.ops) + warm_failed + replay_failed;
    let untraced_ops = ops_per_s(&timed);
    let traced_ops = ops_per_s(&traced);
    let hs_cold = hs_cold(&[(&rewarm, &rewarm_served), (&traced, &traced_served)]);
    let pairs: Vec<(&Op, &Served)> = traced
        .ops
        .iter()
        .zip(&traced_served)
        .filter_map(|(op, s)| Some((op, s.as_ref()?)))
        .collect();
    let metrics = layer_metrics(&pairs, &traced_served, &layers, &hs_cold[1]);
    let request_ns: u64 = pairs.iter().map(|(_, s)| ns(s, "serve.request.ns")).sum();
    let stage_ns: u64 = pairs
        .iter()
        .map(|(_, s)| {
            ns(s, "serve.stage.admit.ns")
                + ns(s, "serve.stage.vm.ns")
                + ns(s, "serve.stage.execute.ns")
        })
        .sum();
    report.push(format!(
        "{name} (traced): seed {} — {} ops traced, {} paired with their server request, \
         {} replayed, {} replay mismatches",
        args.seed,
        traced.ops.len(),
        pairs.len(),
        layers.ops,
        layers.mismatches
    ));
    report.push(shares_line(&traced.ops));
    report.push(format!(
        "tracing overhead: ops_per_s traced {traced_ops:.3} / untraced {untraced_ops:.3} = {:.4}",
        ratio(traced_ops, untraced_ops)
    ));
    report.push(format!(
        "unattributed: server request span outside admit/vm/execute stages {:.4} of {:.3} ms; \
         replay request span outside layer spans {:.4} of {:.3} ms",
        ratio(
            request_ns.saturating_sub(stage_ns) as f64,
            request_ns as f64
        ),
        request_ns as f64 / 1e6,
        ratio(replay_rest.as_secs_f64(), replay_total.as_secs_f64()),
        replay_total.as_secs_f64() * 1e3
    ));
    report.push(format!("spans written to {}", spans_path.display()));
    Outcome {
        attempted,
        failed,
        metrics,
        report,
    }
}

/// A span's nanoseconds in one request (`0` when absent).
fn ns(s: &Served, span: &str) -> u64 {
    s.first(span).unwrap_or(0)
}

/// How far after an exchange's first byte its request may start on the
/// worker and still count towards pairing a client with that worker.
const PAIR_SLACK: Duration = Duration::from_millis(5);

/// Pairs each exchange of each phase with the server request that
/// answered it (`None` where none is found).
///
/// A connection is served by one worker thread for its whole life, and
/// that worker starts on a request moments after the request's first
/// byte is written. So each (phase, client) connection is paired with
/// the worker thread whose requests start within [`PAIR_SLACK`] of the
/// most of its exchanges; then each exchange takes that thread's first
/// request that starts and ends inside it.
fn attribute(phases: &[&Phase], served: Vec<Served>) -> Vec<Vec<Option<Served>>> {
    let mut by_thread: HashMap<ThreadId, Vec<Option<Served>>> = HashMap::new();
    for s in served {
        by_thread.entry(s.thread).or_default().push(Some(s));
    }
    for reqs in by_thread.values_mut() {
        reqs.sort_by_key(|s| s.as_ref().map(|s| s.start));
    }
    // Request start times per thread, for the searches below.
    let starts: HashMap<ThreadId, Vec<Instant>> = by_thread
        .iter()
        .map(|(&t, reqs)| (t, reqs.iter().flatten().map(|s| s.start).collect()))
        .collect();
    let mut out = Vec::with_capacity(phases.len());
    for phase in phases {
        let mut paired: Vec<Option<Served>> = phase.ops.iter().map(|_| None).collect();
        let span = |op: &Op| (phase.epoch + op.start, phase.epoch + op.end);
        for client in 0..CLIENTS {
            let ops: Vec<usize> = (0..phase.ops.len())
                .filter(|&i| phase.ops[i].client == client)
                .collect();
            let first_after = |t: &ThreadId, at: Instant| starts[t].partition_point(|&s| s < at);
            let score = |t: &ThreadId| {
                ops.iter()
                    .filter(|&&i| {
                        let (a, _) = span(&phase.ops[i]);
                        starts[t]
                            .get(first_after(t, a))
                            .is_some_and(|&s| s <= a + PAIR_SLACK)
                    })
                    .count()
            };
            let Some(thread) = starts.keys().max_by_key(|t| score(t)).copied() else {
                continue;
            };
            for &i in &ops {
                let (a, b) = span(&phase.ops[i]);
                let reqs = by_thread
                    .get_mut(&thread)
                    .expect("thread from the same map");
                if let Some(slot) = reqs.get_mut(first_after(&thread, a)) {
                    if slot.as_ref().is_some_and(|s| s.end <= b) {
                        paired[i] = slot.take();
                    }
                }
            }
        }
        out.push(paired);
    }
    out
}

/// Per phase, per exchange: `Some(cold)` for an HS request the server
/// executed (no cache hit). Cold means the interpreter was fresh: the
/// worker thread that served it had not served its database before on
/// this server (warm-up included), or the server's registry does not
/// pin the database, so the server builds a throwaway one.
fn hs_cold(phases: &[(&Phase, &Vec<Option<Served>>)]) -> Vec<Vec<Option<bool>>> {
    let mut order: Vec<(Instant, usize, usize)> = Vec::new();
    for (p, (phase, served)) in phases.iter().enumerate() {
        for (i, (op, s)) in phase.ops.iter().zip(served.iter()).enumerate() {
            if let (Some(_), Some(s)) = (&op.hs, s) {
                order.push((s.start, p, i));
            }
        }
    }
    order.sort();
    let mut held: HashMap<ThreadId, HashSet<String>> = HashMap::new();
    let mut out: Vec<Vec<Option<bool>>> = phases
        .iter()
        .map(|(ph, _)| vec![None; ph.ops.len()])
        .collect();
    for (_, p, i) in order {
        let (phase, served) = phases[p];
        let (Some((descr, pinned)), Some(s)) = (&phase.ops[i].hs, &served[i]) else {
            continue;
        };
        // The server picks the worker's interpreter after admission,
        // before the cache lookup.
        if s.first("serve.stage.execute.ns").is_none() {
            continue;
        }
        let seen = held.entry(s.thread).or_default();
        let cold = !pinned || !seen.contains(descr);
        if *pinned {
            seen.insert(descr.clone());
        }
        if s.count("serve.cache.hits") == 0 {
            out[p][i] = Some(cold);
        }
    }
    out
}

/// The per-layer metrics of a traced serve run. `pairs` holds each
/// traced exchange with its server request; `served` and `cold` are
/// per traced exchange: its server request, and whether it was an HS
/// execution that met a fresh interpreter.
fn layer_metrics(
    pairs: &[(&Op, &Served)],
    served: &[Option<Served>],
    l: &Layers,
    cold: &[Option<bool>],
) -> Vec<Metric> {
    let ms = |v: u64| v as f64 / 1e6;
    let us = |v: u64| v as f64 / 1e3;
    let sum = |name: &str| pairs.iter().map(|(_, s)| s.count(name) as f64).sum::<f64>();
    let spans = |name: &str, unit: &dyn Fn(u64) -> f64, keep: &dyn Fn(&Served) -> bool| {
        pairs
            .iter()
            .filter(|(_, s)| keep(s))
            .filter_map(|(_, s)| s.first(name).map(unit))
            .collect::<Vec<f64>>()
    };
    let all = |_: &Served| true;
    let executed = |s: &Served| s.count("serve.cache.hits") == 0;

    let request_ms = spans("serve.request.ns", &ms, &all);
    let outside_ms: Vec<f64> = pairs
        .iter()
        .map(|(op, s)| op.ms() - ms(ns(s, "serve.request.ns")))
        .collect();
    let admit_us = spans("serve.stage.admit.ns", &us, &all);
    let admitted = spans("serve.stage.execute.ns", &ms, &all).len() as f64;
    let vm_us = spans("serve.stage.vm.ns", &us, &all);
    let compiles = vm_us.len() as f64;
    let compiled = |s: &Served| s.first("serve.stage.vm.ns").is_some();
    let fallbacks = pairs
        .iter()
        .filter(|(_, s)| compiled(s) && s.count("serve.vm.fallbacks") > 0)
        .count() as f64;
    let unused = pairs
        .iter()
        .filter(|(_, s)| {
            compiled(s) && s.count("serve.vm.fallbacks") == 0 && s.count("serve.vm.runs") == 0
        })
        .count() as f64;
    let exec_ms = spans("serve.stage.execute.ns", &ms, &executed);
    let vm_exec_ms = spans("serve.stage.execute.ns", &ms, &|s: &Served| {
        executed(s) && s.count("serve.vm.runs") > 0
    });
    let iterations: Vec<f64> = pairs
        .iter()
        .flat_map(|(_, s)| s.observed("serve.iterations").iter().map(|&v| v as f64))
        .collect();
    let lib_ratio: Vec<f64> = pairs
        .iter()
        .filter(|(_, s)| executed(s))
        .filter_map(|(op, s)| {
            let lib = l.lib.get(&(op.id as u64))?.as_secs_f64();
            let exec = s.first("serve.stage.execute.ns")? as f64 / 1e9;
            (lib > 0.0).then(|| exec / lib)
        })
        .collect();
    let (mut hs_cold_ms, mut hs_warm_ms) = (Vec::new(), Vec::new());
    for (s, c) in served.iter().zip(cold) {
        let (Some(s), Some(c)) = (s, c) else { continue };
        let t = ms(ns(s, "serve.stage.execute.ns"));
        if *c {
            hs_cold_ms.push(t);
        } else {
            hs_warm_ms.push(t);
        }
    }
    let hs_ops = pairs.iter().filter(|(op, _)| op.hs.is_some()).count() as f64;
    let hs_lociso: f64 = pairs
        .iter()
        .filter(|(op, _)| op.hs.is_some())
        .map(|(_, s)| s.count("core.lociso_checks") as f64)
        .sum();
    let (hits, misses) = (sum("serve.cache.hits"), sum("serve.cache.misses"));
    let (canon_hits, canon_misses) = (sum("qlhs.canon_hits"), sum("qlhs.canon_misses"));
    vec![
        metric("server.request_ms_p50", "ms", median(&request_ms)),
        metric("server.outside_ms_p50", "ms", median(&outside_ms)),
        metric("http.read_us_p50", "us", median(&l.http_read_us)),
        metric("http.write_us_p50", "us", median(&l.http_write_us)),
        metric("proto.decode_us_p50", "us", median(&l.decode_us)),
        metric("proto.encode_us_p50", "us", median(&l.encode_us)),
        metric("proto.body_bytes_p50", "bytes", median(&l.body_bytes)),
        metric("ra.compile_us_p50", "us", median(&l.ra_compile_us)),
        metric(
            "ra.optimized_share",
            "fraction",
            ratio(sum("serve.ra.optimized"), sum("serve.ra.queries")),
        ),
        metric("admit.us_p50", "us", median(&admit_us)),
        metric("admit.us_p90", "us", quantile(&admit_us, 0.9)),
        metric(
            "admit.reject_share",
            "fraction",
            ratio(admit_us.len() as f64 - admitted, admit_us.len() as f64),
        ),
        metric("cache.canon_us_p50", "us", median(&l.canon_us)),
        metric("cache.hit_ratio", "fraction", ratio(hits, hits + misses)),
        metric(
            "cache.bypass_share",
            "fraction",
            ratio(sum("serve.cache.bypass"), pairs.len() as f64),
        ),
        metric("vm.compile_verify_us_p50", "us", median(&vm_us)),
        metric(
            "vm.accept_ratio",
            "fraction",
            ratio(compiles - fallbacks, compiles),
        ),
        metric(
            "vm.unused_compile_share",
            "fraction",
            ratio(unused, compiles),
        ),
        metric("vm.exec_ms_p50", "ms", median(&vm_exec_ms)),
        metric("exec.ms_p50", "ms", median(&exec_ms)),
        metric("exec.ms_p90", "ms", quantile(&exec_ms, 0.9)),
        metric("exec.iterations_p50", "count", median(&iterations)),
        metric("exec.work_p50", "tuples", median(&l.work)),
        metric(
            "exec.seminaive_loop_share",
            "fraction",
            ratio(
                sum("fixpoint.seminaive.loops"),
                sum("analyze.delta.eligible"),
            ),
        ),
        metric("exec.lib_ratio", "ratio", median(&lib_ratio)),
        metric("hs.cold_ms_p50", "ms", median(&hs_cold_ms)),
        metric("hs.warm_ms_p50", "ms", median(&hs_warm_ms)),
        metric(
            "hs.cold_share",
            "fraction",
            ratio(
                hs_cold_ms.len() as f64,
                (hs_cold_ms.len() + hs_warm_ms.len()) as f64,
            ),
        ),
        metric("hs.lociso_checks_per_op", "count", ratio(hs_lociso, hs_ops)),
        metric(
            "hs.canon_hit_ratio",
            "fraction",
            ratio(canon_hits, canon_hits + canon_misses),
        ),
    ]
}
