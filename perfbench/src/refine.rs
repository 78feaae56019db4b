//! `refine_vnr`: the paper's Vⁿᵣ refinement as library calls. No
//! serve path calls `recdb_hsdb::refine`; this workload is what
//! measures it.
//!
//! One op is one library call: a base partition of 4096 or 16384
//! random rank-4 tuples over the `divides` database, a `v_n_r` over a
//! deep catalog family, or one `VnrCache` insertion stream (every
//! level-`n` node inserted in seeded order, then `partition()`). One
//! thread deals ops from a shuffled deck, round after round, and takes
//! the machine's CPUs in turn, one per round (see [`crate::pin`]).
//! Each output is checked between ops; checking time is left out of
//! the timed wall time.

use crate::pin::Placement;
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::trace::{SpanLog, Tee};
use crate::{metric, Args, Metric, Outcome};
use recdb_core::{Database, DatabaseBuilder, Elem, FnRelation, SplitMix64, Tuple};
use recdb_hsdb::{
    deep_catalog, partition_by_local_iso, partition_by_local_iso_pairwise, v_n_r, v_n_r_over,
    CatalogEntry, Partition, VnrCache,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Base-partition input sizes.
const SIZES: [usize; 2] = [4096, 16384];
/// Rank and universe of the random tuples.
const RANK: usize = 4;
const UNIVERSE: u64 = 16;
/// Largest subset the pairwise oracle checks.
const SAMPLE: usize = 1024;

/// One kind of op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    /// `partition_by_local_iso` over input set `i` (of [`SIZES`]).
    Partition(usize),
    /// `v_n_r(family, n, r)`.
    Vnr(&'static str, usize, usize),
    /// A `VnrCache` stream with this `r` over the family's level-`n`
    /// nodes.
    Stream(&'static str, usize, usize),
}

/// One round of ops. The costs come in bands: nine cheap ops at
/// 0.2–3 ms (the symmetric families at their cheap depths), three
/// `paper-example` ops at depth 4 at about 5.5 ms, then a dense band of
/// fourteen ops at 8–10 ms that holds the p50 well inside it (the
/// 4096-tuple partition twice, and four `cells-2inf` refinements three
/// times each), `star` at depth 7 near 17 ms, the 16384-tuple partition
/// near 35 ms, and seven refinements at depth 5–7 at 60–66 ms that hold
/// the p90. A quantile that sits near the edge of
/// a band jumps between two costs as the sample shifts by a card; in
/// the middle of a band it moves only with the machine's speed.
const DECK: [Kind; 37] = [
    Kind::Vnr("clique", 4, 1),
    Kind::Stream("clique", 3, 2),
    Kind::Vnr("star", 4, 1),
    Kind::Vnr("clique", 3, 3),
    Kind::Vnr("cells-2inf", 4, 1),
    Kind::Vnr("cells-2inf", 3, 2),
    Kind::Vnr("clique", 6, 1),
    Kind::Vnr("star", 5, 1),
    Kind::Stream("star", 3, 3),
    Kind::Vnr("paper-example", 3, 1),
    Kind::Vnr("paper-example", 2, 2),
    Kind::Vnr("paper-example", 1, 3),
    Kind::Partition(0),
    Kind::Partition(0),
    Kind::Vnr("cells-2inf", 3, 3),
    Kind::Vnr("cells-2inf", 3, 3),
    Kind::Vnr("cells-2inf", 3, 3),
    Kind::Vnr("cells-2inf", 4, 2),
    Kind::Vnr("cells-2inf", 4, 2),
    Kind::Vnr("cells-2inf", 4, 2),
    Kind::Vnr("cells-2inf", 2, 4),
    Kind::Vnr("cells-2inf", 2, 4),
    Kind::Vnr("cells-2inf", 2, 4),
    Kind::Stream("cells-2inf", 3, 3),
    Kind::Stream("cells-2inf", 3, 3),
    Kind::Stream("cells-2inf", 3, 3),
    Kind::Vnr("star", 5, 2),
    Kind::Stream("star", 4, 3),
    Kind::Partition(1),
    Kind::Partition(1),
    Kind::Vnr("cells-2inf", 6, 1),
    Kind::Vnr("cells-2inf", 6, 1),
    Kind::Vnr("paper-example", 1, 4),
    Kind::Vnr("cells-2inf", 3, 4),
    Kind::Vnr("paper-example", 2, 3),
    Kind::Stream("paper-example", 3, 2),
    Kind::Vnr("cells-2inf", 4, 3),
];

/// Everything a run needs, generated from the seed.
struct Inputs {
    divides: Database,
    tuples: Vec<Vec<Tuple>>,
    /// Per input set: the sampled indices the pairwise oracle checks.
    samples: Vec<Vec<usize>>,
    families: HashMap<&'static str, CatalogEntry>,
    /// Per `(family, n)`: the level-`n` nodes in insertion order.
    stream_nodes: HashMap<(&'static str, usize), Vec<Tuple>>,
}

fn random_tuples(rng: &mut SplitMix64, count: usize) -> Vec<Tuple> {
    (0..count)
        .map(|_| {
            (0..RANK)
                .map(|_| Elem(rng.gen_range(0, UNIVERSE)))
                .collect()
        })
        .collect()
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix64::seed_from_u64(crate::workloads::client_seed(seed, 7, 0));
        let divides = DatabaseBuilder::new("divides")
            .relation("E", FnRelation::divides())
            .build();
        let tuples: Vec<Vec<Tuple>> = SIZES.iter().map(|&n| random_tuples(&mut rng, n)).collect();
        let samples = tuples
            .iter()
            .map(|ts| {
                let mut ix: Vec<usize> = (0..ts.len()).collect();
                rng.shuffle(&mut ix);
                ix.truncate(SAMPLE);
                ix
            })
            .collect();
        let families: HashMap<&'static str, CatalogEntry> = deep_catalog()
            .into_iter()
            .map(|e| (e.info.name, e))
            .collect();
        let mut stream_nodes = HashMap::new();
        for kind in DECK {
            if let Kind::Stream(f, n, _) = kind {
                stream_nodes.entry((f, n)).or_insert_with(|| {
                    let mut nodes = families[f].hs.t_n(n);
                    rng.shuffle(&mut nodes);
                    nodes
                });
            }
        }
        Inputs {
            divides,
            tuples,
            samples,
            families,
            stream_nodes,
        }
    }
}

/// A partition in canonical form: blocks sorted, block order sorted.
fn normalize(p: &Partition) -> Vec<Vec<Tuple>> {
    let mut blocks: Vec<Vec<Tuple>> = p
        .iter()
        .map(|b| {
            let mut b = b.clone();
            b.sort();
            b
        })
        .collect();
    blocks.sort();
    blocks
}

/// The independent answers, memoized per input; `None` where the
/// oracle's own call failed, which fails every check against it.
#[derive(Default)]
struct Oracle {
    refs: HashMap<Kind, Option<Vec<Vec<Tuple>>>>,
}

impl Oracle {
    /// Checks one op's output; an op whose library call failed fails.
    fn check(&mut self, inp: &Inputs, kind: Kind, out: &OpOut) -> bool {
        let Ok(out) = out else {
            return false;
        };
        match kind {
            Kind::Partition(i) => {
                // Every input tuple lands in exactly one block, and the
                // partition restricted to the sample equals the
                // pairwise oracle's partition of the sample.
                let tuples = &inp.tuples[i];
                if out.iter().map(Vec::len).sum::<usize>() != tuples.len() {
                    return false;
                }
                let mut block_of: HashMap<&Tuple, usize> = HashMap::with_capacity(tuples.len());
                for (b, block) in out.iter().enumerate() {
                    for t in block {
                        if block_of.insert(t, b).is_some_and(|prev| prev != b) {
                            return false;
                        }
                    }
                }
                let mut restricted: HashMap<usize, Vec<Tuple>> = HashMap::new();
                for &ix in &inp.samples[i] {
                    match block_of.get(&tuples[ix]) {
                        Some(&b) => restricted.entry(b).or_default().push(tuples[ix].clone()),
                        None => return false,
                    }
                }
                let got = normalize(&restricted.into_values().collect());
                let want = self.refs.entry(kind).or_insert_with(|| {
                    let sample: Vec<Tuple> = inp.samples[i]
                        .iter()
                        .map(|&ix| tuples[ix].clone())
                        .collect();
                    Some(normalize(&partition_by_local_iso_pairwise(
                        &inp.divides,
                        &sample,
                    )))
                });
                want.as_ref() == Some(&got)
            }
            Kind::Vnr(f, n, r) => {
                let want = self.refs.entry(kind).or_insert_with(|| {
                    let hs = &inp.families[f].hs;
                    v_n_r_over(hs, &hs.t_n(n), r).ok().map(|p| normalize(&p))
                });
                want.as_ref() == Some(&normalize(out))
            }
            Kind::Stream(f, n, r) => {
                let want = self.refs.entry(kind).or_insert_with(|| {
                    v_n_r_over(&inp.families[f].hs, &inp.stream_nodes[&(f, n)], r)
                        .ok()
                        .map(|p| normalize(&p))
                });
                want.as_ref() == Some(&normalize(out))
            }
        }
    }
}

/// Per-kind timing samples.
#[derive(Default)]
struct Samples {
    /// Every op's latency, ms.
    op_ms: Vec<f64>,
    /// Latencies by op kind, ms.
    by_kind: HashMap<Kind, Vec<f64>>,
    /// Base partitions, ms per 1000 input tuples.
    partition_ms_per_ktuple: Vec<f64>,
    vnr_ms: Vec<f64>,
    insert_us: Vec<f64>,
    /// Per deck round: its ops over its timed wall time, ops/s.
    round_ops_per_s: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Timed wall time (checking excluded).
    wall: Duration,
    /// CPUs the rounds took turns on.
    cpus: usize,
}

/// One op's output, or its library call's error as text.
type OpOut = Result<Partition, String>;

/// One finished op, for the span log: name, start, duration.
type OpSpan = (&'static str, Instant, Duration);

/// Runs one op; returns its output (an error as text) and duration.
/// With a span list, records the op and times every stream insertion.
fn run_op(
    inp: &Inputs,
    kind: Kind,
    s: &mut Samples,
    spans: Option<&mut Vec<OpSpan>>,
) -> (OpOut, Duration) {
    let t0 = Instant::now();
    let out = match kind {
        Kind::Partition(i) => Ok(partition_by_local_iso(&inp.divides, &inp.tuples[i])),
        Kind::Vnr(f, n, r) => v_n_r(&inp.families[f].hs, n, r).map_err(|e| format!("{e:?}")),
        Kind::Stream(f, n, r) => {
            let mut cache = VnrCache::new(&inp.families[f].hs, r);
            for u in &inp.stream_nodes[&(f, n)] {
                let t = Instant::now();
                cache.insert(u.clone());
                if spans.is_some() {
                    s.insert_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            cache.partition().map_err(|e| format!("{e:?}"))
        }
    };
    let d = t0.elapsed();
    if let Some(spans) = spans {
        let name = match kind {
            Kind::Partition(_) => "refine.partition_by_local_iso",
            Kind::Vnr(..) => "refine.v_n_r",
            Kind::Stream(..) => "refine.vnr_cache_stream",
        };
        spans.push((name, t0, d));
    }
    let ms = d.as_secs_f64() * 1e3;
    s.op_ms.push(ms);
    s.by_kind.entry(kind).or_default().push(ms);
    match kind {
        Kind::Partition(i) => s.partition_ms_per_ktuple.push(ms * 1e3 / SIZES[i] as f64),
        Kind::Vnr(..) => s.vnr_ms.push(ms),
        Kind::Stream(..) => {}
    }
    (out, d)
}

/// Deals ops on the calling thread, one shuffled deck per round, until
/// `seconds` of timed work have passed; every round is played to its
/// end. Round `k` runs pinned to the `k`-th CPU of the thread's set,
/// round-robin, and the set is restored at the end. Every op kind was checked once during set-up, so the oracle
/// answers from its memo and makes no library calls of its own here; a
/// traced phase's counters see only the timed calls.
fn phase(
    inp: &Inputs,
    oracle: &mut Oracle,
    seed: u64,
    stream: u64,
    seconds: f64,
    log: Option<&mut SpanLog>,
) -> Samples {
    let traced = log.is_some();
    let budget = Duration::from_secs_f64(seconds);
    let mut rng = SplitMix64::seed_from_u64(crate::workloads::client_seed(seed, stream, 0));
    let mut s = Samples::default();
    let mut spans: Vec<OpSpan> = Vec::new();
    let placement = Placement::current();
    while s.wall < budget {
        placement.pin_round_robin(s.round_ops_per_s.len());
        let mut hand = DECK.to_vec();
        rng.shuffle(&mut hand);
        let mut round = Duration::ZERO;
        for kind in hand {
            let (out, d) = run_op(inp, kind, &mut s, traced.then_some(&mut spans));
            round += d;
            s.ops += 1;
            s.failed += u64::from(!oracle.check(inp, kind, &out));
        }
        s.wall += round;
        s.round_ops_per_s
            .push(ratio(DECK.len() as f64, round.as_secs_f64()));
    }
    s.cpus = placement.len();
    if let Some(log) = log {
        for (req, (name, t0, d)) in spans.into_iter().enumerate() {
            let start = log.offset(t0);
            log.record(req as u64, 0, name, start, d);
        }
    }
    s
}

/// Set-up: input generation and one warm-up call of each op kind.
fn set_up(seed: u64) -> (Inputs, Vec<(Kind, OpOut)>) {
    let inp = Inputs::generate(seed);
    let mut warm = Samples::default();
    let mut outs: Vec<(Kind, OpOut)> = Vec::new();
    for kind in DECK {
        if outs.iter().all(|(k, _)| *k != kind) {
            outs.push((kind, run_op(&inp, kind, &mut warm, None).0));
        }
    }
    (inp, outs)
}

/// `--setup-only`: one cold set-up in this fresh process; returns its
/// time from process start.
pub fn setup_only(args: &Args, started: Instant) -> f64 {
    let _ = set_up(args.seed);
    started.elapsed().as_secs_f64()
}

/// Runs `refine_vnr`.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let (inp, outs) = set_up(args.seed);
    let own_setup = started.elapsed().as_secs_f64();
    let mut oracle = Oracle::default();
    let warm_ops = outs.len() as u64;
    let warm_failed = outs
        .iter()
        .filter(|(kind, out)| !oracle.check(&inp, *kind, out))
        .count() as u64;

    // A traced run splits its time between an untraced and a traced
    // phase of half the length each.
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed = phase(&inp, &mut oracle, args.seed, 2, phase_s, None);
    let mut report = Vec::new();
    if !args.trace {
        let setups = crate::cold_setups(args, own_setup);
        let attempted = timed.ops + warm_ops;
        let failed = timed.failed + warm_failed;
        report.push(format!(
            "refine_vnr: seed {} — {attempted} library calls in {:.3} s of timed work on one thread, \
             {} deck rounds taking turns on {} CPUs ({:.3} ops/s over the whole phase); \
             failed_ratio {:.4}; latency p90 over {} samples",
            args.seed,
            timed.wall.as_secs_f64(),
            timed.round_ops_per_s.len(),
            timed.cpus,
            ratio(timed.ops as f64, timed.wall.as_secs_f64()),
            ratio(failed as f64, attempted as f64),
            timed.op_ms.len()
        ));
        report.push(
            "shares: cache_hit 0  cache_bypass 0  cold_shard 0  admission_reject 0  seminaive_eligible 0  \
             (library calls; no serve path)"
                .to_string(),
        );
        report.push(crate::setups_line(&setups));
        let mut kinds: Vec<_> = timed.by_kind.iter().collect();
        kinds.sort_by(|a, b| median(a.1).total_cmp(&median(b.1)));
        for (kind, ms) in kinds {
            report.push(format!(
                "  {kind:?}: median {:.3} ms over {}",
                median(ms),
                ms.len()
            ));
        }
        return Outcome {
            attempted,
            failed,
            metrics: vec![
                metric("ops_per_s", "ops/s", median(&timed.round_ops_per_s)),
                metric("latency_p50_ms", "ms", median(&timed.op_ms)),
                metric("latency_p90_ms", "ms", quantile(&timed.op_ms, 0.9)),
                metric(
                    "ok_ratio",
                    "fraction",
                    1.0 - ratio(failed as f64, attempted as f64),
                ),
                metric("setup_s", "s", median(&setups)),
                metric("peak_rss_mb", "MB", peak_rss_mb()),
            ],
            report,
        };
    }

    let mut log = SpanLog::new(Instant::now());
    let tee = Tee::install();
    let traced = phase(&inp, &mut oracle, args.seed, 3, phase_s, Some(&mut log));
    recdb_obs::uninstall();
    let spans_path = std::path::Path::new(&args.out_dir)
        .join(format!("trace-refine_vnr-seed{}.jsonl", args.seed));
    if let Err(e) = log.write_jsonl(&spans_path) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }
    let untraced_ops = median(&timed.round_ops_per_s);
    let traced_ops = median(&traced.round_ops_per_s);
    let op_total: f64 = traced.op_ms.iter().sum();
    let partition_total: f64 = traced
        .by_kind
        .iter()
        .filter(|(k, _)| matches!(k, Kind::Partition(_)))
        .flat_map(|(_, ms)| ms)
        .sum();
    let layer_total: f64 = partition_total
        + traced.vnr_ms.iter().sum::<f64>()
        + traced.insert_us.iter().sum::<f64>() / 1e3;
    let ktuples = tee.value("refine.tuples") / 1e3;
    report.push(format!(
        "refine_vnr (traced): seed {} — {} library calls traced",
        args.seed, traced.ops
    ));
    report.push(format!(
        "tracing overhead: ops_per_s traced {traced_ops:.3} / untraced {untraced_ops:.3} = {:.4}",
        ratio(traced_ops, untraced_ops)
    ));
    report.push(format!(
        "unattributed: op time outside partition, v_n_r and insert spans (stream re-projection) {:.4} of {:.3} ms",
        ratio(op_total - layer_total, op_total),
        op_total
    ));
    report.push(format!("spans written to {}", spans_path.display()));
    let m: Vec<Metric> = vec![
        metric(
            "refine.partition_ms_per_ktuple_p50",
            "ms/ktuple",
            median(&traced.partition_ms_per_ktuple),
        ),
        metric("refine.vnr_ms_p50", "ms", median(&traced.vnr_ms)),
        metric("refine.incr_insert_us_p50", "us", median(&traced.insert_us)),
        metric(
            "refine.buckets_probed_per_tuple",
            "ratio",
            ratio(
                tee.value("refine.buckets_probed"),
                tee.value("refine.tuples"),
            ),
        ),
        metric(
            "refine.fingerprint_collisions_per_ktuple",
            "1/ktuple",
            ratio(tee.value("refine.fingerprint_collisions"), ktuples),
        ),
        metric(
            "refine.pairwise_verify_fallbacks_per_ktuple",
            "1/ktuple",
            ratio(tee.value("refine.pairwise_verify_fallbacks"), ktuples),
        ),
    ];
    Outcome {
        attempted: traced.ops + timed.ops + warm_ops,
        failed: traced.failed + timed.failed + warm_failed,
        metrics: m,
        report,
    }
}
