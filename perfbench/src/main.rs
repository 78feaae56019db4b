//! `recdb-perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <small_mix|recursive_reach|hs_cells|refine_vnr|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! perfbench --workload <name> [--seed N] --setup-only
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics (see `NOTES.md`).
//! Human-readable lines come first; the last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod pin;
mod refine;
mod replay;
mod serve;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// The serve workloads and the library workload, in run order.
pub const WORKLOADS: [&str; 4] = ["small_mix", "recursive_reach", "hs_cells", "refine_vnr"];

/// Parsed command line.
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed phase length.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: String,
    /// Only set up, print the set-up time and exit (see
    /// [`cold_setups`]).
    pub setup_only: bool,
}

/// Every per-layer metric, in report order: `(name, unit)`. A traced
/// run reports all of them; a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("server.request_ms_p50", "ms"),
    ("server.outside_ms_p50", "ms"),
    ("http.read_us_p50", "us"),
    ("http.write_us_p50", "us"),
    ("proto.decode_us_p50", "us"),
    ("proto.encode_us_p50", "us"),
    ("proto.body_bytes_p50", "bytes"),
    ("ra.compile_us_p50", "us"),
    ("ra.optimized_share", "fraction"),
    ("admit.us_p50", "us"),
    ("admit.us_p90", "us"),
    ("admit.reject_share", "fraction"),
    ("cache.canon_us_p50", "us"),
    ("cache.hit_ratio", "fraction"),
    ("cache.bypass_share", "fraction"),
    ("vm.compile_verify_us_p50", "us"),
    ("vm.accept_ratio", "fraction"),
    ("vm.unused_compile_share", "fraction"),
    ("vm.exec_ms_p50", "ms"),
    ("exec.ms_p50", "ms"),
    ("exec.ms_p90", "ms"),
    ("exec.iterations_p50", "count"),
    ("exec.work_p50", "tuples"),
    ("exec.seminaive_loop_share", "fraction"),
    ("exec.lib_ratio", "ratio"),
    ("hs.cold_ms_p50", "ms"),
    ("hs.warm_ms_p50", "ms"),
    ("hs.cold_share", "fraction"),
    ("hs.lociso_checks_per_op", "count"),
    ("hs.canon_hit_ratio", "fraction"),
    ("refine.partition_ms_per_ktuple_p50", "ms/ktuple"),
    ("refine.vnr_ms_p50", "ms"),
    ("refine.incr_insert_us_p50", "us"),
    ("refine.buckets_probed_per_tuple", "ratio"),
    ("refine.fingerprint_collisions_per_ktuple", "1/ktuple"),
    ("refine.pairwise_verify_fallbacks_per_ktuple", "1/ktuple"),
];

/// Puts a traced run's metrics in [`PER_LAYER`] order, adding the
/// layers the workload does not reach as 0.
fn complete_layers(mut got: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match got.iter().position(|m| m.name == name) {
                Some(i) => got.swap_remove(i),
                None => metric(name, unit, 0.0),
            },
        )
        .collect()
}

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        out_dir: ".bench_out".to_string(),
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out-dir" => a.out_dir = value()?,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if a.setup_only && a.workload == "all" {
        return Err("--setup-only takes a single workload".into());
    }
    Ok(a)
}

/// One metric as reported.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Cores available to this process, for the report lines.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fresh processes per run that each make one more cold set-up.
const SETUP_CHILDREN: usize = 4;

/// The cold set-up times of one run: `own` (this process's) and one
/// from each of [`SETUP_CHILDREN`] fresh processes of this benchmark,
/// started one after another with `--setup-only` once the timed phase
/// is over. Each counts from its process's start, so each includes the
/// one-time work (lazy statics, the server's HS registry, a cold
/// allocator) that a second set-up in the same process would skip.
/// `setup_s` is their median. Exits the process if a child fails.
pub fn cold_setups(args: &Args, own: f64) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            std::process::exit(1);
        }
    };
    let mut out = vec![own];
    for _ in 0..SETUP_CHILDREN {
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-only")
            .output();
        let t = child.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()?
                .strip_prefix("setup_s ")?
                .parse::<f64>()
                .ok()
        });
        match t {
            Some(t) => out.push(t),
            None => {
                eprintln!("a --setup-only child failed");
                std::process::exit(1);
            }
        }
    }
    out
}

/// The report line listing the set-up samples.
pub fn setups_line(setups: &[f64]) -> String {
    let s: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    format!("setup_s samples (cold, one per process): {}", s.join(" "))
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations checked: warm-up, timed and traced.
    pub attempted: u64,
    /// Operations failed, refused with a wrong status, or answered
    /// wrongly.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub report: Vec<String>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args, started: Instant) -> Outcome {
    match args.workload.as_str() {
        "refine_vnr" => refine::run(args, started),
        name => serve::run(name, args, started),
    }
}

/// `--workload all`: each workload in its own process (so peak RSS is
/// per workload), then one summary table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--out-dir", &args.out_dir])
            .output();
        let text = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("{w}: exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in text.lines() {
            println!("[{w}] {line}");
        }
        let last = text.lines().last().unwrap_or_default().to_string();
        all_correct &= last.contains("\"correct\": true");
        rows.push((w, last));
    }
    println!(
        "summary (seed {}, {} s per workload):",
        args.seed, args.seconds
    );
    for (w, line) in &rows {
        println!("  {w:<16} {line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.setup_only {
        let t = match args.workload.as_str() {
            "refine_vnr" => refine::setup_only(&args, started),
            name => serve::setup_only(name, &args, started),
        };
        println!("setup_s {t}");
        return ExitCode::SUCCESS;
    }
    let mut outcome = run_one(&args, started);
    if args.trace {
        outcome.metrics = complete_layers(outcome.metrics);
    }
    for line in &outcome.report {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
