//! A minimal, dependency-free stand-in for the Criterion benchmark
//! API (the subset this workspace uses), so `cargo bench` works in
//! offline environments where the real crate cannot be fetched
//! (DESIGN.md §7, seed-test triage).
//!
//! Source-compatible surface: [`Criterion::default()`] with
//! `sample_size`/`measurement_time`/`warm_up_time`, `benchmark_group`,
//! `bench_function`/`bench_with_input` with [`BenchmarkId`], and the
//! `criterion_group!`/`criterion_main!` macros in their
//! `name/config/targets` form — existing bench files only change
//! their import line. Statistics are deliberately simple: per sample,
//! the mean ns/iter of a batch sized to fill the measurement budget;
//! per benchmark, the median of those samples, printed as one stable
//! line (`bench <group>/<id> median_ns <t> samples <k>`) that
//! `scripts/bench_refine.sh`-style scrapers can parse.

use std::time::{Duration, Instant};

/// Benchmark configuration and entry point (shim for
/// `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total measurement budget per benchmark (split across samples).
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up budget per benchmark (also calibrates batch size).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            cfg: self,
            name: name.into(),
        }
    }

    /// Runs one ungrouped benchmark (label printed verbatim).
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.to_string();
        self.benchmark_group(String::new())
            .bench_function(BenchmarkId::from_parameter(label), f);
        self
    }
}

/// A benchmark identifier: either a bare parameter or
/// `function/parameter` (shim for `criterion::BenchmarkId`).
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function/parameter` form.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{parameter}", function.into()),
        }
    }

    /// Bare-parameter form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// A named group of benchmarks sharing one configuration.
pub struct BenchmarkGroup<'a> {
    cfg: &'a Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            cfg: BenchConfig {
                sample_size: self.cfg.sample_size,
                measurement_time: self.cfg.measurement_time,
                warm_up_time: self.cfg.warm_up_time,
            },
            samples_ns: Vec::new(),
        };
        f(&mut b);
        b.report(&self.name, &id.label);
        self
    }

    /// Runs one benchmark with a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (output is per-benchmark; nothing buffered).
    pub fn finish(self) {}
}

struct BenchConfig {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

/// The per-benchmark timing driver handed to the closure (shim for
/// `criterion::Bencher`).
pub struct Bencher {
    cfg: BenchConfig,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f`: warm up (calibrating the batch size), then collect
    /// `sample_size` samples of mean ns/iter.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warm-up: run until the budget is spent, estimating cost/call.
        let warm_start = Instant::now();
        let mut warm_calls: u64 = 0;
        while warm_start.elapsed() < self.cfg.warm_up_time || warm_calls == 0 {
            std::hint::black_box(f());
            warm_calls += 1;
        }
        let est_per_call = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_calls);

        let per_sample = self.cfg.measurement_time.as_nanos() / self.cfg.sample_size as u128;
        let iters = (per_sample / est_per_call.max(1)).clamp(1, 1 << 24) as u64;

        self.samples_ns.clear();
        for _ in 0..self.cfg.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let total = start.elapsed().as_nanos() as f64;
            self.samples_ns.push(total / iters as f64);
        }
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples_ns.is_empty() {
            println!("bench {group}/{id} median_ns n/a samples 0");
            return;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
        let median = sorted[sorted.len() / 2];
        let label = if group.is_empty() {
            id.to_string()
        } else {
            format!("{group}/{id}")
        };
        println!(
            "bench {label} median_ns {median:.0} samples {}",
            sorted.len()
        );
    }
}

/// Shim for `criterion_group!` in its `name/config/targets` form:
/// expands to a function running every target against the configured
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Shim for `criterion_main!`: expands to `fn main` running the groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(6))
            .warm_up_time(Duration::from_millis(2));
        let mut g = c.benchmark_group("shim");
        let mut ran = 0u64;
        g.bench_function(BenchmarkId::from_parameter("noop"), |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        g.bench_with_input(BenchmarkId::new("with_input", 7), &7u64, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
        assert!(ran > 0, "closure actually executed");
    }

    #[test]
    fn id_labels() {
        assert_eq!(BenchmarkId::from_parameter("p").label, "p");
        assert_eq!(BenchmarkId::new("f", 64).label, "f/64");
    }
}
