//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface `benches/runtime.rs` uses — `Criterion`,
//! `bench_function`, `benchmark_group` / `sample_size`, `Bencher::iter`
//! and `iter_batched`, plus the `criterion_group!` / `criterion_main!`
//! macros — backed by plain wall-clock timing: each benchmark runs a
//! short warm-up, then `sample_size` timed samples, and the median is
//! printed as one line. No statistics, plots or baselines; end-to-end
//! and per-layer performance is recorded by `pdbench/`, not here.
//!
//! `CRITERION_SAMPLES` overrides the default sample count (useful to keep
//! CI smoke runs quick).

use std::time::{Duration, Instant};

/// How setup output is batched between measurements (accepted and ignored;
/// setup always runs per-iteration and is excluded from timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

fn default_samples() -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn report(name: &str, samples: Vec<Duration>) {
    let m = median(samples);
    println!("bench {name:<40} median {m:?}");
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    samples: usize,
    collected: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` directly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        for _ in 0..2 {
            std::hint::black_box(routine());
        }
        for _ in 0..self.samples {
            let t = Instant::now();
            std::hint::black_box(routine());
            self.collected.push(t.elapsed());
        }
    }

    /// Times `routine` on fresh state from `setup`, excluding setup time.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        std::hint::black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            self.collected.push(t.elapsed());
        }
    }
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            samples: default_samples(),
            collected: Vec::new(),
        };
        f(&mut b);
        if !b.collected.is_empty() {
            report(name, b.collected);
        }
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            samples: default_samples(),
        }
    }
}

/// A named group sharing a sample count.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Runs a named benchmark inside the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            samples: self.samples,
            collected: Vec::new(),
        };
        f(&mut b);
        if !b.collected.is_empty() {
            report(&format!("{}/{}", self.name, name), b.collected);
        }
        self
    }

    /// Ends the group (no-op; symmetry with criterion).
    pub fn finish(self) {}
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group function, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grp");
        g.sample_size(3);
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }

    criterion_group!(benches, quick);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn median_is_order_invariant() {
        let a = Duration::from_millis(1);
        let b = Duration::from_millis(2);
        let c = Duration::from_millis(9);
        assert_eq!(median(vec![c, a, b]), b);
    }
}
