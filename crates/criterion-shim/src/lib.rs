//! Minimal, dependency-free benchmarking shim.
//!
//! Implements the slice of the `criterion` API used by this workspace's
//! `benches/` so they compile and run offline. Measurement is a simple
//! best-of-N wall-clock loop with automatic iteration scaling — good
//! enough for relative before/after comparisons on one machine.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall-clock time"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-iteration driver handed to the closure in `bench_function`.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level benchmark harness.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

fn run_bench(label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    // Warm-up / calibration: find an iteration count taking ~5ms.
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= Duration::from_millis(5) || iters >= 1 << 20 {
            break;
        }
        iters = iters.saturating_mul(4).max(iters + 1);
    }
    // Measurement: best of `sample_size` runs.
    let mut best = Duration::MAX;
    for _ in 0..sample_size.max(1) {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed < best {
            best = b.elapsed;
        }
    }
    let per_iter = best.as_nanos() as f64 / iters as f64;
    let (value, unit) = if per_iter >= 1e9 {
        (per_iter / 1e9, "s")
    } else if per_iter >= 1e6 {
        (per_iter / 1e6, "ms")
    } else if per_iter >= 1e3 {
        (per_iter / 1e3, "us")
    } else {
        (per_iter, "ns")
    };
    println!("{label:<40} time: {value:>10.3} {unit}/iter  ({iters} iters/sample)");
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        run_bench(&id.into(), self.sample_size, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// Named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into());
        run_bench(&label, self.sample_size, &mut f);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
