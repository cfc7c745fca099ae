//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! Implements the API surface the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros — with
//! a simple adaptive wall-clock harness: each benchmark is warmed up, then
//! timed in samples until both the measurement window is full and at
//! least [`MIN_SAMPLES`] samples exist, and the per-iteration mean,
//! median and min are printed as a table row. No plots or comparison
//! against saved baselines.

#![deny(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time per benchmark measurement.
const MEASUREMENT_WINDOW: Duration = Duration::from_millis(400);
/// Target wall-clock time for warm-up.
const WARMUP_WINDOW: Duration = Duration::from_millis(100);
/// Fewest timed samples behind every reported figure, however slow the
/// routine: a 300 ms routine gets 5 measured iterations, not 1–2.
pub const MIN_SAMPLES: usize = 5;
/// Samples a fast routine's measurement window is split into; each
/// sample times enough back-to-back iterations to fill its share.
const TARGET_SAMPLES: u32 = 50;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

/// A named identifier for one parameterised benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Just the parameter (for groups benchmarking one function over a
    /// sweep).
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// Render to the printed identifier.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n## {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into_id(), f);
        self
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmark a closure under this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, id.into_id()), f);
        self
    }

    /// Benchmark a closure that borrows a fixed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id.into_id()), |b| f(b, input));
        self
    }

    /// End the group (printing is already incremental; kept for API
    /// compatibility).
    pub fn finish(self) {}
}

/// Passed to every benchmark closure; call [`Bencher::iter`] with the code
/// under test.
#[derive(Debug, Default)]
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    /// Per-iteration time of each sample (its elapsed time over its
    /// iteration count).
    samples: Vec<Duration>,
}

impl Bencher {
    /// Measure `routine` repeatedly until the measurement window is full
    /// and at least [`MIN_SAMPLES`] samples are timed.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: at least one call, until the warm-up window is full.
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        while warm_iters == 0 || warm_start.elapsed() < WARMUP_WINDOW {
            black_box(routine());
            warm_iters += 1;
        }
        let warm_mean = warm_start.elapsed() / warm_iters;

        // Measurement, in samples of `per_sample` back-to-back calls.
        let per_sample = ((MEASUREMENT_WINDOW / TARGET_SAMPLES).as_nanos()
            / warm_mean.as_nanos().max(1))
        .clamp(1, u128::from(u32::MAX)) as u32;
        let mut elapsed = Duration::ZERO;
        let mut samples = Vec::new();
        while samples.len() < MIN_SAMPLES || elapsed < MEASUREMENT_WINDOW {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            let dt = t.elapsed();
            elapsed += dt;
            samples.push(dt / per_sample);
        }
        self.iters_done = samples.len() as u64 * u64::from(per_sample);
        self.elapsed = elapsed;
        self.samples = samples;
    }
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, mut f: F) {
    let mut b = Bencher::default();
    f(&mut b);
    if b.iters_done == 0 {
        println!("{id:<48} (no iterations run)");
        return;
    }
    let mean = Duration::from_nanos(
        u64::try_from(b.elapsed.as_nanos() / u128::from(b.iters_done)).unwrap_or(u64::MAX),
    );
    b.samples.sort_unstable();
    println!(
        "{id:<48} mean {:>12} median {:>12} min {:>12} ({} iters, {} samples)",
        format_duration(mean),
        format_duration(median(&b.samples)),
        format_duration(b.samples[0]),
        b.iters_done,
        b.samples.len(),
    );
}

/// The median of ascending, non-empty `sorted` (mean of the middle two
/// for an even count).
fn median(sorted: &[Duration]) -> Duration {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Collect benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running the given groups.
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

    #[test]
    fn bench_function_runs() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        c.bench_function("noop", |b| b.iter(|| calls = calls.wrapping_add(1)));
        assert!(calls > 0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.bench_function("one", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::from_parameter(42), &42u64, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
    }

    #[test]
    fn slow_routines_still_get_the_sample_floor() {
        // A routine slower than the whole measurement window is still
        // timed MIN_SAMPLES times (plus one warm-up call).
        let mut b = Bencher::default();
        let mut calls = 0usize;
        b.iter(|| {
            calls += 1;
            std::thread::sleep(MEASUREMENT_WINDOW / 3);
        });
        assert_eq!(b.samples.len(), MIN_SAMPLES);
        assert_eq!(b.iters_done, MIN_SAMPLES as u64);
        assert_eq!(calls, MIN_SAMPLES + 1);
    }

    #[test]
    fn fast_routines_are_batched_into_samples() {
        let mut b = Bencher::default();
        b.iter(|| black_box(3u64).wrapping_mul(7));
        assert!(b.samples.len() >= MIN_SAMPLES);
        assert!(
            b.iters_done > b.samples.len() as u64,
            "{} iters",
            b.iters_done
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let ms = Duration::from_millis;
        assert_eq!(median(&[ms(1), ms(2), ms(9)]), ms(2));
        assert_eq!(median(&[ms(1), ms(2), ms(4), ms(9)]), ms(3));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(5)), "5 ns");
        assert!(format_duration(Duration::from_micros(5)).contains("µs"));
        assert!(format_duration(Duration::from_millis(5)).contains("ms"));
        assert!(format_duration(Duration::from_secs(5)).contains(" s"));
    }
}
