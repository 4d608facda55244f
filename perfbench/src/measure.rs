//! Statistics, process memory and host-capacity helpers shared by every
//! workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `0..=100`) of an unsorted sample; 0.0 for
/// an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The smallest sample; infinity for an empty one.
pub fn fastest(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean; 0.0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0.0 when the base is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Times `f` once, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Set-ups timed back to back in one set-up sample.
const SETUP_BLOCK: usize = 1000;

/// One set-up sample in seconds: the mean wall time of [`SETUP_BLOCK`]
/// back-to-back calls of `once`, each of which builds and tears down one
/// set-up. Averaging inside a sample keeps microsecond set-ups clear of
/// timer resolution. Workloads take one sample before every measured pass
/// and report the fastest: a set-up takes well under a millisecond, so at
/// least one sample of a run usually falls outside the host's slow phases,
/// while the median moves with how much of the run they cover.
pub fn setup_sample(mut once: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..SETUP_BLOCK {
        once()?;
    }
    Ok(start.elapsed().as_secs_f64() / SETUP_BLOCK as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What the host can run in parallel, recorded with every run so that
/// timings can be read against it.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Throughput of two spinning threads over one: 2.0 on two free cores,
    /// 1.0 when the second thread only time-slices the first one's core.
    pub parallel_capacity: f64,
    /// Wall seconds of one unit of spin work on one thread: a machine-speed
    /// reference for comparing runs on different hosts.
    pub spin_s: f64,
}

/// Spins a fixed amount of integer work.
fn spin(units: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..units {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Measures [`Host`]: the median of three trials of one thread spinning one
/// unit of work against two threads spinning one unit each.
pub fn probe_host() -> Host {
    const UNITS: u64 = 20_000_000;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut one_s = Vec::new();
    let trials: Vec<f64> = (0..3)
        .map(|_| {
            let (_, one) = timed(|| spin(UNITS));
            let (_, two) = timed(|| {
                std::thread::scope(|s| {
                    let a = s.spawn(|| spin(UNITS));
                    let b = s.spawn(|| spin(UNITS));
                    (
                        a.join().expect("spin thread panicked"),
                        b.join().expect("spin thread panicked"),
                    )
                })
            });
            one_s.push(one.as_secs_f64());
            2.0 * one.as_secs_f64() / two.as_secs_f64()
        })
        .collect();
    Host {
        nproc,
        parallel_capacity: median(&trials),
        spin_s: median(&one_s),
    }
}

/// Deterministic 64-bit generator (SplitMix64) for the benchmark's own
/// inputs, so input generation never depends on the program under test.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut g = SplitMix::new(7);
        assert!((0..1000).all(|_| g.below(5) < 5));
    }
}
