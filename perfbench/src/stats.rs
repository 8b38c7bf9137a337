//! Order statistics and process probes shared by every workload.

use std::time::Duration;

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples per window of [`windowed`]: ten lie beyond a window's p99.
pub const WINDOW: usize = 1000;

/// A tail percentile robust to stalls from outside the benchmark (the
/// host stealing a vCPU for a few milliseconds): the median, over windows
/// of [`WINDOW`] consecutive samples, of each window's `q` quantile. A
/// stall the server causes itself recurs in most windows and still shows.
pub fn windowed(samples: &[f64], q: f64) -> f64 {
    windowed_by(samples, q, WINDOW)
}

/// [`windowed`] with windows of `window` samples.
pub fn windowed_by(samples: &[f64], q: f64, window: usize) -> f64 {
    if samples.len() < 2 * window {
        return quantile(samples, q);
    }
    let per_window: Vec<f64> = samples
        .chunks(window)
        .filter(|chunk| chunk.len() == window)
        .map(|chunk| quantile(chunk, q))
        .collect();
    median(&per_window)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the calling thread has run for, in seconds.
pub fn thread_cpu_s() -> f64 {
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    schedstat
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
    }
}
