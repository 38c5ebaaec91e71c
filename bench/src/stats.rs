//! The harness's own arithmetic: percentiles, the "ten samples beyond"
//! rule, `VmHWM` parsing and the stable hash used to compare repetitions.

/// 1-based nearest-rank position of percentile `p` among `n` samples. The
/// small tolerance keeps `99.9 % of 10 000` at 9 990 in floating point.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it — the tail percentile a run of `n` samples may report.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of a few values; the mean of the middle two when even.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// FNV-1a 64 over a sequence of words; repetitions of one workload must
/// agree on it.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[3, 9], 50.0), 3);
        assert_eq!(percentile(&[3, 9], 51.0), 9);
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_reportable_percentile(99), Some(50.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(999), Some(90.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
    }

    #[test]
    fn vm_hwm_is_read_from_the_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t many kB\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a peak RSS");
    }

    #[test]
    fn the_hash_depends_on_every_word_and_their_order() {
        let hash = |words: &[u64]| {
            let mut h = Fnv::new();
            words.iter().for_each(|&w| h.word(w));
            h.hex()
        };
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 3, 2]));
        assert_ne!(hash(&[1, 2]), hash(&[1, 2, 0]));
    }
}
