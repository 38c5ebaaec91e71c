//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in is a small VM on a shared host. The
//! same deterministic repetition takes up to a quarter longer in one
//! half-minute than in the next — the processor is shared, not the guest
//! busy, so the guest's clocks cannot see it — and a 10-second run mostly
//! reports which half-minute it landed in (interquartile spread of 10–25 %
//! between runs, measured; see `README.md`).
//!
//! So about every [`CALIBRATE_EVERY_NS`] the harness runs, on the measuring
//! thread, two small kernels of fixed work: one churns an ordered map with
//! small allocations, one builds a DP row from the row before it — the two
//! things the schedulers spend their time on, and the two ways the host's
//! slowness shows (the first follows contention for the core, the second
//! contention for memory). How long the kernels take just then, against
//! what they take on a quiet host, is the *slowdown*; measured time divided
//! by the slowdown around it is *reference time*: what the work would have
//! taken on the quiet host. On the quiet host reference time is measured
//! time.

use std::collections::BTreeMap;
use std::hint::black_box;

/// Work between two calibrations, at least; a calibration waits for the
/// next operation boundary.
pub const CALIBRATE_EVERY_NS: u64 = 40_000_000;

/// Kernel passes per calibration.
const PASSES: usize = 3;

/// What the kernels take on the host the baseline in `README.md` was
/// measured on when it is quiet (the lowest decile of a typical run). Only
/// a scale: every time the benchmark reports is proportional to it.
const REFERENCE_NS: [f64; 2] = [240_000.0, 250_000.0];

/// The slowdown at a moment is taken from the passes at most this far from
/// it on the clock, ...
const WINDOW_NS: u64 = 1_000_000_000;
/// ... from at least this many of them, ...
const MIN_PASSES: usize = 9;
/// ... as their lowest decile: a pass that an interrupt or another tenant's
/// burst lengthened says nothing about the minute's speed.
const QUANTILE: f64 = 0.1;

const MAP_OPS: usize = 1500;
const MAP_KEYS: u64 = 512;
const ROW_LEN: usize = 200_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pass of both kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// When it ended, on the run's clock.
    pub at_ns: u64,
    /// What the map kernel and the row kernel took.
    pub kernel_ns: [u64; 2],
}

pub struct Calibrator {
    rows: [Vec<i64>; 2],
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            rows: [(0..ROW_LEN as i64).collect(), vec![0; ROW_LEN]],
        }
    }

    /// Insert-or-remove on an ordered map whose values are small vectors.
    fn map_kernel() -> usize {
        let mut map = BTreeMap::new();
        let mut state = 7;
        for _ in 0..MAP_OPS {
            let key = splitmix(&mut state) % MAP_KEYS;
            if map.remove(&key).is_none() {
                map.insert(key, vec![key; 4 + (key % 13) as usize]);
            }
        }
        map.len()
    }

    /// A DP row from the one before it: stay, or take an item.
    fn row_kernel(&mut self) -> i64 {
        const SHIFT: usize = 37;
        let [prev, next] = &mut self.rows;
        for j in 0..ROW_LEN {
            let take = if j >= SHIFT {
                prev[j - SHIFT] + 11
            } else {
                i64::MAX
            };
            next[j] = prev[j].min(take);
        }
        self.rows.swap(0, 1);
        self.rows[0][ROW_LEN / 2]
    }

    fn pass(&mut self, now_ns: &impl Fn() -> u64) -> Pass {
        let start = now_ns();
        black_box(Self::map_kernel());
        let between = now_ns();
        black_box(self.row_kernel());
        let at_ns = now_ns();
        Pass {
            at_ns,
            kernel_ns: [between - start, at_ns - between],
        }
    }

    /// Runs the kernels [`PASSES`] times, timed on the clock `now_ns`.
    pub fn calibrate(&mut self, now_ns: impl Fn() -> u64, passes: &mut Vec<Pass>) {
        passes.extend((0..PASSES).map(|_| self.pass(&now_ns)));
    }
}

/// The low quantile the slowdown is read from.
fn low_quantile(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    values[(values.len() as f64 * QUANTILE) as usize] as f64
}

/// How much slower than the quiet reference host the host ran around
/// `at_ns`, from the passes of a run in clock order: the geometric mean of
/// the two kernels' slowdowns.
pub fn slowdown(passes: &[Pass], at_ns: u64) -> f64 {
    assert!(!passes.is_empty(), "a run calibrates before it measures");
    let mut lo = passes.partition_point(|p| p.at_ns + WINDOW_NS < at_ns);
    let mut hi = passes.partition_point(|p| p.at_ns <= at_ns + WINDOW_NS);
    // A long operation leaves few passes near its middle: widen.
    while hi - lo < MIN_PASSES.min(passes.len()) {
        lo = lo.saturating_sub(1);
        hi = (hi + 1).min(passes.len());
    }
    let near = &passes[lo..hi];
    let ratio = |kernel: usize| {
        low_quantile(near.iter().map(|p| p.kernel_ns[kernel]).collect()) / REFERENCE_NS[kernel]
    };
    (ratio(0) * ratio(1)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(at_ms: u64, map_ns: u64, row_ns: u64) -> Pass {
        Pass {
            at_ns: at_ms * 1_000_000,
            kernel_ns: [map_ns, row_ns],
        }
    }

    #[test]
    fn the_kernels_do_the_same_work_every_time() {
        assert_eq!(Calibrator::map_kernel(), Calibrator::map_kernel());
        let mut c = Calibrator::new();
        let first = c.row_kernel();
        let mut again = Calibrator::new();
        assert_eq!(again.row_kernel(), first);
        let mut passes = Vec::new();
        let epoch = std::time::Instant::now();
        c.calibrate(|| epoch.elapsed().as_nanos() as u64, &mut passes);
        assert_eq!(passes.len(), PASSES);
        assert!(passes.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(passes.iter().all(|p| p.kernel_ns.iter().all(|&ns| ns > 0)));
    }

    #[test]
    fn a_quiet_host_has_slowdown_one_and_a_slow_one_more() {
        let [map, row] = REFERENCE_NS.map(|ns| ns as u64);
        let quiet: Vec<Pass> = (0..20).map(|i| pass(i * 10, map, row)).collect();
        assert!((slowdown(&quiet, 100_000_000) - 1.0).abs() < 1e-9);
        // Both kernels a quarter slower: the work took a quarter longer.
        let slow: Vec<Pass> = (0..20)
            .map(|i| pass(i * 10, map * 5 / 4, row * 5 / 4))
            .collect();
        assert!((slowdown(&slow, 100_000_000) - 1.25).abs() < 1e-9);
        // One kernel only: the geometric mean.
        let mixed: Vec<Pass> = (0..20).map(|i| pass(i * 10, map * 4, row)).collect();
        assert!((slowdown(&mixed, 100_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn disturbed_passes_do_not_count() {
        let [map, row] = REFERENCE_NS.map(|ns| ns as u64);
        // Four passes in five were hit by something; the quiet fifth tells
        // the speed.
        let passes: Vec<Pass> = (0..50)
            .map(|i| {
                let hit = if i % 5 == 0 { 1 } else { 3 };
                pass(i * 10, map * hit, row * hit)
            })
            .collect();
        assert!((slowdown(&passes, 250_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn the_slowdown_is_local() {
        let [map, row] = REFERENCE_NS.map(|ns| ns as u64);
        // Quiet for five seconds, then half speed for five.
        let passes: Vec<Pass> = (0..1000)
            .map(|i| {
                let k = if i < 500 { 1 } else { 2 };
                pass(i * 10, map * k, row * k)
            })
            .collect();
        assert!((slowdown(&passes, 2_000_000_000) - 1.0).abs() < 1e-9);
        assert!((slowdown(&passes, 8_000_000_000) - 2.0).abs() < 1e-9);
        // Far from every pass the nearest ones are used.
        assert!((slowdown(&passes, 60_000_000_000) - 2.0).abs() < 1e-9);
        assert!((slowdown(&passes[..3], 0) - 1.0).abs() < 1e-9);
    }
}
