//! The complexity experiment (E7): ALP/AMP scale linearly with the number
//! of slots `m`, the backfill-style window search quadratically (Sec. 3's
//! `O(m)` vs `O(m²)` claim).

use std::time::Instant;

use ecosched_baseline::BackfillWindow;
use ecosched_core::{Perf, Price, ResourceRequest, TimeDelta};
use ecosched_select::{Alp, Amp, ScanStats, SlotSelector};
use ecosched_sim::{SlotGenConfig, SlotGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::Table;

/// Work and wall-time measurements for one algorithm at one list size.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgoScaling {
    /// Slots examined by the scan (the deterministic work measure).
    pub slots_examined: u64,
    /// Wall-clock nanoseconds for the search.
    pub nanos: u128,
}

/// Measurements at one list size `m`.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Number of slots in the list.
    pub m: usize,
    /// ALP's work.
    pub alp: AlgoScaling,
    /// AMP's work.
    pub amp: AlgoScaling,
    /// The backfill window search's work.
    pub backfill: AlgoScaling,
}

fn measure(
    selector: &dyn SlotSelector,
    list: &ecosched_core::SlotList,
    request: &ResourceRequest,
) -> AlgoScaling {
    let mut stats = ScanStats::new();
    let started = Instant::now();
    let _ = selector.find_window(list, request, &mut stats);
    AlgoScaling {
        slots_examined: stats.slots_examined,
        nanos: started.elapsed().as_nanos(),
    }
}

/// Runs the scaling sweep. The request is deliberately unsatisfiable
/// (more concurrent nodes than the generated lists ever offer), so every
/// algorithm performs its worst-case full scan — the regime where the
/// complexity claim bites.
#[must_use]
pub fn run_scaling(sizes: &[usize], seed: u64) -> Vec<ScalingPoint> {
    let generator = SlotGenerator::new(SlotGenConfig::default());
    // Generated lists keep ~50–60 concurrent slots alive regardless of m
    // (gap and length distributions are m-independent), so N = 500 never
    // forms a window.
    let request = ResourceRequest::new(
        500,
        TimeDelta::new(100),
        Perf::UNIT,
        Price::from_credits(1_000_000),
    )
    .expect("request parameters are valid");

    sizes
        .iter()
        .map(|&m| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let list = generator.generate_exact(&mut rng, m);
            ScalingPoint {
                m,
                alp: measure(&Alp::new(), &list, &request),
                amp: measure(&Amp::new(), &list, &request),
                backfill: measure(&BackfillWindow::new(), &list, &request),
            }
        })
        .collect()
}

/// The sweep's deterministic work: slots examined per algorithm and size.
#[must_use]
pub fn counts_table(points: &[ScalingPoint]) -> Table {
    let mut table = Table::new(&["m", "alp_examined", "amp_examined", "backfill_examined"]);
    let examined = |a: AlgoScaling| a.slots_examined.to_string();
    for p in points {
        table.row(&[
            p.m.to_string(),
            examined(p.alp),
            examined(p.amp),
            examined(p.backfill),
        ]);
    }
    table
}

/// The sweep's wall times per search, in µs (they differ run to run).
#[must_use]
pub fn timings_table(points: &[ScalingPoint]) -> Table {
    let mut table = Table::new(&["m", "alp_us", "amp_us", "backfill_us"]);
    let micros = |a: AlgoScaling| (a.nanos / 1_000).to_string();
    for p in points {
        table.row(&[
            p.m.to_string(),
            micros(p.alp),
            micros(p.amp),
            micros(p.backfill),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_vs_quadratic_examination_counts() {
        let points = run_scaling(&[200, 400, 800], 7);
        for p in &points {
            // ALP/AMP examine each slot at most once.
            assert_eq!(p.alp.slots_examined, p.m as u64);
            assert_eq!(p.amp.slots_examined, p.m as u64);
            // Backfill re-scans per anchor: strictly super-linear.
            assert!(p.backfill.slots_examined > 4 * p.m as u64);
        }
        // Doubling m doubles ALP work but ~quadruples backfill work.
        let growth_alp = points[2].alp.slots_examined as f64 / points[1].alp.slots_examined as f64;
        let growth_bf =
            points[2].backfill.slots_examined as f64 / points[1].backfill.slots_examined as f64;
        assert!((growth_alp - 2.0).abs() < 0.01);
        assert!(growth_bf > 3.0, "backfill growth {growth_bf}");
    }

    #[test]
    fn table_lists_every_size() {
        let points = run_scaling(&[100, 200], 7);
        for table in [counts_table(&points), timings_table(&points)] {
            let body = table.render();
            assert!(body.contains("100"));
            assert!(body.contains("200"));
        }
    }
}
