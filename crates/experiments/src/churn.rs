//! The churn sweep (experiment E14): ALP vs AMP re-run under injected slot
//! revocation.
//!
//! The paper's Sec. 5 study compares the algorithms on a *static*
//! environment. This extension withdraws each published slot with
//! probability `p` after combination optimization and lets the three-tier
//! repair pass (failover → bounded repair search → postpone) recover,
//! re-asking the paper's ALP-vs-AMP question under churn: AMP's larger
//! alternative sets should buy it more failover headroom.

use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::{
    IterationConfig, JobGenConfig, Metascheduler, MetaschedulerReport, RepairStats,
    RevocationConfig, SlotGenConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{f2, Table};

/// Configuration of the churn sweep.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Per-slot revocation probabilities to sweep (0.0 = the paper's
    /// static baseline).
    pub levels: Vec<f64>,
    /// Independent seeded runs per level.
    pub runs: u64,
    /// Metascheduler cycles per run.
    pub cycles: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            levels: vec![0.0, 0.05, 0.10, 0.15],
            runs: 40,
            cycles: 8,
        }
    }
}

/// One algorithm's aggregated outcome at one churn level.
#[derive(Debug, Clone, Default)]
pub struct AlgoChurnOutcome {
    /// Jobs holding a window at cycle end, over all runs and cycles.
    pub scheduled: u64,
    /// Of those, jobs whose planned window survived.
    pub scheduled_intact: u64,
    /// Jobs recovered by adopting a surviving alternative.
    pub failed_over: u64,
    /// Jobs recovered by a bounded repair search.
    pub repaired: u64,
    /// Cycle-end postponements (jobs re-queued to a later cycle).
    pub postponed: u64,
    /// Lease-weighted mean per-job execution time.
    pub avg_time: f64,
    /// Lease-weighted mean per-job execution cost.
    pub avg_cost: f64,
    /// Fault-and-repair totals.
    pub repair: RepairStats,
}

impl AlgoChurnOutcome {
    /// Fraction of broken leases that recovered without postponing
    /// (1.0 when nothing broke).
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        if self.repair.leases_broken == 0 {
            1.0
        } else {
            self.repair.recovered() as f64 / self.repair.leases_broken as f64
        }
    }
}

/// One churn level's paired outcome.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// The per-slot revocation probability.
    pub per_slot: f64,
    /// ALP under this churn level.
    pub alp: AlgoChurnOutcome,
    /// AMP under this churn level.
    pub amp: AlgoChurnOutcome,
}

fn aggregate(reports: &[MetaschedulerReport]) -> AlgoChurnOutcome {
    let mut out = AlgoChurnOutcome::default();
    let (mut time_sum, mut cost_sum) = (0.0, 0.0);
    for report in reports {
        for c in &report.cycles {
            out.scheduled += c.scheduled as u64;
            out.scheduled_intact += c.scheduled_intact as u64;
            out.failed_over += c.failed_over as u64;
            out.repaired += c.repaired as u64;
            out.postponed += c.postponed as u64;
            time_sum += c.avg_time * c.scheduled as f64;
            cost_sum += c.avg_cost * c.scheduled as f64;
            out.repair.merge(&c.repair);
        }
    }
    if out.scheduled > 0 {
        out.avg_time = time_sum / out.scheduled as f64;
        out.avg_cost = cost_sum / out.scheduled as f64;
    }
    out
}

fn run_algo(
    config: &ChurnConfig,
    per_slot: f64,
    selector: impl SlotSelector + Copy,
) -> AlgoChurnOutcome {
    let meta = Metascheduler::new(
        SlotGenConfig::default(),
        JobGenConfig::default(),
        IterationConfig::default(),
    )
    .with_revocation(RevocationConfig::per_slot(per_slot));
    let reports: Vec<MetaschedulerReport> = (0..config.runs)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0000 + seed);
            meta.run(selector, config.cycles, &mut rng)
                .expect("simulation must not fail")
        })
        .collect();
    aggregate(&reports)
}

/// Runs the sweep: both algorithms at every churn level, on identical
/// seeds.
#[must_use]
pub fn run_churn_sweep(config: &ChurnConfig) -> Vec<ChurnPoint> {
    config
        .levels
        .iter()
        .map(|&per_slot| ChurnPoint {
            per_slot,
            alp: run_algo(config, per_slot, Alp::new()),
            amp: run_algo(config, per_slot, Amp::new()),
        })
        .collect()
}

/// Renders the sweep as a table (two rows per churn level).
#[must_use]
pub fn churn_table(points: &[ChurnPoint]) -> Table {
    let mut table = Table::new(&[
        "per_slot",
        "algo",
        "scheduled",
        "intact",
        "failed_over",
        "repaired",
        "postponed",
        "recovery",
        "avg_time",
        "avg_cost",
    ]);
    for p in points {
        for (name, o) in [("ALP", &p.alp), ("AMP", &p.amp)] {
            table.row(&[
                format!("{:.2}", p.per_slot),
                name.to_string(),
                o.scheduled.to_string(),
                o.scheduled_intact.to_string(),
                o.failed_over.to_string(),
                o.repaired.to_string(),
                o.postponed.to_string(),
                f2(o.recovery_rate()),
                f2(o.avg_time),
                f2(o.avg_cost),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig {
            levels: vec![0.0, 0.15],
            runs: 4,
            cycles: 4,
        }
    }

    #[test]
    fn zero_churn_is_the_static_baseline() {
        let points = run_churn_sweep(&small());
        let base = &points[0];
        assert_eq!(base.per_slot, 0.0);
        for o in [&base.alp, &base.amp] {
            assert_eq!(o.repair.revocations_injected, 0);
            assert_eq!(o.scheduled, o.scheduled_intact);
            assert!(o.scheduled > 0);
        }
    }

    #[test]
    fn churn_breaks_and_repairs_leases() {
        let points = run_churn_sweep(&small());
        let churned = &points[1];
        for o in [&churned.alp, &churned.amp] {
            assert!(o.repair.revocations_injected > 0);
            assert_eq!(
                o.repair.revocations_injected,
                o.repair.revocations_breaking + o.repair.revocations_vacant_only
            );
            assert_eq!(
                o.repair.leases_broken,
                o.repair.recovered()
                    + o.repair.postponed_stale
                    + o.repair.postponed_budget_exhausted
            );
        }
        // Somebody must have needed recovery at p = 0.15.
        assert!(churned.alp.repair.leases_broken + churned.amp.repair.leases_broken > 0);
    }

    #[test]
    fn table_has_two_rows_per_level() {
        let points = run_churn_sweep(&small());
        let table = churn_table(&points);
        assert_eq!(table.render().lines().count(), 2 + 2 * points.len());
    }
}
