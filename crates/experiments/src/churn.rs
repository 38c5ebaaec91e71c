//! The churn sweep (experiment E14): ALP vs AMP on the discrete-event
//! engine under injected slot revocation.
//!
//! The paper's Sec. 5 study compares the algorithms on a *static*
//! environment. This extension strikes every cycle mid-way: each vacant
//! slot and each running lease's region is withdrawn with probability
//! `p`, and the three-tier recovery (failover → bounded repair search →
//! postpone) takes every broken lease, re-asking the paper's ALP-vs-AMP
//! question under churn: AMP's larger alternative sets should buy it more
//! failover headroom.

use ecosched_engine::{Engine, EngineReport};
use ecosched_select::{Alp, Amp, SlotSelector};

use crate::online::{engine_config, OnlineConfig};
use crate::report::{f2, Table};

/// Configuration of the churn sweep.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Per-slot revocation probabilities to sweep (0.0 = the paper's
    /// static baseline).
    pub levels: Vec<f64>,
    /// Independent seeded runs per level.
    pub runs: u64,
    /// Engine cycles per run.
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

/// One algorithm's engine reports at one churn level, summed over runs.
#[derive(Debug, Clone, Default)]
pub struct AlgoChurnOutcome {
    /// Lease commitments made at cycle ticks.
    pub scheduled: u64,
    /// Leases that ran to completion.
    pub completed: u64,
    /// Jobs still pending when each run's event queue drained.
    pub backlog: u64,
    /// Revocations the strikes drew.
    pub revocations: u64,
    /// Running leases broken by a strike.
    pub broken: u64,
    /// Broken leases recovered by adopting a surviving alternative.
    pub failovers: u64,
    /// Broken leases recovered by the bounded repair search.
    pub repairs: u64,
    /// Broken leases returned to the pending queue.
    pub repostponed: u64,
    /// Summed wait of the completed jobs, ticks.
    pub wait: f64,
    /// Summed planned price of the windows committed at cycle ticks.
    /// Failover and repair windows are not booked, and a lease that
    /// later broke still counts its full planned price.
    pub spend: f64,
}

impl AlgoChurnOutcome {
    fn add(&mut self, report: &EngineReport) {
        self.scheduled += report.jobs_scheduled;
        self.completed += report.jobs_completed;
        self.backlog += report.backlog;
        self.revocations += report.revocations;
        self.broken += report.leases_broken;
        self.failovers += report.failovers;
        self.repairs += report.repairs;
        self.repostponed += report.repostponed;
        self.wait += report.mean_wait * report.jobs_completed as f64;
        self.spend += report.vo_spend.iter().sum::<f64>();
    }

    /// Fraction of broken leases recovered by failover or repair
    /// (1.0 when nothing broke).
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        if self.broken == 0 {
            1.0
        } else {
            (self.failovers + self.repairs) as f64 / self.broken as f64
        }
    }

    /// Mean wait over the completed jobs, ticks.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        mean(self.wait, self.completed)
    }

    /// Mean planned commitment cost per scheduled job (see
    /// [`AlgoChurnOutcome::spend`]).
    #[must_use]
    pub fn cost_per_job(&self) -> f64 {
        mean(self.spend, self.scheduled)
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
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

/// Runs one `(level, algo)` cell: the default engine for `cycles`
/// cycles, striking at `per_slot` (disabled at 0), fed a Poisson stream
/// of five jobs per cycle at a mean gap of 12 ticks, so the stream spans
/// the horizon as the default's 40 jobs over 8 cycles do.
fn run_algo(
    config: &ChurnConfig,
    per_slot: f64,
    selector: impl SlotSelector + Copy,
) -> AlgoChurnOutcome {
    let cycles = config.cycles as u32;
    let online = OnlineConfig {
        cycles,
        jobs: 5 * cycles,
        mean_interarrival: 12.0,
        churn: per_slot,
        ..OnlineConfig::default()
    };
    let engine = Engine::new(engine_config(&online, per_slot > 0.0), selector)
        .expect("the churn sweep's engine configuration is valid");
    let mut out = AlgoChurnOutcome::default();
    for run in 0..config.runs {
        let report = engine
            .run(0x5EED_0000 + run)
            .expect("simulation must not fail")
            .report;
        out.add(&report);
    }
    out
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
        "completed",
        "backlog",
        "broken",
        "failover",
        "repaired",
        "repost",
        "recovery",
        "mean_wait",
        "cost_per_job",
    ]);
    for p in points {
        for (name, o) in [("ALP", &p.alp), ("AMP", &p.amp)] {
            table.row(&[
                format!("{:.2}", p.per_slot),
                name.to_string(),
                o.scheduled.to_string(),
                o.completed.to_string(),
                o.backlog.to_string(),
                o.broken.to_string(),
                o.failovers.to_string(),
                o.repairs.to_string(),
                o.repostponed.to_string(),
                f2(o.recovery_rate()),
                f2(o.mean_wait()),
                f2(o.cost_per_job()),
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
            assert_eq!(o.revocations, 0);
            assert_eq!(o.broken, 0);
            assert!(o.scheduled > 0);
        }
    }

    #[test]
    fn churn_breaks_and_repairs_leases() {
        let points = run_churn_sweep(&small());
        let churned = &points[1];
        for o in [&churned.alp, &churned.amp] {
            assert!(o.revocations > 0);
            assert_eq!(o.broken, o.failovers + o.repairs + o.repostponed);
        }
        // Somebody must have needed recovery at p = 0.15.
        assert!(churned.alp.broken + churned.amp.broken > 0);
    }

    #[test]
    fn table_has_two_rows_per_level() {
        let points = run_churn_sweep(&small());
        let table = churn_table(&points);
        assert_eq!(table.render().lines().count(), 2 + 2 * points.len());
    }

    /// E14's claim at the pinned size (`exp_churn --runs 6 --cycles 4`):
    /// at every churn level AMP recovers a larger share of its broken
    /// leases than ALP, reaching the repair tier no more often, and
    /// commits at a higher price per job; without churn nothing breaks.
    #[test]
    fn amp_recovers_more_than_alp_at_every_churn_level() {
        let config = ChurnConfig {
            runs: 6,
            cycles: 4,
            ..ChurnConfig::default()
        };
        for p in run_churn_sweep(&config) {
            let (alp, amp) = (&p.alp, &p.amp);
            assert!(
                amp.cost_per_job() > alp.cost_per_job(),
                "p = {}: AMP {} vs ALP {} per job",
                p.per_slot,
                amp.cost_per_job(),
                alp.cost_per_job()
            );
            if p.per_slot == 0.0 {
                assert_eq!(alp.broken + amp.broken, 0);
                continue;
            }
            assert!(
                amp.recovery_rate() > alp.recovery_rate(),
                "p = {}: AMP recovers {} vs ALP {}",
                p.per_slot,
                amp.recovery_rate(),
                alp.recovery_rate()
            );
            assert!(
                amp.repairs <= alp.repairs,
                "p = {}: AMP repairs {} vs ALP {}",
                p.per_slot,
                amp.repairs,
                alp.repairs
            );
        }
    }
}
