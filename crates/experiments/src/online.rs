//! The online experiment (E15): ALP vs AMP under continuous load on the
//! discrete-event engine.
//!
//! The paper schedules a static batch against a static slot market. The
//! engine replays the same pipeline online: jobs arrive over a Poisson
//! stream, slot batches are published per cycle, leases complete on their
//! own clock and return unused capacity, and (in the churn scenario)
//! mid-cycle revocation strikes break running leases. This re-asks the
//! ALP-vs-AMP question with time in the loop — wait, bounded slowdown and
//! utilization now exist as metrics.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, EngineReport};
use ecosched_select::{Alp, Amp, SlotSelector};
use ecosched_sim::{JobGenConfig, RevocationConfig};

use crate::report::{f2, Table};

/// Configuration of the online experiment.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The engine seed (the run is a pure function of config and seed).
    pub seed: u64,
    /// Scheduling cycles per run.
    pub cycles: u32,
    /// Jobs in the Poisson arrival stream.
    pub jobs: u32,
    /// Mean inter-arrival gap in ticks.
    pub mean_interarrival: f64,
    /// Per-slot revocation probability for the churn scenario.
    pub churn: f64,
    /// Coalesce adjacent vacant slots at each cycle commit (the engine
    /// default); `false` runs the fragmentation A/B baseline.
    pub coalesce: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            seed: 42,
            cycles: 12,
            jobs: 60,
            mean_interarrival: 10.0,
            churn: 0.05,
            coalesce: true,
        }
    }
}

/// One engine run's labelled outcome.
#[derive(Debug, Clone)]
pub struct OnlinePoint {
    /// `"calm"` or `"churn"`.
    pub scenario: &'static str,
    /// `"ALP"` or `"AMP"`.
    pub algo: &'static str,
    /// The engine's aggregate report.
    pub report: EngineReport,
}

/// Builds the engine configuration for one scenario of the experiment.
#[must_use]
pub fn engine_config(config: &OnlineConfig, churn: bool) -> EngineConfig {
    EngineConfig {
        cycles: config.cycles,
        revocation: if churn {
            RevocationConfig::per_slot(config.churn)
        } else {
            RevocationConfig::none()
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: config.mean_interarrival,
            jobs: config.jobs,
            job_gen: JobGenConfig::default(),
        },
        coalesce: config.coalesce,
        ..EngineConfig::default()
    }
}

fn run_one(
    config: &OnlineConfig,
    scenario: &'static str,
    algo: &'static str,
    selector: impl SlotSelector + Copy,
) -> OnlinePoint {
    let engine = Engine::new(engine_config(config, scenario == "churn"), selector)
        .expect("experiment configuration is valid");
    let run = engine.run(config.seed).expect("engine run must not fail");
    OnlinePoint {
        scenario,
        algo,
        report: run.report,
    }
}

/// Runs the full grid: (calm, churn) × (ALP, AMP), one seeded engine run
/// each, all on the same seed.
#[must_use]
pub fn run_online(config: &OnlineConfig) -> Vec<OnlinePoint> {
    vec![
        run_one(config, "calm", "ALP", Alp::new()),
        run_one(config, "calm", "AMP", Amp::new()),
        run_one(config, "churn", "ALP", Alp::new()),
        run_one(config, "churn", "AMP", Amp::new()),
    ]
}

/// One saturation-sweep cell: the same online pipeline at one offered
/// load, the job count scaled so the Poisson stream spans the whole
/// horizon at every gap.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Mean inter-arrival gap in ticks (smaller = more offered load).
    pub mean_gap: f64,
    /// `"ALP"` or `"AMP"`.
    pub algo: &'static str,
    /// The engine's aggregate report.
    pub report: EngineReport,
}

/// The default gap ladder: a factor-of-two descent from the E15 default
/// offered load down past saturation.
pub const SATURATION_GAPS: [f64; 5] = [10.0, 5.0, 2.5, 1.25, 0.625];

/// Jobs needed for a Poisson stream at `gap` to span the run's horizon.
#[must_use]
pub fn jobs_for_gap(config: &OnlineConfig, gap: f64) -> u32 {
    let horizon = f64::from(config.cycles) * 60.0;
    ((horizon / gap.max(0.01)).ceil() as u32).max(1)
}

/// Runs the saturation sweep: for each gap in `gaps`, both algorithms on
/// the calm scenario with the job count scaled to keep the stream
/// horizon-long. The end-of-run `backlog` column locates the knee where
/// the market stops absorbing the offered load — the service daemon's
/// default admission bound (`max_backlog`) sits just above it.
#[must_use]
pub fn run_saturation(config: &OnlineConfig, gaps: &[f64]) -> Vec<SaturationPoint> {
    let mut points = Vec::new();
    for &gap in gaps {
        let cell = OnlineConfig {
            mean_interarrival: gap,
            jobs: jobs_for_gap(config, gap),
            ..config.clone()
        };
        for (algo, point) in [
            ("ALP", run_one(&cell, "calm", "ALP", Alp::new())),
            ("AMP", run_one(&cell, "calm", "AMP", Amp::new())),
        ] {
            points.push(SaturationPoint {
                mean_gap: gap,
                algo,
                report: point.report,
            });
        }
    }
    points
}

/// Renders the saturation sweep as a table.
#[must_use]
pub fn saturation_table(points: &[SaturationPoint]) -> Table {
    let mut table = Table::new(&[
        "mean_gap",
        "algo",
        "arrived",
        "scheduled",
        "completed",
        "backlog",
        "mean_wait",
        "slowdown",
        "util",
    ]);
    for p in points {
        let r = &p.report;
        table.row(&[
            f2(p.mean_gap),
            p.algo.to_string(),
            r.jobs_arrived.to_string(),
            r.jobs_scheduled.to_string(),
            r.jobs_completed.to_string(),
            r.backlog.to_string(),
            f2(r.mean_wait),
            f2(r.mean_bounded_slowdown),
            f2(r.utilization),
        ]);
    }
    table
}

/// Renders the online grid as a table.
#[must_use]
pub fn online_table(points: &[OnlinePoint]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "algo",
        "arrived",
        "scheduled",
        "completed",
        "backlog",
        "mean_wait",
        "slowdown",
        "util",
        "broken",
        "failover",
        "repaired",
        "repost",
    ]);
    for p in points {
        let r = &p.report;
        table.row(&[
            p.scenario.to_string(),
            p.algo.to_string(),
            r.jobs_arrived.to_string(),
            r.jobs_scheduled.to_string(),
            r.jobs_completed.to_string(),
            r.backlog.to_string(),
            f2(r.mean_wait),
            f2(r.mean_bounded_slowdown),
            f2(r.utilization),
            r.leases_broken.to_string(),
            r.failovers.to_string(),
            r.repairs.to_string(),
            r.repostponed.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OnlineConfig {
        OnlineConfig {
            cycles: 4,
            jobs: 16,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn grid_covers_both_scenarios_and_algorithms() {
        let points = run_online(&small());
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.report.jobs_arrived, 16);
            assert!(p.report.jobs_scheduled > 0, "{}/{}", p.scenario, p.algo);
        }
        // Churn scenarios must actually inject faults.
        assert!(points
            .iter()
            .filter(|p| p.scenario == "churn")
            .all(|p| p.report.revocations > 0));
        // Calm scenarios must not.
        assert!(points
            .iter()
            .filter(|p| p.scenario == "calm")
            .all(|p| p.report.revocations == 0));
    }

    #[test]
    fn online_runs_are_reproducible() {
        let a = run_online(&small());
        let b = run_online(&small());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.report.log_hash, y.report.log_hash);
            assert_eq!(x.report.to_json(), y.report.to_json());
        }
    }

    #[test]
    fn saturation_sweep_is_deterministic_and_finds_a_knee() {
        let config = small();
        let gaps = [10.0, 1.25];
        let points = run_saturation(&config, &gaps);
        assert_eq!(points.len(), 4);
        let again = run_saturation(&config, &gaps);
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.report.log_hash, b.report.log_hash);
        }
        for algo in ["ALP", "AMP"] {
            let find = |gap: f64| {
                points
                    .iter()
                    .find(|p| p.algo == algo && (p.mean_gap - gap).abs() < 1e-9)
                    .expect("cell present")
            };
            let calm = find(10.0);
            let hot = find(1.25);
            assert!(
                hot.report.jobs_arrived > calm.report.jobs_arrived,
                "{algo}: offered load must rise as the gap shrinks"
            );
            assert!(
                hot.report.backlog >= calm.report.backlog,
                "{algo}: past the knee the end-of-run backlog cannot shrink \
                 ({} vs {})",
                hot.report.backlog,
                calm.report.backlog
            );
        }
    }

    #[test]
    fn tables_have_one_row_per_point() {
        let config = small();
        let online = run_online(&config);
        assert_eq!(
            online_table(&online).render().lines().count(),
            2 + online.len()
        );
    }
}
