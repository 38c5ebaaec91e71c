//! Figure-level reporting: the paper's published numbers and the tables
//! that compare a run against them (experiments E2–E5).

use crate::report::{f2, pct_delta, Table};
use crate::runner::PairedOutcome;

/// The values the paper reports for one experiment (Fig. 4+5 or Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Experiment title.
    pub title: &'static str,
    /// Average job execution time, ALP.
    pub time_alp: f64,
    /// Average job execution time, AMP.
    pub time_amp: f64,
    /// Average job execution cost, ALP.
    pub cost_alp: f64,
    /// Average job execution cost, AMP.
    pub cost_amp: f64,
    /// Alternatives per job, ALP.
    pub alts_alp: f64,
    /// Alternatives per job, AMP.
    pub alts_amp: f64,
}

/// Sec. 5's time-minimization experiment (Fig. 4 (a), Fig. 4 (b), Fig. 5,
/// and the prose alternative counts).
pub const FIG4_TARGETS: PaperTargets = PaperTargets {
    title: "Fig. 4 — min T(s̄) s.t. C(s̄) ≤ B*",
    time_alp: 59.85,
    time_amp: 39.01,
    cost_alp: 313.56,
    cost_amp: 369.69,
    alts_alp: 7.39,
    alts_amp: 34.28,
};

/// Sec. 5's cost-minimization experiment (Fig. 6 (a), Fig. 6 (b)).
pub const FIG6_TARGETS: PaperTargets = PaperTargets {
    title: "Fig. 6 — min C(s̄) s.t. T(s̄) ≤ T*",
    time_alp: 61.04,
    time_amp: 51.62,
    cost_alp: 313.09,
    cost_amp: 343.3,
    alts_alp: 7.28,
    alts_amp: 34.23,
};

/// Paper prose: average slots per experiment and jobs per iteration.
pub const PAPER_AVG_SLOTS: f64 = 135.11;
/// Paper prose: average number of jobs in a counted iteration.
pub const PAPER_AVG_JOBS: f64 = 4.18;

/// Builds the paper-vs-measured comparison table for one experiment.
#[must_use]
pub fn comparison_table(outcome: &PairedOutcome, targets: &PaperTargets) -> Table {
    let mut table = Table::new(&["metric", "paper", "measured", "delta"]);
    let rows: [(&str, f64, f64); 6] = [
        (
            "avg job time, ALP",
            targets.time_alp,
            outcome.alp.job_time.mean(),
        ),
        (
            "avg job time, AMP",
            targets.time_amp,
            outcome.amp.job_time.mean(),
        ),
        (
            "avg job cost, ALP",
            targets.cost_alp,
            outcome.alp.job_cost.mean(),
        ),
        (
            "avg job cost, AMP",
            targets.cost_amp,
            outcome.amp.job_cost.mean(),
        ),
        (
            "alternatives/job, ALP",
            targets.alts_alp,
            outcome.alp.alternatives_per_job(),
        ),
        (
            "alternatives/job, AMP",
            targets.alts_amp,
            outcome.amp.alternatives_per_job(),
        ),
    ];
    for (name, paper, measured) in rows {
        table.row(&[
            name.to_string(),
            f2(paper),
            f2(measured),
            pct_delta(measured, paper),
        ]);
    }
    table
}

/// Builds the derived-ratio table: the relations the paper argues from.
#[must_use]
pub fn ratio_table(outcome: &PairedOutcome, targets: &PaperTargets) -> Table {
    let mut table = Table::new(&["ratio", "paper", "measured"]);
    let measured_time = outcome.amp.job_time.mean() / outcome.alp.job_time.mean();
    let measured_cost = outcome.amp.job_cost.mean() / outcome.alp.job_cost.mean();
    let measured_alts = outcome.amp.alternatives_per_job()
        / outcome.alp.alternatives_per_job().max(f64::MIN_POSITIVE);
    table.row(&[
        "AMP time / ALP time".into(),
        f2(targets.time_amp / targets.time_alp),
        f2(measured_time),
    ]);
    table.row(&[
        "AMP cost / ALP cost".into(),
        f2(targets.cost_amp / targets.cost_alp),
        f2(measured_cost),
    ]);
    table.row(&[
        "AMP alts / ALP alts".into(),
        f2(targets.alts_amp / targets.alts_alp),
        f2(measured_alts),
    ]);
    table
}

/// Builds the environment-statistics table (paper prose numbers).
#[must_use]
pub fn environment_table(outcome: &PairedOutcome) -> Table {
    let mut table = Table::new(&["statistic", "paper", "measured"]);
    table.row(&[
        "avg slots per experiment".into(),
        f2(PAPER_AVG_SLOTS),
        f2(outcome.slots.mean()),
    ]);
    table.row(&[
        "avg jobs per iteration".into(),
        f2(PAPER_AVG_JOBS),
        f2(outcome.jobs.mean()),
    ]);
    table.row(&[
        "counted iterations".into(),
        "-".into(),
        format!(
            "{}/{}",
            outcome.counted_iterations, outcome.total_iterations
        ),
    ]);
    table
}

/// Builds the Fig. 5 per-experiment series table (first `limit` counted
/// experiments, ALP vs AMP average job time).
#[must_use]
pub fn series_table(outcome: &PairedOutcome) -> Table {
    let mut table = Table::new(&["experiment", "alp_avg_time", "amp_avg_time"]);
    for (i, seed) in outcome.series.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            f2(seed.alp.avg_time),
            f2(seed.amp.avg_time),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_paired, ExperimentConfig};
    use ecosched_sim::Criterion;

    fn outcome() -> PairedOutcome {
        run_paired(
            &ExperimentConfig {
                iterations: 120,
                criterion: Criterion::MinTimeUnderBudget,
                ..ExperimentConfig::default()
            },
            20,
        )
    }

    #[test]
    fn tables_render_with_all_rows() {
        let o = outcome();
        let t = comparison_table(&o, &FIG4_TARGETS);
        let body = t.render();
        assert!(body.contains("avg job time, ALP"));
        assert!(body.contains("alternatives/job, AMP"));
        assert_eq!(body.lines().count(), 2 + 6);
        let r = ratio_table(&o, &FIG4_TARGETS).render();
        assert!(r.contains("AMP time / ALP time"));
        let e = environment_table(&o).render();
        assert!(e.contains("counted iterations"));
    }

    #[test]
    fn series_table_matches_series_length() {
        let o = outcome();
        let t = series_table(&o);
        assert_eq!(t.render().lines().count(), 2 + o.series.len());
    }

    #[test]
    fn fig4_shape_holds_on_small_run() {
        // Even 120 iterations reproduce the qualitative orderings.
        let o = outcome();
        assert!(o.counted_iterations > 0);
        assert!(o.amp.job_time.mean() < o.alp.job_time.mean());
        assert!(o.amp.job_cost.mean() > o.alp.job_cost.mean());
        assert!(o.amp.alternatives_per_job() > 2.0 * o.alp.alternatives_per_job());
    }
}
