//! The federation experiment (E18): throughput, backlog, and cross-shard
//! co-allocation frequency as the same offered load is spread over more
//! scheduling domains.
//!
//! The paper schedules one virtual organisation against one slot market.
//! The federation layer asks the multi-VO question: S shard engines each
//! publish their own market, a superscheduler routes one shared Poisson
//! stream across them (cheapest-feasible-window probes here, so wide
//! jobs that fit no single shard can trigger cross-shard
//! co-allocation), and the merged `(time, seq, shard)` event log keeps
//! the whole federation deterministic. The sweep varies shard count ×
//! arrival intensity at a fixed total market size, so it isolates the
//! cost of partitioning: the same nodes, the same stream, only the
//! administrative boundaries move.

use ecosched_engine::{ArrivalConfig, EngineConfig};
use ecosched_federation::{Federation, FederationConfig, FederationReport, RoutePolicy};
use ecosched_select::SlotSelector;
use ecosched_sim::IntRange;

use crate::online::{engine_config, jobs_for_gap, OnlineConfig};
use crate::report::{f2, Table};

/// Shard counts the E18 sweep covers.
pub const FEDERATION_SHARDS: [u32; 4] = [1, 2, 4, 8];

/// Mean inter-arrival gaps (ticks) the E18 sweep covers, calm to busy.
pub const FEDERATION_GAPS: [f64; 3] = [10.0, 5.0, 2.5];

/// One labelled cell of the federation sweep.
#[derive(Debug, Clone)]
pub struct FederationPoint {
    /// Shard engines in the federation.
    pub shards: u32,
    /// Mean inter-arrival gap of the offered stream, in ticks.
    pub mean_gap: f64,
    /// The aggregate federation report.
    pub report: FederationReport,
}

/// The base single-engine scenario a federation cell shards: the E15
/// arrival model at the given gap, with the job count scaled so the
/// stream spans the horizon at every intensity, and the per-cycle slot
/// market divided by the shard count so the *total* market is the same
/// in every cell. At `shards == 1` the market is the paper's full
/// `[120, 150]` slots — the byte-identity theorem compares against this
/// configuration. At `shards == 8` each shard publishes an eighth of it,
/// which is what makes partitioning visible: wide jobs that fit the
/// whole market no longer fit any one shard, so routing falls through
/// to cross-shard co-allocation.
///
/// One deliberate deviation from the paper's Sec. 5 generator: jobs are
/// wider (`[1, 20]` nodes instead of `[1, 6]`) so the widest jobs
/// exceed an eighth-sized shard's *entire* per-cycle market (`[15, 18]`
/// slots) while still fitting the undivided one — without wide jobs the
/// cross-shard question is vacuous, because every job that fits the
/// whole market also fits every shard.
#[must_use]
pub fn base_config(config: &OnlineConfig, shards: u32, mean_gap: f64) -> EngineConfig {
    let scaled = OnlineConfig {
        mean_interarrival: mean_gap,
        jobs: jobs_for_gap(config, mean_gap),
        ..config.clone()
    };
    let mut cfg = engine_config(&scaled, false);
    let split = i64::from(shards.max(1));
    cfg.slot_gen.slot_count = IntRange::new(
        (cfg.slot_gen.slot_count.lo / split).max(1),
        (cfg.slot_gen.slot_count.hi / split).max(1),
    );
    if let ArrivalConfig::Poisson { job_gen, .. } = &mut cfg.arrivals {
        job_gen.nodes = IntRange::new(1, 20);
    }
    cfg
}

/// The federation configuration of one sweep cell: cheapest-probe
/// routing with cross-shard co-allocation enabled — the configuration
/// where every layer of the subsystem (probing, routing, cross-shard
/// carve and lease or return) is exercised.
#[must_use]
pub fn fed_config(config: &OnlineConfig, shards: u32, mean_gap: f64) -> FederationConfig {
    FederationConfig {
        route: RoutePolicy::CheapestProbe,
        cross_shard: shards > 1,
        // The default 4 rounds models an impatient superscheduler; the
        // sweep's markets jitter slot starts independently per shard, so
        // the alignment fixed point needs a longer walk to find a start
        // every shard can agree on.
        max_align_rounds: 32,
        // Independently jittered markets almost never publish slots at
        // exactly equal ticks, so grant the co-allocator half a cycle of
        // launch slack (parts reserved early idle until the last one is
        // up) — without it the alignment walk overshoots the thin
        // future-start supply and nearly every attempt dies infeasible.
        align_tolerance: EngineConfig::default().cycle_length / 2,
        ..FederationConfig::new(base_config(config, shards, mean_gap), shards)
    }
}

/// Runs one federation cell.
///
/// # Panics
///
/// On an invalid configuration or a shard failure — experiment
/// configurations are static and valid by construction.
#[must_use]
pub fn run_cell<S: SlotSelector + Copy>(
    config: &OnlineConfig,
    selector: S,
    shards: u32,
    mean_gap: f64,
) -> FederationPoint {
    let federation =
        Federation::new(fed_config(config, shards, mean_gap), selector).expect("valid config");
    let run = federation
        .run(config.seed)
        .expect("federated run must not fail");
    FederationPoint {
        shards,
        mean_gap,
        report: run.report,
    }
}

/// Runs the full sweep: every shard count × every arrival gap, one
/// seeded federated run each, all on the same seed.
#[must_use]
pub fn run_federation_sweep<S: SlotSelector + Copy>(
    config: &OnlineConfig,
    selector: S,
    shard_counts: &[u32],
    gaps: &[f64],
) -> Vec<FederationPoint> {
    let mut points = Vec::new();
    for &shards in shard_counts {
        for &gap in gaps {
            points.push(run_cell(config, selector, shards, gap));
        }
    }
    points
}

/// The virtual-time horizon of one cell, in ticks.
fn horizon_ticks(config: &OnlineConfig) -> f64 {
    let cfg = EngineConfig::default();
    (f64::from(config.cycles.max(1) - 1) * cfg.cycle_length as f64).max(1.0)
}

/// Renders the E18 table: one row per cell with throughput (completions
/// per 100 ticks of horizon), end-of-run backlog, and cross-shard
/// placement frequency.
#[must_use]
pub fn federation_table(config: &OnlineConfig, points: &[FederationPoint]) -> Table {
    let mut table = Table::new(&[
        "shards",
        "gap",
        "offered",
        "completed",
        "thpt/100t",
        "backlog",
        "xshard",
        "xshard %",
        "fallbacks",
        "probes",
        "merged hash",
    ]);
    let horizon = horizon_ticks(config);
    for p in points {
        let offered = p.report.jobs_offered;
        let xshard = p.report.routing.cross_shard_committed;
        table.row(&[
            p.shards.to_string(),
            f2(p.mean_gap),
            offered.to_string(),
            p.report.jobs_completed.to_string(),
            f2(p.report.jobs_completed as f64 / horizon * 100.0),
            p.report.backlog.to_string(),
            xshard.to_string(),
            f2(if offered > 0 {
                xshard as f64 / offered as f64 * 100.0
            } else {
                0.0
            }),
            p.report.routing.fallback_submits.to_string(),
            p.report.routing.probes.to_string(),
            p.report.merged_log_hash.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_select::Amp;

    fn small() -> OnlineConfig {
        OnlineConfig {
            cycles: 6,
            jobs: 24,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn sweep_cells_are_reproducible() {
        let config = small();
        let a = run_cell(&config, Amp::new(), 4, 5.0);
        let b = run_cell(&config, Amp::new(), 4, 5.0);
        assert_eq!(a.report.merged_log_hash, b.report.merged_log_hash);
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert!(a.report.jobs_offered > 0);
    }

    #[test]
    fn single_shard_cell_matches_the_plain_engine() {
        let config = small();
        let point = run_cell(&config, Amp::new(), 1, 10.0);
        let engine = ecosched_engine::Engine::new(base_config(&config, 1, 10.0), Amp::new())
            .expect("config");
        let run = engine.run(config.seed).expect("run");
        let shard = &point.report.shards[0];
        assert_eq!(shard.to_json(), run.report.to_json());
        assert_eq!(
            point.report.merged_events, run.report.event_count,
            "merged log covers exactly the engine's events"
        );
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let config = small();
        let points = run_federation_sweep(&config, Amp::new(), &[1, 2], &[10.0]);
        let table = federation_table(&config, &points);
        assert_eq!(table.render().lines().count(), 2 + 2);
    }
}
