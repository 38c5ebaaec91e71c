//! Local (owner) job flows: the occupancy that fragments each domain's
//! schedule into vacant slots.
//!
//! Owners run their own workloads alongside the VO's global flow; the
//! vacant slots the metascheduler sees are whatever the local schedules
//! leave free. Local jobs here are rigid parallel jobs placed inside one
//! domain; a multi-node local job occupies the *same* span on every chosen
//! node, which is exactly what produces the shared slot start times the
//! paper's generator models with its 0.4 same-start probability.

use std::collections::BTreeMap;

use ecosched_core::{NodeId, Span, TimeDelta, TimePoint};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::IntRange;
use crate::env::cluster::{EnvConfig, Environment, LOCAL_JOB_LENGTH, LOCAL_JOB_NODES};
use crate::rng_ext::draw_int;

/// Busy intervals per node, kept sorted and disjoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Occupancy {
    busy: BTreeMap<NodeId, Vec<Span>>,
}

impl Occupancy {
    /// Creates an empty occupancy map.
    #[must_use]
    pub fn new() -> Self {
        Occupancy::default()
    }

    /// Returns `true` if `span` does not collide with existing busy time on
    /// `node`.
    #[must_use]
    pub fn is_free(&self, node: NodeId, span: Span) -> bool {
        self.busy
            .get(&node)
            .is_none_or(|spans| spans.iter().all(|s| !s.overlaps(span)))
    }

    /// Marks `span` busy on `node`.
    ///
    /// # Panics
    ///
    /// Panics if the span collides with existing busy time — callers must
    /// check [`Occupancy::is_free`] first.
    pub fn occupy(&mut self, node: NodeId, span: Span) {
        assert!(self.is_free(node, span), "double-booked {node} at {span}");
        let spans = self.busy.entry(node).or_default();
        let pos = spans.partition_point(|s| s.start() < span.start());
        spans.insert(pos, span);
    }

    /// The busy spans on `node`, sorted by start.
    #[must_use]
    pub fn busy_spans(&self, node: NodeId) -> &[Span] {
        self.busy.get(&node).map_or(&[], Vec::as_slice)
    }

    /// The vacant spans on `node` within `[0, horizon)` — the complement of
    /// the busy set.
    #[must_use]
    pub fn vacancies(&self, node: NodeId, horizon: TimeDelta) -> Vec<Span> {
        let end = TimePoint::ZERO + horizon;
        let mut cursor = TimePoint::ZERO;
        let mut out = Vec::new();
        for span in self.busy_spans(node) {
            if span.start() > cursor {
                out.push(
                    Span::new(cursor, span.start().min(end)).expect("cursor precedes span start"),
                );
            }
            cursor = cursor.max(span.end());
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            out.push(Span::new(cursor, end).expect("cursor precedes horizon"));
        }
        out.retain(|s| !s.is_empty());
        out
    }

    /// Total busy node-ticks.
    #[must_use]
    pub fn total_busy(&self) -> TimeDelta {
        self.busy
            .values()
            .flat_map(|spans| spans.iter().map(|s| s.length()))
            .sum()
    }
}

/// Generates a local job flow over `env`, returning the resulting
/// occupancy. Placement is best-effort: a drawn job that cannot fit
/// anywhere on its drawn nodes is skipped, mirroring a local manager that
/// only admits what its schedule can hold.
pub fn generate_local_flow<R: Rng + ?Sized>(
    env: &Environment,
    config: &EnvConfig,
    rng: &mut R,
) -> Occupancy {
    let mut occupancy = Occupancy::new();
    let horizon = env.horizon().ticks();
    for domain in env.domains() {
        let jobs = draw_int(rng, config.local_jobs_per_domain);
        for _ in 0..jobs {
            let want = (draw_int(rng, LOCAL_JOB_NODES) as usize).min(domain.len());
            if want == 0 {
                continue;
            }
            let length = draw_int(rng, LOCAL_JOB_LENGTH).min(horizon);
            let latest_start = horizon - length;
            let start = draw_int(rng, IntRange::new(0, latest_start.max(0)));
            let span = Span::new(TimePoint::new(start), TimePoint::new(start + length))
                .expect("length is non-negative");

            // Choose nodes that are free over the span, preferring a random
            // subset — a simple admission policy.
            let mut candidates: Vec<NodeId> = domain
                .resources()
                .iter()
                .map(|r| r.id())
                .filter(|&n| occupancy.is_free(n, span))
                .collect();
            if candidates.len() < want {
                continue; // local job rejected by the local manager
            }
            candidates.shuffle(rng);
            for &node in candidates.iter().take(want) {
                occupancy.occupy(node, span);
            }
        }
    }
    occupancy
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sp(a: i64, b: i64) -> Span {
        Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
    }

    #[test]
    fn occupancy_tracks_busy_and_free() {
        let mut occ = Occupancy::new();
        let n = NodeId::new(0);
        assert!(occ.is_free(n, sp(0, 100)));
        occ.occupy(n, sp(20, 40));
        occ.occupy(n, sp(60, 80));
        assert!(!occ.is_free(n, sp(30, 50)));
        assert!(occ.is_free(n, sp(40, 60)));
        assert_eq!(occ.total_busy(), TimeDelta::new(40));
    }

    #[test]
    fn vacancies_are_the_exact_complement() {
        let mut occ = Occupancy::new();
        let n = NodeId::new(0);
        occ.occupy(n, sp(20, 40));
        occ.occupy(n, sp(60, 80));
        let v = occ.vacancies(n, TimeDelta::new(100));
        assert_eq!(v, vec![sp(0, 20), sp(40, 60), sp(80, 100)]);
        // Busy + vacant = horizon.
        let vacant: TimeDelta = v.iter().map(|s| s.length()).sum();
        assert_eq!(vacant + occ.total_busy(), TimeDelta::new(100));
    }

    #[test]
    fn vacancies_handle_edges() {
        let mut occ = Occupancy::new();
        let n = NodeId::new(0);
        occ.occupy(n, sp(0, 30));
        occ.occupy(n, sp(70, 100));
        assert_eq!(occ.vacancies(n, TimeDelta::new(100)), vec![sp(30, 70)]);
        // Untouched node: one full-horizon vacancy.
        assert_eq!(
            occ.vacancies(NodeId::new(1), TimeDelta::new(50)),
            vec![sp(0, 50)]
        );
        // Fully busy node: no vacancy.
        let mut full = Occupancy::new();
        full.occupy(n, sp(0, 50));
        assert!(full.vacancies(n, TimeDelta::new(50)).is_empty());
    }

    #[test]
    fn busy_beyond_horizon_is_clamped_out() {
        let mut occ = Occupancy::new();
        let n = NodeId::new(0);
        occ.occupy(n, sp(40, 200));
        assert_eq!(occ.vacancies(n, TimeDelta::new(100)), vec![sp(0, 40)]);
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_booking_panics() {
        let mut occ = Occupancy::new();
        occ.occupy(NodeId::new(0), sp(0, 10));
        occ.occupy(NodeId::new(0), sp(5, 15));
    }

    #[test]
    fn local_flow_is_consistent() {
        let cfg = EnvConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let env = Environment::generate(&cfg, &mut rng);
        let occ = generate_local_flow(&env, &cfg, &mut rng);
        // Some load was placed…
        assert!(occ.total_busy().is_positive());
        // …and every busy span stays within the horizon start.
        for (_, r) in env.nodes() {
            for span in occ.busy_spans(r.id()) {
                assert!(span.start() >= TimePoint::ZERO);
                assert!(span.length().is_positive());
            }
        }
    }

    #[test]
    fn multi_node_local_jobs_share_spans() {
        // With ≥6 nodes per domain and jobs up to 4 nodes, shared busy
        // spans (and hence shared release times) appear readily.
        let cfg = EnvConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let env = Environment::generate(&cfg, &mut rng);
        let occ = generate_local_flow(&env, &cfg, &mut rng);
        let mut ends: Vec<TimePoint> = env
            .nodes()
            .flat_map(|(_, r)| occ.busy_spans(r.id()).iter().map(|s| s.end()))
            .collect();
        let before = ends.len();
        ends.sort();
        ends.dedup();
        assert!(ends.len() < before, "expected shared local-job end times");
    }
}
