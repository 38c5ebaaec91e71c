//! Seeded fault injection: the revocation model and repair accounting.
//!
//! The paper's resources are non-dedicated — owner jobs have priority, so
//! a vacant slot published to the metascheduler can be withdrawn between
//! the alternatives search and the launch. The paper's Sec. 5 study keeps
//! the environment static; this module is our extension that injects that
//! churn deterministically so the repair tiers (failover → bounded repair
//! search → postpone) can be exercised and measured.
//!
//! One fault process, driven by the cycle's `ChaCha8Rng`: each published
//! slot is independently withdrawn by its owner with probability
//! [`RevocationConfig::per_slot`].
//!
//! A disabled model ([`RevocationConfig::none`]) draws **nothing** from
//! the RNG, so runs without churn remain byte-identical to the
//! pre-revocation simulator.

use ecosched_core::{Revocation, SlotList, Window};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::{probability, reserved_key, ConfigError};
use crate::rng_ext::draw_bool;

/// Configuration of the revocation fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationConfig {
    /// Independent per-slot revocation probability.
    pub per_slot: f64,
}

// Serde through a derived wire struct, which keeps the keys of the removed
// domain-outage and price-burst processes as reserved constants, switched
// off (`config::reserved_key`).
#[derive(Serialize)]
struct RevocationConfigWire {
    per_slot: f64,
    domain_outage: f64,    // reserved
    nodes_per_domain: i64, // reserved
    price_burst: f64,      // reserved
    burst_fraction: f64,   // reserved
}

const DOMAIN_OUTAGE: f64 = 0.0;
const NODES_PER_DOMAIN: i64 = 8;
const PRICE_BURST: f64 = 0.0;
const BURST_FRACTION: f64 = 0.0;

impl Serialize for RevocationConfig {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.wire().write_json(out);
    }
}

impl<'de> Deserialize<'de> for RevocationConfig {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let mut per_slot = None;
        parser.read_map(|parser, key| match key {
            "per_slot" => parser.field(&mut per_slot, key),
            "domain_outage" => reserved_key(parser, key, &DOMAIN_OUTAGE),
            "nodes_per_domain" => reserved_key(parser, key, &NODES_PER_DOMAIN),
            "price_burst" => reserved_key(parser, key, &PRICE_BURST),
            "burst_fraction" => reserved_key(parser, key, &BURST_FRACTION),
            _ => parser.skip_value(),
        })?;
        Ok(RevocationConfig {
            per_slot: serde::required(per_slot, "per_slot")?,
        })
    }
}

impl RevocationConfig {
    /// The disabled model: no slot is withdrawn and no RNG draw happens.
    #[must_use]
    pub fn none() -> Self {
        RevocationConfig::per_slot(0.0)
    }

    /// The per-slot Bernoulli model at probability `p`.
    #[must_use]
    pub fn per_slot(p: f64) -> Self {
        RevocationConfig { per_slot: p }
    }

    /// Returns `true` if the fault process can fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.per_slot > 0.0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `per_slot` is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        probability(self.per_slot, "per_slot")
    }

    fn wire(&self) -> RevocationConfigWire {
        RevocationConfigWire {
            per_slot: self.per_slot,
            domain_outage: DOMAIN_OUTAGE,
            nodes_per_domain: NODES_PER_DOMAIN,
            price_burst: PRICE_BURST,
            burst_fraction: BURST_FRACTION,
        }
    }
}

impl Default for RevocationConfig {
    /// Disabled — churn is opt-in.
    fn default() -> Self {
        RevocationConfig::none()
    }
}

/// Draws seeded revocations against a published slot list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationModel {
    config: RevocationConfig,
}

impl RevocationModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RevocationConfig::validate`]).
    #[must_use]
    pub fn new(config: RevocationConfig) -> Self {
        config.validate().expect("invalid revocation configuration");
        RevocationModel { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &RevocationConfig {
        &self.config
    }

    /// Draws this cycle's revocations against the published `list`: one
    /// draw per slot, in list order.
    ///
    /// Revocations carry the full `(node, span)` region of the withdrawn
    /// slot — the published list is the owners' offer, so a withdrawal
    /// takes the whole offer back regardless of how the metascheduler has
    /// since carved it. A disabled model returns an empty vector without
    /// touching `rng`.
    pub fn draw<R: Rng + ?Sized>(&self, list: &SlotList, rng: &mut R) -> Vec<Revocation> {
        if !self.config.is_enabled() {
            return Vec::new();
        }
        list.iter()
            .filter(|_| draw_bool(rng, self.config.per_slot))
            .map(|slot| Revocation {
                slot: slot.id(),
                node: slot.node(),
                span: slot.span(),
            })
            .collect()
    }

    /// Draws revocations against the **live** execution state: the vacant
    /// `list` plus the regions currently held by the `leased` windows.
    ///
    /// The batch-cycle path ([`RevocationModel::draw`]) samples the
    /// published list only, so faults can never land on time the repair
    /// tiers have since carved out — a known blind spot (ROADMAP). The
    /// discrete-event engine strikes *mid-cycle*, when committed leases
    /// (including repair-carved replacements) are part of the owners'
    /// exposed surface, so its sampling domain is the union of the vacant
    /// slots and every active lease's used regions. Lease regions are
    /// disjoint from the vacant list by construction (commitment subtracts
    /// them), so the union is a valid slot list.
    ///
    /// The fault process and its RNG draw order are identical to
    /// [`RevocationModel::draw`]; with no active leases the two produce
    /// the same revocations, and a disabled model still returns an empty
    /// vector without touching `rng` — the legacy byte-stability guarantee
    /// is unaffected because the metascheduler keeps calling `draw`.
    pub fn draw_live<'a, R: Rng + ?Sized>(
        &self,
        list: &SlotList,
        leased: impl IntoIterator<Item = &'a Window>,
        rng: &mut R,
    ) -> Vec<Revocation> {
        if !self.config.is_enabled() {
            return Vec::new();
        }
        let mut domain = list.clone();
        for window in leased {
            domain.release_window(window);
        }
        self.draw(&domain, rng)
    }
}

/// Counters describing one cycle's (or one run's) fault-and-repair
/// activity. Every injected revocation is accounted for:
/// `revocations_injected == revocations_breaking + revocations_vacant_only`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Revocations drawn by the model.
    pub revocations_injected: u64,
    /// Revocations whose region intersected at least one committed lease.
    pub revocations_breaking: u64,
    /// Revocations that only removed vacant (uncommitted) time.
    pub revocations_vacant_only: u64,
    /// Committed leases broken by at least one revocation.
    pub leases_broken: u64,
    /// Alternative re-validations attempted during failover (tier 1).
    pub failover_validations: u64,
    /// Failovers whose re-validation failed because a region was revoked.
    pub failover_stale_revoked: u64,
    /// Failovers whose re-validation failed because a region was consumed
    /// by another job's commitment or repair.
    pub failover_stale_consumed: u64,
    /// Broken leases recovered by adopting a surviving alternative.
    pub failovers_taken: u64,
    /// Bounded repair searches started (tier 2).
    pub repairs_attempted: u64,
    /// Bounded repair searches that found a fresh window.
    pub repairs_succeeded: u64,
    /// Total recovered-minus-original window cost over every failover and
    /// repair, in credits (negative when recovery found cheaper windows).
    pub repair_cost_delta: f64,
    /// AMP acceptance tests during repair scans that were rejected by the
    /// job budget — windows the repair refused rather than overspend.
    pub budget_violations_avoided: u64,
    /// Scan-work counters of every repair search, including the
    /// checkpoint-resume proof ([`ScanStats::checkpoint_hits`]).
    ///
    /// [`ScanStats::checkpoint_hits`]: ecosched_select::ScanStats::checkpoint_hits
    pub repair_scan: ecosched_select::ScanStats,
    /// Jobs postponed because the search found no alternatives at all.
    pub postponed_no_alternatives: u64,
    /// Broken jobs postponed after every alternative went stale and the
    /// repair search came up empty.
    pub postponed_stale: u64,
    /// Broken jobs postponed because the repair attempt budget ran out.
    pub postponed_budget_exhausted: u64,
}

impl RepairStats {
    /// Adds another counter set into this one (`repair_scan` merges per
    /// [`ScanStats::merge`]).
    ///
    /// [`ScanStats::merge`]: ecosched_select::ScanStats::merge
    pub fn merge(&mut self, other: &RepairStats) {
        self.revocations_injected += other.revocations_injected;
        self.revocations_breaking += other.revocations_breaking;
        self.revocations_vacant_only += other.revocations_vacant_only;
        self.leases_broken += other.leases_broken;
        self.failover_validations += other.failover_validations;
        self.failover_stale_revoked += other.failover_stale_revoked;
        self.failover_stale_consumed += other.failover_stale_consumed;
        self.failovers_taken += other.failovers_taken;
        self.repairs_attempted += other.repairs_attempted;
        self.repairs_succeeded += other.repairs_succeeded;
        self.repair_cost_delta += other.repair_cost_delta;
        self.budget_violations_avoided += other.budget_violations_avoided;
        self.repair_scan.merge(&other.repair_scan);
        self.postponed_no_alternatives += other.postponed_no_alternatives;
        self.postponed_stale += other.postponed_stale;
        self.postponed_budget_exhausted += other.postponed_budget_exhausted;
    }

    /// Broken leases that recovered without postponing.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.failovers_taken + self.repairs_succeeded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, Span, TimePoint};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn slot(id: u64, node: u32, price: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(price),
            Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap(),
        )
        .unwrap()
    }

    fn list(n: u32) -> SlotList {
        SlotList::from_slots(
            (0..n)
                .map(|i| slot(u64::from(i), i, 2 + i64::from(i)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn disabled_model_draws_nothing() {
        let model = RevocationModel::new(RevocationConfig::none());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(model.draw(&list(20), &mut rng).is_empty());
        // The RNG was untouched: it yields the same stream as a fresh one.
        let mut fresh = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn per_slot_drops_are_seeded_and_plausible() {
        let model = RevocationModel::new(RevocationConfig::per_slot(0.3));
        let draw = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            model.draw(&list(200), &mut rng)
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert!(!a.is_empty() && a.len() < 150, "{} revoked", a.len());
    }

    fn lease_over(node: u32, a: i64, b: i64, price: i64) -> ecosched_core::Lease {
        use ecosched_core::{JobId, Lease, TimeDelta, WindowSlot};
        let member = WindowSlot::from_slot(
            &Slot::new(
                SlotId::new(900 + u64::from(node)),
                NodeId::new(node),
                Perf::UNIT,
                Price::from_credits(price),
                Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
            )
            .unwrap(),
            TimeDelta::new(b - a),
        )
        .unwrap();
        Lease::planned(
            JobId::new(0),
            Window::new(TimePoint::new(a), vec![member]).unwrap(),
        )
    }

    #[test]
    fn live_draw_can_strike_lease_held_regions() {
        // The vacant list covers nodes 0..20; the lease holds carved-out
        // time on node 99 that `draw` could never sample.
        let model = RevocationModel::new(RevocationConfig::per_slot(1.0));
        let leases = [lease_over(99, 200, 260, 3)];
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let revocations = model.draw_live(&list(20), leases.iter().map(|l| &l.window), &mut rng);
        assert_eq!(revocations.len(), 21, "every vacant slot plus the lease");
        let hit = revocations
            .iter()
            .find(|r| r.node == NodeId::new(99))
            .expect("the lease region is part of the sampling domain");
        assert_eq!(
            hit.span,
            Span::new(TimePoint::new(200), TimePoint::new(260)).unwrap()
        );
        assert!(leases[0].broken_by(hit));
    }

    #[test]
    fn live_draw_without_leases_matches_the_legacy_draw() {
        let model = RevocationModel::new(RevocationConfig::per_slot(0.3));
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(
            model.draw_live(&list(30), [], &mut a),
            model.draw(&list(30), &mut b)
        );
    }

    #[test]
    fn disabled_live_draw_touches_no_rng() {
        let model = RevocationModel::new(RevocationConfig::none());
        let leases = [lease_over(5, 0, 40, 2)];
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        assert!(model
            .draw_live(&list(10), leases.iter().map(|l| &l.window), &mut rng)
            .is_empty());
        let mut fresh = ChaCha8Rng::seed_from_u64(10);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn config_validation() {
        assert!(RevocationConfig::none().validate().is_ok());
        assert!(!RevocationConfig::none().is_enabled());
        assert!(RevocationConfig::per_slot(0.1).is_enabled());
        assert_eq!(
            RevocationConfig::per_slot(1.5).validate(),
            Err(ConfigError::NotAProbability { field: "per_slot" })
        );
    }

    #[test]
    fn repair_stats_merge_is_additive() {
        let mut a = RepairStats {
            revocations_injected: 3,
            revocations_breaking: 1,
            revocations_vacant_only: 2,
            failovers_taken: 1,
            repair_cost_delta: -2.5,
            ..RepairStats::default()
        };
        let b = RepairStats {
            revocations_injected: 2,
            revocations_breaking: 2,
            repairs_attempted: 1,
            repair_cost_delta: 4.0,
            ..RepairStats::default()
        };
        a.merge(&b);
        assert_eq!(a.revocations_injected, 5);
        assert_eq!(a.revocations_breaking, 3);
        assert_eq!(a.revocations_vacant_only, 2);
        assert_eq!(a.repairs_attempted, 1);
        assert_eq!(a.recovered(), 1);
        assert!((a.repair_cost_delta - 1.5).abs() < 1e-12);
    }
}
