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

/// Draws seeded revocations against the live market.
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

    /// Draws revocations against the **live** market: the vacant `list`
    /// plus the regions currently held by the `leased` windows, one draw
    /// per slot of that union, in start order.
    ///
    /// The engine strikes *mid-cycle*, when committed leases (including
    /// windows adopted by failover and repair-carved replacements) are
    /// part of the owners' exposed surface. Lease regions are disjoint
    /// from the vacant list by construction (commitment subtracts them),
    /// so the union is a valid slot list. Each revocation carries the
    /// full `(node, span)` region of the struck slot: a withdrawal takes
    /// the whole offer back, however the metascheduler has since carved
    /// it. A disabled model returns an empty vector without touching
    /// `rng`.
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
        domain
            .iter()
            .filter(|_| draw_bool(rng, self.config.per_slot))
            .map(|slot| Revocation {
                slot: slot.id(),
                node: slot.node(),
                span: slot.span(),
            })
            .collect()
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
        assert!(model.draw_live(&list(20), [], &mut rng).is_empty());
        // The RNG was untouched: it yields the same stream as a fresh one.
        let mut fresh = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn per_slot_drops_are_seeded_and_plausible() {
        let model = RevocationModel::new(RevocationConfig::per_slot(0.3));
        let draw = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            model.draw_live(&list(200), [], &mut rng)
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert!(!a.is_empty() && a.len() < 150, "{} revoked", a.len());
    }

    fn window_over(node: u32, a: i64, b: i64, price: i64) -> Window {
        use ecosched_core::{TimeDelta, WindowSlot};
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
        Window::new(TimePoint::new(a), vec![member]).unwrap()
    }

    #[test]
    fn live_draw_can_strike_lease_held_regions() {
        // The vacant list covers nodes 0..20; the lease holds carved-out
        // time on node 99 that a draw over the vacant list alone could
        // never sample.
        let model = RevocationModel::new(RevocationConfig::per_slot(1.0));
        let leases = [window_over(99, 200, 260, 3)];
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let revocations = model.draw_live(&list(20), &leases, &mut rng);
        assert_eq!(revocations.len(), 21, "every vacant slot plus the lease");
        let hit = revocations
            .iter()
            .find(|r| r.node == NodeId::new(99))
            .expect("the lease region is part of the sampling domain");
        assert_eq!(
            hit.span,
            Span::new(TimePoint::new(200), TimePoint::new(260)).unwrap()
        );
        assert!(hit.breaks(&leases[0]));
    }

    #[test]
    fn live_draw_takes_one_draw_per_slot_in_list_order() {
        // The draw order is part of every seeded run: one Bernoulli draw
        // per slot of the surface, in start order, each hit taking the
        // whole slot.
        let model = RevocationModel::new(RevocationConfig::per_slot(0.3));
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let expected: Vec<Revocation> = list(30)
            .iter()
            .filter(|_| draw_bool(&mut b, 0.3))
            .map(|slot| Revocation {
                slot: slot.id(),
                node: slot.node(),
                span: slot.span(),
            })
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(model.draw_live(&list(30), [], &mut a), expected);
    }

    #[test]
    fn disabled_live_draw_touches_no_rng() {
        let model = RevocationModel::new(RevocationConfig::none());
        let leases = [window_over(5, 0, 40, 2)];
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        assert!(model.draw_live(&list(10), &leases, &mut rng).is_empty());
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
}
