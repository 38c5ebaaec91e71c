//! Resource domains (clusters) and the environment they form.
//!
//! The paper's model assumes non-dedicated resources grouped in domains
//! ("clusters, computational nodes equipped with multicore processors"),
//! whose local managers publish vacant slots. The study itself generated
//! slot lists directly "instead of generating the whole distributed system
//! model"; this module builds that skipped substrate so the directly
//! generated lists can be validated against first principles.

use std::fmt;

use ecosched_core::{NodeId, Perf, Price, Resource, TimeDelta};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::{positive_int, ConfigError, IntRange, SlotGenConfig};
use crate::rng_ext::{draw_int, draw_real};

/// Identifier of a resource domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId(u32);

impl DomainId {
    /// Creates a domain identifier.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        DomainId(index)
    }

    /// Returns the underlying index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain{}", self.0)
    }
}

/// A cluster of computational nodes under one local resource manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    id: DomainId,
    resources: Vec<Resource>,
}

impl Domain {
    /// Creates a domain from its nodes.
    #[must_use]
    pub fn new(id: DomainId, resources: Vec<Resource>) -> Self {
        Domain { id, resources }
    }

    /// The domain identifier.
    #[must_use]
    pub const fn id(&self) -> DomainId {
        self.id
    }

    /// The nodes of the domain.
    #[must_use]
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Returns `true` for a nodeless domain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

/// Configuration of the random environment generator: the three counts
/// E10 and E12 set differently. Node rates and prices follow the slot
/// study ([`SlotGenConfig::default`]'s `node_perf`, `price_base` and
/// `price_jitter`); the horizon and the local jobs' shape are constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Number of domains. Default `[2, 5]`.
    pub domains: IntRange,
    /// Nodes per domain. Default `[6, 16]`.
    pub nodes_per_domain: IntRange,
    /// Local (owner) jobs per domain. Default `[6, 14]`.
    pub local_jobs_per_domain: IntRange,
}

/// The scheduling horizon the local managers publish.
pub(crate) const HORIZON: i64 = 600;
/// Nodes each local job occupies within its domain.
pub(crate) const LOCAL_JOB_NODES: IntRange = IntRange { lo: 1, hi: 4 };
/// Local job length.
pub(crate) const LOCAL_JOB_LENGTH: IntRange = IntRange { lo: 30, hi: 150 };

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            domains: IntRange::new(2, 5),
            nodes_per_domain: IntRange::new(6, 16),
            local_jobs_per_domain: IntRange::new(6, 14),
        }
    }
}

impl EnvConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field:
    /// non-positive domain or node counts, or a negative local-job count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        positive_int(self.domains.lo, "domains.lo")?;
        positive_int(self.nodes_per_domain.lo, "nodes_per_domain.lo")?;
        if self.local_jobs_per_domain.lo < 0 {
            return Err(ConfigError::Negative {
                field: "local_jobs_per_domain.lo",
            });
        }
        Ok(())
    }
}

/// The distributed environment: all domains plus the published horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    domains: Vec<Domain>,
    horizon: TimeDelta,
}

impl Environment {
    /// Creates an environment from explicit domains.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    #[must_use]
    pub fn new(domains: Vec<Domain>, horizon: TimeDelta) -> Self {
        assert!(horizon.is_positive(), "horizon must be positive");
        Environment { domains, horizon }
    }

    /// Randomly generates an environment.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EnvConfig::validate`]).
    pub fn generate<R: Rng + ?Sized>(config: &EnvConfig, rng: &mut R) -> Self {
        config
            .validate()
            .expect("invalid environment configuration");
        let slots = SlotGenConfig::default();
        let domain_count = draw_int(rng, config.domains) as usize;
        let mut next_node = 0u32;
        let domains = (0..domain_count)
            .map(|d| {
                let nodes = draw_int(rng, config.nodes_per_domain) as usize;
                let resources = (0..nodes)
                    .map(|_| {
                        let perf = draw_real(rng, slots.node_perf);
                        let price =
                            draw_real(rng, slots.price_jitter) * slots.price_base.powf(perf);
                        let r = Resource::new(
                            NodeId::new(next_node),
                            Perf::from_f64(perf),
                            Price::from_f64(price),
                        );
                        next_node += 1;
                        r
                    })
                    .collect();
                Domain::new(DomainId::new(d as u32), resources)
            })
            .collect();
        Environment {
            domains,
            horizon: TimeDelta::new(HORIZON),
        }
    }

    /// The domains.
    #[must_use]
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The published scheduling horizon.
    #[must_use]
    pub fn horizon(&self) -> TimeDelta {
        self.horizon
    }

    /// Total node count across domains.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.domains.iter().map(Domain::len).sum()
    }

    /// Iterates every node with its domain.
    pub fn nodes(&self) -> impl Iterator<Item = (DomainId, &Resource)> + '_ {
        self.domains
            .iter()
            .flat_map(|d| d.resources().iter().map(move |r| (d.id(), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn generation_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let env = Environment::generate(&EnvConfig::default(), &mut rng);
        assert!((2..=5).contains(&env.domains().len()));
        for d in env.domains() {
            assert!((6..=16).contains(&d.len()));
            for r in d.resources() {
                let p = r.perf().to_f64();
                assert!((1.0..=3.0).contains(&p));
            }
        }
        assert_eq!(env.node_count(), env.nodes().count());
    }

    #[test]
    fn node_ids_are_globally_unique() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let env = Environment::generate(&EnvConfig::default(), &mut rng);
        let mut ids: Vec<u32> = env.nodes().map(|(_, r)| r.id().index()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn explicit_construction() {
        let d = Domain::new(DomainId::new(0), vec![]);
        assert!(d.is_empty());
        let env = Environment::new(vec![d], TimeDelta::new(100));
        assert_eq!(env.horizon(), TimeDelta::new(100));
        assert_eq!(env.node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let _ = Environment::new(vec![], TimeDelta::ZERO);
    }

    #[test]
    fn display_of_domain_id() {
        assert_eq!(format!("{}", DomainId::new(2)), "domain2");
    }

    #[test]
    fn env_validation_errors_name_the_field() {
        let c = EnvConfig {
            nodes_per_domain: IntRange { lo: 0, hi: 4 },
            ..EnvConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::NotPositive {
                field: "nodes_per_domain.lo"
            })
        );
        EnvConfig::default().validate().unwrap();
    }
}
