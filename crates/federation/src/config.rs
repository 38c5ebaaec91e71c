//! Federation configuration: shard count, routing policy, and the
//! derivation of per-shard engine configs and seeds from the base run.

use ecosched_engine::{ArrivalConfig, EngineConfig};
use ecosched_sim::ConfigError;
use serde::{Deserialize, Serialize};

/// How the superscheduler picks a shard for each arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Cycle through shards in index order. Zero market knowledge, zero
    /// probe cost — the baseline the other policies are measured against.
    RoundRobin,
    /// Send the job to the shard with the fewest uncompleted jobs
    /// (pending plus leased), ties broken by shard index. The
    /// Ranjan/Harwood/Buyya-style load-coordinated placement.
    LeastBacklog,
    /// Probe every shard's vacant market for the earliest feasible window
    /// and route to the shard offering the cheapest one (ties by shard
    /// index). Jobs no single shard can host trigger cross-shard
    /// co-allocation when it is enabled.
    CheapestProbe,
}

impl RoutePolicy {
    /// Stable short name, used in manifests and experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastBacklog => "least-backlog",
            RoutePolicy::CheapestProbe => "cheapest-probe",
        }
    }

    /// Parses the name written by [`Self::name`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "round-robin" => Some(RoutePolicy::RoundRobin),
            "least-backlog" => Some(RoutePolicy::LeastBacklog),
            "cheapest-probe" => Some(RoutePolicy::CheapestProbe),
            _ => None,
        }
    }
}

/// Configuration of a federated run: the base single-engine scenario plus
/// the sharding and routing knobs layered on top of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// The single-engine scenario being federated. With one shard the
    /// base config runs verbatim; with `S > 1` shards its arrival stream
    /// is generated once at the federation level and routed, and each
    /// shard runs the same market/cycle knobs in
    /// [`ArrivalConfig::External`] mode on a derived seed.
    pub base: EngineConfig,
    /// Number of shard engines (administrative domains). Must be ≥ 1.
    pub shards: u32,
    /// The routing policy.
    pub route: RoutePolicy,
    /// Whether jobs no single shard can host may be split across shards
    /// by cross-shard co-allocation. Only consulted under
    /// [`RoutePolicy::CheapestProbe`] (the only policy that knows
    /// feasibility).
    pub cross_shard: bool,
    /// Bound on the cross-shard start-alignment fixed point: how many
    /// probe-carve-return rounds to try before giving up and falling
    /// back to a single-shard submit. Must be ≥ 1.
    pub max_align_rounds: u32,
    /// Start-alignment slack in ticks: a cross-shard round commits when
    /// the spread between its earliest and latest part start is at most
    /// this. The co-allocated job launches at the *latest* start; parts
    /// that start earlier hold their nodes for the difference — the
    /// classic co-allocation slack real superschedulers trade for a
    /// vastly higher commit rate, because administratively independent
    /// markets almost never publish slots at exactly equal ticks. `0`
    /// (the default) demands exact agreement. Must be ≥ 0.
    pub align_tolerance: i64,
}

impl FederationConfig {
    /// A federation of `shards` engines over the given base scenario,
    /// with least-backlog routing and cross-shard co-allocation off.
    #[must_use]
    pub fn new(base: EngineConfig, shards: u32) -> Self {
        FederationConfig {
            base,
            shards,
            route: RoutePolicy::LeastBacklog,
            cross_shard: false,
            max_align_rounds: 4,
            align_tolerance: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::NotPositive { field: "shards" });
        }
        if self.max_align_rounds == 0 {
            return Err(ConfigError::NotPositive {
                field: "max_align_rounds",
            });
        }
        if self.align_tolerance < 0 {
            return Err(ConfigError::Negative {
                field: "align_tolerance",
            });
        }
        self.base.validate()
    }

    /// The engine configuration shard `s` runs.
    ///
    /// A single-shard federation is the degenerate case: shard 0 runs the
    /// base configuration verbatim (self-driven arrivals and all), which
    /// is what makes S=1 byte-identical to the plain engine. With more
    /// shards, every shard runs the base market in
    /// [`ArrivalConfig::External`] mode — arrivals exist only at the
    /// federation level and enter shards through routing.
    #[must_use]
    pub fn shard_config(&self, _shard: u32) -> EngineConfig {
        if self.shards == 1 {
            self.base.clone()
        } else {
            EngineConfig {
                arrivals: ArrivalConfig::External,
                ..self.base.clone()
            }
        }
    }

    /// The seed shard `s` runs under, derived from the federation seed.
    ///
    /// S=1 passes the seed through untouched (byte-identity with the
    /// single engine). Otherwise each shard gets an independent stream
    /// via a splitmix64 finalizer over `(seed, shard)` — shards must not
    /// share slot-market randomness or the federation would correlate
    /// domains that are administratively independent.
    #[must_use]
    pub fn shard_seed(&self, seed: u64, shard: u32) -> u64 {
        if self.shards == 1 {
            seed
        } else {
            splitmix64(seed ^ (u64::from(shard) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        }
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastBacklog,
            RoutePolicy::CheapestProbe,
        ] {
            assert_eq!(RoutePolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(RoutePolicy::parse("nope"), None);
    }

    #[test]
    fn single_shard_passes_base_through() {
        let config = FederationConfig::new(EngineConfig::default(), 1);
        config.validate().unwrap();
        assert_eq!(config.shard_config(0), config.base);
        assert_eq!(config.shard_seed(42, 0), 42);
    }

    #[test]
    fn multi_shard_externalizes_arrivals_and_decorrelates_seeds() {
        let config = FederationConfig::new(EngineConfig::default(), 4);
        config.validate().unwrap();
        for s in 0..4 {
            assert_eq!(config.shard_config(s).arrivals, ArrivalConfig::External);
        }
        let seeds: Vec<u64> = (0..4).map(|s| config.shard_seed(42, s)).collect();
        for i in 0..4 {
            assert_ne!(seeds[i], 42, "shard {i} must not reuse the base seed");
            for j in (i + 1)..4 {
                assert_ne!(seeds[i], seeds[j], "shards {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let config = FederationConfig {
            shards: 0,
            ..FederationConfig::new(EngineConfig::default(), 1)
        };
        assert_eq!(
            config.validate(),
            Err(ConfigError::NotPositive { field: "shards" })
        );
    }
}
