//! Engine configuration: clock, arrivals, market churn, and metrics knobs.

use ecosched_sim::{
    reserved_key, ConfigError, IterationConfig, JobGenConfig, RepairPolicy, RevocationConfig,
    SlotGenConfig,
};
use serde::{Deserialize, Serialize};

/// Where the online job stream comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalConfig {
    /// A seeded Poisson process: exponential inter-arrival gaps with the
    /// given mean, each arrival drawing one paper-style request.
    Poisson {
        /// Mean inter-arrival gap in ticks.
        mean_interarrival: f64,
        /// Total jobs to generate.
        jobs: u32,
        /// The request distributions (the paper's Sec. 5 generator).
        job_gen: JobGenConfig,
    },
    /// No generator-driven arrivals: every job enters through
    /// [`Engine::submit`](crate::Engine::submit) between steps. This is
    /// service mode — the `ecosched-serve` daemon injects admitted
    /// submissions as `JobArrival` events, and a trace replay (E16)
    /// submits each record at its submit tick; the run stays a pure
    /// function of `(config, seed, accepted-arrival sequence)`.
    External,
}

impl ArrivalConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalConfig::Poisson {
                mean_interarrival,
                jobs,
                job_gen,
            } => {
                if *mean_interarrival <= 0.0 {
                    return Err(ConfigError::NotPositive {
                        field: "mean_interarrival",
                    });
                }
                if *jobs == 0 {
                    return Err(ConfigError::NotPositive { field: "jobs" });
                }
                job_gen.validate()
            }
            ArrivalConfig::External => Ok(()),
        }
    }
}

/// Configuration of one discrete-event engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Ticks between scheduling cycles (slot publication and `CycleTick`
    /// both fire on this period; revocation strikes fire mid-period).
    pub cycle_length: i64,
    /// Number of scheduling cycles. The run ends when the event queue
    /// drains, which may be after the last tick (leases finish on their
    /// own clock).
    pub cycles: u32,
    /// The slot market published each cycle (paper Sec. 5 distributions).
    pub slot_gen: SlotGenConfig,
    /// The mid-cycle fault model. Disabled by default; when disabled no
    /// `RevocationStrike` events are scheduled and no RNG is drawn for
    /// faults.
    pub revocation: RevocationConfig,
    /// The per-broken-lease recovery budget for the three-tier repair
    /// pass.
    pub repair: RepairPolicy,
    /// The scheduling pipeline configuration (the optimization
    /// criterion).
    pub iteration: IterationConfig,
    /// Whether each cycle commit coalesces adjacent vacant slots on the
    /// same node with identical price and performance into one slot.
    /// Coalescing preserves exactly which `(node, time)` regions are
    /// vacant, but merging fragments can only improve what a window
    /// search sees: a runtime that straddles a fragment boundary fits the
    /// merged slot and not the fragments, so the coalesced run may accept
    /// windows *earlier* (never later) and its event log may differ from
    /// an uncoalesced run of the same seed. The flag is the A/B switch
    /// for that comparison.
    pub coalesce: bool,
    /// The job stream.
    pub arrivals: ArrivalConfig,
}

/// Number of virtual organisations; arriving jobs are assigned
/// round-robin and per-VO spend is tracked.
pub(crate) const VOS: u32 = 3;
/// Fraction of a lease's planned length it actually runs before
/// completing (traces routinely overestimate requested time). The unused
/// tail returns to the vacant list at completion.
pub(crate) const COMPLETION_FRACTION: f64 = 0.75;
/// The bounded-slowdown threshold τ in ticks:
/// `max((wait + run) / max(run, τ), 1)`.
pub(crate) const SLOWDOWN_TAU: i64 = 10;

// Serde through a derived wire struct: the config's fields in declaration
// order, plus five reserved entries, each where the field it replaces used
// to sit, written as the value every binary ran so every configuration
// fingerprint, snapshot and WAL manifest written before the removal still
// matches byte for byte.
//
// `vos`, `completion_fraction` and `slowdown_tau` are checked on decode
// (`ecosched_sim::reserved_key`): a manifest asking for another value is
// refused by name. `threads` (a worker-pool width, normalized to 1 before
// fingerprinting) and `optimizer_cache` (left at `true` by every binary)
// are ignored whatever they hold — so a checkpoint taken under a hand-set
// `"optimizer_cache": false` carries a fingerprint this build never
// computes and is refused as a `CheckpointMismatch`.
#[derive(Serialize)]
struct EngineConfigWire {
    cycle_length: i64,
    cycles: u32,
    slot_gen: SlotGenConfig,
    revocation: RevocationConfig,
    repair: RepairPolicy,
    iteration: IterationConfig,
    optimizer_cache: bool, // reserved
    coalesce: bool,
    vos: u32,                 // reserved
    completion_fraction: f64, // reserved
    slowdown_tau: i64,        // reserved
    threads: usize,           // reserved
    arrivals: ArrivalConfig,
}

impl EngineConfig {
    fn wire(&self) -> EngineConfigWire {
        let config = self.clone();
        EngineConfigWire {
            cycle_length: config.cycle_length,
            cycles: config.cycles,
            slot_gen: config.slot_gen,
            revocation: config.revocation,
            repair: config.repair,
            iteration: config.iteration,
            optimizer_cache: true,
            coalesce: config.coalesce,
            vos: VOS,
            completion_fraction: COMPLETION_FRACTION,
            slowdown_tau: SLOWDOWN_TAU,
            threads: 1,
            arrivals: config.arrivals,
        }
    }
}

impl Serialize for EngineConfig {
    fn to_value(&self) -> serde::Value {
        self.wire().to_value()
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        self.wire().write_json(out);
    }
}

impl<'de> Deserialize<'de> for EngineConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        reserved_key(value, "vos", &VOS)?;
        reserved_key(value, "completion_fraction", &COMPLETION_FRACTION)?;
        reserved_key(value, "slowdown_tau", &SLOWDOWN_TAU)?;
        Ok(EngineConfig {
            cycle_length: Deserialize::from_value(serde::get_field(value, "cycle_length")?)?,
            cycles: Deserialize::from_value(serde::get_field(value, "cycles")?)?,
            slot_gen: Deserialize::from_value(serde::get_field(value, "slot_gen")?)?,
            revocation: Deserialize::from_value(serde::get_field(value, "revocation")?)?,
            repair: Deserialize::from_value(serde::get_field(value, "repair")?)?,
            iteration: Deserialize::from_value(serde::get_field(value, "iteration")?)?,
            coalesce: Deserialize::from_value(serde::get_field(value, "coalesce")?)?,
            arrivals: Deserialize::from_value(serde::get_field(value, "arrivals")?)?,
        })
    }
}

impl Default for EngineConfig {
    /// A small continuous-load scenario: 8 cycles of 60 ticks, a Poisson
    /// stream of 40 paper-style jobs, revocation disabled.
    fn default() -> Self {
        EngineConfig {
            cycle_length: 60,
            cycles: 8,
            slot_gen: SlotGenConfig::default(),
            revocation: RevocationConfig::none(),
            repair: RepairPolicy::default(),
            iteration: IterationConfig::default(),
            coalesce: true,
            arrivals: ArrivalConfig::Poisson {
                mean_interarrival: 12.0,
                jobs: 40,
                job_gen: JobGenConfig::default(),
            },
        }
    }
}

impl EngineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cycle_length <= 0 {
            return Err(ConfigError::NotPositive {
                field: "cycle_length",
            });
        }
        if self.cycles == 0 {
            return Err(ConfigError::NotPositive { field: "cycles" });
        }
        self.slot_gen.validate()?;
        self.revocation.validate()?;
        self.arrivals.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_fields_are_named() {
        let bad = EngineConfig {
            cycle_length: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::NotPositive {
                field: "cycle_length"
            })
        );
        let bad = EngineConfig {
            arrivals: ArrivalConfig::Poisson {
                mean_interarrival: 0.0,
                jobs: 10,
                job_gen: JobGenConfig::default(),
            },
            ..EngineConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::NotPositive {
                field: "mean_interarrival"
            })
        );
    }
}
