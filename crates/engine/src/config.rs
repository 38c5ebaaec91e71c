//! Engine configuration: clock, arrivals, market churn, and metrics knobs.

use ecosched_sim::{
    reserved_key, ConfigError, IterationConfig, JobGenConfig, RevocationConfig, SlotGenConfig,
    REPAIR_ATTEMPTS,
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
// order, plus six reserved entries, each where the field it replaces used
// to sit, written as the value every binary ran so every configuration
// fingerprint, snapshot and WAL manifest written before the removal still
// matches byte for byte.
//
// `vos`, `completion_fraction`, `slowdown_tau` and both keys of `repair`
// (the recovery budget, now `ecosched_sim::REPAIR_ATTEMPTS`, and the
// full-rescan tier's switch) are checked on decode
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
    repair: RepairWire, // reserved
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
            repair: RepairWire {
                max_attempts: REPAIR_ATTEMPTS,
                full_rescan_on_exhaustion: false,
            },
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

/// The removed recovery budget's entry, each key reserved.
#[derive(Serialize)]
struct RepairWire {
    max_attempts: u32,
    full_rescan_on_exhaustion: bool,
}

fn read_repair(parser: &mut serde::Parser<'_>) -> Result<(), serde::Error> {
    parser.read_map(|parser, key| match key {
        "max_attempts" => reserved_key(parser, key, &REPAIR_ATTEMPTS),
        "full_rescan_on_exhaustion" => reserved_key(parser, key, &false),
        _ => parser.skip_value(),
    })
}

impl Serialize for EngineConfig {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.wire().write_json(out);
    }
}

impl<'de> Deserialize<'de> for EngineConfig {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut cycle_length, mut cycles, mut slot_gen, mut revocation) = (None, None, None, None);
        let (mut iteration, mut coalesce, mut arrivals) = (None, None, None);
        parser.read_map(|parser, key| match key {
            "cycle_length" => parser.field(&mut cycle_length, key),
            "cycles" => parser.field(&mut cycles, key),
            "slot_gen" => parser.field(&mut slot_gen, key),
            "revocation" => parser.field(&mut revocation, key),
            "repair" => read_repair(parser),
            "iteration" => parser.field(&mut iteration, key),
            "coalesce" => parser.field(&mut coalesce, key),
            "arrivals" => parser.field(&mut arrivals, key),
            "vos" => reserved_key(parser, key, &VOS),
            "completion_fraction" => reserved_key(parser, key, &COMPLETION_FRACTION),
            "slowdown_tau" => reserved_key(parser, key, &SLOWDOWN_TAU),
            _ => parser.skip_value(),
        })?;
        Ok(EngineConfig {
            cycle_length: serde::required(cycle_length, "cycle_length")?,
            cycles: serde::required(cycles, "cycles")?,
            slot_gen: serde::required(slot_gen, "slot_gen")?,
            revocation: serde::required(revocation, "revocation")?,
            iteration: serde::required(iteration, "iteration")?,
            coalesce: serde::required(coalesce, "coalesce")?,
            arrivals: serde::required(arrivals, "arrivals")?,
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
