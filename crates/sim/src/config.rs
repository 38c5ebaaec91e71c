//! Generator configurations, defaulting to the paper's Sec. 5 parameters.
//!
//! Every option is a uniform distribution over an inclusive interval, as in
//! the paper ("all job batch and slot list options are random variables
//! that have a uniform distribution inside the identified intervals").

use serde::{Deserialize, Serialize};

/// A typed configuration-validation error naming the offending field.
///
/// Every `*Config` type in this crate validates with
/// `fn validate(&self) -> Result<(), ConfigError>`; the constructors that
/// take a configuration (`SlotGenerator::new`, `JobGenerator::new`, …)
/// keep their panicking contract by `expect`ing the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A probability field is outside `[0, 1]`.
    NotAProbability {
        /// The offending field.
        field: &'static str,
    },
    /// A field that must be strictly positive is zero or negative.
    NotPositive {
        /// The offending field.
        field: &'static str,
    },
    /// A field that must be non-negative is negative.
    Negative {
        /// The offending field.
        field: &'static str,
    },
    /// A pair of bounds is inverted (lower above upper).
    InvertedBounds {
        /// The offending bound pair.
        field: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotAProbability { field } => {
                write!(f, "{field} must be a probability in [0, 1]")
            }
            ConfigError::NotPositive { field } => write!(f, "{field} must be positive"),
            ConfigError::Negative { field } => write!(f, "{field} must be non-negative"),
            ConfigError::InvertedBounds { field } => write!(f, "{field} bounds are inverted"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// An inclusive interval for a uniform integer draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl IntRange {
    /// Creates an inclusive integer interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        IntRange { lo, hi }
    }

    /// Midpoint of the interval (for reporting).
    #[must_use]
    pub fn mid(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }
}

/// An inclusive interval for a uniform real draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RealRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl RealRange {
    /// Creates an inclusive real interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        RealRange { lo, hi }
    }

    /// Midpoint of the interval (for reporting).
    #[must_use]
    pub fn mid(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Configuration of the ordered-slot-list generator (the paper's
/// `SlotGenerator`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotGenConfig {
    /// Number of slots in the list. Paper: `[120, 150]`.
    pub slot_count: IntRange,
    /// Length of each slot. Paper: `[50, 300]`.
    pub slot_length: IntRange,
    /// Node performance rate. Paper: `[1, 3]` ("relatively homogeneous").
    pub node_perf: RealRange,
    /// Probability that a slot shares its start with the previous one —
    /// resources released in cluster-sized chunks. Paper: `0.4`.
    pub same_start_probability: f64,
    /// Gap between neighbouring slot starts when not shared. Paper:
    /// `[0, 10]` ("at least five different slots ready at any moment").
    pub start_gap: IntRange,
    /// The base of the price model `p = price_base ^ performance`.
    /// Paper: `1.7`.
    pub price_base: f64,
    /// Multiplicative price jitter around `p`. Paper: `[0.75, 1.25]`.
    pub price_jitter: RealRange,
}

impl Default for SlotGenConfig {
    /// The paper's Sec. 5 values.
    fn default() -> Self {
        SlotGenConfig {
            slot_count: IntRange::new(120, 150),
            slot_length: IntRange::new(50, 300),
            node_perf: RealRange::new(1.0, 3.0),
            same_start_probability: 0.4,
            start_gap: IntRange::new(0, 10),
            price_base: 1.7,
            price_jitter: RealRange::new(0.75, 1.25),
        }
    }
}

impl SlotGenConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field: the
    /// same-start probability outside `[0, 1]`, a non-positive count,
    /// length, performance, or price parameter, or a negative gap.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.same_start_probability) {
            return Err(ConfigError::NotAProbability {
                field: "same_start_probability",
            });
        }
        positive_int(self.slot_count.lo, "slot_count.lo")?;
        positive_int(self.slot_length.lo, "slot_length.lo")?;
        positive_real(self.node_perf.lo, "node_perf.lo")?;
        if self.start_gap.lo < 0 {
            return Err(ConfigError::Negative {
                field: "start_gap.lo",
            });
        }
        positive_real(self.price_base, "price_base")?;
        positive_real(self.price_jitter.lo, "price_jitter.lo")
    }
}

pub(crate) fn positive_int(value: i64, field: &'static str) -> Result<(), ConfigError> {
    if value >= 1 {
        Ok(())
    } else {
        Err(ConfigError::NotPositive { field })
    }
}

pub(crate) fn positive_real(value: f64, field: &'static str) -> Result<(), ConfigError> {
    if value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NotPositive { field })
    }
}

pub(crate) fn probability(value: f64, field: &'static str) -> Result<(), ConfigError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::NotAProbability { field })
    }
}

/// Reads the value of a *reserved* wire key of a config map, with the
/// parser at it. A setting that no binary ever changed and that was
/// removed keeps its key on the wire, written as the value every binary ran
/// (`constant`), so that configurations, fingerprints and manifests written
/// before the removal still decode and match byte for byte. The key may
/// hold `constant` or be absent (then this is never called); any other
/// value asks for a behaviour this build no longer has, and is refused with
/// an error naming the key.
///
/// # Errors
///
/// A [`serde::Error`] naming `key` when it holds anything but `constant`.
pub fn reserved_key<'de, T: Serialize + Deserialize<'de> + PartialEq>(
    parser: &mut serde::Parser<'_>,
    key: &str,
    constant: &T,
) -> Result<(), serde::Error> {
    let at = parser.clone();
    if T::read_json(parser).is_ok_and(|v| v == *constant) {
        return Ok(());
    }
    *parser = at;
    let found = serde::Value::read_json(parser)?;
    let json = |v: &dyn Serialize| {
        let mut out = Vec::new();
        v.write_json(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    };
    Err(serde::Error::custom(format!(
        "reserved key `{key}` holds {}: the setting was removed, and the only value \
         this build runs is {}",
        json(&found),
        json(constant),
    )))
}

/// Configuration of the batch generator (the paper's `JobGenerator`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobGenConfig {
    /// Jobs per batch. Paper: `[3, 7]`.
    pub jobs_per_batch: IntRange,
    /// Nodes required per job. Paper: `[1, 6]`.
    pub nodes: IntRange,
    /// Job length ("complexity"). Paper: `[50, 150]`.
    pub length: IntRange,
    /// Minimum required node performance. Paper: `[1, 2]`.
    pub min_perf: RealRange,
    /// The price-cap derivation factor (DESIGN.md note R3): the per-slot
    /// cap is `C = factor · price_base ^ min_perf`. Not specified by the
    /// paper; default `[0.75, 1.25]` — the same jitter interval the slot
    /// prices use — calibrated so the alternatives-per-job and time/cost
    /// gaps land near the paper's (see EXPERIMENTS.md).
    pub budget_factor: RealRange,
    /// The price base used in the cap derivation; keep equal to
    /// [`SlotGenConfig::price_base`].
    pub price_base: f64,
}

impl Default for JobGenConfig {
    /// The paper's Sec. 5 values plus the R3 default calibration.
    fn default() -> Self {
        JobGenConfig {
            jobs_per_batch: IntRange::new(3, 7),
            nodes: IntRange::new(1, 6),
            length: IntRange::new(50, 150),
            min_perf: RealRange::new(1.0, 2.0),
            budget_factor: RealRange::new(0.75, 1.25),
            price_base: 1.7,
        }
    }
}

impl JobGenConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first non-positive job count,
    /// node count, length, performance, budget factor, or price base.
    pub fn validate(&self) -> Result<(), ConfigError> {
        positive_int(self.jobs_per_batch.lo, "jobs_per_batch.lo")?;
        positive_int(self.nodes.lo, "nodes.lo")?;
        positive_int(self.length.lo, "length.lo")?;
        positive_real(self.min_perf.lo, "min_perf.lo")?;
        positive_real(self.budget_factor.lo, "budget_factor.lo")?;
        positive_real(self.price_base, "price_base")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let s = SlotGenConfig::default();
        assert_eq!((s.slot_count.lo, s.slot_count.hi), (120, 150));
        assert_eq!((s.slot_length.lo, s.slot_length.hi), (50, 300));
        assert_eq!((s.node_perf.lo, s.node_perf.hi), (1.0, 3.0));
        assert_eq!(s.same_start_probability, 0.4);
        assert_eq!((s.start_gap.lo, s.start_gap.hi), (0, 10));
        assert_eq!(s.price_base, 1.7);

        let j = JobGenConfig::default();
        assert_eq!((j.jobs_per_batch.lo, j.jobs_per_batch.hi), (3, 7));
        assert_eq!((j.nodes.lo, j.nodes.hi), (1, 6));
        assert_eq!((j.length.lo, j.length.hi), (50, 150));
        assert_eq!((j.min_perf.lo, j.min_perf.hi), (1.0, 2.0));

        s.validate().unwrap();
        j.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn reversed_int_range_panics() {
        let _ = IntRange::new(5, 4);
    }

    #[test]
    fn validation_errors_name_the_field() {
        let c = SlotGenConfig {
            same_start_probability: 1.5,
            ..SlotGenConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::NotAProbability {
                field: "same_start_probability"
            })
        );
        let c = SlotGenConfig {
            start_gap: IntRange { lo: -1, hi: 3 },
            ..SlotGenConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::Negative {
                field: "start_gap.lo"
            })
        );
        let j = JobGenConfig {
            nodes: IntRange { lo: 0, hi: 4 },
            ..JobGenConfig::default()
        };
        assert_eq!(
            j.validate(),
            Err(ConfigError::NotPositive { field: "nodes.lo" })
        );
    }

    #[test]
    fn config_error_display_is_never_empty() {
        let errors = [
            ConfigError::NotAProbability { field: "p" },
            ConfigError::NotPositive { field: "n" },
            ConfigError::Negative { field: "g" },
            ConfigError::InvertedBounds { field: "b" },
        ];
        for err in errors {
            assert!(!format!("{err}").is_empty());
            assert!(format!("{err}").contains(match err {
                ConfigError::NotAProbability { field }
                | ConfigError::NotPositive { field }
                | ConfigError::Negative { field }
                | ConfigError::InvertedBounds { field } => field,
            }));
        }
    }

    #[test]
    fn midpoints() {
        assert_eq!(IntRange::new(0, 10).mid(), 5.0);
        assert_eq!(RealRange::new(1.0, 2.0).mid(), 1.5);
    }
}
