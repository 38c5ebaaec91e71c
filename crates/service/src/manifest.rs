//! The service manifest: the `(config, seed, policy)` identity of a
//! data directory, persisted at first boot and reloaded on every
//! restart.
//!
//! Resume correctness requires the restarted daemon to rebuild the
//! *identical* engine — same configuration fingerprint, same selector,
//! same seed — before replaying the write-ahead log. The manifest pins
//! all of that in `manifest.json` inside the data directory, so restart
//! takes only `--data-dir`; command-line scheduling flags apply to
//! fresh directories and are refused as drift on existing ones.

use std::path::{Path, PathBuf};

use ecosched_engine::{ArrivalConfig, EngineConfig};
use ecosched_federation::{FederationConfig, RoutePolicy};
use ecosched_persist::atomic_save;
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionPolicy;
use crate::error::ServiceError;

/// Which slot-selection algorithm the daemon schedules with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectorChoice {
    /// Aggregated-budget selection (the paper's AMP).
    Amp,
    /// Per-slot price-cap selection (the paper's ALP).
    Alp,
}

/// Everything a restarted daemon needs to rebuild the exact engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceManifest {
    /// The engine seed.
    pub seed: u64,
    /// The engine configuration. `arrivals` must be
    /// [`ArrivalConfig::External`] — service mode owns the job stream.
    pub config: EngineConfig,
    /// The scheduling algorithm.
    pub selector: SelectorChoice,
    /// Shard engines behind the submission surface. One shard is the
    /// classic single-engine daemon; more shards run a federation whose
    /// routing decisions are WAL-recorded per job.
    pub shards: u32,
    /// How submissions are routed across shards (ignored at one shard).
    pub route: RoutePolicy,
    /// The admission policy.
    pub admission: AdmissionPolicy,
    /// Snapshot after every N-th cycle tick (0 disables cadence
    /// snapshots; shutdown still snapshots).
    pub snapshot_every_cycles: u32,
    /// Rotated snapshots retained on disk.
    pub keep_snapshots: usize,
}

impl Default for ServiceManifest {
    fn default() -> Self {
        ServiceManifest {
            seed: 42,
            config: EngineConfig {
                arrivals: ArrivalConfig::External,
                cycles: 64,
                ..EngineConfig::default()
            },
            selector: SelectorChoice::Amp,
            shards: 1,
            route: RoutePolicy::LeastBacklog,
            admission: AdmissionPolicy::default(),
            snapshot_every_cycles: 4,
            keep_snapshots: 3,
        }
    }
}

impl ServiceManifest {
    /// Validates service-mode constraints on top of engine validation.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] describing the violation.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.fed_config()
            .validate()
            .map_err(|e| ServiceError::Config(e.to_string()))?;
        if self.config.arrivals != ArrivalConfig::External {
            return Err(ServiceError::Config(
                "service mode requires arrivals = External: every job must enter \
                 through the socket so the WAL is the complete job stream"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The federation this manifest describes. Cross-shard co-allocation
    /// stays off in service mode: every WAL entry must replay as exactly
    /// one single-shard injection, so recovery never re-runs a cross-shard
    /// placement whose outcome the log does not record.
    #[must_use]
    pub fn fed_config(&self) -> FederationConfig {
        FederationConfig {
            route: self.route,
            ..FederationConfig::new(self.config.clone(), self.shards)
        }
    }

    /// The final cycle tick — the daemon's scheduling horizon.
    #[must_use]
    pub fn horizon(&self) -> i64 {
        i64::from(self.config.cycles.saturating_sub(1)) * self.config.cycle_length
    }
}

/// Path of the manifest inside a data directory.
#[must_use]
pub fn manifest_path(data_dir: &Path) -> PathBuf {
    data_dir.join("manifest.json")
}

/// Saves the manifest (pretty-printed for operator eyes), crash-atomically:
/// a crash mid-save leaves at worst a stray `manifest.tmp`, which
/// [`load_manifest`] never reads — not a torn `manifest.json` that would
/// refuse every later boot.
///
/// # Errors
///
/// [`ServiceError::Io`] on write failure.
pub fn save_manifest(data_dir: &Path, manifest: &ServiceManifest) -> Result<(), ServiceError> {
    let text = serde_json::to_string_pretty(manifest)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(atomic_save(&manifest_path(data_dir), text.as_bytes())?)
}

/// Loads the manifest of an existing data directory, if there is one.
///
/// # Errors
///
/// [`ServiceError::Io`] on read failure, [`ServiceError::Config`] when
/// the file exists but does not parse or validate.
pub fn load_manifest(data_dir: &Path) -> Result<Option<ServiceManifest>, ServiceError> {
    let path = manifest_path(data_dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServiceError::Io(e)),
    };
    let manifest: ServiceManifest = serde_json::from_str(&text)
        .map_err(|e| ServiceError::Config(format!("manifest.json does not parse: {e}")))?;
    manifest.validate()?;
    Ok(Some(manifest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_manifest_validates() {
        ServiceManifest::default().validate().unwrap();
    }

    #[test]
    fn generator_arrivals_are_refused() {
        let bad = ServiceManifest {
            config: EngineConfig::default(), // Poisson arrivals
            ..ServiceManifest::default()
        };
        assert!(matches!(bad.validate(), Err(ServiceError::Config(_))));
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ecosched-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = ServiceManifest::default();
        save_manifest(&dir, &manifest).unwrap();
        let back = load_manifest(&dir).unwrap().expect("saved");
        assert_eq!(back, manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_first_boot_save_is_ignored_and_cleaned_up() {
        let dir =
            std::env::temp_dir().join(format!("ecosched-manifest-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A crash mid-save: the temp sibling exists, manifest.json never did.
        std::fs::write(dir.join("manifest.tmp"), b"{\"seed\": 4").unwrap();
        assert!(load_manifest(&dir).unwrap().is_none());
        // The retried save lands whole and leaves no temp file behind.
        save_manifest(&dir, &ServiceManifest::default()).unwrap();
        assert_eq!(
            load_manifest(&dir).unwrap(),
            Some(ServiceManifest::default())
        );
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["manifest.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The frozen format-5 directory's manifest decodes and is written
    /// back byte for byte; switching its removed market screen off, or
    /// setting its repair budget, is refused by name.
    #[test]
    fn a_stored_manifest_is_written_as_before_and_reserved_keys_refuse() {
        let stored = include_str!("../tests/data/v5_data_dir/manifest.json");
        let manifest: ServiceManifest = serde_json::from_str(stored).unwrap();
        assert_eq!(manifest.admission, AdmissionPolicy::default());
        let written = serde_json::to_string_pretty(&manifest).unwrap();
        assert_eq!(written, stored);
        for (key, constant, other) in [
            ("admit_market", "true", "false"),
            ("max_attempts", "8", "9"),
        ] {
            let held = format!("\"{key}\": {constant}");
            assert!(stored.contains(&held), "{held}");
            let asks = stored.replace(&held, &format!("\"{key}\": {other}"));
            let err = serde_json::from_str::<ServiceManifest>(&asks)
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("reserved key `{key}`")), "{err}");
        }
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = std::env::temp_dir().join("ecosched-manifest-missing");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(manifest_path(&dir));
        assert!(load_manifest(&dir).unwrap().is_none());
    }

    #[test]
    fn horizon_is_last_tick() {
        let m = ServiceManifest::default();
        assert_eq!(m.horizon(), 63 * 60);
    }
}
