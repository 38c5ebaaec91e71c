//! The wire protocol: newline-delimited JSON over a local socket.
//!
//! Every request and response is one JSON document on one line (no
//! embedded newlines — `serde_json::to_string` never emits them).
//! A client writes a [`Request`] line, the daemon answers with exactly
//! one [`Response`] line, in order, per connection. No framing beyond
//! `\n`, no HTTP, no external dependencies.
//!
//! Durability contract: a [`Response::Accepted`] is only sent after the
//! submission's write-ahead-log record has been fsynced, so an accepted
//! job survives `kill -9` of the daemon at any later instant.

use ecosched_core::{Perf, Price, ResourceRequest, TimeDelta, PERF_SCALE};
use serde::{Deserialize, Serialize};

/// A job submission in wire form: plain integers so every client can
/// construct one without the engine's fixed-point types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Concurrent slots required (the paper's `N`).
    pub nodes: u64,
    /// Wall time in ticks at the minimum performance (the paper's `t`).
    pub wall_ticks: i64,
    /// Minimum node performance, in milli-units (1000 = etalon).
    pub min_perf_milli: i64,
    /// Per-slot price cap in micro-credits per tick (the paper's `C`).
    pub price_cap_micro: i64,
    /// Optional completion deadline (virtual tick). Admission rejects
    /// specs that cannot finish by it even if scheduled at the next
    /// cycle tick.
    pub deadline_tick: Option<i64>,
}

impl JobSpec {
    /// Converts the wire form into an engine request. Every field is
    /// client-supplied, so a value the engine's arithmetic cannot take is
    /// refused here: a performance floor that is not positive, and a job
    /// whose budget `S = C·t·N` or whose etalon runtime in milli-units
    /// does not fit an `i64`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn to_request(&self) -> Result<ResourceRequest, String> {
        let nodes = usize::try_from(self.nodes).map_err(|_| "nodes out of range".to_owned())?;
        if self.min_perf_milli <= 0 {
            return Err(format!(
                "min_perf_milli must be positive, got {}",
                self.min_perf_milli
            ));
        }
        let budget = i64::try_from(self.nodes).ok().and_then(|nodes| {
            self.price_cap_micro
                .checked_mul(self.wall_ticks)?
                .checked_mul(nodes)
        });
        if budget.is_none() {
            return Err("price_cap_micro × wall_ticks × nodes overflows".to_owned());
        }
        if self.wall_ticks.checked_mul(PERF_SCALE).is_none() {
            return Err(format!("wall_ticks {} is out of range", self.wall_ticks));
        }
        ResourceRequest::new(
            nodes,
            TimeDelta::new(self.wall_ticks),
            Perf::from_milli(self.min_perf_milli),
            Price::from_micro(self.price_cap_micro),
        )
        .map_err(|e| e.to_string())
    }
}

/// Why a submission was refused. Typed so load generators can bucket
/// rejections and tests can assert on the exact cause.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The spec does not describe a valid request.
    Malformed {
        /// What was wrong with it.
        detail: String,
    },
    /// The admission backlog bound is reached; resubmit later.
    BacklogFull {
        /// Jobs currently waiting (pending plus queued arrivals).
        backlog: u64,
        /// The configured bound.
        limit: u64,
    },
    /// The current market cannot host the job within its price cap:
    /// fewer eligible nodes than the job needs (Libra-style budget
    /// feasibility — under the AMP budget `S = C·t·N`, affordability
    /// reduces to per-slot cap eligibility).
    BudgetInfeasible {
        /// Nodes the job needs.
        needed_nodes: u64,
        /// Distinct nodes currently offering an eligible slot.
        eligible_nodes: u64,
    },
    /// The deadline precedes the earliest possible completion (next
    /// cycle tick plus wall time).
    DeadlineInfeasible {
        /// The requested deadline tick.
        deadline: i64,
        /// The earliest completion the daemon could deliver.
        earliest_finish: i64,
    },
    /// Virtual time is already past the last scheduling cycle; the job
    /// could never be scheduled.
    BeyondHorizon {
        /// Current virtual time.
        time: i64,
        /// The final cycle tick.
        horizon: i64,
    },
    /// The daemon is draining for shutdown.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Malformed { detail } => write!(f, "malformed spec: {detail}"),
            RejectReason::BacklogFull { backlog, limit } => {
                write!(f, "backlog full ({backlog}/{limit})")
            }
            RejectReason::BudgetInfeasible {
                needed_nodes,
                eligible_nodes,
            } => write!(
                f,
                "budget infeasible: {eligible_nodes} eligible nodes < {needed_nodes} needed"
            ),
            RejectReason::DeadlineInfeasible {
                deadline,
                earliest_finish,
            } => write!(
                f,
                "deadline {deadline} before earliest finish {earliest_finish}"
            ),
            RejectReason::BeyondHorizon { time, horizon } => {
                write!(f, "time {time} past scheduling horizon {horizon}")
            }
            RejectReason::ShuttingDown => write!(f, "daemon shutting down"),
        }
    }
}

/// A client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job for scheduling.
    Submit {
        /// The job.
        spec: JobSpec,
    },
    /// Report daemon state (cheap; the log hash is computed on demand).
    Status,
    /// Snapshot and exit gracefully.
    Shutdown,
}

/// A snapshot of daemon state for `Status` responses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Current virtual time in ticks.
    pub virtual_time: i64,
    /// Events processed since the run began (including before a resume).
    pub events_processed: u64,
    /// Jobs known to the run (every acked submission, processed or not).
    pub arrivals: u64,
    /// Jobs waiting to be scheduled.
    pub backlog: u64,
    /// Committed, not-yet-completed leases.
    pub active_leases: u64,
    /// Submissions accepted over the daemon's lifetime (survives resume:
    /// recomputed from the write-ahead log).
    pub accepted_total: u64,
    /// Submissions rejected since this process started.
    pub rejected_total: u64,
    /// FNV-1a 64 hash of the event log so far (16 hex digits) — the
    /// equivalence token for offline replay.
    pub log_hash: String,
}

/// A daemon response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission is durable and injected; it will be scheduled by
    /// an upcoming cycle tick.
    Accepted {
        /// The shard the router placed the job on (0 on a single-shard
        /// daemon).
        shard: u32,
        /// The shard-local job id (arrival order, stable across resume).
        job: u32,
        /// The virtual arrival time the job was injected at.
        time: i64,
    },
    /// The submission was refused; nothing was persisted.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Daemon state.
    Status {
        /// The state.
        status: DaemonStatus,
    },
    /// Graceful shutdown acknowledged; the state was snapshotted.
    ShuttingDown,
    /// The request line could not be understood.
    Error {
        /// What went wrong.
        detail: String,
    },
}

/// Serializes a protocol value as one wire line (no trailing newline).
pub fn encode_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializing to memory cannot fail")
}

/// Parses one wire line.
///
/// # Errors
///
/// A human-readable parse failure (sent back as [`Response::Error`]).
pub fn decode_line<T: for<'de> Deserialize<'de>>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            nodes: 2,
            wall_ticks: 30,
            min_perf_milli: 1000,
            price_cap_micro: 2_000_000,
            deadline_tick: Some(500),
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Submit { spec: spec() },
            Request::Status,
            Request::Shutdown,
        ] {
            let line = encode_line(&request);
            assert!(!line.contains('\n'));
            let back: Request = decode_line(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Accepted {
                shard: 1,
                job: 7,
                time: 42,
            },
            Response::Rejected {
                reason: RejectReason::BacklogFull {
                    backlog: 10,
                    limit: 10,
                },
            },
            Response::ShuttingDown,
            Response::Error {
                detail: "nope".into(),
            },
        ] {
            let back: Response = decode_line(&encode_line(&response)).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn spec_converts_and_validates() {
        let request = spec().to_request().unwrap();
        assert_eq!(request.nodes(), 2);
        assert_eq!(request.wall_time().ticks(), 30);
        let bad = JobSpec { nodes: 0, ..spec() };
        assert!(bad.to_request().is_err());
        let bad = JobSpec {
            wall_ticks: 0,
            ..spec()
        };
        assert!(bad.to_request().is_err());
    }

    /// Values a client can send that the engine's arithmetic cannot take
    /// are refused, naming the field, and never reach a panic or a
    /// wrapped sum.
    #[test]
    fn spec_refuses_what_the_arithmetic_cannot_take() {
        let refused = |spec: JobSpec| spec.to_request().expect_err("refused");
        for milli in [0, -1, i64::MIN] {
            let detail = refused(JobSpec {
                min_perf_milli: milli,
                ..spec()
            });
            assert!(detail.contains("min_perf_milli"), "{detail}");
        }
        // C·t·N one past i64::MAX, though each factor fits.
        let detail = refused(JobSpec {
            nodes: 2,
            wall_ticks: 1 << 31,
            price_cap_micro: 1 << 31,
            ..spec()
        });
        assert!(detail.contains("overflows"), "{detail}");
        let detail = refused(JobSpec {
            nodes: u64::MAX,
            ..spec()
        });
        assert!(detail.contains("overflows"), "{detail}");
        // A free job is not spared the runtime's milli-unit product.
        let detail = refused(JobSpec {
            wall_ticks: i64::MAX / 2,
            price_cap_micro: 0,
            ..spec()
        });
        assert!(detail.contains("wall_ticks"), "{detail}");
        // The largest budget that fits is taken.
        let edge = JobSpec {
            nodes: 1,
            wall_ticks: 1 << 31,
            price_cap_micro: (1 << 32) - 1,
            ..spec()
        };
        assert!(edge.to_request().is_ok());
    }

    #[test]
    fn garbage_lines_fail_typed() {
        assert!(decode_line::<Request>("not json").is_err());
        assert!(decode_line::<Request>("{\"Unknown\":1}").is_err());
    }

    /// A key given twice, or a number JSON does not allow, is refused; the
    /// first used to win, and `02` used to read as 2.
    #[test]
    fn repeated_keys_and_non_json_numbers_are_refused() {
        let line = |nodes: &str, extra: &str| {
            format!(
                r#"{{"Submit":{{"spec":{{"nodes":{nodes},"wall_ticks":30,"min_perf_milli":1000,"price_cap_micro":2000000,"deadline_tick":500{extra}}}}}}}"#
            )
        };
        assert_eq!(
            decode_line::<Request>(&line("2", "")).unwrap(),
            Request::Submit { spec: spec() }
        );
        assert_eq!(
            decode_line::<Request>(&line("2", r#","nodes":64"#)).unwrap_err(),
            "duplicate field `nodes`"
        );
        assert_eq!(
            decode_line::<Request>(&line("02", "")).unwrap_err(),
            "invalid number at byte 27"
        );
    }
}
