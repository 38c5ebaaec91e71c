//! Standard Workload Format (SWF) import.
//!
//! The backfilling literature the paper compares against (refs [11, 12])
//! evaluates on traces from the Parallel Workloads Archive, published in
//! SWF: one job per line, 18 whitespace-separated fields, `;` comments.
//! This module parses SWF text and converts rigid trace jobs into economic
//! [`Batch`]es, drawing the paper-style economic attributes (minimum
//! performance, price cap) that traces do not carry.

use std::error::Error;
use std::fmt;

use ecosched_core::{Batch, Job, JobId, Perf, Price, ResourceRequest, TimeDelta};
use rand::Rng;

use crate::config::RealRange;
use crate::rng_ext::draw_real;

/// One job parsed from an SWF trace (the fields this crate consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwfJob {
    /// SWF field 1: job number.
    pub id: u64,
    /// SWF field 2: submit time (seconds since trace start).
    pub submit: i64,
    /// Requested processors (field 8, falling back to allocated, field 5).
    pub procs: usize,
    /// Requested time (field 9, falling back to the run time, field 4).
    pub requested_time: i64,
}

/// Errors raised while parsing SWF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSwfError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ParseSwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseSwfError {}

/// Parses SWF text into trace jobs.
///
/// Comment lines (starting with `;`) and blank lines are skipped, and a
/// trailing `; comment` after the data fields is stripped — both forms
/// appear in archive headers and hand-annotated traces. CRLF line endings
/// are tolerated (the trailing `\r` is trimmed with the surrounding
/// whitespace). A `-1` sentinel in the submit-time field (seen in
/// anonymized traces) is clamped to `0`; `-1` sentinels in the processor
/// and time fields engage the documented fallbacks. Jobs with non-positive
/// processor counts or times (failed/cancelled entries) are silently
/// dropped, as is conventional when replaying traces.
///
/// # Errors
///
/// Returns [`ParseSwfError`] for structurally malformed lines (fewer than
/// 9 fields, unparsable numbers).
///
/// # Examples
///
/// ```
/// use ecosched_sim::swf::parse_swf;
///
/// let text = "\
/// ; SWF sample
/// 1 0 5 120 4 -1 -1 4 150 -1 1 1 1 1 1 1 -1 -1
/// 2 10 0 60 2 -1 -1 -1 -1 -1 1 1 1 1 1 1 -1 -1
/// ";
/// let jobs = parse_swf(text)?;
/// assert_eq!(jobs.len(), 2);
/// assert_eq!(jobs[0].procs, 4);
/// assert_eq!(jobs[0].requested_time, 150);
/// assert_eq!(jobs[1].procs, 2);          // fell back to allocated procs
/// assert_eq!(jobs[1].requested_time, 60); // fell back to run time
/// # Ok::<(), ecosched_sim::swf::ParseSwfError>(())
/// ```
pub fn parse_swf(text: &str) -> Result<Vec<SwfJob>, ParseSwfError> {
    let mut jobs = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        // Strip a trailing comment first: this also handles whole-line
        // comments and leaves CRLF remnants to the trim.
        let data = raw.find(';').map_or(raw, |pos| &raw[..pos]);
        let line = data.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 9 {
            return Err(ParseSwfError {
                line: index + 1,
                reason: format!("expected ≥ 9 fields, found {}", fields.len()),
            });
        }
        let parse = |pos: usize| -> Result<i64, ParseSwfError> {
            fields[pos].parse().map_err(|_| ParseSwfError {
                line: index + 1,
                reason: format!("field {} ({:?}) is not an integer", pos + 1, fields[pos]),
            })
        };
        let id = parse(0)?;
        // `-1` marks an unknown submit time in anonymized traces; treat it
        // as the trace epoch rather than dropping the job.
        let submit = parse(1)?.max(0);
        let run_time = parse(3)?;
        let allocated = parse(4)?;
        let requested_procs = parse(7)?;
        let requested_time = parse(8)?;

        let procs = if requested_procs > 0 {
            requested_procs
        } else {
            allocated
        };
        let time = if requested_time > 0 {
            requested_time
        } else {
            run_time
        };
        if procs <= 0 || time <= 0 || id < 0 {
            continue; // failed/cancelled entry
        }
        jobs.push(SwfJob {
            id: id as u64,
            submit,
            procs: procs as usize,
            requested_time: time,
        });
    }
    Ok(jobs)
}

/// How to turn rigid trace jobs into economic resource requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfImportConfig {
    /// Take at most this many jobs (in trace order). `0` = no limit.
    pub max_jobs: usize,
    /// Cap each job's processor count (traces routinely exceed a small
    /// VO's width). `0` = no cap.
    pub max_procs: usize,
    /// Divide trace seconds by this factor to get scheduler ticks.
    pub seconds_per_tick: i64,
    /// Minimum node performance requirement, drawn per job (the paper's
    /// `[1, 2]` by default).
    pub min_perf: RealRange,
    /// The R3 price-cap factor (see `JobGenConfig::budget_factor`).
    pub budget_factor: RealRange,
    /// The price-model base (keep equal to the slot generator's).
    pub price_base: f64,
}

impl Default for SwfImportConfig {
    fn default() -> Self {
        SwfImportConfig {
            max_jobs: 0,
            max_procs: 6,
            seconds_per_tick: 60,
            min_perf: RealRange::new(1.0, 2.0),
            budget_factor: RealRange::new(0.75, 1.25),
            price_base: 1.7,
        }
    }
}

/// Converts parsed trace jobs into an economic [`Batch`], preserving trace
/// order as batch priority. Jobs whose scaled time rounds to zero are
/// dropped.
///
/// # Examples
///
/// ```
/// use ecosched_sim::swf::{batch_from_swf, parse_swf, SwfImportConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let jobs = parse_swf("1 0 5 7200 4 -1 -1 4 7200 -1 1 1 1 1 1 1 -1 -1\n")?;
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch = batch_from_swf(&jobs, &SwfImportConfig::default(), &mut rng);
/// assert_eq!(batch.len(), 1);
/// assert_eq!(batch.as_slice()[0].request().wall_time().ticks(), 120); // 7200 s / 60
/// # Ok::<(), ecosched_sim::swf::ParseSwfError>(())
/// ```
pub fn batch_from_swf<R: Rng + ?Sized>(
    jobs: &[SwfJob],
    config: &SwfImportConfig,
    rng: &mut R,
) -> Batch {
    assert!(
        config.seconds_per_tick > 0,
        "seconds_per_tick must be positive"
    );
    let limit = if config.max_jobs == 0 {
        usize::MAX
    } else {
        config.max_jobs
    };
    let mut out = Vec::new();
    for job in jobs.iter().take(limit) {
        let ticks = job.requested_time / config.seconds_per_tick;
        if ticks <= 0 {
            continue;
        }
        let procs = if config.max_procs == 0 {
            job.procs
        } else {
            job.procs.min(config.max_procs)
        };
        let min_perf = draw_real(rng, config.min_perf);
        let factor = draw_real(rng, config.budget_factor);
        let cap = factor * config.price_base.powf(min_perf);
        let request = ResourceRequest::new(
            procs,
            TimeDelta::new(ticks),
            Perf::from_f64(min_perf),
            Price::from_f64(cap),
        )
        .expect("positive procs and ticks form a valid request");
        out.push(Job::new(JobId::new(out.len() as u32), request));
    }
    Batch::from_jobs(out).expect("sequential ids cannot collide")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: test cluster
1 0 10 3600 4 -1 -1 4 3600 -1 1 3 4 1 1 1 -1 -1
2 30 5 1800 2 -1 -1 2 2400 -1 1 3 4 1 1 1 -1 -1
; a trailing comment
3 60 0 0 0 -1 -1 -1 -1 -1 0 3 4 1 1 1 -1 -1
4 90 2 600 16 -1 -1 16 900 -1 1 3 4 1 1 1 -1 -1
";

    #[test]
    fn parses_and_skips_junk() {
        let jobs = parse_swf(SAMPLE).unwrap();
        // Job 3 is a cancelled entry (no procs/time) and is dropped.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].id, 1);
        assert_eq!(jobs[1].requested_time, 2400);
        assert_eq!(jobs[2].procs, 16);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("9 fields"));
        // The corrupt field must be one the parser consumes (run time).
        let err = parse_swf("; ok\n1 0 5 x 4 -1 -1 4 3600\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn tolerates_crlf_trailing_comments_and_sentinels() {
        // CRLF endings, an inline trailing comment, and a -1 submit
        // sentinel — all three hardening cases on one trace.
        let text = "; header\r\n1 -1 5 3600 4 -1 -1 4 3600 -1 1 1 1 1 1 1 -1 -1 ; first\r\n\r\n2 30 5 1800 2 -1 -1 2 2400 -1 1 1 1 1 1 1 -1 -1\r\n";
        let jobs = parse_swf(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].submit, 0, "-1 submit clamps to the trace epoch");
        assert_eq!(jobs[0].procs, 4);
        assert_eq!(jobs[1].submit, 30);
        // A line that is only a comment after stripping is skipped, not a
        // field-count error.
        assert!(parse_swf("  ; indented comment\n").unwrap().is_empty());
    }

    #[test]
    fn batch_conversion_scales_and_caps() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let batch = batch_from_swf(&jobs, &SwfImportConfig::default(), &mut rng);
        assert_eq!(batch.len(), 3);
        let first = batch.as_slice()[0].request();
        assert_eq!(first.wall_time().ticks(), 60); // 3600 s / 60
        assert_eq!(first.nodes(), 4);
        // 16-proc trace job capped to the VO width of 6.
        assert_eq!(batch.as_slice()[2].request().nodes(), 6);
        // Economic attributes follow the R3 rule.
        for job in &batch {
            let p = job.request().min_perf().to_f64();
            assert!((1.0..=2.0).contains(&p));
            let cap = job.request().price_cap().to_f64();
            let base = 1.7f64.powf(p);
            assert!(cap >= 0.74 * base && cap <= 1.26 * base);
        }
    }

    #[test]
    fn limits_are_honoured() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let config = SwfImportConfig {
            max_jobs: 1,
            ..SwfImportConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(batch_from_swf(&jobs, &config, &mut rng).len(), 1);
        // Sub-tick jobs are dropped.
        let config = SwfImportConfig {
            seconds_per_tick: 100_000,
            ..SwfImportConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert!(batch_from_swf(&jobs, &config, &mut rng).is_empty());
    }

    #[test]
    fn conversion_is_deterministic_per_seed() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let config = SwfImportConfig::default();
        let a = batch_from_swf(&jobs, &config, &mut ChaCha8Rng::seed_from_u64(1));
        let b = batch_from_swf(&jobs, &config, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn imported_batch_schedules_end_to_end() {
        use crate::{run_iteration, IterationConfig, SlotGenConfig, SlotGenerator};
        use ecosched_select::Amp;
        let jobs = parse_swf(SAMPLE).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch = batch_from_swf(&jobs, &SwfImportConfig::default(), &mut rng);
        let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
        let result = run_iteration(Amp::new(), &list, &batch, &IterationConfig::default());
        assert!(result.is_ok());
    }
}
