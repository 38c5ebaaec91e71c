//! The legacy log segment: where a format 3–4 store kept the run's log,
//! beside snapshots that recorded only its position.
//!
//! One file per store, `<prefix>log.ndjson`, one entry per line in
//! canonical JSON — the very bytes the log's hash is defined over. This
//! build never writes one. It reads a segment once, when it loads a
//! format 3–4 snapshot, and trusts nothing in it blind: the prefix it
//! hands out is checked against the position the snapshot records. A
//! reader stops at the first torn or unparsable line.

use std::fs;
use std::path::Path;

use ecosched_engine::LogPosition;
use serde::de::DeserializeOwned;

use crate::format::PersistError;

/// The entries before `position`, read from the segment at `path`.
///
/// # Errors
///
/// [`PersistError::LogSegment`] when the segment — missing, torn, or
/// holding other entries — does not hold that prefix;
/// [`PersistError::Io`] when the file exists but cannot be read.
pub(crate) fn read_prefix<E: DeserializeOwned>(
    path: &Path,
    position: LogPosition,
) -> Result<Vec<E>, PersistError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (mut entries, mut at) = (Vec::new(), LogPosition::start());
    for piece in bytes.split_inclusive(|&b| b == b'\n') {
        if at.len == position.len {
            break;
        }
        // A line without its newline is an interrupted append.
        let Some(line) = piece.strip_suffix(b"\n") else {
            break;
        };
        let Some(entry) = std::str::from_utf8(line)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
        else {
            break;
        };
        at.extend(line);
        entries.push(entry);
    }
    let refuse = |detail: String| PersistError::LogSegment { position, detail };
    if at.len != position.len {
        return Err(refuse(format!("it holds {} entries", at.len)));
    }
    if at.hash != position.hash {
        return Err(refuse(format!("its entries hash to {:016x}", at.hash)));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_engine::{Event, LogEntry};

    fn entries(n: u32) -> Vec<LogEntry> {
        (0..n)
            .map(|job| LogEntry {
                time: i64::from(job) * 3,
                seq: u64::from(job),
                event: Event::JobArrival { job },
            })
            .collect()
    }

    fn lines(entries: &[LogEntry]) -> String {
        entries
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect()
    }

    #[test]
    fn reading_stops_at_the_first_line_that_is_not_an_entry() {
        let path = std::env::temp_dir().join(format!("ecosched-segment-{}", std::process::id()));
        let log = entries(5);
        let intact = lines(&log);
        let read = |upto: usize| read_prefix::<LogEntry>(&path, LogPosition::after(&log[..upto]));

        fs::write(&path, &intact).unwrap();
        assert_eq!(read(5).unwrap(), log);
        assert_eq!(read(3).unwrap(), log[..3]);
        assert_eq!(read(0).unwrap(), []);

        let torn = &intact[..intact.len() - 4];
        fs::write(&path, torn).unwrap();
        assert_eq!(read(4).unwrap(), log[..4]);
        assert!(matches!(read(5), Err(PersistError::LogSegment { .. })));
        // The right length under the wrong hash is refused too.
        let mut wrong = LogPosition::after(&log[..3]);
        wrong.hash ^= 1;
        assert!(matches!(
            read_prefix::<LogEntry>(&path, wrong),
            Err(PersistError::LogSegment { .. })
        ));

        let text: Vec<&str> = intact.lines().collect();
        fs::write(
            &path,
            format!("{}\n{}\nnot json\n{}\n", text[0], text[1], text[3]),
        )
        .unwrap();
        assert_eq!(read(2).unwrap(), log[..2]);
        assert!(matches!(read(3), Err(PersistError::LogSegment { .. })));

        fs::remove_file(&path).unwrap();
        assert_eq!(read(0).unwrap(), []);
        assert!(matches!(read(1), Err(PersistError::LogSegment { .. })));
    }
}
