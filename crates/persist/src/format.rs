//! The snapshot container: a self-describing binary envelope with a
//! version header and per-section checksums.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    [u8; 8]   "ECOSNAP\0"
//! version  u32       FORMAT_VERSION
//! count    u32       number of sections
//! section  × count:
//!   tag      [u8; 4]  ASCII section name
//!   len      u64      payload length in bytes
//!   checksum u64      of the payload (see below)
//!   payload  [u8; len]
//! ```
//!
//! The checksum is [`checksum_words`] from version 4 on and FNV-1a 64
//! ([`fnv1a_64`]) in versions 1–3; the header's version picks which, and
//! a decoder never tries both.
//!
//! The container knows nothing about payload semantics — sections are
//! opaque byte strings (in practice, canonical `serde_json` of the
//! engine's checkpoint types). Decoding verifies the magic, the version,
//! and every section checksum before returning anything, so corruption
//! and truncation surface as typed [`PersistError`]s, never panics, and
//! never a silently wrong checkpoint.

use ecosched_engine::event::fnv1a_64;
use ecosched_engine::LogPosition;

/// The magic bytes every snapshot file starts with.
pub const MAGIC: [u8; 8] = *b"ECOSNAP\0";

/// The container format version this build writes.
///
/// Version history:
/// * **1** — original container; the checkpoint's vacant market always
///   serialized in the flat `{slots, next_id}` form.
/// * **2** — the vacant market may serialize in the tagged per-node
///   interval form (`{"repr": "interval", …}`). The container layout is
///   unchanged; the bump marks the payload schema extension.
/// * **3** — a checkpoint's `log` is the entries *after a position*
///   (`{"after": {"len", "hash"}, "entries": […]}`) instead of the log
///   itself (`{"entries": […]}`). A standalone file carries everything
///   after position zero; a file written by a rotated store carries
///   only the position, the entries being in the store's log segment.
///   Container layout unchanged.
/// * **4** — section checksums step over 8-byte words
///   ([`checksum_words`]) instead of bytes. Payloads unchanged.
/// * **5** — a rotated store's file carries its logs as true positions
///   plus the entries it holds (a daemon's, trimmed to the newest), and
///   never needs a log segment. A store reads the segment only for a
///   file of version 3 or 4 whose merged log it detached. Container
///   layout and checksums unchanged.
/// * **6** — the vacant market's slots and every window member may be
///   rows: a market node group is `[node, [[id, perf, price, start, end],
///   …]]` and a member `[source, node, perf, price, runtime]`, where
///   earlier formats wrote records keyed by those names. Decoding reads
///   either shape under any version. Container layout and checksums
///   unchanged.
///
/// Decoding accepts any version in [`MIN_FORMAT_VERSION`]`..=`
/// [`FORMAT_VERSION`]: a v1 snapshot (flat market) decodes under this
/// build and resumes into either market representation, and a v1 or v2
/// log decodes as the tail after position zero.
pub const FORMAT_VERSION: u32 = 6;

/// The oldest container format version this build still decodes.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// The first version whose sections are checksummed by [`checksum_words`].
const WORD_CHECKSUM_VERSION: u32 = 4;

/// The newest version whose store files may leave their log to a segment.
pub(crate) const LAST_SEGMENT_VERSION: u32 = 4;

/// An odd multiplier, so multiplying by it is a bijection of `u64`.
const WORD_PRIME: u64 = 0x517c_c1b7_2722_0a95;

/// One step over a word: a rotate, then FNV-1a's xor-and-multiply. For a
/// fixed word it is a bijection of the state (rotate, xor and an odd
/// multiply each are); for a fixed state it is injective in the word.
fn word_step(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(WORD_PRIME)
}

/// Continues `state` over `bytes` read as little-endian words, the last
/// one zero-padded: one multiply per eight bytes where FNV-1a does one
/// per byte.
pub(crate) fn words_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut state = (&mut chunks).fold(state, |state, chunk| {
        word_step(
            state,
            u64::from_le_bytes(chunk.try_into().expect("eight bytes")),
        )
    });
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state = word_step(state, u64::from_le_bytes(word));
    }
    state
}

/// The section checksum of format 4: from FNV-1a's offset basis, one step
/// per little-endian word of the payload, the last one zero-padded, and
/// the payload's length as one more word to close it.
///
/// Two payloads of one length that differ only inside one word always
/// differ here: the states before that word are equal, the step over it
/// is injective in the word, and every later step is a bijection of the
/// state. Two payloads that pad to the same words differ in length, and
/// the closing step is injective in that.
#[must_use]
pub fn checksum_words(payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    word_step(words_extend(OFFSET, payload), payload.len() as u64)
}

/// The section checksum a container of `version` carries.
fn checksum(version: u32) -> fn(&[u8]) -> u64 {
    if version >= WORD_CHECKSUM_VERSION {
        checksum_words
    } else {
        fnv1a_64
    }
}

/// A four-byte ASCII section tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionTag(pub [u8; 4]);

impl SectionTag {
    /// The tag as a printable string (lossy for non-ASCII bytes).
    #[must_use]
    pub fn name(&self) -> String {
        self.0.iter().map(|&b| char::from(b)).collect()
    }
}

impl std::fmt::Display for SectionTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Errors from encoding, decoding, or interpreting a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// The byte stream ended before the declared structure did.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// The offending section.
        section: SectionTag,
        /// The checksum the header declared.
        expected: u64,
        /// The checksum of the payload as read.
        found: u64,
    },
    /// A required section is absent from the container.
    MissingSection {
        /// The section that was expected.
        section: SectionTag,
    },
    /// A section's payload passed its checksum but failed to parse as
    /// the expected type (a writer bug or a hand-edited file).
    Corrupt {
        /// The offending section.
        section: SectionTag,
        /// What went wrong.
        detail: String,
    },
    /// A format 3–4 store's log segment cannot supply the prefix a
    /// snapshot was detached from — it is shorter than the position, or
    /// its entries hash differently. The snapshot is unusable; an older
    /// one or a replay from the seed regenerates the log.
    LogSegment {
        /// The position the snapshot records.
        position: LogPosition,
        /// How the segment falls short.
        detail: String,
    },
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} more bytes, have {have}")
            }
            PersistError::BadMagic => write!(f, "not a snapshot: bad magic"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build supports {supported})"
            ),
            PersistError::ChecksumMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "section {section}: checksum mismatch (header {expected:016x}, payload {found:016x})"
            ),
            PersistError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            PersistError::Corrupt { section, detail } => {
                write!(f, "section {section}: {detail}")
            }
            PersistError::LogSegment { position, detail } => write!(
                f,
                "log segment cannot supply the {} entries before position {:016x}: {detail}",
                position.len, position.hash
            ),
            PersistError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Starts a container of `count` sections: the header, then one
/// [`section`] call each.
pub(crate) fn begin(count: u32) -> Vec<u8> {
    [
        &MAGIC[..],
        &FORMAT_VERSION.to_le_bytes(),
        &count.to_le_bytes(),
    ]
    .concat()
}

/// Appends one section. `write` appends the payload straight to the
/// container; its length and checksum are filled in behind it.
pub(crate) fn section(out: &mut Vec<u8>, tag: SectionTag, write: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&tag.0);
    let header = out.len();
    out.extend_from_slice(&[0; 16]);
    write(out);
    let payload = &out[header + 16..];
    let (len, checksum) = (payload.len() as u64, checksum_words(payload));
    out[header..header + 8].copy_from_slice(&len.to_le_bytes());
    out[header + 8..header + 16].copy_from_slice(&checksum.to_le_bytes());
}

/// Encodes sections into the container byte layout.
#[must_use]
pub fn encode(sections: &[(SectionTag, &[u8])]) -> Vec<u8> {
    let mut out = begin(sections.len() as u32);
    for (tag, payload) in sections {
        section(&mut out, *tag, |out| out.extend_from_slice(payload));
    }
    out
}

/// Reads `N` bytes from `bytes` at `*at`, advancing the cursor.
fn take<const N: usize>(bytes: &[u8], at: &mut usize) -> Result<[u8; N], PersistError> {
    let have = bytes.len().saturating_sub(*at);
    if have < N {
        return Err(PersistError::Truncated { needed: N, have });
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[*at..*at + N]);
    *at += N;
    Ok(out)
}

/// The version a container's header names, once its magic is checked
/// and the version is one this build reads.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`] or
/// [`PersistError::Truncated`].
pub fn version(bytes: &[u8]) -> Result<u32, PersistError> {
    let mut at = 0usize;
    let magic: [u8; 8] = take(bytes, &mut at)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(take(bytes, &mut at)?);
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(version)
}

/// Decodes a container, verifying the magic, the version, and every
/// section checksum.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Truncated`], or [`PersistError::ChecksumMismatch`] —
/// never a panic, whatever the input bytes.
pub fn decode(bytes: &[u8]) -> Result<Vec<(SectionTag, Vec<u8>)>, PersistError> {
    let version = version(bytes)?;
    let mut at = 12usize;
    let checksum = checksum(version);
    let count = u32::from_le_bytes(take(bytes, &mut at)?);
    let mut sections = Vec::with_capacity(count.min(64) as usize);
    for _ in 0..count {
        let tag = SectionTag(take(bytes, &mut at)?);
        let len = u64::from_le_bytes(take(bytes, &mut at)?);
        let expected = u64::from_le_bytes(take(bytes, &mut at)?);
        let len = usize::try_from(len).map_err(|_| PersistError::Truncated {
            needed: usize::MAX,
            have: bytes.len() - at,
        })?;
        let have = bytes.len().saturating_sub(at);
        if have < len {
            return Err(PersistError::Truncated { needed: len, have });
        }
        let payload = bytes[at..at + len].to_vec();
        at += len;
        let found = checksum(&payload);
        if found != expected {
            return Err(PersistError::ChecksumMismatch {
                section: tag,
                expected,
                found,
            });
        }
        sections.push((tag, payload));
    }
    Ok(sections)
}

/// Finds a required section in a decoded container.
///
/// # Errors
///
/// [`PersistError::MissingSection`] when absent.
pub fn require(sections: &[(SectionTag, Vec<u8>)], tag: SectionTag) -> Result<&[u8], PersistError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| p.as_slice())
        .ok_or(PersistError::MissingSection { section: tag })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SectionTag = SectionTag(*b"AAAA");
    const B: SectionTag = SectionTag(*b"BBBB");

    #[test]
    fn round_trips_sections() {
        let bytes = encode(&[(A, b"hello"), (B, b"")]);
        let sections = decode(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(require(&sections, A).unwrap(), b"hello");
        assert_eq!(require(&sections, B).unwrap(), b"");
        assert!(matches!(
            require(&sections, SectionTag(*b"ZZZZ")),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode(&[(A, b"x")]);
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(PersistError::BadMagic)));

        let mut bytes = encode(&[(A, b"x")]);
        bytes[8] = 99; // version field
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn rejects_payload_corruption() {
        let bytes = encode(&[(A, b"payload-bytes")]);
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            decode(&corrupt),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    /// The one-section container `encode` writes, under `version`'s
    /// header and checksum.
    fn one_section(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = encode(&[(A, payload)]);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        bytes[28..36].copy_from_slice(&checksum(version)(payload).to_le_bytes());
        bytes
    }

    #[test]
    fn the_header_version_picks_the_checksum() {
        let payload = b"{\"a\":[1,2,3],\"b\":\"twenty-one\"}";
        for version in MIN_FORMAT_VERSION..=FORMAT_VERSION {
            let bytes = one_section(version, payload);
            assert_eq!(require(&decode(&bytes).unwrap(), A).unwrap(), payload);
        }
        assert_eq!(
            one_section(FORMAT_VERSION, payload),
            encode(&[(A, payload)])
        );
        // Each checksum under the other's header is refused.
        let mut words_under_v3 = encode(&[(A, payload)]);
        words_under_v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        let mut bytes_under_v4 = one_section(3, payload);
        bytes_under_v4[8..12].copy_from_slice(&4u32.to_le_bytes());
        for refused in [words_under_v3, bytes_under_v4] {
            assert!(matches!(
                decode(&refused),
                Err(PersistError::ChecksumMismatch { section: A, .. })
            ));
        }
    }

    #[test]
    fn the_word_checksum_sees_every_change_inside_one_word() {
        let payload: Vec<u8> = (0u8..21).map(|b| b.wrapping_mul(37)).collect();
        let sum = checksum_words(&payload);
        for pos in 0..payload.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut changed = payload.clone();
                changed[pos] ^= mask;
                assert_ne!(checksum_words(&changed), sum, "byte {pos} ^ {mask:#x}");
            }
        }
        // A whole word changed at once, and payloads that pad alike.
        let mut changed = payload.clone();
        changed[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_ne!(checksum_words(&changed), sum);
        assert_ne!(checksum_words(b"abc"), checksum_words(b"abc\0"));
        assert_ne!(checksum_words(b""), checksum_words(&[0; 8]));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(&[(A, b"hello"), (B, b"world")]);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn errors_render() {
        let e = PersistError::ChecksumMismatch {
            section: A,
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("AAAA"));
        assert!(PersistError::BadMagic.to_string().contains("magic"));
    }
}
