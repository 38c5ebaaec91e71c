//! Data directories as a format-4 build left them.
//!
//! That build kept the merged log in `snapshots/fsnap-log.ndjson`, one
//! entry per line, and wrote each snapshot with its logs detached: the
//! merged log as a position with no entries, each shard's log as a bare
//! length, and every market slot and window member as a record.
//! [`rewrite_as_format_4`] turns a directory this build wrote into exactly
//! that, so the damage tests can reach the legacy readers through boot and
//! `--verify`.

use std::path::{Path, PathBuf};

use ecosched_engine::{Log, LogPosition};
use ecosched_federation::{Federation, FederationCheckpoint};
use ecosched_persist::{format, snapshot, Checkpoint, Store};
use ecosched_select::Amp;
use ecosched_service::session::{snapshot_dir, wal_path};
use ecosched_service::{load_manifest, load_wal, replay_wal, SelectorChoice};

/// The legacy segment of a data directory.
pub fn segment_path(data_dir: &Path) -> PathBuf {
    snapshot_dir(data_dir).join("fsnap-log.ndjson")
}

/// Rewrites every snapshot of `data_dir` as a format-4 store file and
/// writes the segment those files are detached from: the merged log up
/// to the newest snapshot, regenerated from the WAL. Returns the number
/// of segment lines.
pub fn rewrite_as_format_4(data_dir: &Path) -> usize {
    let manifest = load_manifest(data_dir).expect("manifest").expect("present");
    assert_eq!(manifest.selector, SelectorChoice::Amp);
    let fed = Federation::new(manifest.fed_config(), Amp::new()).expect("config");
    let wal = load_wal(&wal_path(data_dir)).expect("wal");
    let mut offline = replay_wal(&fed, manifest.seed, &wal.entries).expect("replay");
    let store = Store::<FederationCheckpoint>::open(snapshot_dir(data_dir), 8).expect("store");
    let mut lines = 0;
    for path in store.list().expect("list") {
        let mut checkpoint = store.load(&path).expect("a snapshot this build wrote");
        let len = checkpoint.merged.len();
        while offline.merged().len() < len {
            fed.step(&mut offline)
                .expect("step")
                .expect("the run goes on");
        }
        checkpoint.merged = Log::detached(LogPosition::after(&offline.merged().entries[..len]));
        for shard in &mut checkpoint.shards {
            let len = shard.log.len() as u64;
            shard.log = Log::detached(LogPosition { len, hash: 0 });
        }
        let sections = format::decode(&snapshot::encode(&checkpoint)).expect("container");
        let state = as_records(
            format::require(&sections, FederationCheckpoint::STATE_SECTION).expect("state"),
        );
        let sections: Vec<_> = sections
            .iter()
            .map(|(tag, payload)| match *tag {
                FederationCheckpoint::STATE_SECTION => (*tag, &state[..]),
                _ => (*tag, &payload[..]),
            })
            .collect();
        let mut bytes = format::encode(&sections);
        // Formats 4 to 6 share the container and its checksums.
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, bytes).expect("rewrite");
        lines = len;
    }
    let text: String = offline.merged().entries[..lines]
        .iter()
        .map(|entry| serde_json::to_string(entry).expect("json") + "\n")
        .collect();
    std::fs::write(segment_path(data_dir), text).expect("segment");
    lines
}

/// The state JSON `payload` with every market slot and window member
/// printed as the record that formats 5 and earlier wrote: a market's
/// `[node, [[id, perf, price, start, end], …]]` groups as `{node, slots}`
/// records of `{id, node, perf, price, span}`, and a window member's
/// `[source, node, perf, price, runtime]` as a record of those fields.
pub fn as_records(payload: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(payload).expect("UTF-8");
    let mut reader = Reader { text, at: 0 };
    let value = reader.value();
    reader.skip_space();
    assert_eq!(reader.at, text.len(), "one JSON value");
    let mut out = String::with_capacity(payload.len() * 2);
    value.records().write(&mut out);
    out.into_bytes()
}

/// A JSON value; numbers, strings and literals keep their source text.
enum Json {
    Atom(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The fields of a row of five.
    fn row(self) -> [Json; 5] {
        let Json::Array(items) = self else {
            panic!("a row is an array");
        };
        items.try_into().ok().expect("a row has five fields")
    }

    fn items(self) -> Vec<Json> {
        let Json::Array(items) = self else {
            panic!("an array");
        };
        items
    }

    fn text(&self) -> &str {
        let Json::Atom(text) = self else {
            panic!("an atom");
        };
        text
    }

    fn records(self) -> Json {
        let fields = match self {
            Json::Atom(_) => return self,
            Json::Array(items) => {
                return Json::Array(items.into_iter().map(Json::records).collect())
            }
            Json::Object(fields) => fields,
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        match keys[..] {
            ["repr", "nodes", "next_id"] => {
                let [(_, repr), (_, nodes), (_, next_id)]: [(String, Json); 3] =
                    fields.try_into().ok().expect("three fields");
                let groups = nodes.items().into_iter().map(|group| {
                    let [node, rows]: [Json; 2] =
                        group.items().try_into().ok().expect("a node and its rows");
                    let slots: Vec<Json> = rows
                        .items()
                        .into_iter()
                        .map(|row| {
                            let [id, perf, price, start, end] = row.row();
                            Json::object(vec![
                                ("id", id),
                                ("node", Json::Atom(node.text().to_owned())),
                                ("perf", perf),
                                ("price", price),
                                ("span", Json::object(vec![("start", start), ("end", end)])),
                            ])
                        })
                        .collect();
                    Json::object(vec![("node", node), ("slots", Json::Array(slots))])
                });
                Json::object(vec![
                    ("repr", repr),
                    ("nodes", Json::Array(groups.collect())),
                    ("next_id", next_id),
                ])
            }
            ["start", "slots"] => {
                let [(_, start), (_, slots)]: [(String, Json); 2] =
                    fields.try_into().ok().expect("two fields");
                let members = slots.items().into_iter().map(|member| {
                    let [source, node, perf, price, runtime] = member.row();
                    Json::object(vec![
                        ("source", source),
                        ("node", node),
                        ("perf", perf),
                        ("price", price),
                        ("runtime", runtime),
                    ])
                });
                Json::object(vec![
                    ("start", start),
                    ("slots", Json::Array(members.collect())),
                ])
            }
            _ => Json::Object(
                fields
                    .into_iter()
                    .map(|(key, value)| (key, value.records()))
                    .collect(),
            ),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Atom(text) => out.push_str(text),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{key}\":"));
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A cursor over JSON text.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn skip_space(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start().len();
    }

    fn next(&mut self) -> u8 {
        self.skip_space();
        let byte = self.text.as_bytes()[self.at];
        self.at += 1;
        byte
    }

    fn peek(&mut self) -> u8 {
        self.skip_space();
        self.text.as_bytes()[self.at]
    }

    /// A string's source text, quotes included.
    fn string(&mut self) -> &str {
        assert_eq!(self.peek(), b'"');
        let start = self.at;
        self.at += 1;
        let bytes = self.text.as_bytes();
        while bytes[self.at] != b'"' {
            self.at += if bytes[self.at] == b'\\' { 2 } else { 1 };
        }
        self.at += 1;
        &self.text[start..self.at]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'"' => Json::Atom(self.string().to_owned()),
            open @ (b'[' | b'{') => {
                self.at += 1;
                let close = if open == b'[' { b']' } else { b'}' };
                let mut items = Vec::new();
                let mut fields = Vec::new();
                if self.peek() == close {
                    self.at += 1;
                } else {
                    loop {
                        if open == b'[' {
                            items.push(self.value());
                        } else {
                            let key = self.string().trim_matches('"').to_owned();
                            assert_eq!(self.next(), b':');
                            fields.push((key, self.value()));
                        }
                        match self.next() {
                            b',' => {}
                            byte => {
                                assert_eq!(byte, close);
                                break;
                            }
                        }
                    }
                }
                if open == b'[' {
                    Json::Array(items)
                } else {
                    Json::Object(fields)
                }
            }
            _ => {
                let rest = &self.text[self.at..];
                let len = rest
                    .find(|c: char| matches!(c, ',' | ']' | '}') || c.is_whitespace())
                    .unwrap_or(rest.len());
                self.at += len;
                Json::Atom(rest[..len].to_owned())
            }
        }
    }
}
