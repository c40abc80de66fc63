//! Versioned framing for the JSONL event export.
//!
//! A `--events-out` file is a sequence of self-describing JSON lines:
//!
//! 1. exactly one [`StreamHeader`] as the first line, naming the schema
//!    and its version;
//! 2. one [`RunMeta`] line per `(source, model)` stream, carrying the
//!    run facts that are *not* recoverable from the events themselves
//!    (capacity basis, wall-clock duration, phase count);
//! 3. [`EventRecord`] lines, one per [`CacheEvent`](crate::CacheEvent).
//!
//! Consumers call [`parse_stream_line`] per line and branch on the
//! returned [`StreamLine`]; unknown versions are rejected up front
//! instead of misparsing silently. Version 1 files (plain event lines,
//! no header) still parse — every line is an event — so old exports
//! remain readable by consumers that choose to warn instead of reject.
//!
//! Event lines are nearly all of an export, and the writer emits them in
//! one fixed shape. [`decode_event_line`] reads exactly that shape
//! straight into a typed [`CacheEvent`] without building a JSON tree;
//! any line it declines goes to the general parser, which builds the
//! tree once and picks the line kind from its top-level keys. Which
//! path a line takes depends only on its bytes, and both give the same
//! result for every line the decoder accepts.

use gencache_cache::{EvictionCause, TraceId};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::event::{CacheEvent, FrontendOp, Region};
use crate::observer::EventRecord;

/// The schema name every event export declares.
pub const EVENTS_SCHEMA: &str = "gencache-events";

/// The version this crate writes and understands.
///
/// * v1 — bare [`EventRecord`] lines, no framing (PR 2–3 exports).
/// * v2 — [`StreamHeader`] first line, [`RunMeta`] per stream, and
///   [`CacheEvent::Noop`](crate::CacheEvent::Noop) events making the
///   frontend op sequence complete (required by the `simulate` tool).
pub const EVENTS_VERSION: u32 = 2;

/// The schema name every `--metrics-out` document declares in its
/// top-level `schema` field.
pub const METRICS_SCHEMA: &str = "gencache-metrics";

/// The metrics-document version this crate's consumers understand.
///
/// * v1 — `suite`/`benchmarks` only, no self-description (PR 2–3).
/// * v2 — adds the top-level `schema`/`version` fields.
pub const METRICS_VERSION: u32 = 2;

/// The first line of a versioned event export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamHeader {
    /// Schema name; always [`EVENTS_SCHEMA`].
    pub schema: String,
    /// Schema version; see [`EVENTS_VERSION`].
    pub version: u32,
}

impl StreamHeader {
    /// The header this crate writes.
    pub fn current() -> Self {
        StreamHeader {
            schema: EVENTS_SCHEMA.to_string(),
            version: EVENTS_VERSION,
        }
    }

    /// Checks the header names a schema/version this crate understands.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != EVENTS_SCHEMA {
            return Err(format!(
                "unknown schema {:?} (expected {EVENTS_SCHEMA:?})",
                self.schema
            ));
        }
        if self.version != EVENTS_VERSION {
            return Err(format!(
                "unsupported {} version {} (this build understands version {})",
                self.schema, self.version, EVENTS_VERSION
            ));
        }
        Ok(())
    }
}

/// Run facts for one `(source, model)` stream that the events alone
/// cannot reproduce: what the replay was driven with, not what the
/// cache did.
///
/// `peak_trace_bytes` is the unbounded footprint that fixes the paper's
/// capacity rule (`capacity = peak / 2`); `duration_us` and `phases`
/// parameterize phase-bucketed cost attribution. The offline `simulate`
/// tool needs all three to rebuild a [`MetricsReport`](crate::MetricsReport)
/// / [`CostReport`](crate::CostReport) pair identical to the live path's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Benchmark the stream was recorded from.
    pub source: String,
    /// Model label the stream was replayed into (e.g. `"unified"`).
    pub model: String,
    /// Wall-clock span of the recorded run, in microseconds.
    pub duration_us: u64,
    /// Peak unbounded trace footprint of the recording, in bytes.
    pub peak_trace_bytes: u64,
    /// Program phase count of the workload profile.
    pub phases: u32,
}

/// One parsed line of a versioned event export.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLine {
    /// The file-level schema header.
    Header(StreamHeader),
    /// Per-stream run metadata.
    Meta(RunMeta),
    /// An event line.
    Event(EventRecord),
}

/// Parses one JSONL line of an event export.
///
/// A canonical event line is decoded by [`decode_event_line`]. Any
/// other line is parsed into a JSON tree once and typed by its
/// top-level keys: `schema` makes a [`StreamHeader`], `event` an
/// [`EventRecord`], and anything else a [`RunMeta`].
pub fn parse_stream_line(line: &str) -> Result<StreamLine, String> {
    if let Some(event) = decode_event_line(line) {
        return Ok(StreamLine::Event(event.to_record()));
    }
    let unrecognized = |e: &dyn std::fmt::Display| format!("unrecognized stream line: {e}: {line}");
    let value = serde_json::value_from_str(line).map_err(|e| unrecognized(&e))?;
    let has = |key: &str| {
        value
            .as_object()
            .is_some_and(|pairs| pairs.iter().any(|(k, _)| k == key))
    };
    let parsed = if has("schema") {
        StreamHeader::from_value(&value).map(StreamLine::Header)
    } else if has("event") {
        EventRecord::from_value(&value).map(StreamLine::Event)
    } else {
        RunMeta::from_value(&value).map(StreamLine::Meta)
    };
    parsed.map_err(|e| unrecognized(&e))
}

/// A canonical event line decoded by [`decode_event_line`]: the stream
/// labels borrowed from the line, the event typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLine<'a> {
    /// The record's `source` label (the benchmark).
    pub source: &'a str,
    /// The record's `model` label.
    pub model: &'a str,
    /// The event.
    pub event: CacheEvent,
}

impl EventLine<'_> {
    /// The owned record the general parser builds for the same line.
    pub fn to_record(&self) -> EventRecord {
        EventRecord {
            source: self.source.to_string(),
            model: self.model.to_string(),
            event: self.event,
        }
    }
}

/// Decodes an event line in exactly the shape the exporter writes it:
/// `{"source":"…","model":"…","event":{"<Variant>":{…}}}` with every
/// field in declaration order, no whitespace, strings without escapes
/// or control bytes, and plain unsigned integers without leading zeros
/// that fit their field's type. Allocates nothing.
///
/// Returns `None` for any other line, including valid JSON in a
/// different layout; [`parse_stream_line`] then takes the general path,
/// so a declined line gets exactly the result it always had.
pub fn decode_event_line(line: &str) -> Option<EventLine<'_>> {
    let mut c = Cursor {
        line,
        pos: 0,
        first: true,
    };
    c.key("source")?;
    let source = c.string()?;
    c.key("model")?;
    let model = c.string()?;
    c.key("event")?;
    c.lit("{")?;
    let variant = c.string()?;
    c.lit(":")?;
    c.first = true;
    // Struct fields evaluate in the order written, which is the order
    // the writer emits them.
    let event = match variant {
        "Insert" => CacheEvent::Insert {
            region: c.name("region", &REGIONS)?,
            trace: c.trace()?,
            bytes: c.u32("bytes")?,
            used: c.u64("used")?,
            time: c.time()?,
        },
        "Hit" => CacheEvent::Hit {
            region: c.name("region", &REGIONS)?,
            trace: c.trace()?,
            reuse_us: c.u64("reuse_us")?,
            time: c.time()?,
        },
        "Miss" => CacheEvent::Miss {
            trace: c.trace()?,
            bytes: c.u32("bytes")?,
            time: c.time()?,
        },
        "Evict" => CacheEvent::Evict {
            region: c.name("region", &REGIONS)?,
            trace: c.trace()?,
            bytes: c.u32("bytes")?,
            cause: c.name("cause", &CAUSES)?,
            age_us: c.u64("age_us")?,
            idle_us: c.u64("idle_us")?,
            time: c.time()?,
        },
        "Promote" => CacheEvent::Promote {
            from: c.name("from", &REGIONS)?,
            to: c.name("to", &REGIONS)?,
            trace: c.trace()?,
            bytes: c.u32("bytes")?,
            time: c.time()?,
        },
        "PromotedIn" => CacheEvent::PromotedIn {
            region: c.name("region", &REGIONS)?,
            trace: c.trace()?,
            bytes: c.u32("bytes")?,
            used: c.u64("used")?,
            time: c.time()?,
        },
        "Pin" => CacheEvent::Pin {
            region: c.name("region", &REGIONS)?,
            trace: c.trace()?,
            time: c.time()?,
        },
        "Unpin" => CacheEvent::Unpin {
            region: c.name("region", &REGIONS)?,
            trace: c.trace()?,
            time: c.time()?,
        },
        "Noop" => CacheEvent::Noop {
            op: c.name("op", &OPS)?,
            trace: c.trace()?,
            time: c.time()?,
        },
        "PointerReset" => CacheEvent::PointerReset {
            region: c.name("region", &REGIONS)?,
            resets: c.u32("resets")?,
            time: c.time()?,
        },
        "PolicySwap" => CacheEvent::PolicySwap {
            epoch: c.u64("epoch")?,
            from: u8::try_from(c.u64("from")?).ok()?,
            to: u8::try_from(c.u64("to")?).ok()?,
            time: c.time()?,
        },
        _ => return None,
    };
    c.lit("}}}")?;
    (c.pos == line.len()).then_some(EventLine {
        source,
        model,
        event,
    })
}

/// Serialized names of the unit enums an event line carries.
const REGIONS: [(&str, Region); 4] = [
    ("Unified", Region::Unified),
    ("Nursery", Region::Nursery),
    ("Probation", Region::Probation),
    ("Persistent", Region::Persistent),
];
const CAUSES: [(&str, EvictionCause); 5] = [
    ("Capacity", EvictionCause::Capacity),
    ("Unmapped", EvictionCause::Unmapped),
    ("Discarded", EvictionCause::Discarded),
    ("Flush", EvictionCause::Flush),
    ("Promoted", EvictionCause::Promoted),
];
const OPS: [(&str, FrontendOp); 3] = [
    ("Unmap", FrontendOp::Unmap),
    ("Pin", FrontendOp::Pin),
    ("Unpin", FrontendOp::Unpin),
];

/// [`decode_event_line`]'s read position. Every method consumes exactly
/// what it matched or returns `None`.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
    /// Whether the next key opens its object (`{`) rather than
    /// following a sibling (`,`).
    first: bool,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        self.rest()
            .starts_with(lit.as_bytes())
            .then(|| self.pos += lit.len())
    }

    /// `{"name":` for an object's first key, `,"name":` after that.
    fn key(&mut self, name: &str) -> Option<()> {
        let open = if std::mem::take(&mut self.first) {
            "{\""
        } else {
            ",\""
        };
        self.lit(open)?;
        self.lit(name)?;
        self.lit("\":")
    }

    /// A string with no escapes or control bytes, borrowed from the line.
    fn string(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let len = self
            .rest()
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if self.rest()[len] != b'"' {
            return None;
        }
        let text = &self.line[self.pos..self.pos + len];
        self.pos += len + 1;
        Some(text)
    }

    /// The value of key `name`: digits only, no leading zero, fits `u64`.
    fn u64(&mut self, name: &str) -> Option<u64> {
        self.key(name)?;
        let digits = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let text = &self.rest()[..digits];
        if digits == 0 || (digits > 1 && text[0] == b'0') {
            return None;
        }
        let mut n = 0u64;
        for &d in text {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.pos += digits;
        Some(n)
    }

    fn u32(&mut self, name: &str) -> Option<u32> {
        u32::try_from(self.u64(name)?).ok()
    }

    fn trace(&mut self) -> Option<TraceId> {
        self.u64("trace").map(TraceId::new)
    }

    fn time(&mut self) -> Option<Time> {
        self.u64("time").map(Time::from_micros)
    }

    /// The value of key `name`: a unit-variant name from `table`.
    fn name<T: Copy>(&mut self, name: &str, table: &[(&str, T)]) -> Option<T> {
        self.key(name)?;
        let text = self.string()?;
        table.iter().find(|(n, _)| *n == text).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_roundtrip_and_validation() {
        let header = StreamHeader::current();
        let line = serde_json::to_string(&header).unwrap();
        match parse_stream_line(&line).unwrap() {
            StreamLine::Header(h) => {
                assert_eq!(h, header);
                h.validate().unwrap();
            }
            other => panic!("expected header, got {other:?}"),
        }
        let future = StreamHeader {
            schema: EVENTS_SCHEMA.into(),
            version: EVENTS_VERSION + 1,
        };
        assert!(future.validate().is_err());
        let alien = StreamHeader {
            schema: "not-ours".into(),
            version: EVENTS_VERSION,
        };
        assert!(alien.validate().is_err());
    }

    #[test]
    fn meta_and_event_lines_disambiguate() {
        let meta = RunMeta {
            source: "word".into(),
            model: "unified".into(),
            duration_us: 1_000_000,
            peak_trace_bytes: 4096,
            phases: 3,
        };
        let line = serde_json::to_string(&meta).unwrap();
        assert_eq!(parse_stream_line(&line).unwrap(), StreamLine::Meta(meta));

        let record = EventRecord {
            source: "word".into(),
            model: "unified".into(),
            event: CacheEvent::Hit {
                region: Region::Unified,
                trace: TraceId::new(1),
                reuse_us: 0,
                time: Time::ZERO,
            },
        };
        let line = serde_json::to_string(&record).unwrap();
        assert_eq!(parse_stream_line(&line).unwrap(), StreamLine::Event(record));
    }

    #[test]
    fn garbage_lines_error() {
        assert!(parse_stream_line("{\"what\":1}").is_err());
        assert!(parse_stream_line("not json").is_err());
    }

    /// The parser as it was before the typed decoder: three whole-line
    /// `from_str` attempts. The reference the decoder must agree with.
    fn three_attempt_parse(line: &str) -> Result<StreamLine, String> {
        if let Ok(header) = serde_json::from_str::<StreamHeader>(line) {
            return Ok(StreamLine::Header(header));
        }
        if let Ok(meta) = serde_json::from_str::<RunMeta>(line) {
            return Ok(StreamLine::Meta(meta));
        }
        match serde_json::from_str::<EventRecord>(line) {
            Ok(record) => Ok(StreamLine::Event(record)),
            Err(e) => Err(format!("unrecognized stream line: {e}: {line}")),
        }
    }

    fn label() -> impl Strategy<Value = String> {
        const PLAIN: [char; 8] = ['w', 'o', 'r', 'd', '-', '@', '4', '.'];
        const AWKWARD: [char; 12] = [
            'a', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '世', '🦀', '/',
        ];
        prop_oneof![
            3 => proptest::collection::vec(0usize..PLAIN.len(), 0..10)
                .prop_map(|ix| ix.into_iter().map(|i| PLAIN[i]).collect::<String>()),
            1 => proptest::collection::vec(0usize..AWKWARD.len(), 0..10)
                .prop_map(|ix| ix.into_iter().map(|i| AWKWARD[i]).collect::<String>()),
        ]
    }

    fn wide() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            0u64..1000,
            (0u64..2).prop_map(|i| [0, u64::MAX][i as usize]),
        ]
    }

    fn narrow() -> impl Strategy<Value = u32> {
        prop_oneof![
            any::<u32>(),
            0u32..1000,
            (0u64..2).prop_map(|i| [0, u32::MAX][i as usize]),
        ]
    }

    fn region() -> impl Strategy<Value = Region> {
        (0usize..4).prop_map(|i| Region::ALL[i])
    }

    fn event() -> impl Strategy<Value = CacheEvent> {
        let trace = || wide().prop_map(TraceId::new);
        let time = || wide().prop_map(Time::from_micros);
        prop_oneof![
            (region(), trace(), narrow(), wide(), time()).prop_map(
                |(region, trace, bytes, used, time)| CacheEvent::Insert {
                    region,
                    trace,
                    bytes,
                    used,
                    time,
                }
            ),
            (region(), trace(), wide(), time()).prop_map(|(region, trace, reuse_us, time)| {
                CacheEvent::Hit {
                    region,
                    trace,
                    reuse_us,
                    time,
                }
            }),
            (trace(), narrow(), time()).prop_map(|(trace, bytes, time)| CacheEvent::Miss {
                trace,
                bytes,
                time
            }),
            (
                region(),
                trace(),
                narrow(),
                0usize..5,
                wide(),
                wide(),
                time()
            )
                .prop_map(|(region, trace, bytes, cause, age_us, idle_us, time)| {
                    CacheEvent::Evict {
                        region,
                        trace,
                        bytes,
                        cause: CAUSES[cause].1,
                        age_us,
                        idle_us,
                        time,
                    }
                }),
            (region(), region(), trace(), narrow(), time()).prop_map(
                |(from, to, trace, bytes, time)| CacheEvent::Promote {
                    from,
                    to,
                    trace,
                    bytes,
                    time,
                }
            ),
            (region(), trace(), narrow(), wide(), time()).prop_map(
                |(region, trace, bytes, used, time)| CacheEvent::PromotedIn {
                    region,
                    trace,
                    bytes,
                    used,
                    time,
                }
            ),
            (region(), trace(), time()).prop_map(|(region, trace, time)| CacheEvent::Pin {
                region,
                trace,
                time
            }),
            (region(), trace(), time()).prop_map(|(region, trace, time)| CacheEvent::Unpin {
                region,
                trace,
                time
            }),
            (0usize..3, trace(), time()).prop_map(|(op, trace, time)| CacheEvent::Noop {
                op: OPS[op].1,
                trace,
                time,
            }),
            (region(), narrow(), time()).prop_map(|(region, resets, time)| {
                CacheEvent::PointerReset {
                    region,
                    resets,
                    time,
                }
            }),
            (wide(), any::<u8>(), any::<u8>(), time()).prop_map(|(epoch, from, to, time)| {
                CacheEvent::PolicySwap {
                    epoch,
                    from,
                    to,
                    time,
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every serialized record the decoder accepts decodes to what
        /// the tree parser gives; every record whose labels need no
        /// escaping is accepted.
        #[test]
        fn decoder_agrees_with_tree_parser(
            (source, model, event) in (label(), label(), event())
        ) {
            let record = EventRecord { source, model, event };
            let line = serde_json::to_string(&record).unwrap();
            let expected = three_attempt_parse(&line);
            prop_assert_eq!(&expected, &Ok(StreamLine::Event(record.clone())));
            prop_assert_eq!(&parse_stream_line(&line), &expected);
            let plain = |s: &str| !s.chars().any(|c| c == '"' || c == '\\' || c < ' ');
            match decode_event_line(&line) {
                Some(decoded) => prop_assert_eq!(decoded.to_record(), record),
                None => prop_assert!(
                    !(plain(&record.source) && plain(&record.model)),
                    "canonical line declined: {line}"
                ),
            }
        }
    }

    #[test]
    fn off_grammar_lines_take_the_general_path_unchanged() {
        let canonical = "{\"source\":\"word\",\"model\":\"unified\",\"event\":{\"Evict\":\
            {\"region\":\"Unified\",\"trace\":7,\"bytes\":1214,\"cause\":\"Capacity\",\
            \"age_us\":5,\"idle_us\":3,\"time\":9}}}";
        assert!(decode_event_line(canonical).is_some());
        let swap = "{\"source\":\"w\",\"model\":\"adaptive\",\"event\":{\"PolicySwap\":\
            {\"epoch\":1,\"from\":0,\"to\":2,\"time\":9}}}";
        assert!(decode_event_line(swap).is_some());
        let reset = "{\"source\":\"w\",\"model\":\"m\",\"event\":{\"PointerReset\":\
            {\"region\":\"Nursery\",\"resets\":2,\"time\":9}}}";
        assert!(decode_event_line(reset).is_some());
        let off_grammar: Vec<String> = vec![
            // Reordered keys, outer and inner.
            canonical.replace(
                "\"source\":\"word\",\"model\":\"unified\"",
                "\"model\":\"unified\",\"source\":\"word\"",
            ),
            canonical.replace("\"trace\":7,\"bytes\":1214", "\"bytes\":1214,\"trace\":7"),
            // Whitespace.
            canonical.replace("\":", "\": "),
            format!(" {canonical}"),
            format!("{canonical} "),
            format!("{canonical}\r"),
            // Numbers off the grammar.
            canonical.replace("\"trace\":7", "\"trace\":07"),
            canonical.replace("\"trace\":7", "\"trace\":00"),
            canonical.replace("1214", "4294967296"),
            canonical.replace("\"age_us\":5", "\"age_us\":18446744073709551616"),
            canonical.replace("1214", "1e3"),
            canonical.replace("1214", "1214.0"),
            canonical.replace("\"trace\":7", "\"trace\":-1"),
            canonical.replace("\"trace\":7", "\"trace\":+7"),
            canonical.replace("\"trace\":7", "\"trace\":\"7\""),
            reset.replace("\"resets\":2", "\"resets\":4294967296"),
            swap.replace("\"from\":0", "\"from\":256"),
            swap.replace("\"to\":2", "\"to\":02"),
            // Trailing bytes and truncation.
            format!("{canonical}x"),
            format!("{canonical}}}"),
            canonical[..canonical.len() - 1].to_string(),
            canonical[..canonical.len() / 2].to_string(),
            // Unknown names.
            canonical.replace("Evict", "Teleport"),
            canonical.replace("\"Unified\"", "\"Attic\""),
            canonical.replace("Capacity", "Boredom"),
            canonical.replace("\"region\"", "\"regio\""),
            // Escapes, control bytes and extra fields.
            canonical.replace("\"word\"", "\"wo\\\"rd\""),
            canonical.replace("\"word\"", "\"\\u0077ord\""),
            canonical.replace("\"word\"", "\"wo\trd\""),
            canonical.replace(",\"time\":9}", ",\"time\":9,\"extra\":1}"),
            canonical.replace("\"model\":\"unified\"", "\"model\":\"unified\",\"x\":null"),
        ];
        for line in &off_grammar {
            assert!(decode_event_line(line).is_none(), "decoder accepted {line}");
            assert_eq!(
                parse_stream_line(line),
                three_attempt_parse(line),
                "line {line}"
            );
        }
        // Header and meta lines are not event lines either, and parse
        // exactly as before.
        let meta = "{\"source\":\"word\",\"model\":\"unified\",\"duration_us\":1,\
            \"peak_trace_bytes\":2,\"phases\":3}";
        for line in ["{\"schema\":\"gencache-events\",\"version\":2}", meta] {
            assert!(decode_event_line(line).is_none());
            assert!(parse_stream_line(line).is_ok());
            assert_eq!(parse_stream_line(line), three_attempt_parse(line));
        }
    }
}
