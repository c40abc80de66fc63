//! Reply hashing without parsing.
//!
//! A `result` reply is one line, `{"type":"result","benches":B,"specs":S,
//! "elapsed_us":E,"table":"…","doc":{…}}`, rendered by the same
//! deterministic writer as the in-process reference. The metrics
//! document is the last key, so its bytes are everything after
//! `,"doc":` up to the closing brace. `elapsed_us` is the only field that
//! differs from run to run; the frame digest hashes the line with those
//! digits left out, which covers the table and counters as well as the
//! document.
//!
//! Inside a JSON string every `"` is escaped, so the unescaped marker
//! `,"doc":` can only be the top-level key.

use std::fmt;

const RESULT_PREFIX: &[u8] = b"{\"type\":\"result\",";
const BUSY_PREFIX: &[u8] = b"{\"type\":\"busy\"";
const ERROR_PREFIX: &[u8] = b"{\"type\":\"error\"";
const ELAPSED_KEY: &[u8] = b"\"elapsed_us\":";
const DOC_KEY: &[u8] = b",\"doc\":";

/// FNV-1a, 64-bit: stable across toolchains and processes, which the
/// committed golden digests need.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A content digest: hash plus length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub len: u64,
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Self {
        let mut h = Fnv::new();
        h.write(bytes);
        Digest {
            hash: h.finish(),
            len: bytes.len() as u64,
        }
    }

    /// Parses the `fnv1a64:<16 hex digits>/<len>` form [`Display`] writes.
    pub fn parse(text: &str) -> Option<Self> {
        let (hash, len) = text.strip_prefix("fnv1a64:")?.split_once('/')?;
        Some(Digest {
            hash: u64::from_str_radix(hash, 16).ok()?,
            len: len.parse().ok()?,
        })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fnv1a64:{:016x}/{}", self.hash, self.len)
    }
}

/// The two digests of one `result` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultDigests {
    /// The metrics document alone.
    pub doc: Digest,
    /// The whole frame minus the `elapsed_us` digits.
    pub frame: Digest,
}

/// What a reply line says, found from its prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyKind {
    Result(ResultDigests),
    Busy,
    /// An error reply, or a line that is no well-formed reply at all;
    /// carries the start of the line for the report.
    Error(String),
}

/// Classifies and hashes one reply line (without its newline).
pub fn classify_reply(line: &[u8]) -> ReplyKind {
    if line.starts_with(BUSY_PREFIX) {
        return ReplyKind::Busy;
    }
    if line.starts_with(RESULT_PREFIX) {
        if let Some(digests) = result_digests(line) {
            return ReplyKind::Result(digests);
        }
    }
    let shown = &line[..line.len().min(200)];
    let kind = if line.starts_with(ERROR_PREFIX) {
        "error reply"
    } else {
        "malformed reply"
    };
    ReplyKind::Error(format!("{kind}: {}", String::from_utf8_lossy(shown)))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The digests of a `result` frame, or `None` when the frame lacks the
/// `elapsed_us` or `doc` keys or its closing brace.
pub fn result_digests(line: &[u8]) -> Option<ResultDigests> {
    let elapsed_at = find(line, ELAPSED_KEY)? + ELAPSED_KEY.len();
    let digits = line[elapsed_at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let doc_at = elapsed_at + digits + find(&line[elapsed_at + digits..], DOC_KEY)? + DOC_KEY.len();
    if line.last() != Some(&b'}') || doc_at >= line.len() {
        return None;
    }
    let mut frame = Fnv::new();
    frame.write(&line[..elapsed_at]);
    frame.write(&line[elapsed_at + digits..]);
    Some(ResultDigests {
        doc: Digest::of(&line[doc_at..line.len() - 1]),
        frame: Digest {
            hash: frame.finish(),
            len: (line.len() - digits) as u64,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_digits_do_not_change_the_frame_digest() {
        let a = br#"{"type":"result","benches":1,"specs":2,"elapsed_us":17,"table":"t \"doc\":","doc":{"x":1}}"#;
        let b = br#"{"type":"result","benches":1,"specs":2,"elapsed_us":123456,"table":"t \"doc\":","doc":{"x":1}}"#;
        let (da, db) = (result_digests(a).unwrap(), result_digests(b).unwrap());
        assert_eq!(da, db);
        assert_eq!(da.doc, Digest::of(br#"{"x":1}"#));
    }

    #[test]
    fn any_other_byte_changes_the_frame_digest() {
        let a =
            br#"{"type":"result","benches":1,"specs":2,"elapsed_us":17,"table":"t","doc":{"x":1}}"#;
        let b =
            br#"{"type":"result","benches":1,"specs":2,"elapsed_us":17,"table":"u","doc":{"x":1}}"#;
        let (da, db) = (result_digests(a).unwrap(), result_digests(b).unwrap());
        assert_eq!(da.doc, db.doc);
        assert_ne!(da.frame, db.frame);
    }

    #[test]
    fn classifies_by_prefix() {
        assert_eq!(
            classify_reply(br#"{"type":"busy","queue_depth":4}"#),
            ReplyKind::Busy
        );
        assert!(matches!(
            classify_reply(br#"{"type":"error","message":"boom"}"#),
            ReplyKind::Error(m) if m.starts_with("error reply")
        ));
        assert!(matches!(
            classify_reply(br#"{"type":"result","doc":{}"#),
            ReplyKind::Error(m) if m.starts_with("malformed reply")
        ));
    }

    #[test]
    fn digest_text_round_trips() {
        let d = Digest::of(b"hello");
        assert_eq!(Digest::parse(&d.to_string()), Some(d));
        assert_eq!(Digest::parse("sha1:00/1"), None);
    }
}
