//! Wire protocol of `valign serve`: length-prefixed JSON frames, a
//! dependency-free JSON reader, and the request/response vocabulary.
//!
//! # Framing
//!
//! Every message — in both directions — is one *frame*: a 4-byte
//! big-endian length followed by that many bytes of UTF-8 JSON. Frames
//! are capped at [`MAX_FRAME`] bytes; an oversized header is a protocol
//! error the daemon answers by closing the connection (it cannot resync
//! past a body it refuses to read). [`read_frame`] distinguishes a clean
//! end-of-stream at a frame boundary (`Ok(None)`) from truncation inside
//! a frame ([`FrameError::Truncated`]): a client that vanishes mid-frame
//! never panics the daemon, it surfaces as an error on that connection
//! only. Both ends of a connection go through [`setup_stream`]
//! (`TCP_NODELAY` plus deadlines), [`write_frame`] issues one write per
//! frame and never flushes, and every writer flushes once per burst of
//! frames — so a reply goes out as soon as it exists, in as few
//! segments as it fits.
//!
//! # JSON
//!
//! The repository renders all JSON by hand and this module reads it the
//! same way: [`Json::parse`] is a small recursive-descent reader over the
//! frame bytes — no dependencies, bounded depth, and **total**: any byte
//! sequence produces either a value or a [`JsonError`], never a panic.
//! Integers without sign, fraction or exponent are kept as exact `u64`
//! ([`Json::UInt`]) so 64-bit seeds round-trip losslessly; everything
//! else numeric becomes `f64`.
//!
//! # Determinism
//!
//! Response frames carry **no wall-clock quantities** — no timestamps,
//! no durations, no queue positions. A scorecard is a pure function of
//! the job spec and seed, which is what makes the service's headline
//! guarantee (bit-identical responses across serial, concurrent and
//! warm-restart runs) checkable with `diff`.

use crate::sim::{SimJob, TraceKey};
use crate::supervise::{JobOutcome, OutcomeTally};
use crate::workload::KernelId;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use valign_cache::RealignConfig;
use valign_kernels::util::Variant;
use valign_pipeline::{Bucket, PipelineConfig};

/// Hard cap on one frame's payload, both directions. Large enough for a
/// full-matrix submit or a batch of scorecards, small enough that a
/// hostile length header cannot make the daemon allocate unboundedly.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The length header exceeds [`MAX_FRAME`]; the connection cannot be
    /// resynchronized and must be closed.
    Oversized {
        /// The advertised payload length.
        len: u32,
    },
    /// The stream ended inside a header or body — the peer vanished
    /// mid-frame.
    Truncated,
    /// A socket read deadline expired before the frame completed.
    /// `started` distinguishes an idle peer (no byte of the frame had
    /// arrived — the daemon keeps waiting) from a slow-loris peer that
    /// stalled mid-frame (the connection is dropped).
    TimedOut {
        /// Whether any bytes of this frame had already arrived.
        started: bool,
    },
    /// The payload is not UTF-8.
    NotUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::TimedOut { started: true } => {
                write!(f, "read deadline expired mid-frame")
            }
            FrameError::TimedOut { started: false } => {
                write!(f, "read deadline expired while idle")
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Configures one end of a serve connection, daemon or client side:
/// `TCP_NODELAY` plus the read/write `deadline` (`None` blocks
/// forever). Without no-delay, Nagle's algorithm holds each small reply
/// frame until the previous one is acknowledged, and a client that sends
/// nothing mid-batch only acknowledges when its delayed-ACK timer fires
/// (40 ms on Linux) — a fixed stall per submit.
pub(crate) fn setup_stream(stream: &TcpStream, deadline: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(deadline)?;
    stream.set_write_timeout(deadline)
}

/// One frame's wire bytes: 4-byte big-endian length, then the payload.
pub(crate) fn encode_frame(payload: &str) -> io::Result<Vec<u8>> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Writes one frame, header and payload in a single `write_all`, so a
/// frame larger than a `BufWriter`'s buffer never leaves as a lone
/// 4-byte header segment. Does not flush: the caller flushes once per
/// burst of frames.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    w.write_all(&encode_frame(payload)?)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream exactly at a
/// frame boundary; every other shortfall is an error, never a panic.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut head = [0u8; 4];
    match fill(r, &mut head)? {
        Fill::Empty => return Ok(None),
        Fill::Partial => return Err(FrameError::Truncated),
        Fill::Full => {}
    }
    let len = u32::from_be_bytes(head);
    if len as usize > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let mut body = vec![0u8; len as usize];
    // Once the header has arrived the frame has started: a deadline
    // expiring inside the body is always a mid-frame stall.
    let filled = fill(r, &mut body).map_err(|e| match e {
        FrameError::TimedOut { .. } => FrameError::TimedOut { started: true },
        other => other,
    })?;
    match filled {
        Fill::Full => {}
        // A body of zero bytes "fills" trivially; anything short of the
        // advertised length is truncation.
        Fill::Empty if len == 0 => {}
        Fill::Empty | Fill::Partial => return Err(FrameError::Truncated),
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| FrameError::NotUtf8)
}

enum Fill {
    /// The stream ended before the first byte.
    Empty,
    /// The stream ended after some but not all bytes.
    Partial,
    /// The buffer was filled.
    Full,
}

/// `read_exact` that reports *where* the stream ended instead of folding
/// clean EOF and truncation into one error.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Ok(if got == 0 { Fill::Empty } else { Fill::Partial });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Platform-dependent: a socket read timeout surfaces as
            // `WouldBlock` on Unix and `TimedOut` on Windows.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(FrameError::TimedOut { started: got > 0 });
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(if buf.is_empty() {
        Fill::Empty
    } else {
        Fill::Full
    })
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer written without sign, fraction or exponent —
    /// kept exact so 64-bit seeds survive the wire.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.what)
    }
}

impl Json {
    /// Parses one JSON document. Total over arbitrary input: every byte
    /// sequence yields a value or a [`JsonError`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing bytes after the document"));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match), `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64`: `UInt` directly, or a `Num` that is a
    /// non-negative integer small enough to be exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Nesting bound for the reader — far above anything the protocol emits,
/// low enough that a pathological `[[[[…` frame cannot blow the stack.
const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError {
            pos: self.pos,
            what,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), JsonError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_word("null").map(|()| Json::Null),
            Some(b't') => self.expect_word("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect_word("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.b.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Raw control bytes are technically invalid JSON; accept
                // them leniently — the reader's job is to never wedge on
                // hostile input, not to certify conformance.
                _ => {
                    // Re-decode from the byte position to keep multi-byte
                    // UTF-8 sequences intact (input is already a &str).
                    let start = self.pos - 1;
                    let s = &self.b[start..];
                    let Ok(text) = std::str::from_utf8(&s[..utf8_len(c).min(s.len())]) else {
                        return Err(self.err("malformed UTF-8 inside string"));
                    };
                    let Some(ch) = text.chars().next() else {
                        return Err(self.err("malformed UTF-8 inside string"));
                    };
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining UTF-16 surrogate
    /// pairs; lone surrogates become U+FFFD rather than an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: combine with a following \uDC00..DFFF.
            if self.b.get(self.pos) == Some(&b'\\') && self.b.get(self.pos + 1) == Some(&b'u') {
                let save = self.pos;
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let combined = 0x10000
                        + ((u32::from(first) - 0xD800) << 10)
                        + (u32::from(second) - 0xDC00);
                    return Ok(char::from_u32(combined).unwrap_or(char::REPLACEMENT_CHARACTER));
                }
                self.pos = save;
            }
            return Ok(char::REPLACEMENT_CHARACTER);
        }
        Ok(char::from_u32(u32::from(first)).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let Some(&c) = self.b.get(self.pos) else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = (v << 4) | u16::from(digit);
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.b.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let integral_end = self.pos;
        if self.eat(b'.') {
            while matches!(self.b.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.b.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        // Plain unsigned integers stay exact.
        if integral_end == self.pos && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// UTF-8 sequence length implied by a leading byte (1 for ASCII and for
/// continuation bytes, which only arise on malformed input).
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Escapes a string for embedding in hand-rendered JSON.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Job urgency. Within one priority the queue is FIFO by arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Behind everything else.
    Low,
    /// The default.
    Normal,
    /// Ahead of everything else.
    High,
}

impl Priority {
    /// Wire name.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire name.
    pub fn from_label(s: &str) -> Option<Priority> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// Why a request could not be understood or resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Human-readable reason, echoed back in the error frame.
    pub message: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

fn bad(message: impl Into<String>) -> RequestError {
    RequestError {
        message: message.into(),
    }
}

/// One job of a submit request, in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Kernel label (e.g. `luma8x8`).
    pub kernel: String,
    /// Variant label (`scalar` / `aligned` / `unaligned`).
    pub variant: String,
    /// Table II machine name (`2-way` / `4-way` / `8-way`).
    pub config: String,
    /// Kernel executions to trace.
    pub execs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Realign model: `equal-latency`, `proposed`, or `extra:N`.
    pub realign: String,
}

impl JobSpec {
    /// Resolves the wire form into an executable [`SimJob`], or a
    /// diagnostic naming the unresolvable field.
    pub fn resolve(&self) -> Result<SimJob, RequestError> {
        let kernel = KernelId::from_label(&self.kernel)
            .ok_or_else(|| bad(format!("unknown kernel '{}'", self.kernel)))?;
        let variant = Variant::from_label(&self.variant)
            .ok_or_else(|| bad(format!("unknown variant '{}'", self.variant)))?;
        let cfg = PipelineConfig::table_ii()
            .into_iter()
            .find(|c| c.name == self.config)
            .ok_or_else(|| bad(format!("unknown config '{}'", self.config)))?;
        let realign = parse_realign(&self.realign)
            .ok_or_else(|| bad(format!("unknown realign model '{}'", self.realign)))?;
        if self.execs < 2 {
            return Err(bad("execs must be at least 2"));
        }
        Ok(SimJob::keyed(
            TraceKey {
                kernel,
                variant,
                execs: self.execs,
                seed: self.seed,
            },
            cfg.with_realign(realign),
        ))
    }

    pub(crate) fn render(&self) -> String {
        format!(
            "{{\"kernel\": \"{}\", \"variant\": \"{}\", \"config\": \"{}\", \
             \"execs\": {}, \"seed\": {}, \"realign\": \"{}\"}}",
            escape_json(&self.kernel),
            escape_json(&self.variant),
            escape_json(&self.config),
            self.execs,
            self.seed,
            escape_json(&self.realign),
        )
    }

    pub(crate) fn from_json(v: &Json) -> Result<JobSpec, RequestError> {
        let field_str = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("job is missing string field '{k}'")))
        };
        let execs = v
            .get("execs")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("job is missing numeric field 'execs'"))?;
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("job is missing numeric field 'seed'"))?;
        Ok(JobSpec {
            kernel: field_str("kernel")?,
            variant: field_str("variant")?,
            config: field_str("config")?,
            execs: usize::try_from(execs).map_err(|_| bad("execs out of range"))?,
            seed,
            realign: match v.get("realign") {
                None => "equal-latency".to_string(),
                Some(r) => r
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("'realign' must be a string"))?,
            },
        })
    }
}

/// Parses a realign model name.
fn parse_realign(s: &str) -> Option<RealignConfig> {
    match s {
        "equal-latency" => Some(RealignConfig::equal_latency()),
        "proposed" => Some(RealignConfig::proposed()),
        _ => s
            .strip_prefix("extra:")
            .and_then(|n| n.parse::<u32>().ok())
            .filter(|&n| n <= 64)
            .map(RealignConfig::extra),
    }
}

/// A `submit` request: a named client enqueues jobs at one priority,
/// optionally with injected faults (the CLI's `--inject` specs — the
/// test hook for exercising quarantine isolation over the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Client name the per-client quota is accounted against.
    pub client: String,
    /// Queue priority for every job of this request.
    pub priority: Priority,
    /// Fault-injection specs applied to this request's jobs.
    pub inject: Vec<String>,
    /// The jobs.
    pub jobs: Vec<JobSpec>,
}

impl SubmitRequest {
    /// Renders the request frame.
    pub fn render(&self) -> String {
        let jobs: Vec<String> = self.jobs.iter().map(JobSpec::render).collect();
        let inject: Vec<String> = self
            .inject
            .iter()
            .map(|s| format!("\"{}\"", escape_json(s)))
            .collect();
        format!(
            "{{\"type\": \"submit\", \"client\": \"{}\", \"priority\": \"{}\", \
             \"inject\": [{}], \"jobs\": [{}]}}",
            escape_json(&self.client),
            self.priority.label(),
            inject.join(", "),
            jobs.join(", "),
        )
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue jobs.
    Submit(SubmitRequest),
    /// Report live counters.
    Stats,
    /// Stop accepting, drain the queue, exit.
    Shutdown,
}

impl Request {
    /// Parses one request frame. Any malformed input yields a
    /// [`RequestError`] whose message the daemon echoes in an `error`
    /// frame — parsing is total and never panics.
    pub fn parse(text: &str) -> Result<Request, RequestError> {
        let v = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("request has no string 'type' field"))?;
        match kind {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let client = v
                    .get("client")
                    .and_then(Json::as_str)
                    .unwrap_or("anonymous")
                    .to_string();
                let priority = match v.get("priority") {
                    None => Priority::Normal,
                    Some(p) => p
                        .as_str()
                        .and_then(Priority::from_label)
                        .ok_or_else(|| bad("'priority' must be low|normal|high"))?,
                };
                let inject = match v.get("inject") {
                    None => Vec::new(),
                    Some(arr) => arr
                        .as_array()
                        .ok_or_else(|| bad("'inject' must be an array of strings"))?
                        .iter()
                        .map(|s| {
                            s.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| bad("'inject' must be an array of strings"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                let jobs = v
                    .get("jobs")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("submit has no 'jobs' array"))?
                    .iter()
                    .map(JobSpec::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                if jobs.is_empty() {
                    return Err(bad("submit carries no jobs"));
                }
                Ok(Request::Submit(SubmitRequest {
                    client,
                    priority,
                    inject,
                    jobs,
                }))
            }
            other => Err(bad(format!("unknown request type '{other}'"))),
        }
    }
}

/// Renders the `error` response frame for a malformed request.
pub fn render_error(message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"message\": \"{}\"}}",
        escape_json(message)
    )
}

/// Renders the `accepted` response frame.
pub fn render_accepted(jobs: usize) -> String {
    format!("{{\"type\": \"accepted\", \"jobs\": {jobs}}}")
}

/// Renders a `rejected` response frame. `retry_after_ms` present means
/// the rejection is load shedding (backpressure — try again later);
/// absent means the request itself is unservable (e.g. over the
/// admission budget) and retrying cannot help.
pub fn render_rejected(reason: &str, retry_after_ms: Option<u64>) -> String {
    match retry_after_ms {
        Some(ms) => format!(
            "{{\"type\": \"rejected\", \"reason\": \"{}\", \"retry_after_ms\": {ms}}}",
            escape_json(reason)
        ),
        None => format!(
            "{{\"type\": \"rejected\", \"reason\": \"{}\"}}",
            escape_json(reason)
        ),
    }
}

/// Renders the per-job `scorecard` frame — the deterministic heart of
/// the protocol. Everything in it is a pure function of the job spec and
/// seed: simulated cycles and attribution, never wall-clock anything.
/// The daemon, the batch CLI (`valign submit --local`) and the tests all
/// render through this one function, which is what makes "bit-identical
/// scorecards" a meaningful cross-path guarantee.
pub fn render_scorecard(job_id: u64, job: &SimJob, outcome: &JobOutcome) -> String {
    compose_scorecard(job_id, &scorecard_body(job, outcome))
}

/// Splices a subscriber's `job_id` onto a stored scorecard body —
/// the exact inverse of the split performed by [`scorecard_body`].
pub fn compose_scorecard(job_id: u64, body: &str) -> String {
    format!("{{\"type\": \"scorecard\", \"job_id\": {job_id}, {body}")
}

/// The `job_id`-independent remainder of a scorecard frame, starting at
/// the `"job"` key and running through the closing brace. This is what
/// the journal persists: a recovered card re-renders byte-identically
/// for any subscriber's `job_id` via [`compose_scorecard`].
pub fn scorecard_body(job: &SimJob, outcome: &JobOutcome) -> String {
    let execs = match &job.source {
        crate::sim::TraceSource::Key(key) => key.execs,
        crate::sim::TraceSource::Shared(_) => 0,
    };
    let mut out = format!(
        "\"job\": \"{}\", \
         \"config\": \"{}\", \"realign_config\": \"{}\", \"execs\": {execs}, \
         \"seed\": {}, \"outcome\": \"{}\", \"attempts\": {}",
        escape_json(&job.label()),
        escape_json(job.cfg.name),
        job.cfg.realign.label(),
        job.seed(),
        outcome.kind(),
        outcome.attempts(),
    );
    match outcome.result() {
        Some(r) => {
            let buckets: Vec<String> = Bucket::ALL
                .iter()
                .map(|&b| format!("\"{}\": {}", b.label(), r.breakdown.get(b)))
                .collect();
            out.push_str(&format!(
                ", \"cycles\": {}, \"instructions\": {}, \
                 \"unaligned_accesses\": {}, \"realign_penalty_cycles\": {}, \
                 \"split_accesses\": {}, \"attribution\": {{{}}}, \
                 \"conserved\": {}",
                r.cycles,
                r.instructions,
                r.unaligned_accesses,
                r.realign_penalty_cycles,
                r.split_accesses,
                buckets.join(", "),
                r.breakdown.conserves(r.cycles),
            ));
        }
        None => {
            if let JobOutcome::Quarantined { failure, .. } = outcome {
                out.push_str(&format!(
                    ", \"failure\": \"{}\"",
                    escape_json(&failure.to_string())
                ));
            }
        }
    }
    out.push('}');
    out
}

/// Renders the `batch-done` frame closing one submit's scorecard stream.
pub fn render_batch_done(jobs: usize, tally: &OutcomeTally) -> String {
    format!(
        "{{\"type\": \"batch-done\", \"jobs\": {jobs}, \"tally\": \
         {{\"completed\": {}, \"retried\": {}, \"degraded\": {}, \
         \"quarantined\": {}}}}}",
        tally.completed, tally.retried, tally.degraded, tally.quarantined,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json("a\\b"), r"a\\b");
        assert_eq!(escape_json("a\nb"), r"a\nb");
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\": \"stats\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"type\": \"stats\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors_not_panics() {
        // Header cut short.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Body shorter than advertised.
        let mut r: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Hostile length header.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized { .. })
        ));
        // Non-UTF-8 body.
        let mut r: &[u8] = &[0, 0, 0, 2, 0xff, 0xfe];
        assert!(matches!(read_frame(&mut r), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn read_deadline_maps_to_timed_out_with_frame_progress() {
        struct Stutter {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for Stutter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline"));
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        // Nothing arrived: an idle timeout the daemon waits through.
        let mut idle = Stutter {
            data: Vec::new(),
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut idle),
            Err(FrameError::TimedOut { started: false })
        ));
        // Header arrived, body stalled: a mid-frame (slow-loris) timeout.
        let mut framed = Vec::new();
        write_frame(&mut framed, "{\"type\": \"stats\"}").unwrap();
        framed.truncate(6);
        let mut stalled = Stutter {
            data: framed,
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut stalled),
            Err(FrameError::TimedOut { started: true })
        ));
    }

    #[test]
    fn json_parses_the_protocol_shapes() {
        let v = Json::parse(
            "{\"type\": \"submit\", \"seed\": 18446744073709551615, \
             \"x\": -1.5e3, \"flag\": true, \"arr\": [1, 2], \"none\": null}",
        )
        .unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("x"), Some(&Json::Num(-1500.0)));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("arr").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn json_survives_garbage_without_panicking() {
        for junk in [
            "",
            "{",
            "}",
            "[",
            "]",
            "{{{{",
            "\"",
            "\\",
            "nul",
            "tru",
            "01x",
            "-",
            "1e",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "[1 2]",
            "\u{0}",
            "{\"\\q\": 1}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "1 2",
            "9999999999999999999999999999",
        ] {
            let _ = Json::parse(junk);
        }
        // Deep nesting hits the depth bound, not the stack.
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        // Escapes and surrogate pairs decode.
        let v = Json::parse("\"a\\n\\u0041\\ud83d\\ude00\\ud800z\"").unwrap();
        assert_eq!(v.as_str(), Some("a\nA\u{1f600}\u{fffd}z"));
    }

    #[test]
    fn submit_round_trips_through_parse() {
        let req = SubmitRequest {
            client: "ci-a".to_string(),
            priority: Priority::High,
            inject: vec!["panic:luma8x8.unaligned".to_string()],
            jobs: vec![JobSpec {
                kernel: "luma8x8".to_string(),
                variant: "unaligned".to_string(),
                config: "4-way".to_string(),
                execs: 20,
                seed: 7,
                realign: "equal-latency".to_string(),
            }],
        };
        let parsed = Request::parse(&req.render()).unwrap();
        assert_eq!(parsed, Request::Submit(req.clone()));
        let job = req.jobs[0].resolve().unwrap();
        assert_eq!(job.label(), "luma8x8.unaligned");
        assert_eq!(job.cfg.name, "4-way");
        assert_eq!(job.seed(), 7);
    }

    #[test]
    fn resolve_rejects_unknown_fields_with_diagnostics() {
        let mut spec = JobSpec {
            kernel: "luma8x8".to_string(),
            variant: "unaligned".to_string(),
            config: "4-way".to_string(),
            execs: 20,
            seed: 7,
            realign: "equal-latency".to_string(),
        };
        spec.kernel = "nope".to_string();
        assert!(spec.resolve().unwrap_err().message.contains("kernel"));
        spec.kernel = "luma8x8".to_string();
        spec.config = "16-way".to_string();
        assert!(spec.resolve().unwrap_err().message.contains("config"));
        spec.config = "4-way".to_string();
        spec.realign = "extra:9999".to_string();
        assert!(spec.resolve().unwrap_err().message.contains("realign"));
        spec.realign = "extra:4".to_string();
        let job = spec.resolve().unwrap();
        assert_eq!(job.cfg.realign, RealignConfig::extra(4));
    }

    #[test]
    fn request_parse_is_total_over_malformed_frames() {
        for text in [
            "",
            "junk",
            "{}",
            "{\"type\": 3}",
            "{\"type\": \"submit\"}",
            "{\"type\": \"submit\", \"jobs\": []}",
            "{\"type\": \"submit\", \"jobs\": [{}]}",
            "{\"type\": \"submit\", \"jobs\": 1}",
            "{\"type\": \"submit\", \"priority\": \"urgent\", \"jobs\": [{}]}",
            "{\"type\": \"warp\"}",
        ] {
            assert!(Request::parse(text).is_err(), "{text:?} must not parse");
        }
        assert_eq!(Request::parse("{\"type\": \"stats\"}"), Ok(Request::Stats));
        assert_eq!(
            Request::parse("{\"type\": \"shutdown\"}"),
            Ok(Request::Shutdown)
        );
    }
}
