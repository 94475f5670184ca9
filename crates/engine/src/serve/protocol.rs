//! Wire protocol of `chasekit serve`: newline-delimited flat JSON.
//!
//! The build is offline (no HTTP or serde crates), so the protocol is the
//! smallest thing a shell script can speak: one JSON object per line, one
//! response line per request (plus trace-event lines when streaming). The
//! grammar is deliberately **flat and closed** — every value is a string
//! or a non-negative integer, and every field name is checked against the
//! request's schema, in the same spirit as
//! [`validate_trace_line`](crate::trace::validate_trace_line).
//!
//! ```text
//! {"op":"submit","program":"p(a). p(X) -> p(Y).","variant":"so","steps":500}
//! {"op":"update","job":"job-3","script":"retract p(a).\nadd p(b)."}
//! {"op":"status","job":"job-3"}
//! {"op":"wait","job":"job-3"}
//! {"op":"cancel","job":"job-3"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! This module is the server's **trust boundary**: request lines arrive
//! from arbitrary clients and may be truncated, oversized, non-UTF-8, or
//! structurally hostile. Every such defect maps to a structured error
//! response — the connection handler never panics and the stream stays
//! line-synchronized (an oversized line is discarded up to its newline, so
//! the next request parses cleanly).

use std::io::{self, BufRead};

use chasekit_core::display::json_string;

use crate::ChaseVariant;

/// Default cap on a request line, including the program text (1 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Capped line reading.
// ---------------------------------------------------------------------------

/// One read attempt from a client connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadLine {
    /// A complete UTF-8 line (without its terminator).
    Line(String),
    /// The line exceeded the byte cap; the tail up to its newline was
    /// discarded, so the stream is still synchronized.
    Oversized,
    /// The line was complete but not valid UTF-8.
    NonUtf8,
    /// The connection ended mid-line: `n` bytes arrived with no newline.
    TruncatedEof(usize),
    /// Clean end of stream at a line boundary.
    Eof,
}

/// Reads one `\n`-terminated line, holding at most `max` bytes in memory.
/// An over-long line is consumed (not buffered) through its newline and
/// reported as [`ReadLine::Oversized`] — a hostile client cannot balloon
/// the server's memory, and the reader stays aligned to line boundaries.
pub fn read_line_capped(reader: &mut impl BufRead, max: usize) -> io::Result<ReadLine> {
    let mut bytes: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF.
            if oversized {
                return Ok(ReadLine::Oversized);
            }
            if bytes.is_empty() {
                return Ok(ReadLine::Eof);
            }
            return Ok(ReadLine::TruncatedEof(bytes.len()));
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if !oversized {
                    bytes.extend_from_slice(&buf[..i]);
                }
                reader.consume(i + 1);
                if oversized || bytes.len() > max {
                    return Ok(ReadLine::Oversized);
                }
                // Tolerate CRLF clients.
                if bytes.last() == Some(&b'\r') {
                    bytes.pop();
                }
                return match String::from_utf8(bytes) {
                    Ok(s) => Ok(ReadLine::Line(s)),
                    Err(_) => Ok(ReadLine::NonUtf8),
                };
            }
            None => {
                let n = buf.len();
                if !oversized {
                    bytes.extend_from_slice(buf);
                    if bytes.len() > max {
                        bytes = Vec::new();
                        oversized = true;
                    }
                }
                reader.consume(n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flat JSON object parsing.
// ---------------------------------------------------------------------------

/// A protocol value: the grammar is flat, so only these two shapes exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string (escapes decoded).
    Str(String),
    /// A non-negative integer.
    Num(u64),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
        }
    }
}

/// Parses one flat JSON object — `{"key": "string" | integer, ...}` — into
/// its fields in source order. Escapes (`\"`, `\\`, `\/`, `\b`, `\f`,
/// `\n`, `\r`, `\t`, `\uXXXX` with surrogate pairs) are decoded, so
/// program text with newlines round-trips. Anything outside the grammar —
/// nesting, floats, negatives, booleans, trailing bytes, duplicate keys —
/// is a structured error naming the defect.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields: Vec<(String, Value)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string().map_err(|e| format!("object key: {e}"))?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value().map_err(|e| format!("value of `{key}`: {e}"))?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                Some(c) => return Err(format!("expected `,` or `}}`, found `{}`", c as char)),
                None => return Err("unterminated object".to_string()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after object at offset {}", p.pos));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(format!("expected `{}`, found `{}`", want as char, b as char)),
            None => Err(format!("expected `{}`, found end of line", want as char)),
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'0'..=b'9') => Ok(Value::Num(self.parse_number()?)),
            Some(b'{' | b'[') => Err("nested values are outside the flat grammar".to_string()),
            Some(b't' | b'f' | b'n') => {
                Err("booleans/null are outside the flat grammar (use 0/1)".to_string())
            }
            Some(b'-') => Err("negative numbers are outside the grammar".to_string()),
            Some(c) => Err(format!("unexpected `{}`", c as char)),
            None => Err("end of line".to_string()),
        }
    }

    fn parse_number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err("non-integer numbers are outside the grammar".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<u64>().map_err(|_| format!("integer `{text}` does not fit in 64 bits"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    None => return Err("unterminated escape".to_string()),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err("unpaired surrogate escape".to_string());
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let code =
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err("escape is not a scalar value".to_string()),
                        }
                    }
                    Some(c) => return Err(format!("unknown escape `\\{}`", c as char)),
                },
                Some(b) if b < 0x20 => {
                    return Err("raw control character inside string".to_string())
                }
                Some(b) => {
                    // Re-assemble the UTF-8 sequence this byte starts. The
                    // line was already validated as UTF-8, so this cannot
                    // fail; the arithmetic stays defensive anyway.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err("malformed UTF-8 inside string".to_string()),
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let start = self.pos;
        for _ in 0..4 {
            if self.next().is_none() {
                return Err("truncated \\u escape".to_string());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-ASCII in \\u escape".to_string())?;
        u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))
    }
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// Budget and variant overrides a `submit` request may carry; `None`
/// falls back to the server-wide default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOverrides {
    /// Chase variant (`o`/`so`/`restricted` tokens as in the CLI).
    pub variant: Option<ChaseVariant>,
    /// Application budget (`--steps`).
    pub steps: Option<u64>,
    /// Wall-clock deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Atom-count ceiling.
    pub max_atoms: Option<u64>,
    /// Approximate memory ceiling in bytes.
    pub max_memory: Option<u64>,
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a program for an isolated chase job.
    Submit {
        /// The program text (rules + facts, CLI rules-file format).
        program: String,
        /// Budget/variant overrides over the server defaults.
        overrides: SubmitOverrides,
        /// Stream trace events to this connection while the job runs.
        stream: bool,
        /// Bypass the result cache (benchmarks and tests).
        fresh: bool,
    },
    /// Derive a new job from an existing one by applying an edit script
    /// (`add <atom>.` / `retract <atom>.` lines) to its base facts. The
    /// edited program is admitted as a fresh job — the server re-chases it
    /// from scratch (derivation DAGs are not durable), so the result is
    /// the canonical Mode-2 rebuild of the incremental-update model.
    Update {
        /// The job whose program the edits apply to.
        job: String,
        /// The edit script, in the CLI `--edits` file format.
        script: String,
        /// Budget/variant overrides for the derived job.
        overrides: SubmitOverrides,
        /// Stream trace events for the derived job to this connection.
        stream: bool,
    },
    /// Report a job's current state.
    Status {
        /// The job id the server assigned at submit.
        job: String,
    },
    /// Block until a job reaches a terminal state, then report it.
    Wait {
        /// The job id the server assigned at submit.
        job: String,
    },
    /// Cooperatively cancel a queued or running job.
    Cancel {
        /// The job id the server assigned at submit.
        job: String,
    },
    /// Server-wide counters.
    Stats,
    /// Graceful shutdown: stop accepting, interrupt running jobs (they
    /// recover on the next start), exit.
    Shutdown,
}

fn take_str(fields: &[(String, Value)], key: &str) -> Result<Option<String>, String> {
    match fields.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Str(s))) => Ok(Some(s.clone())),
        Some((_, v)) => Err(format!("field `{key}` must be a string, got a {}", v.kind())),
    }
}

fn take_num(fields: &[(String, Value)], key: &str) -> Result<Option<u64>, String> {
    match fields.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Num(n))) => Ok(Some(*n)),
        Some((_, v)) => Err(format!("field `{key}` must be a number, got a {}", v.kind())),
    }
}

fn take_flag(fields: &[(String, Value)], key: &str) -> Result<bool, String> {
    match take_num(fields, key)? {
        None | Some(0) => Ok(false),
        Some(1) => Ok(true),
        Some(n) => Err(format!("field `{key}` must be 0 or 1, got {n}")),
    }
}

fn check_schema(fields: &[(String, Value)], op: &str, allowed: &[&str]) -> Result<(), String> {
    for (key, _) in fields {
        if key != "op" && !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown field `{key}` for op `{op}` (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn required_job(fields: &[(String, Value)], op: &str) -> Result<String, String> {
    check_schema(fields, op, &["job"])?;
    take_str(fields, "job")?.ok_or_else(|| format!("op `{op}` requires a `job` field"))
}

/// Parses a request line against the closed schema. Every defect — bad
/// JSON, unknown op, missing or mistyped or extra fields — is an error
/// message naming the offender, which the server wraps in a structured
/// error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_object(line)?;
    let op = take_str(&fields, "op")?.ok_or("request has no `op` field")?;
    match op.as_str() {
        "submit" => {
            check_schema(
                &fields,
                "submit",
                &["program", "variant", "steps", "timeout_ms", "max_atoms", "max_memory",
                  "stream", "fresh"],
            )?;
            let program = take_str(&fields, "program")?
                .ok_or("op `submit` requires a `program` field")?;
            let variant = match take_str(&fields, "variant")? {
                None => None,
                Some(raw) => Some(parse_variant_token(&raw)?),
            };
            Ok(Request::Submit {
                program,
                overrides: SubmitOverrides {
                    variant,
                    steps: take_num(&fields, "steps")?,
                    timeout_ms: take_num(&fields, "timeout_ms")?,
                    max_atoms: take_num(&fields, "max_atoms")?,
                    max_memory: take_num(&fields, "max_memory")?,
                },
                stream: take_flag(&fields, "stream")?,
                fresh: take_flag(&fields, "fresh")?,
            })
        }
        "update" => {
            check_schema(
                &fields,
                "update",
                &["job", "script", "variant", "steps", "timeout_ms", "max_atoms", "max_memory",
                  "stream"],
            )?;
            let job = take_str(&fields, "job")?.ok_or("op `update` requires a `job` field")?;
            let script =
                take_str(&fields, "script")?.ok_or("op `update` requires a `script` field")?;
            let variant = match take_str(&fields, "variant")? {
                None => None,
                Some(raw) => Some(parse_variant_token(&raw)?),
            };
            Ok(Request::Update {
                job,
                script,
                overrides: SubmitOverrides {
                    variant,
                    steps: take_num(&fields, "steps")?,
                    timeout_ms: take_num(&fields, "timeout_ms")?,
                    max_atoms: take_num(&fields, "max_atoms")?,
                    max_memory: take_num(&fields, "max_memory")?,
                },
                stream: take_flag(&fields, "stream")?,
            })
        }
        "status" => Ok(Request::Status { job: required_job(&fields, "status")? }),
        "wait" => Ok(Request::Wait { job: required_job(&fields, "wait")? }),
        "cancel" => Ok(Request::Cancel { job: required_job(&fields, "cancel")? }),
        "stats" => {
            check_schema(&fields, "stats", &[])?;
            Ok(Request::Stats)
        }
        "shutdown" => {
            check_schema(&fields, "shutdown", &[])?;
            Ok(Request::Shutdown)
        }
        other => Err(format!(
            "unknown op `{other}` (expected submit, update, status, wait, cancel, stats, shutdown)"
        )),
    }
}

/// Parses the wire variant spelling ([`ChaseVariant::from_alias`]).
fn parse_variant_token(raw: &str) -> Result<ChaseVariant, String> {
    ChaseVariant::from_alias(raw)
        .ok_or_else(|| format!("`variant` expects o|so|restricted, got `{raw}`"))
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// Builds a response line from `(key, value)` pairs; string values are
/// escaped via the same routine the trace stream uses. `ok` leads so a
/// human tailing the socket sees success/failure first.
pub fn response(ok: bool, fields: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(if ok { "{\"ok\":1" } else { "{\"ok\":0" });
    for (key, value) in fields {
        out.push(',');
        out.push_str(&json_string(key));
        out.push(':');
        match value {
            Value::Str(s) => out.push_str(&json_string(s)),
            Value::Num(n) => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{n}"));
            }
        }
    }
    out.push('}');
    out
}

/// A structured error response: `{"ok":0,"error":code,"detail":msg}`.
pub fn error_response(code: &str, detail: &str) -> String {
    response(
        false,
        &[("error", Value::Str(code.to_string())), ("detail", Value::Str(detail.to_string()))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn read_line_capped_handles_every_shape() {
        let data = b"short\nsecond\n".to_vec();
        let mut r = BufReader::new(&data[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), ReadLine::Line("short".into()));
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), ReadLine::Line("second".into()));
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), ReadLine::Eof);

        // Oversized: discarded through its newline, next line still parses.
        let mut big = vec![b'x'; 100];
        big.push(b'\n');
        big.extend_from_slice(b"after\n");
        let mut r = BufReader::with_capacity(8, &big[..]);
        assert_eq!(read_line_capped(&mut r, 16).unwrap(), ReadLine::Oversized);
        assert_eq!(read_line_capped(&mut r, 16).unwrap(), ReadLine::Line("after".into()));

        // Non-UTF-8 complete line.
        let data = b"\xff\xfe\n".to_vec();
        let mut r = BufReader::new(&data[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), ReadLine::NonUtf8);

        // Truncated EOF.
        let data = b"no newline".to_vec();
        let mut r = BufReader::new(&data[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), ReadLine::TruncatedEof(10));

        // CRLF tolerance.
        let data = b"line\r\n".to_vec();
        let mut r = BufReader::new(&data[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), ReadLine::Line("line".into()));
    }

    #[test]
    fn parse_object_decodes_escapes() {
        let fields =
            parse_object(r#"{"a":"x\ny\t\"z\"","b":42,"c":"A😀"}"#).unwrap();
        assert_eq!(fields[0], ("a".into(), Value::Str("x\ny\t\"z\"".into())));
        assert_eq!(fields[1], ("b".into(), Value::Num(42)));
        assert_eq!(fields[2], ("c".into(), Value::Str("A\u{1f600}".into())));
    }

    #[test]
    fn parse_object_rejects_out_of_grammar_shapes() {
        for (line, needle) in [
            ("", "expected `{`"),
            ("{", "key"),
            ("{}x", "trailing"),
            (r#"{"a":{}}"#, "nested"),
            (r#"{"a":[1]}"#, "nested"),
            (r#"{"a":true}"#, "flat grammar"),
            (r#"{"a":-1}"#, "negative"),
            (r#"{"a":1.5}"#, "non-integer"),
            (r#"{"a":1,"a":2}"#, "duplicate"),
            (r#"{"a":"\q"}"#, "unknown escape"),
            (r#"{"a":"\ud800x"}"#, "surrogate"),
            (r#"{"a":99999999999999999999}"#, "64 bits"),
            (r#"{"a":"unterminated"#, "unterminated"),
        ] {
            let err = parse_object(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn request_round_trips_and_schema_is_closed() {
        let req = parse_request(
            r#"{"op":"submit","program":"p(a).\np(X) -> p(Y).","variant":"o","steps":7,"stream":1}"#,
        )
        .unwrap();
        match req {
            Request::Submit { program, overrides, stream, fresh } => {
                assert_eq!(program, "p(a).\np(X) -> p(Y).");
                assert_eq!(overrides.variant, Some(ChaseVariant::Oblivious));
                assert_eq!(overrides.steps, Some(7));
                assert!(stream);
                assert!(!fresh);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"cancel","job":"job-3"}"#).unwrap(),
            Request::Cancel { job: "job-3".into() }
        );
        match parse_request(
            r#"{"op":"update","job":"job-1","script":"retract p(a).\nadd q(b).","steps":9}"#,
        )
        .unwrap()
        {
            Request::Update { job, script, overrides, stream } => {
                assert_eq!(job, "job-1");
                assert_eq!(script, "retract p(a).\nadd q(b).");
                assert_eq!(overrides.steps, Some(9));
                assert!(!stream);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        for (line, needle) in [
            (r#"{"op":"submit"}"#, "program"),
            (r#"{"op":"submit","program":"p(a).","bogus":1}"#, "bogus"),
            (r#"{"op":"submit","program":7}"#, "must be a string"),
            (r#"{"op":"submit","program":"p(a).","stream":2}"#, "0 or 1"),
            (r#"{"op":"submit","program":"p(a).","variant":"zz"}"#, "zz"),
            (r#"{"op":"status"}"#, "job"),
            (r#"{"op":"update","job":"job-1"}"#, "script"),
            (r#"{"op":"update","script":"add p(a)."}"#, "job"),
            (r#"{"op":"update","job":"job-1","script":"add p(a).","fresh":1}"#, "unknown field"),
            (r#"{"op":"stats","job":"j"}"#, "unknown field"),
            (r#"{"op":"levitate"}"#, "unknown op"),
            (r#"{"no_op":1}"#, "no `op`"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn responses_are_flat_objects_the_parser_accepts() {
        let line = response(
            true,
            &[("job", Value::Str("job-1".into())), ("queued", Value::Num(2))],
        );
        assert_eq!(line, r#"{"ok":1,"job":"job-1","queued":2}"#);
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields[0], ("ok".into(), Value::Num(1)));
        let err = error_response("overloaded", "queue full: 16 of 16");
        let fields = parse_object(&err).unwrap();
        assert_eq!(fields[1], ("error".into(), Value::Str("overloaded".into())));
    }
}
