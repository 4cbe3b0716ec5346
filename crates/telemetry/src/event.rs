//! Structured telemetry events and their JSONL wire format.
//!
//! An [`Event`] is a flat, ordered list of named fields under a `kind`
//! tag — deliberately not a nested document, so the hand-rolled encoder
//! and parser below can round-trip it exactly without a JSON library
//! (the workspace builds offline; there is no serde). One event encodes
//! to one line:
//!
//! ```text
//! {"kind":"epoch","epoch":3,"rows":450,"payments_per_sec":8123.4}
//! ```
//!
//! A JSONL stream opens with a header event
//! ([`Event::header`]) carrying [`EVENT_SCHEMA_VERSION`]; consumers
//! (the `telemetry_check` validator, the round-trip tests) refuse
//! streams whose version they do not know.
//!
//! Field values are integers, floats, booleans or strings. Floats are
//! encoded with Rust's shortest round-trip `Display` (a `.0` is appended
//! when the result would look like an integer), so `parse(encode(e))`
//! reconstructs the exact same [`Event`].

/// Version stamp of the JSONL event schema; bumped on any wire change.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// One field value: the JSON scalar subset the telemetry layer emits.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (the common case: counters, ids, ticks).
    U64(u64),
    /// Signed integer (gauges may go negative).
    I64(i64),
    /// Float (rates, seconds, ratios). Must be finite: JSON has no NaN.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// String label.
    Str(String),
    /// An absent optional value (e.g. an unbounded budget). JSON
    /// artifacts render it as `null`; the JSONL wire **omits** the field
    /// rather than carry a sentinel, so streams never contain it and a
    /// parsed event never holds one.
    Null,
}

/// One structured telemetry event: a `kind` tag plus ordered named
/// fields. Built with the `with_*` builder methods, consumed by a
/// [`TelemetrySink`](crate::sink::TelemetrySink).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: String,
    fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// A new event of the given kind with no fields yet.
    pub fn new(kind: &str) -> Self {
        Event {
            kind: kind.to_owned(),
            fields: Vec::new(),
        }
    }

    /// The stream-header event every JSONL file opens with.
    pub fn header() -> Self {
        Event::new("telemetry").with_u64("schema_version", EVENT_SCHEMA_VERSION as u64)
    }

    /// Appends an unsigned-integer field.
    pub fn with_u64(mut self, name: &str, v: u64) -> Self {
        self.fields.push((name.to_owned(), FieldValue::U64(v)));
        self
    }

    /// Appends a signed-integer field.
    pub fn with_i64(mut self, name: &str, v: i64) -> Self {
        self.fields.push((name.to_owned(), FieldValue::I64(v)));
        self
    }

    /// Appends a float field. Non-finite values are clamped to 0 (JSON
    /// cannot carry NaN/∞, and telemetry must never poison a stream).
    pub fn with_f64(mut self, name: &str, v: f64) -> Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.fields.push((name.to_owned(), FieldValue::F64(v)));
        self
    }

    /// Appends a boolean field.
    pub fn with_bool(mut self, name: &str, v: bool) -> Self {
        self.fields.push((name.to_owned(), FieldValue::Bool(v)));
        self
    }

    /// Appends a string field.
    pub fn with_str(mut self, name: &str, v: &str) -> Self {
        self.fields
            .push((name.to_owned(), FieldValue::Str(v.to_owned())));
        self
    }

    /// Appends an optional unsigned-integer field: `None` is recorded as
    /// [`FieldValue::Null`] (omitted on the wire, `null` in artifacts).
    pub fn with_opt_u64(mut self, name: &str, v: Option<u64>) -> Self {
        let v = v.map_or(FieldValue::Null, FieldValue::U64);
        self.fields.push((name.to_owned(), v));
        self
    }

    /// The event kind tag.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The ordered fields.
    pub fn fields(&self) -> &[(String, FieldValue)] {
        &self.fields
    }

    /// Looks a field up by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Unsigned-integer field accessor (`None` if absent or another type).
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Float field accessor; integer fields coerce losslessly-enough for
    /// validators that only compare magnitudes.
    pub fn f64_field(&self, name: &str) -> Option<f64> {
        match self.field(name)? {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String field accessor.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean field accessor.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        match self.field(name)? {
            FieldValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Encodes the event as one JSON object on one line (no trailing
    /// newline). The `kind` tag is always the first key;
    /// [`FieldValue::Null`] fields are omitted.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"kind\":");
        push_json_string(&mut out, &self.kind);
        for (k, v) in &self.fields {
            if matches!(v, FieldValue::Null) {
                continue;
            }
            out.push(',');
            push_json_string(&mut out, k);
            out.push(':');
            push_json_scalar(&mut out, v);
        }
        out.push('}');
        out
    }

    /// Parses one line produced by [`to_json`](Event::to_json).
    /// `parse(e.to_json()) == e` for every event without
    /// [`FieldValue::Null`] fields (those are not on the wire).
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut p = Parser {
            bytes: line.trim().as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut kind: Option<String> = None;
        let mut fields = Vec::new();
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            if key == "kind" {
                match value {
                    FieldValue::Str(s) if kind.is_none() => kind = Some(s),
                    FieldValue::Str(_) => return Err("duplicate kind key".to_owned()),
                    _ => return Err("kind must be a string".to_owned()),
                }
            } else {
                fields.push((key, value));
            }
            p.skip_ws();
            match p.next()? {
                b',' => continue,
                b'}' => break,
                c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err("trailing bytes after event object".to_owned());
        }
        let kind = kind.ok_or("event has no kind field")?;
        Ok(Event { kind, fields })
    }
}

/// Appends one scalar in the encoding the JSONL wire and the JSON
/// artifacts ([`crate::json`]) share.
pub(crate) fn push_json_scalar(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(x) => {
            let s = format!("{x}");
            out.push_str(&s);
            // Keep floats self-describing: `3` would parse back as an
            // integer, `3.0` will not.
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => push_json_string(out, s),
        FieldValue::Null => out.push_str("null"),
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a whole JSONL stream (one event per non-empty line), verifying
/// the leading header's schema version. Returns the events **after** the
/// header.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    parse_jsonl_with_header(text).map(|(_, events)| events)
}

/// [`parse_jsonl`], but also returns the verified header event itself —
/// for validators driven by header metadata (e.g. a `requires` field
/// declaring which event series the stream promises to carry).
pub fn parse_jsonl_with_header(text: &str) -> Result<(Event, Vec<Event>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty telemetry stream")?;
    let header = Event::parse(header_line).map_err(|e| format!("header: {e}"))?;
    if header.kind() != "telemetry" {
        return Err(format!(
            "stream must open with a telemetry header, got kind {:?}",
            header.kind()
        ));
    }
    match header.u64_field("schema_version") {
        Some(v) if v == EVENT_SCHEMA_VERSION as u64 => {}
        Some(v) => {
            return Err(format!(
            "unsupported telemetry schema version {v} (this build reads v{EVENT_SCHEMA_VERSION})"
        ))
        }
        None => return Err("header has no schema_version".to_owned()),
    }
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        events.push(Event::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?);
    }
    Ok((header, events))
}

/// Byte-level cursor over one JSON line.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn next(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or("unexpected end of event line")?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next()?;
        if got != want {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                want as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = (self.next()? as char)
                                .to_digit(16)
                                .ok_or("bad \\u escape digit")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar")?);
                    }
                    c => return Err(format!("unknown escape \\{}", c as char)),
                },
                c if c < 0x20 => return Err("raw control byte in string".to_owned()),
                c => {
                    // Reassemble the UTF-8 sequence this byte starts.
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.next()?;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                }
            }
        }
    }

    fn value(&mut self) -> Result<FieldValue, String> {
        match *self.bytes.get(self.pos).ok_or("missing value")? {
            b'"' => Ok(FieldValue::Str(self.string()?)),
            b't' => self.literal("true", FieldValue::Bool(true)),
            b'f' => self.literal("false", FieldValue::Bool(false)),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: FieldValue) -> Result<FieldValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected literal {word:?}"))
        }
    }

    fn number(&mut self) -> Result<FieldValue, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if tok.is_empty() {
            return Err("expected a value".to_owned());
        }
        if tok.contains(['.', 'e', 'E']) {
            tok.parse::<f64>()
                .map(FieldValue::F64)
                .map_err(|e| format!("bad float {tok:?}: {e}"))
        } else if tok.starts_with('-') {
            tok.parse::<i64>()
                .map(FieldValue::I64)
                .map_err(|e| format!("bad integer {tok:?}: {e}"))
        } else {
            tok.parse::<u64>()
                .map(FieldValue::U64)
                .map_err(|e| format!("bad integer {tok:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_stable_json() {
        let e = Event::new("epoch")
            .with_u64("epoch", 3)
            .with_f64("rate", 8123.5)
            .with_f64("whole", 4.0)
            .with_bool("done", false)
            .with_str("label", "hub \"a\"\n");
        assert_eq!(
            e.to_json(),
            "{\"kind\":\"epoch\",\"epoch\":3,\"rate\":8123.5,\"whole\":4.0,\
             \"done\":false,\"label\":\"hub \\\"a\\\"\\n\"}"
        );
    }

    #[test]
    fn parse_inverts_encode() {
        let e = Event::new("venue")
            .with_u64("venue", 7)
            .with_i64("drift", -12)
            .with_f64("util", 0.285)
            .with_f64("tiny", 1e-9)
            .with_bool("drained", true)
            .with_str("note", "π ≤ 1/64 \\ \"quoted\"");
        let back = Event::parse(&e.to_json()).expect("round-trips");
        assert_eq!(back, e);
        assert_eq!(back.u64_field("venue"), Some(7));
        assert_eq!(back.f64_field("util"), Some(0.285));
        assert_eq!(back.bool_field("drained"), Some(true));
        assert_eq!(back.str_field("note"), Some("π ≤ 1/64 \\ \"quoted\""));
    }

    #[test]
    fn malformed_lines_are_refused() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"epoch\":3}",                   // no kind
            "{\"kind\":7}",                    // kind not a string
            "{\"kind\":\"a\",\"x\":nan}",      // not a JSON value
            "{\"kind\":\"a\"} trailing",       // trailing garbage
            "{\"kind\":\"a\",\"kind\":\"b\"}", // duplicate kind
            "{\"kind\":\"a\",\"x\":1,}",       // trailing comma
            "{\"kind\":\"a\",\"x\":\"unterm}", // unterminated string
        ] {
            assert!(Event::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn jsonl_stream_requires_versioned_header() {
        let good = format!(
            "{}\n{}\n",
            Event::header().to_json(),
            Event::new("epoch").with_u64("epoch", 0).to_json()
        );
        let events = parse_jsonl(&good).expect("valid stream");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), "epoch");

        assert!(parse_jsonl("").is_err(), "empty stream");
        let headerless = format!("{}\n", Event::new("epoch").to_json());
        assert!(parse_jsonl(&headerless).is_err(), "no header");
        let future = "{\"kind\":\"telemetry\",\"schema_version\":999}\n";
        assert!(parse_jsonl(future).is_err(), "unknown version");
    }

    #[test]
    fn non_finite_floats_are_clamped() {
        let e = Event::new("x")
            .with_f64("bad", f64::NAN)
            .with_f64("inf", f64::INFINITY);
        let back = Event::parse(&e.to_json()).unwrap();
        assert_eq!(back.f64_field("bad"), Some(0.0));
        assert_eq!(back.f64_field("inf"), Some(0.0));
    }
}
