//! A minimal JSON value, writer and parser.
//!
//! The workspace has no JSON dependency (no registry access — see
//! `vendor/README.md`), so the wire protocol carries its own tiny JSON
//! implementation: exactly the subset the protocol emits — objects with
//! ordered keys, arrays, strings, booleans, `null`, unsigned/signed
//! integers and floats. The writer and parser round-trip each other
//! (property-checked in the tests below); numbers that fit `u64`/`i64`
//! stay exact, so job ids and RNG seeds never lose precision.
//!
//! Both directions are linear in the text and move string bytes by
//! runs, not by chars: the writer streams unescaped runs straight into
//! its sink (a `String` under `to_string`, a connection's frame buffer
//! under the frame encoder), and the parser slices runs
//! out of its already-validated `&str` input, borrowing whole strings
//! that carry no escape. The parser accepts RFC 8259 and nothing more —
//! frames come from untrusted sockets. The string escaper is
//! [`gm_trace::write_json_string`], shared with the trace exporter.

use gm_trace::write_json_string;
use std::borrow::Cow;
use std::fmt;

/// A JSON value. Strings and object keys are [`Cow`]s: a tree built by
/// an encoder borrows the message's own strings (serializing is their
/// only copy), and a parsed tree borrows every escape-free string from
/// the input text (only strings with escapes are copied).
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (ids, counters, seeds — kept exact).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object; key order is preserved (deterministic wire bytes).
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&'a str, Json<'a>)>) -> Json<'a> {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// A string value borrowing `s`.
    pub fn str(s: &'a str) -> Json<'a> {
        Json::Str(Cow::Borrowed(s))
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Float(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the canonical compact form straight into `out` — the one
    /// serializer behind `Display`/`to_string` and the frame encoder.
    ///
    /// # Errors
    ///
    /// Propagates `out`'s write failures.
    pub fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::UInt(n) => write!(out, "{n}"),
            Json::Int(n) => write!(out, "{n}"),
            // `Display` never prints an exponent and omits the point
            // for integral floats; keep the token a float so parsing
            // round-trips.
            Json::Float(n) if n.is_finite() && n.fract() == 0.0 => write!(out, "{n}.0"),
            Json::Float(n) if n.is_finite() => write!(out, "{n}"),
            // JSON has no NaN/Inf; the protocol never sends them.
            Json::Float(_) => out.write_str("null"),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write_to(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_json_string(k, out)?;
                    out.write_char(':')?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Serializes to the canonical compact form (`to_string` comes with).
impl fmt::Display for Json<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// A JSON parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting the parser accepts. Frames come from
/// untrusted sockets: recursion must be bounded well below the thread
/// stack (the protocol itself nests a handful of levels).
const MAX_DEPTH: usize = 128;

/// Parses one JSON value (trailing whitespace allowed, nothing else).
/// Linear in `input.len()`; strings without escapes borrow from
/// `input`.
///
/// # Errors
///
/// Fails, with the byte offset, on anything RFC 8259 does not allow.
pub fn parse(input: &str) -> Result<Json<'_>, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
        self.enter()?;
        let result = self.array_inner();
        self.depth -= 1;
        result
    }

    fn array_inner(&mut self) -> Result<Json<'a>, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, JsonError> {
        self.enter()?;
        let result = self.object_inner();
        self.depth -= 1;
        result
    }

    fn object_inner(&mut self) -> Result<Json<'a>, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parses a string by runs: everything up to the next `"`, `\` or
    /// control byte is taken in one slice of the (already valid UTF-8)
    /// input — all three are ASCII, so the slice ends on a char
    /// boundary. A string without escapes is returned borrowed.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        let mut run = self.pos;
        loop {
            let stop = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(stop) = stop else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += stop;
            let piece = &self.input[run..self.pos];
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(piece),
                        Some(mut out) => {
                            out.push_str(piece);
                            Cow::Owned(out)
                        }
                    });
                }
                b'\\' => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(piece);
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                    run = self.pos;
                }
                _ => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// Decodes the escape whose introducing `\` was just consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads exactly four hex digits (no sign, no whitespace).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Skips a run of digits; errors unless there is at least one.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits()?;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.input[start..self.pos];
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_every_value_shape() {
        let v = Json::obj(vec![
            ("id", Json::UInt(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("ratio", Json::Float(0.625)),
            ("whole", Json::Float(3.0)),
            ("name", Json::str("a \"b\"\\\n\tc — π")),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::UInt(1), Json::str(""), Json::Obj(vec![])]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_keep_their_wire_form() {
        for (n, text) in [
            (0.625, "0.625"),
            (3.0, "3.0"),
            (-0.0, "-0.0"),
            (1e21, "1000000000000000000000.0"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(Json::Float(n).to_string(), text);
        }
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""a\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::str("aAé😀")
        );
    }

    #[test]
    fn escape_free_strings_borrow_from_the_input() {
        let text = r#"{"plain":"no escapes — π","escaped":"a\nb"}"#;
        let v = parse(text).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("not an object: {v:?}")
        };
        assert!(matches!(&pairs[0].0, Cow::Borrowed("plain")));
        assert!(matches!(&pairs[0].1, Json::Str(Cow::Borrowed(_))));
        assert!(matches!(&pairs[1].1, Json::Str(Cow::Owned(s)) if s == "a\nb"));
    }

    #[test]
    fn u64_precision_survives() {
        let seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let text = Json::UInt(seed).to_string();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // Well under MAX_FRAME_BYTES but far beyond any sane document:
        // must error, not blow the connection thread's stack.
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // A document at a reasonable depth still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        for (bad, at) in [
            ("", 0),
            ("{", 1),
            ("[1,]", 3),
            ("{\"a\":}", 5),
            ("tru", 0),
            ("\"\\x\"", 2),
            ("1 2", 2),
            ("\"abc", 4),
            // Lone / mismatched surrogates must error, not underflow.
            (r#""\ud83d""#, 7),
            (r#""\ud83dx""#, 7),
            (r#""\ud83d\u0041""#, 13),
            (r#""\udc00""#, 7),
            // `\u` takes exactly four hex digits: no sign, no blank.
            (r#""\u+041""#, 3),
            (r#""\u-041""#, 3),
            (r#""\u 041""#, 3),
            (r#""\u00g1""#, 5),
            (r#""\u00"#, 5),
            // Control bytes must travel escaped.
            ("\"a\nb\"", 2),
            ("\"\u{0}\"", 1),
            ("\"tab\there\"", 4),
            ("\"\u{1f}\"", 1),
            // RFC 8259 numbers: no leading zeros, digits on both sides
            // of the point and after the exponent.
            ("01", 1),
            ("-01", 2),
            ("00", 1),
            ("1.", 2),
            ("1.e5", 2),
            ("-", 1),
            ("-.5", 1),
            ("1e", 2),
            ("1e+", 3),
            ("[1.]", 3),
        ] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err.at, at, "{bad:?}: {err}");
        }
        // Their well-formed neighbours still parse.
        for (good, value) in [
            ("0", Json::UInt(0)),
            ("-0", Json::Int(0)),
            ("10", Json::UInt(10)),
            ("0.5", Json::Float(0.5)),
            ("-1.25e2", Json::Float(-125.0)),
            ("1E-2", Json::Float(0.01)),
            (r#""\u007f\/""#, Json::str("\u{7f}/")),
        ] {
            assert_eq!(parse(good).unwrap(), value, "{good:?}");
        }
    }

    /// Writer then parser over a 4 MiB string with escapes throughout.
    /// Both are linear; the budget is what a per-character rescan of
    /// the remaining input (seconds already at 100 KB) misses by orders
    /// of magnitude, yet generous for an unoptimized build on a busy
    /// box.
    #[test]
    fn a_4_mib_string_round_trips_in_linear_time() {
        let unit = "state: \"s0\" \\ π — ok\n";
        let value: String = unit.repeat((4 << 20) / unit.len() + 1);
        assert!(value.len() >= 4 << 20);
        let start = std::time::Instant::now();
        let text = Json::str(&value).to_string();
        let back = parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back.as_str(), Some(value.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "4 MiB round trip took {elapsed:?}"
        );
    }

    /// Pieces that sit on either side of a run boundary: every escape
    /// the writer emits, every control byte, ASCII that needs none, and
    /// 2-, 3- and 4-byte UTF-8 (the last becomes a surrogate pair in
    /// `\u` form).
    const PIECES: [&str; 20] = [
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "/",
        "a",
        "run of text",
        " ",
        "\u{7f}",
        "é",
        "π",
        "—",
        "😀",
        "\u{10ffff}",
    ];

    /// `s` with every char as `\uXXXX` (UTF-16 units, so astral chars
    /// are surrogate pairs).
    fn fully_escaped(s: &str) -> String {
        let mut text = String::from("\"");
        for unit in s.encode_utf16() {
            text.push_str(&format!("\\u{unit:04x}"));
        }
        text.push('"');
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Writer → parser is the identity on strings whose escapes sit
        /// first, last, adjacent to each other and next to multi-byte
        /// chars; so is the parser on the all-`\u` spelling.
        #[test]
        fn strings_round_trip_across_run_boundaries(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..12)
        ) {
            let value: String = picks.iter().map(|&i| PIECES[i]).collect();
            let text = Json::str(&value).to_string();
            prop_assert_eq!(parse(&text).unwrap(), Json::str(&value));
            let spelled = fully_escaped(&value);
            prop_assert_eq!(parse(&spelled).unwrap(), Json::str(&value));
            // As a key and as a neighbour of other values.
            let doc = Json::Obj(vec![(Cow::Borrowed(value.as_str()), Json::Arr(vec![
                Json::str(&value), Json::UInt(7), Json::str(&value),
            ]))]);
            let text = doc.to_string();
            prop_assert_eq!(parse(&text).unwrap(), doc);
        }
    }
}
