//! The workspace's one JSON value type, renderer and parser.
//!
//! Every report outside the frozen ledger is built as a [`Value`] and
//! written by [`Value::render`], and everything that reads a report back
//! goes through [`parse`]. The layout follows from the value's shape and
//! floats have one format, so equal values always render to equal
//! bytes. [`escape`] and [`validate`] also serve the hand-formatted
//! writers DESIGN.md §7 lists.

/// One JSON value. Objects keep their members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, exact over the whole `u64` and `i64` ranges.
    Int(i128),
    /// A float, rendered as `{:.6e}` (`0.0` for zero, `null` when not
    /// finite).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object with `members` in the given order.
    pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Renders the value as a document ending in one newline.
    ///
    /// The layout follows from the shape: the top level, and every array
    /// or object that holds an array of objects at any depth, put one
    /// member per line, indented two spaces per level. Everything else is
    /// written on one line with `", "` and `": "` separators, and empty
    /// containers as `[]` and `{}`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, top: bool) {
        let tall = top || self.is_tall();
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => out.push_str(&fmt_f64(*x)),
            Value::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, tall, depth);
                    item.write(out, depth + 1, false);
                }
                if tall {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Object(members) if !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    separate(out, i, tall, depth);
                    out.push_str(&format!("\"{}\": ", escape(key)));
                    value.write(out, depth + 1, false);
                }
                if tall {
                    newline(out, depth);
                }
                out.push('}');
            }
            Value::Array(_) => out.push_str("[]"),
            Value::Object(_) => out.push_str("{}"),
        }
    }

    /// Whether the value holds, at any depth, an array with an object in
    /// it: such a container is laid out one member per line.
    fn is_tall(&self) -> bool {
        match self {
            Value::Array(items) => {
                items.iter().any(|item| matches!(item, Value::Object(_)) || item.is_tall())
            }
            Value::Object(members) => members.iter().any(|(_, v)| v.is_tall()),
            _ => false,
        }
    }
}

/// Writes what goes before member `index` of a container at `depth`.
fn separate(out: &mut String, index: usize, tall: bool, depth: usize) {
    if index > 0 {
        out.push_str(if tall { "," } else { ", " });
    }
    if tall {
        newline(out, depth + 1);
    }
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
}

/// The one float format: scientific with a fixed mantissa width, bit
/// stable for equal inputs; `0.0` for zero and `null` when not finite.
fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        "null".to_string()
    } else if x == 0.0 {
        "0.0".to_string()
    } else {
        format!("{x:.6e}")
    }
}

macro_rules! impl_from {
    ($($t:ty => |$x:ident| $make:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $make
            }
        }
    )*};
}

impl_from! {
    bool => |b| Value::Bool(b),
    u32 => |n| Value::Int(n.into()),
    u64 => |n| Value::Int(n.into()),
    usize => |n| Value::Int(n as i128),
    f64 => |x| Value::Float(x),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Checks that `text` is one well-formed JSON value: [`parse`] with the
/// value dropped.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(drop)
}

/// Parses `text` as one JSON value (object, array, string, number, or
/// literal) with surrounding whitespace. A strict recursive-descent
/// reader; the error names the byte offset of the first problem.
///
/// An integer literal within the `u64` or `i64` range reads as
/// [`Value::Int`], any other number as [`Value::Float`]. A `\u` escape
/// naming a lone surrogate reads as U+FFFD.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = skip_ws(text, 0);
    let (v, end) = value(text, pos)?;
    pos = skip_ws(text, end);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(s: &str, mut pos: usize) -> usize {
    let b = s.as_bytes();
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn value(s: &str, pos: usize) -> Result<(Value, usize), String> {
    match s.as_bytes().get(pos) {
        Some(b'{') => object(s, pos),
        Some(b'[') => array(s, pos),
        Some(b'"') => string(s, pos).map(|(text, end)| (Value::Str(text), end)),
        Some(b't') => literal(s, pos, "true", Value::Bool(true)),
        Some(b'f') => literal(s, pos, "false", Value::Bool(false)),
        Some(b'n') => literal(s, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(s, pos),
        _ => Err(format!("expected value at byte {pos}")),
    }
}

fn literal(s: &str, pos: usize, lit: &str, v: Value) -> Result<(Value, usize), String> {
    if s.as_bytes()[pos..].starts_with(lit.as_bytes()) {
        Ok((v, pos + lit.len()))
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn number(s: &str, start: usize) -> Result<(Value, usize), String> {
    let b = s.as_bytes();
    // The end of the run of digits starting at `p`, if there is one.
    let digits = |p: usize| {
        let end = p + b[p..].iter().take_while(|c| c.is_ascii_digit()).count();
        (end > p).then_some(end)
    };
    let sign = usize::from(b[start] == b'-');
    let mut pos = digits(start + sign).ok_or_else(|| format!("bad number at byte {start}"))?;
    if b.get(pos) == Some(&b'.') {
        pos = digits(pos + 1).ok_or_else(|| format!("bad fraction at byte {pos}"))?;
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1 + usize::from(matches!(b.get(pos + 1), Some(b'+' | b'-')));
        pos = digits(pos).ok_or_else(|| format!("bad exponent at byte {pos}"))?;
    }
    let token = &s[start..pos];
    let v = match token.parse::<i128>() {
        Ok(n) if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&n) => Value::Int(n),
        _ => Value::Float(token.parse().map_err(|_| format!("bad number at byte {start}"))?),
    };
    Ok((v, pos))
}

fn string(s: &str, mut pos: usize) -> Result<(String, usize), String> {
    let b = s.as_bytes();
    debug_assert_eq!(b[pos], b'"');
    pos += 1;
    let mut out = String::new();
    // Start of the run of plain characters not yet copied into `out`.
    let mut run = pos;
    while pos < b.len() {
        match b[pos] {
            b'"' => return Ok((out + &s[run..pos], pos + 1)),
            b'\\' => {
                out.push_str(&s[run..pos]);
                let c = match b.get(pos + 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let unit = hex4(s, pos + 2)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // A high surrogate escaped right before a low one
                        // is one character; any other surrogate is U+FFFD.
                        let low = Some(unit)
                            .filter(|u| {
                                (0xD800..0xDC00).contains(u) && s[pos + 6..].starts_with("\\u")
                            })
                            .and_then(|_| hex4(s, pos + 8))
                            .filter(|l| (0xDC00..0xE000).contains(l));
                        pos += if low.is_some() { 10 } else { 4 };
                        let code =
                            low.map_or(unit, |l| 0x10000 + ((unit - 0xD800) << 10) + l - 0xDC00);
                        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                };
                out.push(c);
                pos += 2;
                run = pos;
            }
            c if c < 0x20 => return Err(format!("raw control char at byte {pos}")),
            _ => pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// The four hex digits at `pos`, if there are four.
fn hex4(s: &str, pos: usize) -> Option<u32> {
    let digits = s.get(pos..pos + 4).filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()))?;
    u32::from_str_radix(digits, 16).ok()
}

fn object(s: &str, mut pos: usize) -> Result<(Value, usize), String> {
    let b = s.as_bytes();
    let mut members = Vec::new();
    pos = skip_ws(s, pos + 1);
    if b.get(pos) == Some(&b'}') {
        return Ok((Value::Object(members), pos + 1));
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let (key, end) = string(s, pos)?;
        pos = skip_ws(s, end);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        let (v, end) = value(s, skip_ws(s, pos + 1))?;
        members.push((key, v));
        pos = skip_ws(s, end);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(s, pos + 1),
            Some(b'}') => return Ok((Value::Object(members), pos + 1)),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(s: &str, mut pos: usize) -> Result<(Value, usize), String> {
    let b = s.as_bytes();
    let mut items = Vec::new();
    pos = skip_ws(s, pos + 1);
    if b.get(pos) == Some(&b']') {
        return Ok((Value::Array(items), pos + 1));
    }
    loop {
        let (v, end) = value(s, pos)?;
        items.push(v);
        pos = skip_ws(s, end);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(s, pos + 1),
            Some(b']') => return Ok((Value::Array(items), pos + 1)),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a": [1, 2.5, "x\n", {"b": true}], "c": null}"#,
            "  [ 1 , 2 ]  ",
        ] {
            parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    /// Each error names the byte offset the validator reported before it
    /// became the parser.
    #[test]
    fn rejects_malformed_documents() {
        for (doc, err) in [
            ("{", "expected object key at byte 1"),
            ("[1,]", "expected value at byte 3"),
            ("{\"a\":}", "expected value at byte 5"),
            ("01a", "trailing garbage at byte 2"),
            ("\"unterminated", "unterminated string"),
            ("{} extra", "trailing garbage at byte 3"),
            ("{'a':1}", "expected object key at byte 1"),
            ("[1.e5]", "bad fraction at byte 2"),
            ("-1e+", "bad exponent at byte 4"),
            ("\"\\ud800\\u12g4\"", "bad \\u escape at byte 7"),
        ] {
            assert_eq!(parse(doc).err().as_deref(), Some(err), "{doc}");
        }
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        validate(&doc).expect("escaped string must validate");
        assert_eq!(parse(&doc).expect("parses").get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn numbers_and_unicode_escapes_read_exactly() {
        for (doc, v) in [
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("2.5e1", Value::Float(25.0)),
            (r#""\u00e9\ud83d\ude00\/""#, Value::Str("é😀/".to_string())),
            (r#""\ud800x\udc00""#, Value::Str("\u{fffd}x\u{fffd}".to_string())),
        ] {
            assert_eq!(parse(doc), Ok(v), "{doc}");
        }
    }

    #[test]
    fn layout_follows_the_shape() {
        let row = Value::object([("xs", [1u64, 2].into_iter().collect())]);
        let cell = Value::object([("n", 1u64.into()), ("rows", Value::Array(vec![row]))]);
        let doc = Value::object([
            ("flat", Value::object([("a", true.into()), ("b", Value::Null)])),
            ("cells", Value::Array(vec![cell])),
            ("empty", Value::Array(Vec::new())),
            ("x", 0.0.into()),
            ("y", (-1.5e-3).into()),
            ("z", f64::NAN.into()),
        ]);
        let expected = "{\n  \"flat\": {\"a\": true, \"b\": null},\n  \"cells\": [\n    {\n      \
                        \"n\": 1,\n      \"rows\": [\n        {\"xs\": [1, 2]}\n      ]\n    }\n  ],\n  \
                        \"empty\": [],\n  \"x\": 0.0,\n  \"y\": -1.500000e-3,\n  \"z\": null\n}\n";
        assert_eq!(doc.render(), expected);
    }
}
