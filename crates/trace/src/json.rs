//! The workspace's one JSON codec: [`quote`] writes string literals,
//! [`parse`] reads documents into a [`Value`] tree.
//!
//! Every JSON byte the workspace emits or accepts goes through here — the
//! Chrome trace export in this crate, `BENCH_*.json` reports, the figure
//! summary, and the `optipart-serve` line protocol (whose `Fields` view
//! narrows [`Value`] to one flat object). The offline dependency policy
//! rules out serde, so the codec is hand-written once, at the bottom of
//! the dependency graph, instead of once per crate.
//!
//! Contract:
//!
//! * **The parser faces hostile input** (it reads raw request lines off a
//!   socket): it never panics, never recurses deeper than 32 nested
//!   containers, and reports the first error as a one-line message.
//! * **Numbers keep their text.** A number is returned as the exact bytes
//!   it was written with and validated by whoever reads it (`str::parse`
//!   into the type they want), so `u64` seeds above 2⁵³ survive — an `f64`
//!   detour would corrupt them.
//! * **Strings are exact.** Every escape [`quote`] writes is read back to
//!   the same `char`; a `\u` escape that is not a scalar value (a lone
//!   surrogate) is an error, never a silent U+FFFD.
//! * Duplicate keys are kept in document order; [`Value::get`] returns the
//!   last one.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. Real documents here nest
/// three deep; the bound exists so a line of 64 Ki `[` cannot overflow the
/// stack of the thread that reads it.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as written (see the module contract).
    Num(String),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: its members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The last member named `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document (surrounding whitespace allowed, nothing else
/// after it).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, i: 0 };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i != text.len() {
        return Err(format!("trailing content at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.i += 1;
        }
        b
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == c => Ok(()),
            other => Err(format!("expected '{}', got {other:?}", c as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so a run between them is whole chars.
            let run = self.i;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            out.push_str(&self.text[run..self.i]);
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(_) => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit '{}'", d as char))?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            )),
            Some(b'{') => Ok(Value::Obj(self.items(b'}', |p| p.member(depth + 1))?)),
            Some(b'[') => Ok(Value::Arr(self.items(b']', |p| p.value(depth + 1))?)),
            Some(_) => {
                let start = self.i;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                if self.i == start {
                    return Err(format!("bad value at byte {start}"));
                }
                Ok(Value::Num(self.text[start..self.i].to_string()))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// The comma-separated items of a container, from its opener (already
    /// peeked) to `close`; `item` reads one.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            self.ws();
            items.push(item(self)?);
            self.ws();
            match self.next() {
                Some(b',') => continue,
                Some(b) if b == close => return Ok(items),
                other => {
                    return Err(format!(
                        "expected ',' or '{}', got {other:?}",
                        close as char
                    ))
                }
            }
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Value), String> {
        let key = self.string()?;
        self.ws();
        self.eat(b':')?;
        self.ws();
        Ok((key, self.value(depth)?))
    }

    fn lit(&mut self, word: &str, val: Value) -> Result<Value, String> {
        if self.text[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(val)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials_and_parse_reads_them_back() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}\r\t"), "\"\\u0001\\r\\t\"");
        for s in ["", "plain", "a\"b\\c\nd\r\t\u{1}\u{1f}", "héllo → 🌍"] {
            assert_eq!(parse(&quote(s)), Ok(Value::Str(s.to_string())), "{s:?}");
        }
        // Escapes `quote` never writes are still read.
        assert_eq!(
            parse("\"\\/\\b\\f\\u00e9\""),
            Ok(Value::Str("/\u{8}\u{c}é".into()))
        );
    }

    #[test]
    fn nested_documents_parse_in_document_order() {
        let v = parse(" {\"a\": [1, {\"b\": null}, []], \"c\": {}, \"a\": true} ").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Bool(true)), "last duplicate wins");
        assert_eq!(v.get("c"), Some(&Value::Obj(vec![])));
        assert_eq!(v.get("zz"), None);
        let Value::Obj(members) = &v else {
            panic!("{v:?}")
        };
        assert_eq!(
            members[0].1,
            Value::Arr(vec![
                Value::Num("1".into()),
                Value::Obj(vec![("b".into(), Value::Null)]),
                Value::Arr(vec![]),
            ])
        );
        assert_eq!(Value::Num("1".into()).get("a"), None);
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = parse("[18446744073709551615, -0.5e+3, 1.0000000000000000001]").unwrap();
        let Value::Arr(items) = v else { panic!() };
        let texts: Vec<&str> = items
            .iter()
            .map(|v| match v {
                Value::Num(t) => t.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            texts,
            ["18446744073709551615", "-0.5e+3", "1.0000000000000000001"]
        );
        assert_eq!(texts[0].parse::<u64>(), Ok(u64::MAX));
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12zz\"",
            "\"\\ud83d\"",
            "nul",
            "{} trailing",
            "not json",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // The hostile shape the bound exists for: a max-size request line
        // of nothing but openers.
        assert!(parse(&"[".repeat(64 * 1024)).is_err());
        assert!(parse(&"{\"a\":".repeat(20_000)).is_err());
    }
}
