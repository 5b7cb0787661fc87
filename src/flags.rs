//! The `--key value` flag parser shared by the `optipart-cli` and
//! `optipart-serve` binaries (each includes this file as a private module;
//! it is not part of the library).

/// Parsed flags in command-line order; the last occurrence of a key wins.
pub struct Flags {
    pairs: Vec<(String, String)>,
    usage: fn(&str) -> !,
}

impl Flags {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
    pub fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| (self.usage)(&format!("bad value for --{key}"))),
        }
    }
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

/// Parses `args` as `--key value` pairs. Keys in `booleans` take no value
/// (they read as `"true"`); `short` maps single-dash aliases to their key.
/// Anything else — a stray positional, a flag missing its value, later a
/// value that fails to parse — exits through the binary's own `usage`.
pub fn parse_flags(
    args: &[String],
    booleans: &[&str],
    short: &[(&str, &str)],
    usage: fn(&str) -> !,
) -> Flags {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = match a.as_str() {
            s if s.starts_with("--") => s[2..].to_string(),
            s => match short.iter().find(|(alias, _)| *alias == s) {
                Some((_, key)) => key.to_string(),
                None => usage(&format!("unexpected argument '{s}'")),
            },
        };
        if booleans.contains(&key.as_str()) {
            pairs.push((key, "true".into()));
        } else {
            let v = it
                .next()
                .unwrap_or_else(|| usage(&format!("--{key} needs a value")));
            pairs.push((key, v.clone()));
        }
    }
    Flags { pairs, usage }
}
