//! The one `--key value` command-line parser, shared by all five binaries
//! (`optipart-cli`, `optipart-serve`, `bench`, `figures`, `testkit`).
//!
//! It lives beside [`Scenario::set`](crate::Scenario::set) and
//! [`Scenario::replay_cmd`](crate::Scenario::replay_cmd) because those
//! already own the `--key value` spelling of a scenario's fields, and every
//! binary's crate already depends on this one. A binary declares what it
//! accepts in a [`FlagSpec`]; anything else on the command line — an
//! unknown `--key`, a flag missing its value, a stray word where no
//! positionals are declared, later a value that fails to parse — exits
//! through the binary's own `usage` function.

/// What a command line may contain.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlagSpec<'a> {
    /// Keys that take a value: `--key value`.
    pub valued: &'a [&'a str],
    /// Keys that take no value; when present they read as `"true"`.
    pub booleans: &'a [&'a str],
    /// Single-dash aliases and the key each stands for: `("-p", "p")`.
    pub short: &'a [(&'a str, &'a str)],
    /// Whether bare words are collected as positionals. When `false` a bare
    /// word is a usage error.
    pub positionals: bool,
}

/// A parsed command line, in command-line order.
pub struct Flags {
    pairs: Vec<(String, String)>,
    positionals: Vec<String>,
    usage: fn(&str) -> !,
}

impl Flags {
    /// The value of `key`; the last occurrence wins.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `key` parsed as `T`, `default` when absent; a value
    /// that does not parse exits through `usage`.
    pub fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| (self.usage)(&format!("bad value for --{key}"))),
        }
    }

    /// Whether `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Every `(key, value)` occurrence in command-line order — for callers
    /// whose flags are a sequence of edits rather than a set of settings.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The bare words, in command-line order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Parses `args` against `spec`; every violation exits through `usage`.
pub fn parse_flags(args: &[String], spec: &FlagSpec, usage: fn(&str) -> !) -> Flags {
    let mut pairs = Vec::new();
    let mut positionals = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = match a.strip_prefix("--") {
            Some(key) => key,
            None => match spec.short.iter().find(|(alias, _)| alias == a) {
                Some((_, key)) => key,
                None if spec.positionals && !a.starts_with('-') => {
                    positionals.push(a.clone());
                    continue;
                }
                None => usage(&format!("unexpected argument '{a}'")),
            },
        };
        if spec.booleans.contains(&key) {
            pairs.push((key.to_string(), "true".to_string()));
        } else if spec.valued.contains(&key) {
            let v = it
                .next()
                .unwrap_or_else(|| usage(&format!("--{key} needs a value")));
            pairs.push((key.to_string(), v.clone()));
        } else {
            usage(&format!("unknown flag --{key}"));
        }
    }
    Flags {
        pairs,
        positionals,
        usage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FlagSpec = FlagSpec {
        valued: &["p", "seed", "out"],
        booleans: &["quiet"],
        short: &[("-p", "p")],
        positionals: false,
    };

    fn usage(err: &str) -> ! {
        panic!("usage: {err}")
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The message `usage` was called with, if parsing `line` reached it.
    fn rejected(line: &str, spec: FlagSpec<'static>) -> Option<String> {
        let line = args(line);
        std::panic::catch_unwind(move || parse_flags(&line, &spec, usage))
            .err()
            .map(|e| *e.downcast::<String>().expect("usage panics with a String"))
    }

    #[test]
    fn last_occurrence_wins_and_iteration_keeps_order() {
        let f = parse_flags(&args("--p 4 --seed 7 --p 8"), &SPEC, usage);
        assert_eq!(f.get("p"), Some("8"));
        assert_eq!(f.parse("p", 0usize), 8);
        assert_eq!(f.parse("out", 3usize), 3, "absent key reads the default");
        let seen: Vec<_> = f.iter().collect();
        assert_eq!(seen, [("p", "4"), ("seed", "7"), ("p", "8")]);
    }

    #[test]
    fn booleans_take_no_value_and_short_aliases_map() {
        let f = parse_flags(&args("--quiet -p 16 --out x"), &SPEC, usage);
        assert!(f.has("quiet") && !f.has("seed"));
        assert_eq!(f.get("quiet"), Some("true"));
        assert_eq!(f.get("p"), Some("16"));
        assert_eq!(f.get("out"), Some("x"));
    }

    #[test]
    fn positionals_are_returned_in_order_when_declared() {
        let spec = FlagSpec {
            positionals: true,
            ..SPEC
        };
        let f = parse_flags(&args("fig4 --seed 3 fig5 all"), &spec, usage);
        assert_eq!(f.positionals(), ["fig4", "fig5", "all"]);
        assert_eq!(f.get("seed"), Some("3"));
        // A single-dash word is never a positional.
        let msg = rejected("fig4 -x", spec).expect("rejected");
        assert!(msg.contains("unexpected argument '-x'"), "{msg}");
    }

    #[test]
    fn every_violation_exits_through_usage() {
        for (line, want) in [
            ("--seed", "--seed needs a value"),
            ("--p 4 stray", "unexpected argument 'stray'"),
            ("--requsts 3", "unknown flag --requsts"),
            ("-q", "unexpected argument '-q'"),
        ] {
            let msg = rejected(line, SPEC).unwrap_or_else(|| panic!("`{line}` was accepted"));
            assert!(msg.contains(want), "`{line}`: {msg}");
        }
        let bad_value = std::panic::catch_unwind(|| {
            parse_flags(&args("--p many"), &SPEC, usage).parse("p", 0usize)
        });
        assert!(bad_value.is_err(), "an unparsable value must reach usage");
    }
}
