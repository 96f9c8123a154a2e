//! A small `--flag value` argument parser.
//!
//! The workspace deliberately avoids new external dependencies (see
//! DESIGN.md), and the CLI's needs are modest: subcommands with typed
//! `--key value` options and a few boolean switches.

use std::collections::BTreeMap;

/// Options valid on every subcommand, consumed by `main` before dispatch;
/// [`Args::check_known`] always accepts them.
pub const GLOBAL_OPTS: &[&str] = &["log-level"];

/// Parsed arguments: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional token (subcommand).
    pub command: Option<String>,
    /// Positional tokens after the subcommand (e.g. the two snapshot
    /// paths of `obs-report --diff old.jsonl new.jsonl`). Commands that
    /// take none reject them via [`Args::check_known`].
    pub positionals: Vec<String>,
    /// `--key value` pairs, last occurrence wins.
    options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    flags: Vec<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token stream (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty option name '--'".into()));
                }
                // `--key=value` or `--key value` or bare switch.
                if let Some((k, v)) = key.split_once('=') {
                    out.options.insert(k.to_string(), v.to_string());
                } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
                    out.options.insert(key.to_string(), it.next().unwrap());
                } else {
                    out.flags.push(key.to_string());
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a bare `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{raw}'"))),
        }
    }

    /// A required typed option.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let raw = self
            .get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))?;
        raw.parse()
            .map_err(|_| ArgError(format!("--{key}: cannot parse '{raw}'")))
    }

    /// Rejects options/flags outside `allowed`, a whitespace-separated
    /// list of names (catches typos), and any positional argument —
    /// commands that take positionals use
    /// [`Args::check_known_with_positionals`]. The [`GLOBAL_OPTS`] are
    /// accepted everywhere.
    pub fn check_known(&self, allowed: &str) -> Result<(), ArgError> {
        self.check_known_with_positionals(allowed, 0)
    }

    /// [`Args::check_known`] for commands accepting up to
    /// `max_positionals` positional arguments.
    pub fn check_known_with_positionals(
        &self,
        allowed: &str,
        max_positionals: usize,
    ) -> Result<(), ArgError> {
        let allowed: Vec<&str> = allowed.split_whitespace().collect();
        if self.positionals.len() > max_positionals {
            return Err(ArgError(format!(
                "unexpected positional argument '{}'",
                self.positionals[max_positionals]
            )));
        }
        for k in self
            .options
            .keys()
            .map(String::as_str)
            .chain(self.flags.iter().map(String::as_str))
        {
            if !allowed.contains(&k) && !GLOBAL_OPTS.contains(&k) {
                return Err(ArgError(format!(
                    "unknown option --{k} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("cds --n 40 --policy el1").unwrap();
        assert_eq!(a.command.as_deref(), Some("cds"));
        assert_eq!(a.get("n"), Some("40"));
        assert_eq!(a.get("policy"), Some("el1"));
    }

    #[test]
    fn equals_form() {
        let a = parse("gen --n=10 --radius=25.5").unwrap();
        assert_eq!(a.get_or("n", 0usize).unwrap(), 10);
        assert_eq!(a.get_or("radius", 0.0f64).unwrap(), 25.5);
    }

    #[test]
    fn bare_flags() {
        let a = parse("simulate --verbose --n 5").unwrap();
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get("n"), Some("5"));
    }

    #[test]
    fn last_option_wins() {
        let a = parse("x --n 1 --n 2").unwrap();
        assert_eq!(a.get("n"), Some("2"));
    }

    #[test]
    fn typed_accessors() {
        let a = parse("x --n 7").unwrap();
        assert_eq!(a.get_or("n", 3usize).unwrap(), 7);
        assert_eq!(a.get_or("m", 3usize).unwrap(), 3);
        assert_eq!(a.require::<usize>("n").unwrap(), 7);
        assert!(a.require::<usize>("absent").is_err());
        assert!(a.get_or("n", 0.0f32).is_ok());
        assert!(parse("x --n seven").unwrap().get_or("n", 0usize).is_err());
    }

    #[test]
    fn rejects_extra_positionals_and_unknown_options() {
        // Positionals parse, but commands reject them unless opted in.
        let a = parse("a b c").unwrap();
        assert_eq!(a.positionals, vec!["b", "c"]);
        assert!(a.check_known("").is_err());
        assert!(a.check_known_with_positionals("", 1).is_err());
        assert!(a.check_known_with_positionals("", 2).is_ok());
        let a = parse("x --good 1 --bad 2").unwrap();
        assert!(a.check_known("good").is_err());
        assert!(a.check_known("good bad").is_ok());
    }

    #[test]
    fn global_options_are_always_known() {
        let a = parse("x --log-level debug --n 3").unwrap();
        assert!(a.check_known("n").is_ok());
        assert_eq!(a.get("log-level"), Some("debug"));
    }

    #[test]
    fn empty_input() {
        let a = parse("").unwrap();
        assert!(a.command.is_none());
    }
}
