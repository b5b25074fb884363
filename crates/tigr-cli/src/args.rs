//! Minimal dependency-free argument parsing.
//!
//! Grammar: `tigr <command> [subcommand] [--flag value | --switch] [positional...]`.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that never take a value.
const SWITCHES: &[&str] = &[
    "coalesced",
    "weighted",
    "report",
    "help",
    "symmetric",
    "cpu",
    "stats",
    "no-cache",
    "values",
    "mutable",
];

impl Args {
    /// Parses a raw token list (excluding the program name and command).
    ///
    /// # Errors
    ///
    /// Returns a message when a value-taking flag is missing its value.
    pub fn parse(tokens: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = tokens.iter().peekable();
        while let Some(tok) = it.next() {
            let flag_name = tok
                .strip_prefix("--")
                .or_else(|| tok.strip_prefix('-').filter(|n| n.len() == 1));
            if let Some(name) = flag_name {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} requires a value"))?;
                    args.flags.insert(name.to_string(), value.clone());
                }
            } else {
                args.positionals.push(tok.clone());
            }
        }
        Ok(args)
    }

    /// Positional argument at `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    #[cfg(test)]
    pub fn num_positionals(&self) -> usize {
        self.positionals.len()
    }

    /// Value of `--name`, if given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Parsed value of `--name`, or `default`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{name}")),
        }
    }

    /// Required flag value.
    ///
    /// # Errors
    ///
    /// Returns a message when the flag is absent or does not parse.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.flag(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?
            .parse()
            .map_err(|_| format!("invalid value for --{name}"))
    }

    /// Whether the boolean switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Rejects any flag or switch not in `known`, so a misspelt or
    /// retired flag is an error instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown flag found.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .keys()
            .chain(&self.switches)
            .find(|name| !known.contains(&name.as_str()))
        {
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn short_flags_take_values() {
        let a = Args::parse(&toks("-o out.bin -i in.txt")).unwrap();
        assert_eq!(a.flag("o"), Some("out.bin"));
        assert_eq!(a.flag("i"), Some("in.txt"));
        assert_eq!(a.num_positionals(), 0);
    }

    #[test]
    fn parses_mixed_arguments() {
        let a = Args::parse(&toks("input.txt --k 10 --coalesced output.bin")).unwrap();
        assert_eq!(a.positional(0), Some("input.txt"));
        assert_eq!(a.positional(1), Some("output.bin"));
        assert_eq!(a.num_positionals(), 2);
        assert_eq!(a.flag("k"), Some("10"));
        assert!(a.switch("coalesced"));
        assert!(!a.switch("report"));
    }

    #[test]
    fn flag_or_defaults_and_parses() {
        let a = Args::parse(&toks("--k 42")).unwrap();
        assert_eq!(a.flag_or("k", 7u32).unwrap(), 42);
        assert_eq!(a.flag_or("seed", 7u64).unwrap(), 7);
        assert!(a.flag_or::<u32>("k", 0).is_ok());
    }

    #[test]
    fn require_reports_missing_and_invalid() {
        let a = Args::parse(&toks("--k ten")).unwrap();
        assert!(a.require::<u32>("k").unwrap_err().contains("invalid"));
        assert!(a.require::<u32>("scale").unwrap_err().contains("missing"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&toks("--k"))
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn unknown_flags_and_switches_are_named() {
        let a = Args::parse(&toks("--k 1 --report")).unwrap();
        assert!(a.reject_unknown(&["k", "report"]).is_ok());
        assert_eq!(
            a.reject_unknown(&["report"]).unwrap_err(),
            "unknown flag --k"
        );
        assert_eq!(
            a.reject_unknown(&["k"]).unwrap_err(),
            "unknown flag --report"
        );
    }

    #[test]
    fn switch_at_end_is_fine() {
        let a = Args::parse(&toks("--report")).unwrap();
        assert!(a.switch("report"));
    }
}
