//! The one command-line parser of every `ecp` subcommand: positionals
//! plus `--flag value` and `--switch` arguments, checked against the
//! flags the subcommand declares. Nothing is silently ignored: an
//! unknown flag, a flag without its value and a value that does not
//! parse are each a [`Failure::Usage`].

use std::str::FromStr;

/// Why a command did not succeed.
pub enum Failure {
    /// A malformed command line: the reason, then the usage, exit 2.
    Usage(String),
    /// The command ran and failed: the reason, exit 1.
    Failed(String),
}

/// The flags one subcommand accepts.
pub struct Flags {
    /// Flags followed by a value (`--out FILE`); may repeat.
    pub values: &'static [&'static str],
    /// Flags without a value (`--force`).
    pub switches: &'static [&'static str],
}

/// A parsed command line.
pub struct Args {
    /// Positional arguments, in order.
    pos: Vec<String>,
    /// Every flag given, in order; switches carry no value.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `argv` against `accepted`.
    pub fn parse(argv: &[String], accepted: &Flags) -> Result<Args, Failure> {
        let mut args = Args {
            pos: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                args.pos.push(a.clone());
            } else if let Some(&name) = accepted.switches.iter().find(|&&f| f == a) {
                args.flags.push((name, None));
            } else if let Some(&name) = accepted.values.iter().find(|&&f| f == a) {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| Failure::Usage(format!("{a} needs a value")))?;
                args.flags.push((name, Some(value.clone())));
            } else {
                return Err(Failure::Usage(format!("unknown flag `{a}`")));
            }
        }
        Ok(args)
    }

    /// Exactly `n` positionals, named by `what` in the error.
    pub fn positionals(&self, n: usize, what: &str) -> Result<&[String], Failure> {
        match self.pos.len() {
            k if k == n => Ok(&self.pos),
            k if k < n => Err(Failure::Usage(format!("missing {what}"))),
            _ => Err(Failure::Usage(format!(
                "unexpected argument `{}`",
                self.pos[n]
            ))),
        }
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == name)
    }

    /// Every value given for `name`, in order.
    pub fn all(&self, name: &str) -> Vec<&str> {
        let given = self.flags.iter().filter(|(f, _)| *f == name);
        given.filter_map(|(_, v)| v.as_deref()).collect()
    }

    /// The last value given for `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.all(name).pop()
    }

    /// The last value given for `name`, parsed as `T`.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, Failure> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| Failure::Usage(format!("{name}: cannot parse `{v}`")))
            })
            .transpose()
    }
}
