//! The flag parser the `loom` and `repro` binaries share, and the
//! paper suites `repro` prints.
//!
//! Each binary declares its command line once, as `const` [`Command`]s
//! whose flags are `(name, value placeholder, help line)` triples.
//! [`Args::parse`] refuses a flag its command does not declare, every
//! getter refuses a name the command does not declare, and [`usage`]
//! renders `--help` from the same declaration — so the help text, the
//! flags a line may carry and the flags the code reads are one list.
//!
//! [`suites`] regenerates every table and figure of the paper's
//! evaluation (§5):
//!
//! | Paper artefact | Suite function |
//! |---|---|
//! | Fig. 4 (collision probabilities) | [`suites::fig4`] |
//! | Table 1 (datasets) | [`suites::table1`] |
//! | Fig. 7 (ipt vs Hash, stream orders) | [`suites::fig7`] |
//! | Fig. 8 (ipt vs Hash, k sweep) | [`suites::fig8`] |
//! | Table 2 (partitioning throughput) | [`suites::table2`] |
//! | Fig. 9 (window-size sweep) | [`suites::fig9`] |
//! | §5.2 imbalance note | folded into [`suites::fig7`] |
//! | Ablations (DESIGN.md §7) | [`suites::ablations`] |
//! | Online vs prescient (DESIGN.md §8) | [`suites::online`] |
//!
//! `repro` prints them, writes a `BENCH_results.json` summary of the
//! ipt cells ([`bench_compare::BenchSummary`]) and gates its quality
//! digits against the committed copy ([`bench_compare::compare`]).
//! Throughput is measured by `benchmark/`, not here.

pub mod bench_compare;
pub mod suites;

use loom_core::graph::Scale;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

/// One flag: `(name, value placeholder, help line)`.
pub type Flag = (&'static str, &'static str, &'static str);

/// One command and every flag it takes.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// One line on what the command does.
    pub about: &'static str,
    /// Flag lists, concatenated: a command that takes everything
    /// another takes lists the other's list first.
    pub flags: &'static [&'static [Flag]],
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|list| list.iter())
    }

    fn declares(&self, name: &str) -> bool {
        self.flags().any(|f| f.0 == name)
    }

    /// This command's `--help` block: the name and about line, then one
    /// aligned line per flag.
    fn help(&self) -> String {
        let left = |f: &Flag| format!("--{} {}", f.0, f.1);
        let width = self.flags().map(|f| left(f).len()).max().unwrap_or(0);
        let mut out = format!("{} — {}\n", self.name, self.about);
        for f in self.flags() {
            out += &format!("  {:<width$}  {}\n", left(f), f.2);
        }
        out
    }
}

/// The `--help` text: the synopsis line, then each command's block.
pub fn usage(synopsis: &str, commands: &[Command]) -> String {
    let blocks: Vec<String> = commands.iter().map(Command::help).collect();
    format!("{synopsis}\n\n{}", blocks.join("\n"))
}

/// A refused command line.
#[derive(Debug)]
pub enum ArgError {
    /// Not of the shape `[--flag value]...` at all: `loom` exits 2 and
    /// prints the usage text.
    Malformed(String),
    /// Well-formed, but the command cannot take it (an undeclared flag,
    /// a missing or bad value): `loom` exits 1.
    Refused(String),
}

impl Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Malformed(m) | ArgError::Refused(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ArgError {}

/// A command line parsed against its [`Command`].
#[derive(Debug)]
pub struct Args {
    pub command: &'static Command,
    /// `--help` or `-h` appeared. Unlike every other flag these take no
    /// value, and they win over anything else on the line.
    pub help: bool,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `[--flag value]...` (the arguments after the program or
    /// command name) against `command`'s declared flags.
    pub fn parse<I: IntoIterator<Item = String>>(
        command: &'static Command,
        argv: I,
    ) -> Result<Args, ArgError> {
        let argv: Vec<String> = argv.into_iter().collect();
        let mut args = Args {
            command,
            help: argv.iter().any(|t| t == "--help" || t == "-h"),
            values: Vec::new(),
        };
        if args.help {
            return Ok(args);
        }
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            let name = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::Malformed(format!("expected a --flag, got '{tok}'")))?;
            let value = it
                .next()
                .ok_or_else(|| ArgError::Malformed(format!("--{name} needs a value")))?;
            let flag = command
                .flags()
                .find(|f| f.0 == name)
                .ok_or_else(|| ArgError::Refused(format!("unknown flag --{name}")))?;
            if args.values.iter().any(|(n, _)| *n == flag.0) {
                return Err(ArgError::Malformed(format!("--{name} given twice")));
            }
            args.values.push((flag.0, value));
        }
        Ok(args)
    }

    /// The value given for `name`, which the command must declare.
    fn value(&self, name: &str) -> Result<Option<&str>, ArgError> {
        if !self.command.declares(name) {
            return Err(ArgError::Refused(format!(
                "internal: `{}` reads --{name}, which its flag table does not declare",
                self.command.name
            )));
        }
        Ok(self
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str()))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Result<Option<String>, ArgError> {
        Ok(self.value(name)?.map(String::from))
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<String, ArgError> {
        self.optional(name)?
            .ok_or_else(|| ArgError::Refused(format!("missing required --{name}")))
    }

    /// An optional flag parsed to `T`.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: Display,
    {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|e| ArgError::Refused(format!("bad value for --{name}: {e}")))
            })
            .transpose()
    }

    /// An optional flag parsed to `T`, with a default.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: Display,
    {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// [`Args::parsed_or`], refused outside `range` (`lo..`, `..=hi` or
    /// `lo..=hi`).
    pub fn parsed_in<T, R>(&self, name: &str, default: T, range: R) -> Result<T, ArgError>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
        R: RangeBounds<T>,
    {
        let v = self.parsed_or(name, default)?;
        let refuse = |bound: String| Err(ArgError::Refused(format!("--{name} must be {bound}")));
        match (range.start_bound(), range.end_bound()) {
            (Bound::Included(lo), _) if v < *lo => refuse(format!(">= {lo}")),
            (_, Bound::Included(hi)) if v > *hi => refuse(format!("<= {hi}")),
            _ => Ok(v),
        }
    }

    /// An optional `true|false` flag.
    pub fn boolean(&self, name: &str) -> Result<Option<bool>, ArgError> {
        self.value(name)?
            .map(|v| match v {
                "true" => Ok(true),
                "false" => Ok(false),
                other => Err(ArgError::Refused(format!(
                    "--{name} takes true or false, got '{other}'"
                ))),
            })
            .transpose()
    }
}

/// `--scale tiny|small|medium|large`, as both binaries spell it.
pub fn parse_scale(name: &str) -> Result<Scale, ArgError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "large" => Scale::Large,
        other => return Err(ArgError::Refused(format!("unknown scale '{other}'"))),
    })
}
