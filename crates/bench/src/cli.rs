//! The command line of every binary in this crate.
//!
//! Each binary declares one [`Command`] whose flag table is the flag list
//! its `--help` prints. Typed values come from [`Args::value`] and
//! [`Args::value_with`]; a range rule lives in the value's type
//! (`NonZeroUsize` for ">= 1", [`Positive`] for "finite and > 0"). Every
//! binary reads its whole command line before any work: `--help`/`-h`
//! prints the help and exits 0; a bad command line prints
//! `<bin>: <message>` and exits 2 ([`Command::reject`]); a runtime
//! failure, a failed artifact write included, prints `<bin>: <message>`
//! and exits 1 ([`Command::fail`]).

use std::fmt;
use std::num::NonZeroUsize;
use std::path::Path;
use std::str::FromStr;

use serde::Serialize;
use surrogate::{ExperimentOptions, TrainingBudget};

/// A binary's command line.
pub struct Command {
    /// The binary's name; it prefixes every message the binary prints.
    pub name: &'static str,
    /// What the binary does, in one line.
    pub about: &'static str,
    /// The flag table, printed verbatim by `--help` after `about`. An entry
    /// is a line starting `  --name VALUE` (no `VALUE` for a switch), then
    /// two or more spaces and its help; every other line (usage, headings,
    /// continuations) is text for the help only.
    pub flags: &'static str,
    /// Whether positional arguments are collected into [`Args::operands`]
    /// instead of being refused.
    pub operands: bool,
}

/// Why a command line was refused: `message` names the flag or argument,
/// and `found` is the flag that stood where a value was expected.
#[derive(Debug)]
pub struct UsageError {
    pub message: String,
    pub found: Option<String>,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)?;
        match &self.found {
            Some(flag) => write!(f, " (found the flag '{flag}')"),
            None => Ok(()),
        }
    }
}

/// A command line that passed its flag table.
#[derive(Debug, Default)]
pub struct Args {
    flags: &'static str,
    given: Vec<(&'static str, Option<String>)>,
    /// Positional arguments, in order.
    pub operands: Vec<String>,
}

/// A finite number above zero (`--days`, `--slot-fraction`,
/// `--max-rel-delta`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Positive(pub f64);

impl FromStr for Positive {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(Positive(x)),
            _ => Err(()),
        }
    }
}

/// Every flag of a table, with whether it takes a value.
fn entries(flags: &'static str) -> impl Iterator<Item = (&'static str, bool)> {
    flags.lines().filter_map(|line| {
        let entry = line.strip_prefix("  ")?.split("  ").next()?;
        let (name, value) = entry.split_once(' ').unwrap_or((entry, ""));
        name.starts_with("--").then_some((name, !value.is_empty()))
    })
}

impl Command {
    /// Parse `argv` (without the program name) against the flag table.
    pub fn parse_from<I: IntoIterator<Item = String>>(&self, argv: I) -> Result<Args, UsageError> {
        let flags = self.flags;
        let mut args = Args {
            flags,
            ..Args::default()
        };
        let usage = |message| UsageError {
            message,
            found: None,
        };
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') {
                if !self.operands {
                    return Err(usage(format!("unexpected argument '{arg}'")));
                }
                args.operands.push(arg);
                continue;
            }
            let Some((name, takes_value)) = entries(flags).find(|(name, _)| *name == arg) else {
                let names: Vec<&str> = entries(flags).map(|(name, _)| name).collect();
                let (last, rest) = names.split_last().expect("a flag table is not empty");
                let expected = format!("{} or {last}", rest.join(", "));
                return Err(usage(format!("unknown flag '{arg}' (expected {expected})")));
            };
            if args.given.iter().any(|(given, _)| *given == name) {
                return Err(usage(format!("{arg} given more than once")));
            }
            // A value may start with one dash (`-3` reaches the typed parse
            // and is refused there, by name) but not with two.
            let value = argv.next_if(|value| takes_value && !value.starts_with("--"));
            if takes_value && value.is_none() {
                let message = format!("{arg} requires a value");
                let found = argv.next();
                return Err(UsageError { message, found });
            }
            args.given.push((name, value));
        }
        Ok(args)
    }

    /// Parse this process's command line: print the help and exit 0 on
    /// `--help`/`-h`, exit 2 on a usage error.
    pub fn parse(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
            print!("{}: {}\n{}", self.name, self.about, self.flags);
            println!("  -h, --help             print this help and exit");
            std::process::exit(0);
        }
        self.check(self.parse_from(argv))
    }

    /// The parsed value, or the command line refused with the error.
    pub fn check<T>(&self, parsed: Result<T, impl fmt::Display>) -> T {
        parsed.unwrap_or_else(|e| self.reject(e))
    }

    /// Refuse the command line: `<bin>: <message>`, exit 2.
    pub fn reject(&self, message: impl fmt::Display) -> ! {
        eprintln!("{}: {message}", self.name);
        eprintln!("{}: run with --help for usage", self.name);
        std::process::exit(2)
    }

    /// Report a runtime failure as `<bin>: <message>` and exit 1.
    pub fn fail(&self, message: impl fmt::Display) -> ! {
        eprintln!("{}: {message}", self.name);
        std::process::exit(1)
    }

    /// Write `contents` to `path`, or fail with `cannot write PATH: …`.
    pub fn write(&self, path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
        let path = path.as_ref();
        if let Err(e) = std::fs::write(path, contents) {
            self.fail(format_args!("cannot write {}: {e}", path.display()));
        }
    }

    /// Write `artifact` as pretty-printed JSON when a path was given.
    pub fn maybe_write_json<T: Serialize>(&self, path: Option<&str>, artifact: &T) {
        if let Some(path) = path {
            let json = serde_json::to_string_pretty(artifact).expect("serialisable artifact");
            self.write(path, json);
            println!("wrote artifact to {path}");
        }
    }
}

impl Args {
    /// What was given for `name`; panics when the table has no such flag
    /// or disagrees on whether it takes a value.
    fn given(&self, name: &str, takes_value: bool) -> Option<&Option<String>> {
        let entry = (name, takes_value);
        assert!(
            entries(self.flags).any(|e| e == entry),
            "{entry:?} is not in the table"
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given(name, false).is_some()
    }

    /// The value given for `name`, exactly as typed.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.given(name, true)?.as_deref()
    }

    /// The value of `name` with surrounding whitespace trimmed, parsed by
    /// `parse`. A refusal reads `invalid value '<v>' for <flag>`, followed
    /// by `: <reason>` unless the reason is empty.
    pub fn value_with<T, E: fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        let Some(text) = self.text(name) else {
            return Ok(None);
        };
        parse(text.trim()).map(Some).map_err(|reason| {
            let message = format!("invalid value '{text}' for {name}");
            match reason.to_string() {
                reason if reason.is_empty() => message,
                reason => format!("{message}: {reason}"),
            }
        })
    }

    /// The value of `name` parsed through its type's `FromStr`.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value_with(name, |text| text.parse().map_err(|_| ""))
    }

    /// Refuse every given flag but `mode` and `allowed`, for a mode that
    /// reads only part of the table: a flag it would ignore is named, not
    /// dropped.
    pub fn only(&self, mode: &str, allowed: &[&str]) -> Result<(), String> {
        let mut names = self.given.iter().map(|(name, _)| *name);
        match names.find(|name| *name != mode && !allowed.contains(name)) {
            None => Ok(()),
            Some(flag) => Err(format!(
                "{flag} does not apply to {mode}, which accepts only {}",
                allowed.join(", ")
            )),
        }
    }
}

/// The flag table of the five experiment binaries (`table1`,
/// `fig3_profile`, `fig4_distributions`, `fig5_correlations`,
/// `downstream`).
const EXPERIMENT_FLAGS: &str = "
flags:
  --rows N               gross PanDA records to simulate, N >= 1 (default 30000)
  --days D               collection window in days, D > 0 (default 150)
  --budget NAME          training budget: smoke|fast, standard|default or
                         full|paper (default standard)
  --seed N               base RNG seed (default 2024)
  --json PATH            also write the results as a JSON artifact
";

/// An experiment binary's command line: the shared experiment flag table
/// under its own name.
pub const fn experiment(name: &'static str, about: &'static str) -> Command {
    Command {
        name,
        about,
        flags: EXPERIMENT_FLAGS,
        operands: false,
    }
}

/// Read the experiment flags; a flag not given keeps the default.
pub fn experiment_options(args: &Args) -> Result<ExperimentOptions, String> {
    let defaults = ExperimentOptions::default();
    let rows: Option<NonZeroUsize> = args.value("--rows")?;
    let days: Option<Positive> = args.value("--days")?;
    let budget = args.value_with("--budget", |text| TrainingBudget::parse(text).ok_or(""))?;
    Ok(ExperimentOptions {
        gross_records: rows.map_or(defaults.gross_records, NonZeroUsize::get),
        days: days.map_or(defaults.days, |Positive(days)| days),
        budget: budget.unwrap_or(defaults.budget),
        seed: args.value("--seed")?.unwrap_or(defaults.seed),
        output_json: args.text("--json").map(String::from),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE1: Command = experiment("table1", "test");

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn argument_parsing_handles_all_flags() {
        let parse = |args: &[&str]| {
            let args = TABLE1.parse_from(argv(args)).map_err(|e| e.message)?;
            experiment_options(&args)
        };
        let options = parse(&[
            "--rows",
            "5000",
            "--days",
            "30",
            "--budget",
            "smoke",
            "--seed",
            "7",
            "--json",
            "/tmp/x.json",
        ])
        .unwrap();
        assert_eq!(options.gross_records, 5000);
        assert_eq!(options.days, 30.0);
        assert_eq!(options.budget, TrainingBudget::Smoke);
        assert_eq!(options.seed, 7);
        assert_eq!(options.output_json.as_deref(), Some("/tmp/x.json"));

        // Bad values are errors that name the flag and the value, never a
        // silent fall-back to the default; an unknown flag is named too.
        for (args, message) in [
            (
                &["--unknown", "ignored"][..],
                "unknown flag '--unknown' (expected --rows, --days, --budget, --seed or --json)",
            ),
            (
                &["--row", "3000"],
                "unknown flag '--row' (expected --rows, --days, --budget, --seed or --json)",
            ),
            (&["--rows", "abc"], "invalid value 'abc' for --rows"),
            (&["--days", "1e"], "invalid value '1e' for --days"),
            (&["--budget", "typo"], "invalid value 'typo' for --budget"),
            (&["--seed", "-1"], "invalid value '-1' for --seed"),
            (&["--rows", "100", "--seed"], "--seed requires a value"),
            (&["--json", "--rows", "100"], "--json requires a value"),
            // Ranges come from the value types: ">= 1" rows, finite and
            // positive days.
            (&["--rows", "0"], "invalid value '0' for --rows"),
            (&["--days", "0"], "invalid value '0' for --days"),
            (&["--days", "-5"], "invalid value '-5' for --days"),
            (&["--days", "NaN"], "invalid value 'NaN' for --days"),
            (&["--days", "inf"], "invalid value 'inf' for --days"),
        ] {
            assert_eq!(parse(args).unwrap_err(), message, "{args:?}");
        }
    }

    #[test]
    fn argument_parsing_defaults() {
        let options = experiment_options(&TABLE1.parse_from(Vec::new()).unwrap()).unwrap();
        assert_eq!(options.gross_records, 30_000);
        assert_eq!(options.budget, TrainingBudget::Standard);
    }

    #[test]
    fn syntax_errors_name_the_offending_argument() {
        let error = |args: &[&str]| TABLE1.parse_from(argv(args)).unwrap_err().to_string();
        assert_eq!(
            error(&["--seed", "1", "--seed", "2"]),
            "--seed given more than once"
        );
        assert_eq!(error(&["extra"]), "unexpected argument 'extra'");
        assert_eq!(
            error(&["--json", "--rows", "100"]),
            "--json requires a value (found the flag '--rows')"
        );
    }
}
