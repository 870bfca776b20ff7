//! The shared argv front end of the command-line tools.
//!
//! Each tool declares a [`Spec`]: its usage text and a table of
//! [`Mode`]s, each listing the flags that mode accepts. [`Spec::run`]
//! walks the process argv once against that table, hands the
//! [`Parsed`] result to the tool's body, and maps a [`Fail`] to the
//! shared exit contract: usage errors exit `2` with the message alone,
//! run errors exit `2` (and findings `1`) as `tool: message`.
//!
//! The walk owns the argv messages, so they read the same in every
//! tool: `--help`/`-h` and a bare invocation of a moded tool print the
//! usage; then `unknown mode: "x"`, `unknown flag: --x` (including a
//! flag another mode accepts), `unexpected argument: x` (these three
//! followed by the usage), `--flag needs a value`, and from the typed
//! readers `--flag: not a count: "x"` and `--flag: not a byte count:
//! "x"`. A repeated flag keeps its last value; every occurrence is
//! still read, so a malformed earlier one is an error.
//!
//! [`Shape`] reads the problem shapes the scheduling tools share
//! (`order`, `bundle`, `pipeline`) from their flags, with their
//! defaults and range checks written once; [`Parsed::report`] and
//! [`Parsed::emit`] are the shared `--json`/`--out` document writer.

use crate::datapar::CommPolicy;
use crate::pipeline::Strategy;
use crate::SimTime;
use std::process::ExitCode;
use std::str::FromStr;

/// `order` shape flags: `--layers N [--k K] [--sync NS]`.
pub const ORDER: &[&str] = &["--layers", "--k", "--sync"];
/// `bundle` shape flags (after the `<bundle.json>` positional).
pub const BUNDLE: &[&str] = &["--schedule"];
/// `pipeline` shape flags: `--layers N --devices D --strategy NAME [--group G]`.
pub const PIPELINE: &[&str] = &["--layers", "--devices", "--strategy", "--group"];
/// The data-parallel link policy of `order` and `bundle`.
pub const POLICY: &[&str] = &["--policy"];
/// The document file.
pub const OUT: &[&str] = &["--out"];
/// The switch selecting JSON on stdout.
pub const JSON: &[&str] = &["--json"];

/// Why a tool stopped early.
#[derive(Debug, PartialEq, Eq)]
pub enum Fail {
    /// An argv problem: the message is printed alone, exit `2`.
    Usage(String),
    /// A run-time failure (I/O, parse, analysis): `tool: message`, exit `2`.
    Error(String),
    /// A finding that ends the run: `tool: message`, exit `1`.
    Finding(String),
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Error(msg)
    }
}

/// One mode of a tool and the flags it accepts.
pub struct Mode {
    /// The mode word (`order`); empty for a tool without modes.
    pub name: &'static str,
    /// Flags taking a value, in groups so the shared sets compose.
    pub values: &'static [&'static [&'static str]],
    /// Flags taking no value.
    pub switches: &'static [&'static str],
    /// Whether the mode takes one positional argument.
    pub positional: bool,
}

/// A [`Mode`] in one line.
pub const fn mode(
    name: &'static str,
    values: &'static [&'static [&'static str]],
    switches: &'static [&'static str],
    positional: bool,
) -> Mode {
    Mode {
        name,
        values,
        switches,
        positional,
    }
}

/// A tool's argv table.
pub struct Spec {
    /// The prefix of run-time messages (`ooo-tune`).
    pub tool: &'static str,
    /// The usage text.
    pub usage: &'static str,
    /// The modes; a single unnamed mode means the tool has no mode word.
    pub modes: &'static [Mode],
}

impl Spec {
    /// Parses the process argv and runs `body` on it, mapping every
    /// [`Fail`] to its message and exit code.
    pub fn run(&self, body: impl FnOnce(Parsed) -> Result<ExitCode, Fail>) -> ExitCode {
        match self.parse(std::env::args().skip(1)).and_then(body) {
            Ok(code) => code,
            Err(Fail::Usage(msg)) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
            Err(Fail::Error(msg)) => {
                eprintln!("{}: {msg}", self.tool);
                ExitCode::from(2)
            }
            Err(Fail::Finding(msg)) => {
                eprintln!("{}: {msg}", self.tool);
                ExitCode::from(1)
            }
        }
    }

    /// Walks `argv` (without the program name) against the table.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Parsed, Fail> {
        let usage = self.usage;
        let shown = |msg: String| Fail::Usage(format!("{msg}\n{usage}"));
        let help = || Fail::Usage(usage.to_string());
        let mut argv = argv.into_iter();
        let mode = match self.modes {
            [only] if only.name.is_empty() => only,
            modes => {
                let word = argv.next().ok_or_else(help)?;
                if word == "--help" || word == "-h" {
                    return Err(help());
                }
                modes
                    .iter()
                    .find(|m| m.name == word)
                    .ok_or_else(|| shown(format!("unknown mode: {word:?}")))?
            }
        };
        let mut parsed = Parsed {
            mode: mode.name,
            usage,
            positional: None,
            flags: Vec::new(),
        };
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Err(help());
            }
            let takes_value = mode
                .values
                .iter()
                .flat_map(|g| g.iter())
                .find(|f| **f == arg);
            if let Some(&flag) = takes_value {
                let value = argv
                    .next()
                    .ok_or_else(|| Fail::Usage(format!("{flag} needs a value")))?;
                parsed.flags.push((flag, Some(value)));
            } else if let Some(&flag) = mode.switches.iter().find(|s| **s == arg) {
                parsed.flags.push((flag, None));
            } else if arg.starts_with('-') {
                return Err(shown(format!("unknown flag: {arg}")));
            } else if mode.positional && parsed.positional.is_none() {
                parsed.positional = Some(arg);
            } else {
                return Err(shown(format!("unexpected argument: {arg}")));
            }
        }
        Ok(parsed)
    }
}

/// The flags of one command line, read through typed accessors.
#[derive(Debug)]
pub struct Parsed {
    /// The mode word (empty for a tool without modes).
    pub mode: &'static str,
    usage: &'static str,
    positional: Option<String>,
    /// Every flag in argv order, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
}

impl Parsed {
    /// The usage text alone, as a [`Fail`].
    pub fn usage(&self) -> Fail {
        Fail::Usage(self.usage.to_string())
    }

    /// The positional argument, if any.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// The positional argument; its absence is a usage error.
    pub fn required_positional(&self) -> Result<&str, Fail> {
        self.positional().ok_or_else(|| self.usage())
    }

    /// Whether `flag` appeared.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Of `flags`, the one that appeared last.
    pub fn last_of(&self, flags: &[&str]) -> Option<&'static str> {
        self.flags
            .iter()
            .rev()
            .map(|(f, _)| *f)
            .find(|f| flags.contains(f))
    }

    /// The last value of `flag`.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The last value of `flag` through `read`; every occurrence is
    /// read, and the first error is a usage error.
    pub fn parse<T>(
        &self,
        flag: &str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, Fail> {
        let mut last = None;
        for (_, v) in self.flags.iter().filter(|(f, _)| *f == flag) {
            last = Some(read(v.as_deref().unwrap_or_default()).map_err(Fail::Usage)?);
        }
        Ok(last)
    }

    /// The last value of `flag` as a non-negative integer.
    pub fn count<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Fail> {
        self.parse(flag, |v| {
            v.parse().map_err(|_| format!("{flag}: not a count: {v:?}"))
        })
    }

    /// Like [`Parsed::count`], but the flag is required.
    pub fn required_count<T: FromStr>(&self, flag: &str) -> Result<T, Fail> {
        self.count(flag)?.ok_or_else(|| self.missing(flag))
    }

    fn missing(&self, flag: &str) -> Fail {
        Fail::Usage(format!("{} needs {flag}\n{}", self.mode, self.usage))
    }

    /// The last value of `flag` as a byte count.
    pub fn bytes(&self, flag: &str) -> Result<Option<u64>, Fail> {
        self.parse(flag, |v| {
            v.parse()
                .map_err(|_| format!("{flag}: not a byte count: {v:?}"))
        })
    }

    /// Writes one result set the way every document tool does: the
    /// JSON documents (one object, or a `[...]` array of several) to
    /// `--out` with a trailing newline, then to stdout either the JSON
    /// (`--json`) or each item's human text. Exits `1` when any item
    /// is a `finding`.
    pub fn report<T>(
        &self,
        items: &[T],
        json: impl Fn(&T) -> String,
        human: impl Fn(&T) -> String,
        finding: impl Fn(&T) -> bool,
    ) -> Result<ExitCode, Fail> {
        let document = || {
            let docs: Vec<String> = items.iter().map(&json).collect();
            match docs.as_slice() {
                [one] => one.clone(),
                _ => format!("[\n{}\n]", docs.join(",\n")),
            }
        };
        if let Some(path) = self.text("--out") {
            write(path, &(document() + "\n"))?;
        }
        if self.switch("--json") {
            println!("{}", document());
        } else {
            for item in items {
                print!("{}", human(item));
            }
        }
        Ok(if items.iter().any(finding) {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        })
    }

    /// Writes `text` to `--out`, or to stdout without one.
    pub fn emit(&self, text: &str) -> Result<(), Fail> {
        match self.text("--out") {
            Some(path) => write(path, text),
            None => {
                print!("{text}");
                Ok(())
            }
        }
    }
}

fn write(path: &str, text: &str) -> Result<(), Fail> {
    std::fs::write(path, text).map_err(|e| Fail::Error(format!("cannot write {path}: {e}")))
}

/// A problem shape the scheduling tools share, read from the mode word
/// and the [`ORDER`], [`BUNDLE`], [`PIPELINE`] and [`POLICY`] flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// A reverse-first-k order of a uniform data-parallel graph.
    Order {
        /// Layer count, at least 1.
        layers: usize,
        /// Deferred weight gradients, at most `layers` (default 0).
        k: usize,
        /// The `S[dW]` duration (default 3).
        sync: SimTime,
        /// The link policy (default by layer).
        policy: CommPolicy,
    },
    /// The orders and schedules of an exported bundle.
    Bundle {
        /// The bundle file.
        path: String,
        /// Restricts the run to one entry.
        schedule: Option<String>,
        /// The link policy (default by layer).
        policy: CommPolicy,
    },
    /// One pipeline strategy's op-level schedule.
    Pipeline {
        /// Layer count, at least 1.
        layers: usize,
        /// Device count, at least 1.
        devices: usize,
        /// The strategy.
        strategy: Strategy,
        /// Modulo-allocation group size, at least 1 (default 1).
        group: usize,
    },
}

impl Shape {
    /// Reads the shape of `p`'s mode, checking `layers >= 1`,
    /// `k <= layers`, `devices >= 1` and `group >= 1`.
    pub fn read(p: &Parsed) -> Result<Shape, Fail> {
        let policy = p
            .parse("--policy", CommPolicy::from_name)?
            .unwrap_or(CommPolicy::PriorityByLayer);
        let at_least_1 = |flag: &str, n: usize| match n {
            0 => Err(Fail::Usage(format!("{flag} must be at least 1"))),
            _ => Ok(n),
        };
        match p.mode {
            "order" => {
                let layers = at_least_1("--layers", p.required_count("--layers")?)?;
                let k = p.count("--k")?.unwrap_or(0);
                if k > layers {
                    return Err(Fail::Usage(format!("--k is {k}, above --layers {layers}")));
                }
                Ok(Shape::Order {
                    layers,
                    k,
                    sync: p.count("--sync")?.unwrap_or(3),
                    policy,
                })
            }
            "bundle" => Ok(Shape::Bundle {
                path: p.required_positional()?.to_string(),
                schedule: p.text("--schedule").map(str::to_string),
                policy,
            }),
            "pipeline" => {
                let layers = p.required_count("--layers")?;
                let devices = p.required_count("--devices")?;
                let strategy = p.parse("--strategy", Strategy::from_name)?;
                let strategy = strategy.ok_or_else(|| p.missing("--strategy"))?;
                Ok(Shape::Pipeline {
                    layers: at_least_1("--layers", layers)?,
                    devices: at_least_1("--devices", devices)?,
                    strategy,
                    group: at_least_1("--group", p.count("--group")?.unwrap_or(1))?,
                })
            }
            _ => Err(p.usage()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: t order|bundle|pipeline ...";

    const SPEC: Spec = Spec {
        tool: "t",
        usage: USAGE,
        modes: &[
            mode(
                "order",
                &[ORDER, POLICY, OUT, &["--memory-cap"]],
                JSON,
                false,
            ),
            mode("bundle", &[BUNDLE, POLICY, OUT], JSON, true),
            mode("pipeline", &[PIPELINE, OUT], JSON, false),
        ],
    };

    fn parse(line: &str) -> Result<Parsed, Fail> {
        SPEC.parse(line.split_whitespace().map(str::to_string))
    }

    fn shape(line: &str) -> Result<Shape, Fail> {
        parse(line).and_then(|p| Shape::read(&p))
    }

    fn usage_msg(r: Result<impl std::fmt::Debug, Fail>) -> String {
        match r {
            Err(Fail::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn bare_and_help_print_the_usage() {
        assert_eq!(usage_msg(parse("")), USAGE);
        assert_eq!(usage_msg(parse("--help")), USAGE);
        assert_eq!(usage_msg(parse("-h")), USAGE);
        assert_eq!(usage_msg(parse("order --layers 4 --help")), USAGE);
    }

    #[test]
    fn unknown_mode_flag_and_argument_are_followed_by_the_usage() {
        assert_eq!(
            usage_msg(parse("nope")),
            format!("unknown mode: \"nope\"\n{USAGE}")
        );
        assert_eq!(
            usage_msg(parse("order --bogus")),
            format!("unknown flag: --bogus\n{USAGE}")
        );
        assert_eq!(
            usage_msg(parse("order --layers 4 extra")),
            format!("unexpected argument: extra\n{USAGE}")
        );
        assert_eq!(
            usage_msg(parse("bundle a.json b.json")),
            format!("unexpected argument: b.json\n{USAGE}")
        );
    }

    #[test]
    fn a_flag_of_another_mode_is_unknown() {
        assert_eq!(
            usage_msg(parse("order --layers 4 --schedule x")),
            format!("unknown flag: --schedule\n{USAGE}")
        );
        assert_eq!(
            usage_msg(parse("bundle a.json --layers 4")),
            format!("unknown flag: --layers\n{USAGE}")
        );
        assert_eq!(
            usage_msg(parse("pipeline --policy fifo")),
            format!("unknown flag: --policy\n{USAGE}")
        );
    }

    #[test]
    fn a_dangling_value_flag_needs_a_value() {
        assert_eq!(
            usage_msg(parse("order --layers 4 --out")),
            "--out needs a value"
        );
        // The value is taken verbatim, even when it looks like a flag.
        let p = parse("order --out --json").unwrap();
        assert_eq!(p.text("--out"), Some("--json"));
        assert!(!p.switch("--json"));
    }

    #[test]
    fn malformed_numbers_name_the_flag_and_the_value() {
        let p = parse("order --layers x --memory-cap -1").unwrap();
        assert_eq!(
            usage_msg(p.count::<usize>("--layers")),
            "--layers: not a count: \"x\""
        );
        assert_eq!(
            usage_msg(p.bytes("--memory-cap")),
            "--memory-cap: not a byte count: \"-1\""
        );
        let p = parse("order --layers 4294967296").unwrap();
        assert_eq!(
            usage_msg(p.count::<u32>("--layers")),
            "--layers: not a count: \"4294967296\""
        );
        assert_eq!(p.count::<u64>("--layers"), Ok(Some(1 << 32)));
    }

    #[test]
    fn repeated_flags_keep_the_last_value_but_read_every_one() {
        let p = parse("order --layers 2 --layers 5 --json --json").unwrap();
        assert_eq!(p.count::<usize>("--layers"), Ok(Some(5)));
        assert!(p.switch("--json"));
        let p = parse("order --layers x --layers 5").unwrap();
        assert_eq!(
            usage_msg(p.count::<usize>("--layers")),
            "--layers: not a count: \"x\""
        );
        let p = parse("bundle a.json --policy fifo --policy bylayer").unwrap();
        assert_eq!(
            p.parse("--policy", CommPolicy::from_name),
            Ok(Some(CommPolicy::PriorityByLayer))
        );
        assert_eq!(p.last_of(&["--policy", "--json"]), Some("--policy"));
    }

    #[test]
    fn shapes_read_their_defaults() {
        assert_eq!(
            shape("order --layers 4"),
            Ok(Shape::Order {
                layers: 4,
                k: 0,
                sync: 3,
                policy: CommPolicy::PriorityByLayer
            })
        );
        assert_eq!(
            shape("bundle a.json --schedule s --policy fifo"),
            Ok(Shape::Bundle {
                path: "a.json".to_string(),
                schedule: Some("s".to_string()),
                policy: CommPolicy::FifoCompletion
            })
        );
        assert_eq!(
            shape("pipeline --layers 4 --devices 2 --strategy gpipe"),
            Ok(Shape::Pipeline {
                layers: 4,
                devices: 2,
                strategy: Strategy::GPipe,
                group: 1
            })
        );
    }

    #[test]
    fn shapes_reject_missing_and_out_of_range_values() {
        assert_eq!(
            usage_msg(shape("order")),
            format!("order needs --layers\n{USAGE}")
        );
        assert_eq!(usage_msg(shape("bundle")), USAGE);
        assert_eq!(
            usage_msg(shape("pipeline --layers 4 --devices 2")),
            format!("pipeline needs --strategy\n{USAGE}")
        );
        assert_eq!(
            usage_msg(shape("order --layers 0")),
            "--layers must be at least 1"
        );
        assert_eq!(
            usage_msg(shape("order --layers 2 --k 3")),
            "--k is 3, above --layers 2"
        );
        for (line, msg) in [
            ("--layers 0 --devices 2", "--layers must be at least 1"),
            ("--layers 4 --devices 0", "--devices must be at least 1"),
            (
                "--layers 4 --devices 2 --group 0",
                "--group must be at least 1",
            ),
        ] {
            let line = format!("pipeline {line} --strategy gpipe");
            assert_eq!(usage_msg(shape(&line)), msg, "{line}");
        }
        assert_eq!(
            usage_msg(shape("bundle a.json --policy bogus")),
            "unknown policy: \"bogus\""
        );
        assert_eq!(
            usage_msg(shape("pipeline --layers 4 --devices 2 --strategy bogus")),
            "unknown strategy: \"bogus\""
        );
    }
}
