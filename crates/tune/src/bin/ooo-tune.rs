//! `ooo-tune` — predictor-guided schedule autotuning.
//!
//! Three modes:
//!
//! ```text
//! ooo-tune order --layers N [--k K] [--sync NS] [--policy fifo|bylayer]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ooo-tune bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ooo-tune pipeline --layers N --devices D --strategy NAME [--group G]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ```
//!
//! `order` tunes a reverse-first-k backward order of a data-parallel
//! graph with uniform per-layer costs (`--sync` sets the `S[dW]`
//! duration). `bundle` tunes every order and schedule of a
//! JSON-exported [`ScheduleBundle`]. `pipeline` tunes one strategy's
//! op-level schedule under unit cost. Every winner is certified:
//! predicted makespan == simulated makespan, tolerance 0.
//!
//! `--memory-cap BYTES` turns the objective into *min makespan subject
//! to ledger peak <= cap* ([`TuneOptions::memory_cap`]): candidates over
//! the cap are rejected, and the output reports the winner's exact
//! static ledger peak.
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when every input was tuned and certified (improved or already
//! optimal), `1` when an input schedule fails the `ooo-verify` safety
//! gate (the tuner refuses unsafe starting points), `2` on usage, I/O,
//! or parse problems.

use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::UniformProblem;
use ooo_core::SimTime;
use ooo_tune::request::{self, Outcome};
use ooo_tune::{Error, TuneOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-tune order --layers N [--k K] [--sync NS] \
                     [--policy fifo|bylayer] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]\n\
                     \x20      ooo-tune bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]\n\
                     \x20      ooo-tune pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]";

enum Mode {
    Order {
        layers: usize,
        k: usize,
        sync: SimTime,
        policy: CommPolicy,
    },
    Bundle {
        path: String,
        schedule: Option<String>,
        policy: CommPolicy,
    },
    Pipeline {
        layers: usize,
        devices: usize,
        strategy: Strategy,
        group: usize,
    },
}

struct Args {
    mode: Mode,
    /// The search knobs every mode shares: `--restarts`, `--window`
    /// ([`TuneOptions::window`]) and `--memory-cap`
    /// ([`TuneOptions::memory_cap`]).
    base: TuneOptions,
    json: bool,
    out: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mode_word = argv.next().ok_or_else(|| USAGE.to_string())?;
    let need_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_usize = |flag: &str, v: String| {
        v.parse::<usize>()
            .map_err(|_| format!("{flag}: not a count: {v:?}"))
    };
    let mut restarts = TuneOptions::default().restarts;
    let mut window = None;
    let mut memory_cap = None;
    let mut json = false;
    let mut out = None;

    let mode = match mode_word.as_str() {
        "order" => {
            let mut layers = None;
            let mut k = 0usize;
            let mut sync: SimTime = 3;
            let mut policy = CommPolicy::PriorityByLayer;
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--layers" => {
                        layers = Some(parse_usize("--layers", need_value(&mut argv, "--layers")?)?)
                    }
                    "--k" => k = parse_usize("--k", need_value(&mut argv, "--k")?)?,
                    "--sync" => {
                        sync = parse_usize("--sync", need_value(&mut argv, "--sync")?)? as SimTime
                    }
                    "--policy" => {
                        policy = CommPolicy::from_name(&need_value(&mut argv, "--policy")?)?
                    }
                    "--restarts" => {
                        restarts =
                            parse_usize("--restarts", need_value(&mut argv, "--restarts")?)? as u64
                    }
                    "--window" => {
                        window = Some(parse_usize("--window", need_value(&mut argv, "--window")?)?)
                    }
                    "--memory-cap" => {
                        let v = need_value(&mut argv, "--memory-cap")?;
                        memory_cap = Some(
                            v.parse::<u64>()
                                .map_err(|_| format!("--memory-cap: not a byte count: {v:?}"))?,
                        );
                    }
                    "--json" => json = true,
                    "--out" => out = Some(need_value(&mut argv, "--out")?),
                    "--help" | "-h" => return Err(USAGE.to_string()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            match layers {
                Some(layers) if layers > 0 && k <= layers => Mode::Order {
                    layers,
                    k,
                    sync,
                    policy,
                },
                _ => return Err(USAGE.to_string()),
            }
        }
        "bundle" => {
            let mut path = String::new();
            let mut schedule = None;
            let mut policy = CommPolicy::PriorityByLayer;
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--schedule" => schedule = Some(need_value(&mut argv, "--schedule")?),
                    "--policy" => {
                        policy = CommPolicy::from_name(&need_value(&mut argv, "--policy")?)?
                    }
                    "--restarts" => {
                        restarts =
                            parse_usize("--restarts", need_value(&mut argv, "--restarts")?)? as u64
                    }
                    "--window" => {
                        window = Some(parse_usize("--window", need_value(&mut argv, "--window")?)?)
                    }
                    "--memory-cap" => {
                        let v = need_value(&mut argv, "--memory-cap")?;
                        memory_cap = Some(
                            v.parse::<u64>()
                                .map_err(|_| format!("--memory-cap: not a byte count: {v:?}"))?,
                        );
                    }
                    "--json" => json = true,
                    "--out" => out = Some(need_value(&mut argv, "--out")?),
                    "--help" | "-h" => return Err(USAGE.to_string()),
                    other if other.starts_with('-') => {
                        return Err(format!("unknown flag: {other}"))
                    }
                    other if path.is_empty() => path = other.to_string(),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if path.is_empty() {
                return Err(USAGE.to_string());
            }
            Mode::Bundle {
                path,
                schedule,
                policy,
            }
        }
        "pipeline" => {
            let mut layers = None;
            let mut devices = None;
            let mut strategy = None;
            let mut group = 1usize;
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--layers" => {
                        layers = Some(parse_usize("--layers", need_value(&mut argv, "--layers")?)?)
                    }
                    "--devices" => {
                        devices = Some(parse_usize(
                            "--devices",
                            need_value(&mut argv, "--devices")?,
                        )?)
                    }
                    "--strategy" => {
                        strategy = Some(Strategy::from_name(&need_value(&mut argv, "--strategy")?)?)
                    }
                    "--group" => group = parse_usize("--group", need_value(&mut argv, "--group")?)?,
                    "--restarts" => {
                        restarts =
                            parse_usize("--restarts", need_value(&mut argv, "--restarts")?)? as u64
                    }
                    "--window" => {
                        window = Some(parse_usize("--window", need_value(&mut argv, "--window")?)?)
                    }
                    "--memory-cap" => {
                        let v = need_value(&mut argv, "--memory-cap")?;
                        memory_cap = Some(
                            v.parse::<u64>()
                                .map_err(|_| format!("--memory-cap: not a byte count: {v:?}"))?,
                        );
                    }
                    "--json" => json = true,
                    "--out" => out = Some(need_value(&mut argv, "--out")?),
                    "--help" | "-h" => return Err(USAGE.to_string()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            match (layers, devices, strategy) {
                (Some(layers), Some(devices), Some(strategy))
                    if layers > 0 && devices > 0 && group >= 1 =>
                {
                    Mode::Pipeline {
                        layers,
                        devices,
                        strategy,
                        group,
                    }
                }
                _ => return Err(USAGE.to_string()),
            }
        }
        "--help" | "-h" => return Err(USAGE.to_string()),
        other => return Err(format!("unknown mode: {other:?}\n{USAGE}")),
    };
    Ok(Args {
        mode,
        base: TuneOptions {
            restarts,
            window,
            memory_cap,
            ..TuneOptions::default()
        },
        json,
        out,
    })
}

/// One input's result, ready for rendering.
enum Item {
    Tuned(String, Outcome),
    /// The input failed the safety gate; carries the fired rule codes.
    Unsafe {
        name: String,
        codes: Vec<String>,
    },
}

fn item_to_json(item: &Item) -> Value {
    match item {
        Item::Tuned(name, o) => obj([
            ("name", name.as_str().into()),
            ("kind", o.kind.into()),
            ("baseline_makespan", o.baseline.into()),
            ("tuned_makespan", o.tuned.into()),
            ("certified_makespan", o.certified.into()),
            ("lower_bound", o.lower_bound.into()),
            ("proven_optimal", o.proven_optimal().into()),
            ("improved", o.improved().into()),
            ("peak", o.peak.into()),
            ("memory_cap", o.cap.into()),
            ("cap_met", o.cap_met().into()),
            ("k", o.k.into()),
            (
                "moves",
                Value::Arr(
                    o.moves
                        .iter()
                        .map(|m| Value::Str(format!("{}: {}", m.kind.as_str(), m.description)))
                        .collect(),
                ),
            ),
            ("restarts_adopted", o.restarts_adopted.into()),
        ]),
        Item::Unsafe { name, codes } => obj([
            ("name", name.as_str().into()),
            ("kind", "unsafe".into()),
            (
                "diagnostics",
                Value::Arr(codes.iter().map(|c| c.as_str().into()).collect()),
            ),
        ]),
    }
}

fn item_to_human(item: &Item) -> String {
    match item {
        Item::Tuned(name, o) => {
            let mut s = format!(
                "{name}: baseline {} -> tuned {} (certified {}, lower bound {}, {})\n",
                o.baseline,
                o.tuned,
                o.certified,
                o.lower_bound,
                if o.proven_optimal() {
                    "proven optimal"
                } else if o.improved() {
                    "improved"
                } else {
                    "already optimal under the move set"
                }
            );
            if let (Some(p), Some(c)) = (o.peak, o.cap) {
                s.push_str(&format!(
                    "  ledger peak {p} bytes vs cap {c} ({})\n",
                    if p <= c { "met" } else { "exceeded" }
                ));
            }
            for m in &o.moves {
                s.push_str(&format!(
                    "  {} {} -> {}\n",
                    m.kind.as_str(),
                    m.description,
                    m.predicted
                ));
            }
            s
        }
        Item::Unsafe { name, codes } => format!(
            "{name}: input fails the safety gate ({}), refusing to tune\n",
            codes.join(", ")
        ),
    }
}

/// Error split: gate refusals become exit-1 items named `label`,
/// everything else aborts with exit 2.
fn item(label: &str, r: Result<(String, Outcome), Error>) -> Result<Item, String> {
    match r {
        Ok((name, o)) => Ok(Item::Tuned(name, o)),
        Err(Error::Unsafe(report)) => Ok(Item::Unsafe {
            name: label.to_string(),
            codes: report.rule_codes().iter().map(|c| c.to_string()).collect(),
        }),
        Err(e) => Err(format!("{label}: {e}")),
    }
}

fn run(mode: &Mode, base: &TuneOptions) -> Result<Vec<Item>, String> {
    match mode {
        Mode::Order {
            layers,
            k,
            sync,
            policy,
        } => {
            let r = UniformProblem::new(*layers, *k, *sync)
                .map_err(Error::from)
                .and_then(|p| {
                    request::order(&p.graph, &p.order, Some(*k), &p.cost, *policy, base)
                        .map(|o| (p.name, o))
                });
            Ok(vec![item("order", r)?])
        }
        Mode::Bundle {
            path,
            schedule,
            policy,
        } => {
            let (bundle, graph) = ScheduleBundle::load(path)?;
            let entries = bundle.entries(schedule.as_deref())?;
            entries
                .map(|(name, entry)| {
                    let r = request::entry(&graph, &entry, *policy, base);
                    item(name, r.map(|o| (name.to_string(), o)))
                })
                .collect()
        }
        Mode::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => {
            let r = request::pipeline(*layers, *devices, *strategy, *group, base);
            Ok(vec![item(
                "pipeline",
                r.map(|o| (strategy.label().to_string(), o)),
            )?])
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let items = match run(&args.mode, &args.base) {
        Ok(items) => items,
        Err(msg) => {
            eprintln!("ooo-tune: {msg}");
            return ExitCode::from(2);
        }
    };

    let json_output = || {
        let docs: Vec<String> = items.iter().map(|i| item_to_json(i).to_pretty()).collect();
        if docs.len() == 1 {
            docs[0].clone()
        } else {
            format!("[\n{}\n]", docs.join(",\n"))
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, json_output() + "\n") {
            eprintln!("ooo-tune: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", json_output());
    } else {
        for i in &items {
            print!("{}", item_to_human(i));
        }
    }

    if items.iter().any(|i| matches!(i, Item::Unsafe { .. })) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
