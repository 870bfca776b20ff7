//! `ooo-trace` — export and summarize simulator timelines.
//!
//! Runs one simulator configuration, collects its unified timeline
//! (see `ooo_core::trace`), and either exports it as Chrome trace-event
//! JSON — loadable in Perfetto or `chrome://tracing` — or prints the
//! headline metrics: per-lane busy/stall time and utilization plus the
//! time-weighted counter means (e.g. SM occupancy).
//!
//! ```text
//! ooo-trace export --system SYS [options] [--out FILE]
//! ooo-trace summarize (<trace.json> | --system SYS [options])
//!
//! systems and their options:
//!   single    --engine tf|xla|nimble|ooo-xla-opt1|ooo-xla   --batch N
//!   datapar   --comm horovod|byteps|ooo-byteps  --gpus N    --batch N
//!   pipeline  --strategy gpipe|pipedream|dapple|ooo-pipe1|ooo-pipe2
//!             --devices N  --micro N                        --batch N
//!   hybrid    --devices N  --replicas N  --k N  --micro N   --batch N
//!
//! models: resnet50 (default), resnet101, densenet121, mobilenet,
//!         bert24, ffnn16
//! ```
//!
//! Exit status: `0` on success, `1` when the simulation or the trace
//! parse fails, `2` on usage or I/O problems. Never panics.

use ooo_cluster::pipeline::run as run_pipeline;
use ooo_cluster::{datapar, hybrid, single};
use ooo_core::cli::{mode, Fail, Parsed, Spec, OUT};
use ooo_core::pipeline::Strategy;
use ooo_core::trace::Timeline;
use ooo_models::zoo;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-trace <export|summarize> \
                     [<trace.json>] [--system single|datapar|pipeline|hybrid] \
                     [--model NAME] [--engine NAME] [--comm NAME] [--strategy NAME] \
                     [--batch N] [--micro N] [--gpus N] [--devices N] [--replicas N] \
                     [--k N] [--out FILE]";

const SIM: &[&str] = &[
    "--system",
    "--model",
    "--engine",
    "--comm",
    "--strategy",
    "--batch",
    "--micro",
    "--gpus",
    "--devices",
    "--replicas",
    "--k",
];

const SPEC: Spec = Spec {
    tool: "ooo-trace",
    usage: USAGE,
    modes: &[
        mode("export", &[SIM, OUT], &[], true),
        mode("summarize", &[SIM, OUT], &[], true),
    ],
};

/// One trace source: a trace file or a simulator configuration.
struct Args<'a> {
    input: Option<&'a str>,
    system: Option<&'a str>,
    model: &'a str,
    engine: &'a str,
    comm: &'a str,
    strategy: &'a str,
    batch: usize,
    micro: usize,
    gpus: usize,
    devices: usize,
    replicas: usize,
    k: usize,
}

impl<'a> Args<'a> {
    fn read(p: &'a Parsed) -> Result<Args<'a>, Fail> {
        Ok(Args {
            input: p.positional(),
            system: p.text("--system"),
            model: p.text("--model").unwrap_or("resnet50"),
            engine: p.text("--engine").unwrap_or("ooo-xla"),
            comm: p.text("--comm").unwrap_or("ooo-byteps"),
            strategy: p.text("--strategy").unwrap_or("ooo-pipe2"),
            batch: p.count("--batch")?.unwrap_or(64),
            micro: p.count("--micro")?.unwrap_or(4),
            gpus: p.count("--gpus")?.unwrap_or(16),
            devices: p.count("--devices")?.unwrap_or(4),
            replicas: p.count("--replicas")?.unwrap_or(4),
            k: p.count("--k")?.unwrap_or(2),
        })
    }
}

fn model_by_name(name: &str) -> Result<ModelSpec, String> {
    Ok(match name {
        "resnet50" => zoo::resnet(50),
        "resnet101" => zoo::resnet(101),
        "densenet121" => zoo::densenet121(12, 32),
        "mobilenet" => zoo::mobilenet_v3_large(1.0),
        "bert24" => zoo::bert(24, 128),
        "ffnn16" => zoo::ffnn16(4096),
        other => return Err(format!("unknown model: {other}")),
    })
}

/// Runs the selected simulator and returns its timeline.
fn build_timeline(args: &Args) -> Result<Timeline, String> {
    let model = model_by_name(args.model)?;
    let gpu = GpuProfile::v100();
    match args.system.unwrap_or_default() {
        "single" => {
            let engine = match args.engine {
                "tf" => single::Engine::TensorFlow,
                "xla" => single::Engine::Xla,
                "nimble" => single::Engine::Nimble,
                "ooo-xla-opt1" => single::Engine::OooXlaOpt1,
                "ooo-xla" => single::Engine::OooXla,
                other => return Err(format!("unknown engine: {other}")),
            };
            single::run(&model, args.batch, &gpu, engine)
                .map(|r| {
                    r.trace
                        .to_timeline(&format!("single/{}/{}", engine.name(), model.name))
                })
                .map_err(|e| format!("single-GPU simulation failed: {e}"))
        }
        "datapar" => {
            let comm = match args.comm {
                "horovod" => datapar::CommSystem::Horovod,
                "byteps" => datapar::CommSystem::BytePS,
                "ooo-byteps" => datapar::CommSystem::OooBytePS,
                other => return Err(format!("unknown comm system: {other}")),
            };
            datapar::run(
                &model,
                args.batch,
                &gpu,
                &ClusterTopology::pub_a(),
                args.gpus,
                comm,
            )
            .map(|r| {
                r.trace
                    .to_timeline(&format!("datapar/{}/{}gpus", comm.name(), args.gpus))
            })
            .map_err(|e| format!("data-parallel simulation failed: {e}"))
        }
        "pipeline" => {
            let strategy = match args.strategy {
                "gpipe" => Strategy::GPipe,
                "pipedream" => Strategy::PipeDream,
                "dapple" => Strategy::Dapple,
                "ooo-pipe1" => Strategy::OooPipe1,
                "ooo-pipe2" => Strategy::OooPipe2,
                other => return Err(format!("unknown strategy: {other}")),
            };
            run_pipeline(
                &model,
                args.batch,
                args.micro,
                &gpu,
                &LinkSpec::nvlink(),
                args.devices,
                strategy,
                1,
                2,
            )
            .map(|r| {
                r.result
                    .to_timeline(&format!("pipeline/{}/{}dev", args.strategy, args.devices))
            })
            .map_err(|e| format!("pipeline simulation failed: {e}"))
        }
        "hybrid" => hybrid::run_combined(
            &model,
            args.batch,
            args.micro,
            &gpu,
            &LinkSpec::nvlink(),
            &LinkSpec::ethernet_10g(),
            args.devices,
            args.replicas,
            args.k,
            2,
        )
        .map(|r| r.to_timeline(&format!("hybrid/{}pipe x{}", args.devices, args.replicas)))
        .map_err(|e| format!("hybrid simulation failed: {e}")),
        other => Err(format!(
            "unknown system: {other:?} (want single|datapar|pipeline|hybrid)"
        )),
    }
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        let args = Args::read(&p)?;
        let usage = |msg: String| Err(Fail::Usage(msg));
        let timeline = match (p.mode, args.input, args.system) {
            ("export", Some(path), _) => {
                return usage(format!("export takes no input file, got {path:?}"))
            }
            ("export", None, None) => return usage("export needs --system".into()),
            (_, None, None) => return usage("summarize needs a trace file or --system".into()),
            (_, Some(path), Some(_)) => {
                return usage(format!(
                    "summarize takes a trace file or --system, not both (got {path:?})"
                ))
            }
            (_, Some(path), None) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                Timeline::from_chrome_json(&text)
                    .map_err(|e| Fail::Finding(format!("cannot parse {path}: {e}")))?
            }
            (_, None, Some(_)) => build_timeline(&args).map_err(Fail::Finding)?,
        };
        match p.mode {
            "export" => p.emit(&(timeline.to_chrome_json() + "\n"))?,
            _ => p.emit(&timeline.summarize().render())?,
        }
        Ok(ExitCode::SUCCESS)
    })
}
