//! `perfbench`: the repository benchmark. Drives the real
//! `ooo-serve --daemon` binary with one seeded workload, checks every
//! response, and prints the end-to-end metrics (`--trace 0`) or, after
//! an in-process traced replay of the same requests, the per-layer
//! metrics (`--trace 1`). The last stdout line is one JSON object.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH [--trace-dir DIR]
//! ```
//!
//! See `perfbench/README.md` for the metrics and workloads.

mod check;
mod drive;
mod replay;
mod stats;
mod trace;
mod workload;

use drive::Phase;
use ooo_core::json::Value;
use std::collections::BTreeMap;
use std::time::Duration;
use workload::{Loop, Workload};

/// Daemons spawned per run to time set-up; `setup_s` is their median.
const SETUP_SPAWNS: usize = 41;
/// The daemon's cache capacity, passed explicitly so the replay's
/// cache matches it.
const CACHE: usize = 256;
/// Requests generated for a closed-loop run: more than any run sends.
const CLOSED_LOOP_SUPPLY: usize = 2000;
/// Requests whose spans are written to the Chrome trace (from the
/// first measured one); per-layer metrics use every span.
const TRACE_EXPORT_REQUESTS: u64 = 4000;
/// Candidate tail percentiles, for the "highest supported" note.
const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: String,
    trace_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload cold_tune|warm_mixed|capped_cert --seed N \
                 --seconds S --trace 0|1 --serve-bin PATH [--trace-dir DIR]";
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--serve-bin",
            "--trace-dir",
        ]
        .contains(&flag.as_str())
        {
            return Err(format!("unknown argument {flag:?}\n{usage}"));
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .ok_or_else(|| format!("missing {k}\n{usage}"))
    };
    let name = get("--workload")?;
    let workload =
        workload::workload(&name).ok_or_else(|| format!("unknown workload {name:?}\n{usage}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} needs a whole number\n{usage}"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err(format!("--trace takes 0 or 1\n{usage}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
        serve_bin: get("--serve-bin")?,
        trace_dir: kv
            .get("--trace-dir")
            .cloned()
            .unwrap_or_else(|| ".bench_build/perfbench-traces".into()),
    })
}

/// One metric line of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything the untraced daemon run measured.
struct Run {
    setup: Vec<f64>,
    phase: Phase,
    cpu: Duration,
    peak_rss: u64,
    /// The stream the daemon received (line `i` has id `i`) and every
    /// response line it wrote.
    sent: Vec<String>,
    responses: Vec<String>,
    /// The final `stats` answer's `overloaded` count.
    overloaded: f64,
}

fn run_daemon(a: &Args, workers: usize) -> std::io::Result<Run> {
    let w = a.workload;
    // Generate first, so the daemon never waits on the generator.
    let closed = match w.name {
        "cold_tune" => workload::cold_tune(a.seed, CLOSED_LOOP_SUPPLY),
        "capped_cert" => workload::capped_cert(a.seed, CLOSED_LOOP_SUPPLY),
        _ => Vec::new(),
    };
    let open = match w.offer {
        Loop::Open { rate } => Some(workload::warm_mixed(a.seed, rate, a.seconds)),
        Loop::Closed => None,
    };
    let mut setup = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 1..SETUP_SPAWNS {
        let (d, took, _) = drive::spawn_timed(&a.serve_bin, workers, CACHE)?;
        setup.push(took.as_secs_f64());
        d.close()?;
    }
    let (mut d, took, first) = drive::spawn_timed(&a.serve_bin, workers, CACHE)?;
    setup.push(took.as_secs_f64());
    let mut responses = vec![first.line];
    let (phase, cpu_before) = match &open {
        None => {
            let cpu = d.cpu()?;
            (
                drive::closed_loop(
                    &mut d,
                    &closed,
                    workers,
                    Some(Duration::from_secs_f64(a.seconds)),
                )?,
                cpu,
            )
        }
        Some(mix) => {
            let warm = drive::closed_loop(&mut d, &mix.pool, workers, None)?;
            responses.extend(warm.responses);
            let cpu = d.cpu()?;
            (drive::open_loop(&mut d, &mix.schedule)?, cpu)
        }
    };
    if open.is_none() && phase.timed.len() >= closed.len() {
        return Err(std::io::Error::other(
            "the closed loop ran out of requests before --seconds passed",
        ));
    }
    let cpu = d.cpu()? - cpu_before;
    let peak_rss = d.peak_rss()?;
    responses.extend(phase.responses.iter().cloned());
    d.send(drive::STATS)?;
    let last = d.recv()?;
    let overloaded = Value::parse(&last.line)
        .ok()
        .and_then(|v| {
            v.get("stats")
                .and_then(|s| s.get("overloaded"))
                .and_then(Value::as_f64)
        })
        .unwrap_or(f64::NAN);
    responses.push(last.line);
    let sent = std::mem::take(&mut d.sent);
    let status = d.close()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "the daemon exited with {status}"
        )));
    }
    Ok(Run {
        setup,
        phase,
        cpu,
        peak_rss,
        sent,
        responses,
        overloaded,
    })
}

fn end_to_end(a: &Args, run: &Run, latencies: &[f64]) -> Vec<Metric> {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let answered = run.phase.timed.len() as f64;
    let wall = (run.phase.end - run.phase.start).as_secs_f64();
    let pct = a.workload.tail_pct;
    let beyond = stats::samples_beyond(n, pct);
    println!(
        "latency_tail_ms is p{pct} of {n} samples ({beyond} beyond it); highest percentile with >= 10 beyond: {}",
        stats::highest_supported_percentile(n, &PERCENTILES, 10).map_or("none".into(), |p| format!("p{p}"))
    );
    vec![
        m(
            "setup_s",
            stats::median(&run.setup).unwrap_or(f64::NAN),
            "s",
        ),
        m(
            "latency_p50_ms",
            stats::quantile(&sorted, 0.5).unwrap_or(f64::NAN),
            "ms",
        ),
        m(
            "latency_tail_ms",
            stats::quantile(&sorted, pct / 100.0).unwrap_or(f64::NAN),
            "ms",
        ),
        m("throughput_rps", answered / wall, "req/s"),
        m("cpu_ms_per_req", ms(run.cpu) / answered, "ms"),
        m("peak_rss_mb", run.peak_rss as f64 / (1 << 20) as f64, "MB"),
    ]
}

/// The per-layer metrics from the traced replay, plus the ids whose
/// replayed payloads differ from the daemon's.
fn per_layer(
    a: &Args,
    run: &Run,
    latencies: &[(u64, f64)],
    report: &check::CheckReport,
    workers: usize,
) -> Result<(Vec<Metric>, Vec<u64>), String> {
    let untraced = replay::replay(&run.sent, workers, CACHE, false);
    let traced = replay::replay(&run.sent, workers, CACHE, true);
    let mut mismatches = Vec::new();
    for (id, (t, u)) in (0..).zip(traced.bodies.iter().zip(&untraced.bodies)) {
        let daemon = report.bodies.get(&id);
        if daemon != Some(t) || daemon != Some(u) {
            if mismatches.len() < 3 {
                eprintln!("replay mismatch at id {id}:\n  daemon {daemon:.200?}\n  traced {t:.200}\n  real handler {u:.200}");
            }
            mismatches.push(id);
        }
    }
    // Layer totals cover the measured phase: not set-up, warm-up or the
    // closing `stats` request.
    let ids = || latencies.iter().map(|&(id, _)| id);
    let measured = ids().min().unwrap_or(0)..=ids().max().unwrap_or(0);
    let n_req = (measured.end() - measured.start() + 1) as f64;
    let exported =
        *measured.start()..=(measured.start() + TRACE_EXPORT_REQUESTS - 1).min(*measured.end());
    let tl = trace::timeline(
        &format!("perfbench {} seed {}", a.workload.name, a.seed),
        &traced.tracers,
        exported.clone(),
    );
    tl.validate()
        .map_err(|e| format!("trace failed validation: {e}"))?;
    std::fs::create_dir_all(&a.trace_dir).map_err(|e| e.to_string())?;
    let path = format!("{}/{}-seed{}.json", a.trace_dir, a.workload.name, a.seed);
    std::fs::write(&path, tl.to_chrome_value().to_compact()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "trace: {path} ({} spans of requests {}..={})",
        tl.lanes.iter().map(|l| l.spans.len()).sum::<usize>(),
        exported.start(),
        exported.end()
    );

    let layers = trace::aggregate(&traced.tracers, measured);
    let empty = trace::LayerAgg::default();
    let l = |name: &str| layers.get(name).unwrap_or(&empty);
    let self_ms = |name: &str| l(name).self_ns as f64 / 1e6 / n_req;
    let total_self: f64 = layers.keys().map(|k| self_ms(k)).sum();
    let share = |names: &[&str]| names.iter().map(|n| self_ms(n)).sum::<f64>() / total_self;
    let serving: Vec<&str> = layers
        .keys()
        .copied()
        .filter(|k| k.starts_with("serve."))
        .collect();
    println!("self-time shares of {total_self:.4} ms/req handled:");
    for name in layers.keys() {
        println!(
            "  {name:<24} {:>8.4} ms/req  {:>6.1}%",
            self_ms(name),
            100.0 * self_ms(name) / total_self
        );
    }
    println!(
        "  split: tune.order+tune.pipeline {:.3} | serve.*+core.graph+verify.predict+tune.certify {:.3} | tune.capped+cert {:.3}",
        share(&["tune.order", "tune.pipeline"]),
        share(&[serving.as_slice(), &["core.graph", "verify.predict", "tune.certify"]].concat()),
        share(&["tune.capped", "cert"]),
    );

    let handling = trace::handling_ns(&traced.tracers);
    let overhead: Vec<f64> = latencies
        .iter()
        .filter_map(|(id, lat)| Some(lat - *handling.get(id)? as f64 / 1e6))
        .collect();
    let hits = l("serve.cache").arg("hit");
    let misses = l("serve.cache").arg("miss");
    let ratio = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
    let (order, pipe, capped, cert) = (
        l("tune.order"),
        l("tune.pipeline"),
        l("tune.capped"),
        l("cert"),
    );
    let metrics = vec![
        m(
            "serve.protocol.calls",
            l("serve.protocol").calls as f64,
            "count",
        ),
        m(
            "serve.protocol.self_ms",
            self_ms("serve.protocol"),
            "ms/req",
        ),
        m(
            "serve.protocol.bytes_in",
            l("serve.protocol").mean("bytes_in"),
            "B/call",
        ),
        m("serve.cache.hits", hits, "count"),
        m("serve.cache.misses", misses, "count"),
        m("serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        m("serve.cache.self_ms", self_ms("serve.cache"), "ms/req"),
        m(
            "serve.daemon.overhead_ms",
            stats::median(&overhead).unwrap_or(0.0),
            "ms",
        ),
        m("serve.daemon.overloaded", run.overloaded, "count"),
        m(
            "serve.handlers.render_ms",
            self_ms("serve.handlers.render"),
            "ms/req",
        ),
        m("core.graph.self_ms", self_ms("core.graph"), "ms/req"),
        m(
            "core.reverse_k.self_ms",
            self_ms("core.reverse_k"),
            "ms/req",
        ),
        m("core.bounds.self_ms", self_ms("core.bounds"), "ms/req"),
        m(
            "verify.predict.realize_ms",
            self_ms("verify.predict"),
            "ms/req",
        ),
        m("tune.order.calls", order.calls as f64, "count"),
        m("tune.order.self_ms", self_ms("tune.order"), "ms/req"),
        m("tune.order.moves", order.mean("moves"), "count/call"),
        m(
            "tune.order.restarts_adopted",
            order.mean("restarts_adopted"),
            "count/call",
        ),
        m("tune.order.improved_ratio", order.mean("improved"), "ratio"),
        m(
            "tune.order.proven_optimal_ratio",
            order.mean("proven_optimal"),
            "ratio",
        ),
        m("tune.pipeline.calls", pipe.calls as f64, "count"),
        m("tune.pipeline.self_ms", self_ms("tune.pipeline"), "ms/req"),
        m("tune.pipeline.moves", pipe.mean("moves"), "count/call"),
        m("tune.schedule.self_ms", self_ms("tune.schedule"), "ms/req"),
        m("tune.capped.calls", capped.calls as f64, "count"),
        m("tune.capped.self_ms", self_ms("tune.capped"), "ms/req"),
        m("tune.capped.cap_met_ratio", capped.mean("cap_met"), "ratio"),
        m("tune.certify.self_ms", self_ms("tune.certify"), "ms/req"),
        m("cert.calls", cert.calls as f64, "count"),
        m("cert.self_ms", self_ms("cert"), "ms/req"),
        m("cert.nodes", cert.mean("nodes"), "count/call"),
        m("cert.delta_speedup", cert.mean("delta_speedup"), "ratio"),
        m("cert.optimal_ratio", cert.mean("optimal"), "ratio"),
        m(
            "trace.overhead_ratio",
            traced.wall.as_secs_f64() / untraced.wall.as_secs_f64(),
            "ratio",
        ),
    ];
    Ok((metrics, mismatches))
}

fn main() -> std::process::ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} workers={workers} nproc={nproc}",
        a.workload.name, a.seed, a.seconds, a.trace as u8
    );
    let run = match run_daemon(&a, workers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: driving the daemon failed: {e}");
            return std::process::ExitCode::from(1);
        }
    };
    let bodies: Vec<(u64, String)> = (0..)
        .zip(&run.sent)
        .map(|(i, l)| {
            (
                i,
                check::strip_id(l).expect("request lines lead with the id"),
            )
        })
        .collect();
    let sent_bodies: Vec<(u64, &str)> = bodies.iter().map(|(i, b)| (*i, b.as_str())).collect();
    let report = check::check(&sent_bodies, &run.responses, workload::baseline_fits);
    for r in &report.reasons {
        eprintln!("check: {r}");
    }
    let attempted = run.sent.len();
    let (digest, covered) = report.digest(a.workload.digest_prefix);
    println!("digest: {digest:016x} over the first {covered} id-stripped responses");

    let latencies: Vec<(u64, f64)> = run
        .phase
        .timed
        .iter()
        .map(|t| (t.id, ms(t.done - t.due)))
        .collect();
    let lat_ms: Vec<f64> = latencies.iter().map(|&(_, l)| l).collect();
    if !run.phase.late.is_empty() {
        // The open loop's validity: how late lines went out after their
        // due times (already inside every latency).
        let late: Vec<f64> = run.phase.late.iter().map(|d| ms(*d)).collect();
        println!(
            "bench.gen_late_ms p50 {:.4} max {:.4}",
            stats::median(&late).unwrap_or(0.0),
            late.iter().copied().fold(0.0, f64::max)
        );
    }
    let e2e = end_to_end(&a, &run, &lat_ms);
    for x in &e2e {
        println!("  {:<18} {:>14.6} {}", x.name, x.value, x.unit);
    }
    let (metrics, mismatches) = if a.trace {
        match per_layer(&a, &run, &latencies, &report, workers) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return std::process::ExitCode::from(1);
            }
        }
    } else {
        (e2e, Vec::new())
    };
    if a.trace {
        println!(
            "replay: {} of {attempted} payloads differ from the daemon's",
            mismatches.len()
        );
        for x in &metrics {
            println!("  {:<32} {:>14.6} {}", x.name, x.value, x.unit);
        }
    }
    let mut failed = report.failed.clone();
    failed.extend(mismatches);
    println!(
        "  {:<18} {:>14.6} ratio ({} of {attempted} requests)",
        "failed_share",
        failed.len() as f64 / attempted as f64,
        failed.len()
    );
    if let Some(x) = metrics.iter().find(|x| !x.value.is_finite()) {
        eprintln!(
            "perfbench: {} is not a number; the run measured nothing",
            x.name
        );
        return std::process::ExitCode::from(1);
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.is_empty(),
        failed.len(),
        metrics_json.join(", ")
    );
    std::process::ExitCode::SUCCESS
}
