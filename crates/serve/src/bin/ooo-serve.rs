//! `ooo-serve` — the fault-tolerant scheduling daemon.
//!
//! ```text
//! ooo-serve --daemon  [--workers N] [--queue N] [--cache N] [--retries N]
//!                     [--max-request-bytes N] [--max-layers N]
//!                     [--degrade-hot N] [--socket PATH]
//! ooo-serve --oneshot [same flags]
//! ```
//!
//! `--daemon` reads line-delimited JSON requests from stdin until EOF
//! and writes one response line per request to stdout, in request
//! order (see `ooo_serve::protocol` for the wire format). With
//! `--socket PATH` it listens on a Unix socket instead, serving
//! connections one at a time. `--oneshot` serves exactly one request
//! from stdin and exits `0` when the response status is `ok`, `1` on
//! any other status (error, unsafe, timeout, overloaded), `2` on usage
//! errors — the same contract as the one-shot CLIs. `--workers` above
//! 256 and `--queue` above 4096 are usage errors; `0` means `1` for
//! both.

use ooo_core::cli::{mode, Fail, Parsed, Spec};
use ooo_serve::{serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-serve --daemon  [--workers N] [--queue N] [--cache N] \
                     [--retries N] [--max-request-bytes N] [--max-layers N] \
                     [--degrade-hot N] [--socket PATH]\n\
                     \x20      ooo-serve --oneshot [same flags]";

/// Upper bounds on the pool and queue sizes: each worker is an OS
/// thread and the queue preallocates its slots.
const MAX_WORKERS: usize = 256;
const MAX_QUEUE: usize = 4096;

const SPEC: Spec = Spec {
    tool: "ooo-serve",
    usage: USAGE,
    modes: &[mode(
        "",
        &[&[
            "--workers",
            "--queue",
            "--cache",
            "--retries",
            "--max-request-bytes",
            "--max-layers",
            "--degrade-hot",
            "--socket",
        ]],
        &["--daemon", "--oneshot"],
        false,
    )],
};

/// The mode (`--oneshot` when true), the configuration and the socket.
fn config(p: &Parsed) -> Result<(bool, ServeConfig, Option<&str>), Fail> {
    let oneshot = match p.last_of(&["--daemon", "--oneshot"]) {
        Some(mode) => mode == "--oneshot",
        None => return Err(p.usage()),
    };
    let bounded = |flag: &str, max: usize, default: usize| -> Result<usize, Fail> {
        match p.count(flag)? {
            Some(n) if n > max => Err(Fail::Usage(format!("{flag} must be at most {max}"))),
            n => Ok(n.unwrap_or(default).max(1)),
        }
    };
    let base = ServeConfig::default();
    let mut config = ServeConfig {
        workers: bounded("--workers", MAX_WORKERS, base.workers)?,
        queue: bounded("--queue", MAX_QUEUE, base.queue)?,
        cache: p.count("--cache")?.unwrap_or(base.cache),
        retries: p.count("--retries")?.unwrap_or(base.retries),
        degrade_hot: p.count("--degrade-hot")?,
        ..base
    };
    if let Some(n) = p.count("--max-request-bytes")? {
        config.limits.max_request_bytes = n;
    }
    if let Some(n) = p.count("--max-layers")? {
        config.limits.max_layers = n;
    }
    let socket = p.text("--socket");
    if socket.is_some() && oneshot {
        return Err(Fail::Usage(format!(
            "--socket only applies to --daemon\n{USAGE}"
        )));
    }
    Ok((oneshot, config, socket))
}

/// Serves stdin to stdout until EOF; used by both modes (oneshot
/// simply truncates the input to its first line).
fn serve_stdio(config: &ServeConfig, oneshot: bool) -> std::io::Result<ExitCode> {
    let stdin = std::io::stdin();
    // `StdoutLock` is not `Send` (the writer runs on its own thread),
    // so buffer over the `Send` handle instead.
    let mut out = std::io::BufWriter::new(std::io::stdout());
    let summary = if oneshot {
        let mut line = String::new();
        stdin.lock().read_line(&mut line)?;
        serve(std::io::Cursor::new(line.into_bytes()), &mut out, config)?
    } else {
        serve(stdin.lock(), &mut out, config)?
    };
    out.flush()?;
    if oneshot {
        Ok(
            if summary.responses == summary.ok && summary.responses > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            },
        )
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

#[cfg(unix)]
fn serve_socket(config: &ServeConfig, path: &str) -> std::io::Result<ExitCode> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        // A connection-level I/O failure drops that client only.
        let _ = serve(reader, &mut writer, config);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(not(unix))]
fn serve_socket(_config: &ServeConfig, _path: &str) -> std::io::Result<ExitCode> {
    Err(std::io::Error::other("--socket requires a unix platform"))
}

fn main() -> ExitCode {
    SPEC.run(|p| {
        let (oneshot, config, socket) = config(&p)?;
        let served = match socket {
            Some(path) => serve_socket(&config, path),
            None => serve_stdio(&config, oneshot),
        };
        served.map_err(|e| Fail::Error(e.to_string()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(bool, ServeConfig), Fail> {
        let p = SPEC.parse(line.split_whitespace().map(str::to_string))?;
        config(&p).map(|(oneshot, c, _)| (oneshot, c))
    }

    fn usage_msg(line: &str) -> String {
        match parse(line) {
            Err(Fail::Usage(msg)) => msg,
            Err(other) => panic!("{line}: expected a usage error, got {other:?}"),
            Ok(_) => panic!("{line}: expected a usage error"),
        }
    }

    #[test]
    fn pool_and_queue_sizes_are_bounded() {
        let (_, c) = parse("--daemon --workers 256 --queue 4096").unwrap();
        assert_eq!((c.workers, c.queue), (MAX_WORKERS, MAX_QUEUE));
        assert_eq!(
            usage_msg("--daemon --workers 257"),
            "--workers must be at most 256"
        );
        assert_eq!(
            usage_msg("--daemon --queue 4097"),
            "--queue must be at most 4096"
        );
        // Zero still means one, as before.
        let (_, c) = parse("--daemon --workers 0 --queue 0").unwrap();
        assert_eq!((c.workers, c.queue), (1, 1));
    }

    #[test]
    fn retries_are_read_as_u32_without_truncation() {
        let (_, c) = parse("--oneshot --retries 4294967295").unwrap();
        assert_eq!(c.retries, u32::MAX);
        assert_eq!(
            usage_msg("--oneshot --retries 4294967296"),
            "--retries: not a count: \"4294967296\""
        );
    }

    #[test]
    fn the_last_mode_flag_wins_and_a_mode_is_required() {
        assert!(parse("--daemon --oneshot").unwrap().0);
        assert!(!parse("--oneshot --daemon").unwrap().0);
        assert_eq!(usage_msg("--workers 2"), USAGE);
        assert_eq!(
            usage_msg("--oneshot --socket s"),
            format!("--socket only applies to --daemon\n{USAGE}")
        );
    }
}
