//! Drives a real `ooo-serve --daemon` process over its stdin/stdout
//! pipes: spawn, set-up timing, the closed and open loops, and the
//! daemon's CPU time and peak memory from `/proc`.

use crate::check::id_of;
use crate::workload::line;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel fixes at 100 per second for user space.
const TICKS_PER_SECOND: f64 = 100.0;

pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Every line written, in order; line `i` carries id `i`.
    pub sent: Vec<String>,
}

/// One response line and when it arrived.
pub struct Received {
    pub line: String,
    pub at: Instant,
}

impl Daemon {
    pub fn spawn(bin: &str, workers: usize, cache: usize) -> std::io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args([
                "--daemon",
                "--workers",
                &workers.to_string(),
                "--cache",
                &cache.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
            sent: Vec::new(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes `body` under the next id and returns that id.
    pub fn send(&mut self, body: &str) -> std::io::Result<u64> {
        let id = self.sent.len() as u64;
        let mut l = line(id, body);
        self.sent.push(l.clone());
        l.push('\n');
        self.stdin
            .as_mut()
            .expect("stdin stays open until close()")
            .write_all(l.as_bytes())?;
        Ok(id)
    }

    pub fn recv(&mut self) -> std::io::Result<Received> {
        let mut l = String::new();
        if self.stdout.read_line(&mut l)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the daemon closed its output",
            ));
        }
        let at = Instant::now();
        l.truncate(l.trim_end().len());
        Ok(Received { line: l, at })
    }

    /// Closes stdin (the daemon drains and exits) and waits for it.
    pub fn close(mut self) -> std::io::Result<std::process::ExitStatus> {
        drop(self.stdin.take());
        self.child.wait()
    }

    /// The daemon's user + system CPU time so far, all threads included.
    pub fn cpu(&self) -> std::io::Result<Duration> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name: state is the
        // first, utime the 12th, stime the 13th.
        let rest = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        Ok(Duration::from_secs_f64(
            (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND,
        ))
    }

    /// The daemon's peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss(&self) -> std::io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/<pid>/status"))?;
        Ok(kb * 1024)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on error paths: make sure no daemon outlives us.
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub const STATS: &str = r#"{"cmd":"stats"}"#;

/// Spawns a daemon and times it from spawn to its answer to a first
/// `stats` request.
pub fn spawn_timed(
    bin: &str,
    workers: usize,
    cache: usize,
) -> std::io::Result<(Daemon, Duration, Received)> {
    let start = Instant::now();
    let mut d = Daemon::spawn(bin, workers, cache)?;
    d.send(STATS)?;
    let first = d.recv()?;
    Ok((d, first.at - start, first))
}

/// One measured request: when it was due (closed loop: sent) and when
/// its answer arrived.
pub struct Timed {
    pub id: u64,
    pub due: Instant,
    pub done: Instant,
}

/// What a measured phase produced.
pub struct Phase {
    pub timed: Vec<Timed>,
    /// Every response line of the phase, in arrival order.
    pub responses: Vec<String>,
    pub start: Instant,
    pub end: Instant,
    /// Open loop only: how late each line was written after its due time.
    pub late: Vec<Duration>,
}

/// Closed loop: keeps `outstanding` requests in flight, sending the next
/// body whenever one is answered, until `limit` has passed (or, without
/// one, every body is sent); then drains. Bodies are sent in order.
pub fn closed_loop(
    d: &mut Daemon,
    bodies: &[String],
    outstanding: usize,
    limit: Option<Duration>,
) -> std::io::Result<Phase> {
    let start = Instant::now();
    let stop = limit.map(|l| start + l);
    let mut sent_at = std::collections::HashMap::new();
    let mut next = bodies.iter();
    let mut in_flight = 0;
    for body in next.by_ref().take(outstanding) {
        let at = Instant::now();
        sent_at.insert(d.send(body)?, at);
        in_flight += 1;
    }
    let mut timed = Vec::new();
    let mut responses = Vec::new();
    while in_flight > 0 {
        let r = d.recv()?;
        in_flight -= 1;
        if let Some(due) = id_of(&r.line).and_then(|id| sent_at.get(&id).map(|&t| (id, t))) {
            timed.push(Timed {
                id: due.0,
                due: due.1,
                done: r.at,
            });
        }
        let end = r.at;
        responses.push(r.line);
        if stop.is_none_or(|stop| end < stop) {
            if let Some(body) = next.next() {
                let at = Instant::now();
                sent_at.insert(d.send(body)?, at);
                in_flight += 1;
            }
        }
    }
    let end = timed.iter().map(|t| t.done).max().unwrap_or(start);
    Ok(Phase {
        timed,
        responses,
        start,
        end,
        late: Vec::new(),
    })
}

/// Open loop: writes each body at its due offset from the start, on
/// this thread, while a second thread collects the answers.
pub fn open_loop(d: &mut Daemon, schedule: &[(u64, String)]) -> std::io::Result<Phase> {
    let first_id = d.sent.len() as u64;
    let expected = schedule.len();
    let Daemon {
        stdin,
        stdout,
        sent,
        ..
    } = d;
    let stdin = stdin.as_mut().expect("stdin stays open until close()");
    let start = Instant::now();
    let mut late = Vec::with_capacity(expected);
    let (responses, write_result) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut got = Vec::with_capacity(expected);
            let mut l = String::new();
            while got.len() < expected {
                l.clear();
                match stdout.read_line(&mut l) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => got.push(Received {
                        line: l.trim_end().to_string(),
                        at: Instant::now(),
                    }),
                }
            }
            got
        });
        let mut write_result = Ok(());
        for (due, body) in schedule {
            let at = start + Duration::from_nanos(*due);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let l = line(sent.len() as u64, body);
            sent.push(l.clone());
            let r = stdin.write_all(format!("{l}\n").as_bytes());
            late.push(Instant::now().saturating_duration_since(at));
            if let Err(e) = r {
                write_result = Err(e);
                break;
            }
        }
        (
            reader.join().expect("the reader thread panicked"),
            write_result,
        )
    });
    write_result?;
    let timed: Vec<Timed> = responses
        .iter()
        .filter_map(|r| {
            let id = id_of(&r.line)?;
            let (due, _) = schedule.get(id.checked_sub(first_id)? as usize)?;
            Some(Timed {
                id,
                due: start + Duration::from_nanos(*due),
                done: r.at,
            })
        })
        .collect();
    let end = timed.iter().map(|t| t.done).max().unwrap_or(start);
    Ok(Phase {
        timed,
        responses: responses.into_iter().map(|r| r.line).collect(),
        start,
        end,
        late,
    })
}
