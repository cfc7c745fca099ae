//! Server processes under test: this binary re-executed as `dptd`
//! (`perfbench dptd <args>` runs `dptd_cli::dispatch`, exactly what the
//! `dptd` binary's `main` does), plus the process facts the benchmark
//! reads from outside: peak RSS and the announced listen address.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `dptd serve` / `dptd cluster serve` process. Dropping it
/// kills the process and waits for it.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    /// Held open: `serve` runs until its stdin reaches EOF.
    stdin: Option<ChildStdin>,
    /// The address the process announced.
    pub addr: String,
}

impl Proc {
    /// Start `dptd <args>` and wait until it announces its listen
    /// address on stderr.
    pub fn start(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("dptd")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn dptd {}: {e}", args.join(" ")))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let (tx, rx) = std::sync::mpsc::channel();
        // Keep draining stderr for the process's lifetime so it can never
        // block on a full pipe; forward only the announce line.
        std::thread::spawn(move || {
            let mut announced = false;
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if !announced {
                    if let Some(at) = line.find("listening on ") {
                        let addr: String = line[at + 13..]
                            .chars()
                            .take_while(|c| !c.is_whitespace() && *c != ';')
                            .collect();
                        announced = true;
                        let _ = tx.send(Ok(addr));
                        continue;
                    }
                    let _ = tx.send(Err(line));
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut proc = Proc {
            child,
            stdin,
            addr: String::new(),
        };
        let mut seen = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(Ok(addr)) => {
                    proc.addr = addr;
                    return Ok(proc);
                }
                Ok(Err(line)) => seen.push(line),
                Err(_) => {
                    return Err(format!(
                        "dptd {} never announced an address: {}",
                        args.join(" "),
                        seen.join(" | ")
                    ))
                }
            }
        }
    }

    /// Peak resident set (VmHWM) in MB, read from `/proc`.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// SIGKILL the process and reap it.
    pub fn kill(mut self) {
        self.reap_now();
    }

    /// Orderly stop: close stdin (the serve loop exits, flushing every
    /// campaign) and wait.
    pub fn stop(mut self) {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap_now();
    }

    fn reap_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.reap_now();
        }
    }
}

/// VmHWM in MB from a `/proc/<pid>/status` file (0 when unreadable).
pub fn peak_rss_mb_of(status_path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(status_path) else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This process's own peak RSS in MB.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb_of("/proc/self/status")
}

/// Total bytes of regular files under `dir` (0 when absent).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
