//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine_1m|served_durable|cluster_2node|all \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Every run generates its inputs from `--seed` with `LoadGen` before
//! timing starts, measures for `--seconds`, checks the program's
//! outputs against a reference recomputed for that seed, and prints one
//! JSON result as its last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics, timed around the
//! calls this benchmark makes into each layer's public functions, and
//! writes its spans as chrome://tracing JSON under `.perfbench/traces/`.
//!
//! `perfbench dptd <args>` behaves exactly like the `dptd` binary (it
//! calls the same `dptd_cli::dispatch`); the served and cluster
//! workloads start their server processes that way.

mod campaign;
mod cluster_wl;
mod engine_wl;
mod host;
mod probes;
mod procs;
mod report;
mod served_wl;
mod spans;
mod stats;
mod timed_fs;

use std::path::{Path, PathBuf};

use report::Report;

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Scratch directory of this run (WAL roots and the like).
    pub work: PathBuf,
}

/// Set-ups per run; `setup_s` is their median. The served workload
/// times one segment of the window after each set-up, so a run samples
/// that many fresh server processes: on a 2-core VM a process start
/// sometimes lands in a slower scheduling mode for its whole life, and a
/// median over five keeps one such start from setting the run's figures.
/// The cluster workload times fewer, longer segments (see
/// `cluster_wl::SEGMENTS`).
pub const SETUP_REPS: usize = 5;

impl Ctx {
    /// A fresh sub-directory of the run's scratch directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

const WORKLOADS: &[&str] = &["engine_1m", "served_durable", "cluster_2node"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("dptd") {
        // Same body as the `dptd` binary's main.
        match dptd_cli::dispatch(&argv[1..]) {
            Ok(output) => println!("{output}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    match run(&argv) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn flag<'a>(argv: &'a [String], name: &str) -> Result<&'a str, String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}\n{}", usage()))
}

/// Run the selected workload, or each of them in turn for `all` (every
/// one printing its own result); true when every run was correct.
fn run(argv: &[String]) -> Result<bool, String> {
    let workload = flag(argv, "--workload")?;
    let selected: Vec<&str> = match workload {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        other => return Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let seed: u64 = flag(argv, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(argv, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match flag(argv, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let mut correct = true;
    for workload in selected {
        correct &= run_one(workload, seed, seconds, trace)?;
    }
    Ok(correct)
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let root = Path::new(".perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: work.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# stamp {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"rev\": \"{}\", \"setup_reps\": {SETUP_REPS}}}",
        u8::from(trace),
        revision(),
    );

    let mut report = Report::default();
    let outcome = match workload {
        "engine_1m" => engine_wl::run(&ctx, &mut report),
        "served_durable" => served_wl::run(&ctx, &mut report),
        _ => cluster_wl::run(&ctx, &mut report),
    };
    if trace {
        let spans = spans::take();
        let dir = root.join("traces");
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&spans, 0)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {} span(s) -> {}", spans.len(), path.display());
    }
    let _ = std::fs::remove_dir_all(&work);
    outcome?;
    let wanted = if trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    report.finish(wanted)
}

/// The git revision, or `unknown` when the checkout is not a git
/// repository.
fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
