//! `engine_1m`: in-process `Engine::run` over a pre-generated stream of
//! 200k users × 8 objects × 5 epochs (≈1.01M reports), Poisson
//! arrivals, 1% duplicates, 1% stragglers, 16 shards, workers auto.
//! Route, filter and merge do all the work: no wire, registry, store or
//! barrier runs.

use std::time::Instant;

use dptd_engine::{Engine, EngineConfig, EngineMetrics, LoadGenConfig};
use dptd_protocol::message::StampedReport;
use dptd_stats::digest::fnv1a_f64s;

use crate::campaign::{self, Inputs, Shape, FRAME};
use crate::report::Report;
use crate::{probes, procs, spans, stats, Ctx};

/// The workload's input shape (its 5 epochs double as 5 campaign
/// rounds for the traced run's layer probes).
pub const SHAPE: Shape = Shape {
    users: 200_000,
    objects: 8,
    rounds: 5,
    churn: 0.0,
    dup: 0.01,
    straggler: 0.01,
    shards: 16,
};

/// The stream handed to `Engine::run`: it notes the instant the engine's
/// router pulls the first report of each 256-report frame, so the time
/// the engine takes to accept one frame (routing plus any backpressure
/// stall) is observed from outside the program.
struct FrameClock<'a> {
    inner: std::vec::IntoIter<StampedReport>,
    pulled: usize,
    marks: &'a mut Vec<Instant>,
}

impl Iterator for FrameClock<'_> {
    type Item = StampedReport;

    fn next(&mut self) -> Option<StampedReport> {
        let item = self.inner.next();
        if self.pulled.is_multiple_of(FRAME) || item.is_none() {
            self.marks.push(Instant::now());
        }
        self.pulled += 1;
        item
    }
}

fn engine() -> Result<Engine, String> {
    Engine::new(EngineConfig {
        num_users: SHAPE.users,
        num_objects: SHAPE.objects,
        num_shards: SHAPE.shards,
        workers: 0,
        epoch_deadline_us: LoadGenConfig::default().epoch_len_us,
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// One timed `Engine::run`.
struct Pass {
    secs: f64,
    /// Share of the machine's CPU time the host stole during the pass.
    steal: f64,
    frame_ms: Vec<f64>,
    metrics: EngineMetrics,
}

fn pass(engine: &Engine, inputs: &Inputs, expected: u64, report: &mut Report) -> Option<Pass> {
    // The owned copy is made outside the timed window.
    let stream: Vec<StampedReport> = inputs.rounds.iter().flatten().cloned().collect();
    let mut marks = Vec::with_capacity(stream.len() / FRAME + 2);
    let clock = FrameClock {
        inner: stream.into_iter(),
        pulled: 0,
        marks: &mut marks,
    };
    let span = spans::begin("engine.run", 0, inputs.total_reports(), None);
    let host = crate::host::now();
    let started = Instant::now();
    let result = engine.run(clock);
    let secs = started.elapsed().as_secs_f64();
    let steal = host.steal_share(crate::host::now());
    drop(span);
    let run = report.op("Engine::run", result)?;
    let digest = fnv1a_f64s(&run.final_weights);
    report.check(digest == expected, || {
        format!("engine weights digest {digest:016x} != reference {expected:016x}")
    });
    let frame_ms = marks
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect();
    Some(Pass {
        secs,
        steal,
        frame_ms,
        metrics: run.metrics,
    })
}

/// Run the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up: generate the stream and build the engine, several times.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..crate::SETUP_REPS {
        let started = Instant::now();
        let generated = Inputs::generate(SHAPE, ctx.seed)?;
        let eng = engine()?;
        setups.push(started.elapsed().as_secs_f64());
        inputs = Some((generated, eng));
    }
    let (inputs, engine) = inputs.ok_or("no set-up ran")?;
    report.setup(&setups);
    report.set("ldp.perturb_s", inputs.perturb_s);

    // The reference, outside the timed window: the same stream through
    // `SimBackend`, which the repository pins bit-identical to the engine.
    let expected = campaign::stream_digest(&inputs)?;

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut spent = 0.0;
    let mut i = 0;
    while plain.is_empty() || spent < ctx.seconds {
        // A traced run alternates traced and untraced passes so both
        // rates come from the same window.
        let trace_this = ctx.trace && i % 2 == 1;
        spans::set_enabled(trace_this);
        let Some(p) = pass(&engine, &inputs, expected, report) else {
            break;
        };
        spans::set_enabled(false);
        spent += p.secs;
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
        i += 1;
    }
    let reports = inputs.total_reports() as f64;
    let rate =
        |ps: &[Pass]| stats::median(&ps.iter().map(|p| reports / p.secs).collect::<Vec<_>>());

    // Each pass is one block: its own rate, median and p99 (a pass has
    // ~3 950 frames, so its p99 has ~39 samples beyond it).
    let blocks: Vec<stats::Block> = plain
        .iter()
        .map(|p| stats::Block {
            samples: p.frame_ms.len(),
            p50: stats::median(&p.frame_ms),
            tail: stats::percentile(&p.frame_ms, 99.0),
            rate: reports / p.secs,
            steal: p.steal,
        })
        .collect();
    report.throughput_blocks(&blocks, "Engine::run pass(es)");
    report.set("peak_rss_mb", procs::self_peak_rss_mb());
    report.notes.push(format!(
        "engine_1m: {} Engine::run pass(es) of {} reports in {spent:.2} s timed",
        plain.len() + traced.len(),
        reports
    ));

    if ctx.trace {
        let all: Vec<&Pass> = plain.iter().chain(traced.iter()).collect();
        let med = |f: &dyn Fn(&EngineMetrics) -> f64| {
            stats::median(&all.iter().map(|p| f(&p.metrics)).collect::<Vec<_>>())
        };
        report.set_n(
            "engine.route_busy_s",
            med(&|m| m.stage.route.as_secs_f64()),
            all.len(),
        );
        report.set_n(
            "engine.filter_busy_s",
            med(&|m| m.stage.filter.as_secs_f64()),
            all.len(),
        );
        report.set_n(
            "engine.merge_busy_s",
            med(&|m| m.stage.merge.as_secs_f64()),
            all.len(),
        );
        report.set_n(
            "engine.backpressure_stalls",
            med(&|m| m.backpressure_stalls as f64),
            all.len(),
        );
        report.set_n(
            "engine.max_queue_depth",
            med(&|m| m.max_queue_depth as f64),
            all.len(),
        );
        report.set_n(
            "engine.accept_ratio",
            med(&|m| m.reports_accepted as f64 / m.reports_submitted.max(1) as f64),
            all.len(),
        );
        let overhead = if traced.is_empty() {
            0.0
        } else {
            (1.0 - rate(&traced) / rate(&plain)) * 100.0
        };
        report.set("trace.overhead_pct", overhead);
        let wall: f64 = traced.iter().map(|p| p.secs).sum();
        let busy =
            |f: &dyn Fn(&EngineMetrics) -> f64| traced.iter().map(|p| f(&p.metrics)).sum::<f64>();
        let parts = [
            (
                "engine.route (router thread)",
                busy(&|m| m.stage.route.as_secs_f64()),
            ),
            (
                "engine.filter (all shard workers)",
                busy(&|m| m.stage.filter.as_secs_f64()),
            ),
            (
                "engine.merge (merger)",
                busy(&|m| m.stage.merge.as_secs_f64()),
            ),
        ];
        // Stages run on different threads at once, so their busy times
        // overlap and the residual is negative by design.
        let residual = stats::residual(wall, &parts.map(|p| p.1));
        probes::print_shares(report, "engine_1m Engine::run wall", wall, &parts, residual);
        probes::run_all(
            ctx,
            report,
            &inputs,
            probes::Have {
                engine_busy: true,
                engine_counters: true,
                ..probes::Have::default()
            },
        )?;
    }
    Ok(())
}
