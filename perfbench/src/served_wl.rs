//! `served_durable`: `dptd serve --wal <dir>` as its own process; two
//! client threads, one connection each, each running one durable
//! campaign of 20k users (10% churn, 1% duplicates, 1% stragglers)
//! closed loop: per round, `SubmitReports` frames of 256 reports, then
//! `CloseRound`, then `QueryTruths`.
//!
//! A run sets the server up [`SETUP_REPS`] times, each time timing one
//! segment of the window on the fresh server. After the last segment
//! the server is SIGKILLed, restarted on the same WAL root, and both
//! campaigns are re-created until they resume with the pre-kill rounds,
//! digest and ledger.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dptd_obs::names;
use dptd_server::client::SubmitOutcome;
use dptd_server::wire::{Request, Response};
use dptd_server::{CampaignSpec, Client};

use crate::campaign::{Inputs, Reference, Shape, FRAME};
use crate::procs::Proc;
use crate::report::{Report, BLOCK};
use crate::stats::{self, Block, Sample};
use crate::{probes, spans, Ctx, SETUP_REPS};

/// One campaign's shape. Its 25 generated rounds are reused, re-stamped,
/// for as many rounds as a segment runs.
pub const SHAPE: Shape = Shape {
    users: 20_000,
    objects: 8,
    rounds: 25,
    churn: 0.1,
    dup: 0.01,
    straggler: 0.01,
    // The `dptd submit` default.
    shards: 8,
};

const CLIENTS: usize = 2;

/// The seed of client `c`'s campaign.
pub fn client_seed(seed: u64, c: usize) -> u64 {
    seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Send a typed-refusal request and return its round trip in µs: the
/// cheapest full round trip the server answers (an unknown campaign is
/// refused before any campaign work).
pub fn ping(client: &mut Client) -> Result<f64, String> {
    let request = Request::QueryTruths {
        campaign: "perfbench-ping".to_string(),
    };
    let started = Instant::now();
    match client.request(&request) {
        Ok(Response::Error { .. }) => Ok(started.elapsed().as_secs_f64() * 1e6),
        Ok(other) => Err(format!("ping answered {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// One reactor thread: with two, the reactors race to accept each
/// connection, so the two clients share a reactor in some runs and not
/// in others, and a close on one campaign then stalls the other's
/// submits only sometimes (measured p99 2.2 ms vs 26-29 ms between runs
/// of the same code). One reactor makes that head-of-line blocking
/// happen in every run instead of hiding it in the spread.
fn serve_args(wal: &std::path::Path) -> Vec<String> {
    [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--reactor-threads",
        "1",
        "--wal",
    ]
    .map(String::from)
    .into_iter()
    .chain([wal.display().to_string()])
    .collect()
}

struct Setup {
    server: Proc,
    wal: PathBuf,
    clients: Vec<Client>,
    inputs: Vec<Inputs>,
}

fn spec_of(inputs: &Inputs) -> CampaignSpec {
    inputs.shape.spec(inputs.seed)
}

fn campaign_name(c: usize) -> String {
    format!("c{c}")
}

/// Generate the inputs, start the server, connect and create both
/// campaigns.
fn setup_once(ctx: &Ctx, rep: usize) -> Result<Setup, String> {
    let inputs = (0..CLIENTS)
        .map(|c| Inputs::generate(SHAPE, client_seed(ctx.seed, c)))
        .collect::<Result<Vec<_>, _>>()?;
    let wal = ctx.dir(&format!("served-wal-{rep}"));
    let server = Proc::start(&serve_args(&wal))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for (c, input) in inputs.iter().enumerate() {
        let mut client = Client::connect(server.addr.as_str()).map_err(|e| e.to_string())?;
        let resumed = client
            .create_campaign(&campaign_name(c), spec_of(input))
            .map_err(|e| e.to_string())?;
        if resumed != 0 {
            return Err(format!("fresh campaign resumed at round {resumed}"));
        }
        clients.push(client);
    }
    Ok(Setup {
        server,
        wal,
        clients,
        inputs,
    })
}

/// What one client thread saw.
#[derive(Debug, Default)]
struct ClientRun {
    submits: Vec<Sample>,
    close_ms: Vec<f64>,
    ping_us: Vec<f64>,
    /// Per closed round: the digest `CloseRound` and `QueryTruths` returned.
    digests: Vec<(u64, u64)>,
    ops: u64,
    failures: Vec<String>,
}

/// Run client `c`'s campaign, round after round, until `deadline`.
fn client_loop(
    client: &mut Client,
    c: usize,
    inputs: &Inputs,
    deadline: Instant,
    with_ping: bool,
) -> ClientRun {
    let mut out = ClientRun::default();
    let name = campaign_name(c);
    let tid = c as u64 + 1;
    let t0 = Instant::now();
    for epoch in 0.. {
        if epoch > 0 && Instant::now() >= deadline {
            break;
        }
        let reports = inputs.round(epoch);
        let round = spans::begin("client.round", tid, epoch, None);
        for (i, frame) in reports.chunks(FRAME).enumerate() {
            if with_ping && i % 8 == 7 {
                let span = spans::begin("client.ping", tid, i as u64, Some(&round));
                out.ops += 1;
                match ping(client) {
                    Ok(us) => out.ping_us.push(us),
                    Err(e) => out.failures.push(format!("ping: {e}")),
                }
                drop(span);
            }
            let batch = frame.to_vec();
            let span = spans::begin("client.submit", tid, frame.len() as u64, Some(&round));
            let started = Instant::now();
            let result = client.submit(&name, batch);
            let ended = Instant::now();
            drop(span);
            out.submits.push(Sample {
                end: ended.duration_since(t0).as_secs_f64(),
                value: ended.duration_since(started).as_secs_f64() * 1e3,
                reports: frame.len() as u64,
                host: crate::host::now(),
            });
            out.ops += 1;
            match result {
                Ok(SubmitOutcome::Queued(_)) => {}
                Ok(busy) => out.failures.push(format!("{name} round {epoch}: {busy:?}")),
                Err(e) => {
                    out.failures.push(format!("{name} submit: {e}"));
                    return out;
                }
            }
        }
        let span = spans::begin("client.close_round", tid, epoch, Some(&round));
        let started = Instant::now();
        let closed = client.close_round(&name, epoch);
        let truths = closed.as_ref().ok().map(|_| client.query_truths(&name));
        out.close_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(span);
        out.ops += 2;
        match (closed, truths) {
            (Ok(c), Some(Ok(t))) => out.digests.push((c.weights_digest, t.weights_digest)),
            (Err(e), _) | (_, Some(Err(e))) => {
                out.failures.push(format!("{name} close {epoch}: {e}"));
                return out;
            }
            (Ok(_), None) => unreachable!("truths are queried after every close"),
        }
    }
    out
}

/// One timed segment: every client runs [`client_loop`] on its own
/// thread, all released at once.
fn segment(setup: &mut Setup, seconds: f64, with_ping: bool) -> Vec<ClientRun> {
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let inputs = &setup.inputs;
    std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    client_loop(client, c, &inputs[c], deadline, with_ping)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Count the segment's operations and check every round's digest and
/// each campaign's debit ledger against a reference computed for exactly
/// the rounds it closed. Returns the references.
fn verify(
    report: &mut Report,
    setup: &mut Setup,
    runs: &[ClientRun],
) -> Result<Vec<Reference>, String> {
    let mut references = Vec::with_capacity(runs.len());
    for (c, run) in runs.iter().enumerate() {
        report.ok_ops(run.ops.saturating_sub(run.failures.len() as u64));
        for f in &run.failures {
            report.op::<(), _>("served", Err(f.clone()));
        }
        let reference = Reference::compute(&setup.inputs[c], run.digests.len() as u64)?;
        for (r, (closed, truths)) in run.digests.iter().enumerate() {
            let want = reference.digests[r];
            report.check(*closed == want && *truths == want, || {
                format!(
                    "c{c} round {r}: digest {closed:016x}/{truths:016x} != reference {want:016x}"
                )
            });
        }
        let budget = setup.clients[c].query_budget(&campaign_name(c));
        if let Some(budget) = report.op("QueryBudget", budget) {
            report.check(budget.debits == reference.final_ledger, || {
                format!("c{c}: debit ledger differs from the reference")
            });
        }
        references.push(reference);
    }
    Ok(references)
}

/// Sum a per-campaign counter over every campaign in a snapshot.
pub fn campaign_sum(snap: &dptd_obs::MetricsSnapshot, suffix: &str) -> f64 {
    snap.campaign_ids()
        .iter()
        .filter_map(|id| snap.scalar(&names::campaign_metric(id, suffix)))
        .sum::<u64>() as f64
}

/// What a traced run collects from its traced segments.
#[derive(Default)]
struct Traced {
    blocks: Vec<Block>,
    status: dptd_obs::MetricsSnapshot,
    transport: probes::Transport,
}

/// Run the workload. A traced run traces every second segment.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let seconds = ctx.seconds / SETUP_REPS as f64;
    let mut setups = Vec::new();
    let mut blocks = Vec::new();
    let mut close = Vec::new();
    let mut rss = Vec::new();
    let mut traced = Traced::default();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let mut setup = setup_once(ctx, rep)?;
        setups.push(started.elapsed().as_secs_f64());
        let trace_this = ctx.trace && rep % 2 == 1;
        spans::set_enabled(trace_this);
        let runs = segment(&mut setup, seconds, trace_this);
        spans::set_enabled(false);
        let references = verify(report, &mut setup, &runs)?;
        let submits: Vec<Sample> = runs.iter().flat_map(|r| r.submits.clone()).collect();
        let segment_blocks = report.blocks(&submits);
        if trace_this {
            let status = setup.clients[0].query_status().map_err(|e| e.to_string())?;
            traced.status.absorb(&status);
            traced.blocks.extend(segment_blocks);
            for run in &runs {
                traced
                    .transport
                    .submit_rtt_us
                    .extend(run.submits.iter().map(|s| s.value * 1e3));
                traced.transport.ping_us.extend(&run.ping_us);
            }
        } else {
            blocks.extend(segment_blocks);
            close.extend(runs.iter().flat_map(|r| r.close_ms.clone()));
        }
        rss.push(setup.server.peak_rss_mb());
        if rep + 1 < SETUP_REPS {
            drop(setup.clients);
            setup.server.stop();
            let _ = std::fs::remove_dir_all(&setup.wal);
        } else {
            last = Some((setup, references));
        }
    }
    let (setup, references) = last.ok_or("no set-up ran")?;
    report.setup(&setups);
    report.set(
        "ldp.perturb_s",
        setup.inputs.iter().map(|i| i.perturb_s).sum(),
    );
    if blocks.is_empty() {
        return Err("no untraced submit completed".to_string());
    }
    report.throughput_blocks(&blocks, &format!("block(s) of {BLOCK} consecutive submits"));
    // Timed from CloseRound sent to QueryTruths returned.
    report.latency("round_close_p50_ms", "round_close_p90_ms", 90.0, &close);
    report.set_n("peak_rss_mb", stats::median(&rss), rss.len());

    if ctx.trace {
        drop(setup.clients);
        setup.server.stop();
        return traced_layers(ctx, report, &blocks, traced, &setup.inputs[0]);
    }
    recover(report, setup, &references)
}

/// SIGKILL the server, restart it on the same WAL root, resume both
/// campaigns and verify rounds, digest and ledger; `recovery_s` is the
/// time from the kill until both are verified.
fn recover(report: &mut Report, setup: Setup, references: &[Reference]) -> Result<(), String> {
    let Setup {
        server,
        wal,
        clients,
        inputs,
    } = setup;
    drop(clients);
    let started = Instant::now();
    server.kill();
    let server = Proc::start(&serve_args(&wal))?;
    for (c, (reference, input)) in references.iter().zip(&inputs).enumerate() {
        let verified = resume_check(&server.addr, c, reference, spec_of(input));
        if let Some(mismatch) = report.op("resume", verified) {
            report.check(mismatch.is_none(), || mismatch.unwrap_or_default());
        }
    }
    report.set("recovery_s", started.elapsed().as_secs_f64());
    server.stop();
    Ok(())
}

/// Re-create a durable campaign on a restarted server and compare what
/// it resumed with the reference of the rounds it had closed.
/// `Ok(Some(_))` describes a mismatch.
fn resume_check(
    addr: &str,
    c: usize,
    reference: &Reference,
    spec: CampaignSpec,
) -> Result<Option<String>, String> {
    let name = campaign_name(c);
    let done = reference.digests.len();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let resumed = client
        .create_campaign(&name, spec)
        .map_err(|e| e.to_string())?;
    if resumed != done as u64 {
        return Ok(Some(format!(
            "{name} resumed at round {resumed}, {done} were committed before the kill"
        )));
    }
    let truths = client.query_truths(&name).map_err(|e| e.to_string())?;
    let budget = client.query_budget(&name).map_err(|e| e.to_string())?;
    if done > 0 && truths.weights_digest != reference.digests[done - 1] {
        return Ok(Some(format!("{name} resumed with a different digest")));
    }
    if budget.debits != reference.final_ledger {
        return Ok(Some(format!(
            "{name} resumed with a different debit ledger"
        )));
    }
    Ok(None)
}

/// The per-layer metrics of a traced run: the served engine's counters
/// from `QueryStatus`, the traced segments' round trips, then the layer
/// probes on the first client's inputs.
fn traced_layers(
    ctx: &Ctx,
    report: &mut Report,
    plain: &[Block],
    traced: Traced,
    inputs: &Inputs,
) -> Result<(), String> {
    let sum = |suffix: &str| campaign_sum(&traced.status, suffix);
    let rounds = sum(names::ROUNDS).max(1.0);
    let n = rounds as usize;
    report.set_n(
        "engine.route_busy_s",
        sum(names::ROUTE_BUSY_NS) / 1e9 / rounds,
        n,
    );
    report.set_n(
        "engine.filter_busy_s",
        sum(names::FILTER_BUSY_NS) / 1e9 / rounds,
        n,
    );
    report.set_n(
        "engine.merge_busy_s",
        sum(names::MERGE_BUSY_NS) / 1e9 / rounds,
        n,
    );
    report.set(
        "engine.accept_ratio",
        sum(names::ACCEPTED) / sum(names::SUBMITTED).max(1.0),
    );
    report.set("server.refused_busy", sum(names::REFUSED_BUSY));
    report.overhead(plain, &traced.blocks);
    round_shares(report, "served_durable client round");
    probes::run_all(
        ctx,
        report,
        inputs,
        probes::Have {
            engine_busy: true,
            engine_counters: false,
            refused_busy: true,
            transport: Some(traced.transport),
            cluster: false,
        },
    )
}

/// Print each layer's share of the client-observed round time, from the
/// spans recorded so far (left in place for the trace dump). The
/// residual is the rounds' self time: what no child span covers.
pub fn round_shares(report: &mut Report, what: &str) {
    let spans = spans::peek();
    let secs = |ns: u64| ns as f64 / 1e9;
    let rounds: Vec<&spans::Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.ends_with(".round"))
        .collect();
    let total: f64 = rounds.iter().map(|s| s.secs()).sum();
    let mut parts: Vec<(&str, f64)> = Vec::new();
    let mut residual = 0.0;
    for round in &rounds {
        let children: Vec<&spans::Span> = spans.iter().filter(|s| s.parent == round.id).collect();
        for child in &children {
            match parts.iter_mut().find(|(n, _)| *n == child.name) {
                Some((_, t)) => *t += child.secs(),
                None => parts.push((child.name, child.secs())),
            }
        }
        let intervals: Vec<(f64, f64)> = children
            .iter()
            .map(|s| (secs(s.start_ns), secs(s.end_ns)))
            .collect();
        residual += stats::self_time((secs(round.start_ns), secs(round.end_ns)), &intervals);
    }
    probes::print_shares(report, what, total, &parts, residual);
}
