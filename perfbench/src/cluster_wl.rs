//! `cluster_2node`: two durable `dptd cluster serve` partition nodes,
//! node 0 replicating to a follower process; the coordinator is a
//! `ClusterCampaign` in this process holding one connection per node.
//! The campaign has the `served_durable` shape and `submit` is called
//! one 256-report slice at a time, closed loop. This is the only
//! workload that runs the two-phase barrier and replication shipping.
//!
//! A fresh cluster's first submit of each round gets slower over its
//! first ~100 rounds (block p99 about 0.5 ms to 1.3 ms on one CPU) and
//! then nearly levels off. These first submits are 1.4% of all submits,
//! so they set the p99. Each timed segment therefore starts after
//! [`WARMUP_ROUNDS`] untimed rounds.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dptd_cluster::{ClusterCampaign, ClusterSpec, ProcessTrace};
use dptd_obs::codes;

use crate::campaign::{Inputs, Reference, Shape, FRAME};
use crate::procs::{self, Proc};
use crate::report::{Report, BLOCK};
use crate::served_wl::{self, SHAPE};
use crate::stats::{self, Sample};
use crate::{probes, spans, Ctx, SETUP_REPS};

/// A running two-node cluster plus node 0's follower.
pub struct Cluster {
    follower: Proc,
    nodes: Vec<Proc>,
    /// Node addresses in node-id order.
    pub addrs: Vec<String>,
    replica: PathBuf,
    dirs: Vec<PathBuf>,
}

impl Cluster {
    /// Start the follower, then both partition nodes.
    pub fn start(ctx: &Ctx, tag: &str, traced: bool) -> Result<Self, String> {
        let replica = ctx.dir(&format!("{tag}-replica"));
        let trace = if traced { "true" } else { "false" };
        // One reactor thread per process. With the default two, runs of
        // the same code landed in one of two modes (about 160k vs 310k
        // reports/s, p99 6 ms vs 1.4 ms), fixed for the whole run. One
        // reactor made the slow mode rare, but it was still seen.
        let common = |extra: &[&str]| -> Vec<String> {
            let mut args = vec![
                "cluster",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--reactor-threads",
                "1",
                "--trace",
                trace,
            ];
            args.extend_from_slice(extra);
            args.into_iter().map(String::from).collect()
        };
        let follower = Proc::start(&common(&["--replica-root", &replica.display().to_string()]))?;
        let mut nodes = Vec::new();
        let mut dirs = vec![replica.clone()];
        for id in 0..2 {
            let wal = ctx.dir(&format!("{tag}-node{id}"));
            let id_s = id.to_string();
            let wal_s = wal.display().to_string();
            let mut extra = vec!["--node-id", &id_s, "--nodes", "2", "--wal", &wal_s];
            if id == 0 {
                extra.extend_from_slice(&["--replicate-to", &follower.addr]);
            }
            nodes.push(Proc::start(&common(&extra))?);
            dirs.push(wal);
        }
        let addrs = nodes.iter().map(|n| n.addr.clone()).collect();
        Ok(Self {
            follower,
            nodes,
            addrs,
            replica,
            dirs,
        })
    }

    /// Peak RSS over every server process of the cluster.
    pub fn peak_rss_mb(&self) -> f64 {
        self.nodes
            .iter()
            .chain(std::iter::once(&self.follower))
            .map(Proc::peak_rss_mb)
            .fold(0.0, f64::max)
    }

    /// Bytes in the follower's replica directory.
    pub fn replica_bytes(&self) -> u64 {
        procs::dir_bytes(&self.replica)
    }

    /// Orderly stop of every process; the directories are removed.
    pub fn stop(self) {
        for node in self.nodes {
            node.stop();
        }
        self.follower.stop();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The cluster spec of a campaign of `shape` on `seed`.
pub fn spec(shape: Shape, seed: u64) -> ClusterSpec {
    let cfg = shape.campaign_config();
    ClusterSpec {
        num_users: shape.users,
        num_objects: shape.objects,
        deadline_us: cfg.deadline_us,
        per_round_loss: cfg.per_round_loss,
        budget: cfg.budget,
        submission_capacity: shape.submission_capacity(),
        stream_tag: crate::campaign::stream_tag(&shape.load_config(seed)),
        durable: true,
    }
}

/// What the coordinator saw.
#[derive(Debug, Default)]
pub struct CoordRun {
    /// One sample per `submit` call.
    pub submits: Vec<Sample>,
    /// One sample per `close_round`.
    pub close_ms: Vec<f64>,
    /// Time of all submits of a round.
    pub submit_per_round_ms: Vec<f64>,
    /// Weights digest of every closed round.
    pub digests: Vec<u64>,
    /// Operations attempted.
    pub ops: u64,
    /// Failures.
    pub failures: Vec<String>,
}

/// The rounds a campaign runs: `warmup` rounds that are verified but
/// not timed, then timed rounds for `seconds`, and never more than
/// `max_rounds` rounds in all.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup: u64,
    pub seconds: f64,
    pub max_rounds: u64,
}

/// Drive `cluster` round after round over `window`, one 256-report
/// `submit` slice at a time.
pub fn drive(cluster: &mut ClusterCampaign, inputs: &Inputs, window: Window) -> CoordRun {
    let mut out = CoordRun::default();
    let mut t0 = Instant::now();
    let mut deadline = t0;
    for epoch in 0..window.max_rounds {
        let timed = epoch >= window.warmup;
        if epoch == window.warmup {
            t0 = Instant::now();
            deadline = t0 + Duration::from_secs_f64(window.seconds);
        } else if timed && Instant::now() >= deadline {
            break;
        }
        let reports = inputs.round(epoch);
        let round = spans::begin("coordinator.round", 0, epoch, None);
        let round_started = Instant::now();
        for slice in reports.chunks(FRAME) {
            let span = spans::begin("coordinator.submit", 0, slice.len() as u64, Some(&round));
            let started = Instant::now();
            let result = cluster.submit(slice, FRAME);
            let ended = Instant::now();
            drop(span);
            if timed {
                out.submits.push(Sample {
                    end: ended.duration_since(t0).as_secs_f64(),
                    value: ended.duration_since(started).as_secs_f64() * 1e3,
                    reports: slice.len() as u64,
                    host: crate::host::now(),
                });
            }
            out.ops += 1;
            if let Err(e) = result {
                out.failures.push(format!("submit: {e}"));
                return out;
            }
        }
        if timed {
            out.submit_per_round_ms
                .push(round_started.elapsed().as_secs_f64() * 1e3);
        }
        let span = spans::begin("coordinator.close_round", 0, epoch, Some(&round));
        let started = Instant::now();
        let closed = cluster.close_round(epoch);
        if timed {
            out.close_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        drop(span);
        out.ops += 1;
        match closed {
            Ok(c) => out.digests.push(c.weights_digest),
            Err(e) => {
                out.failures.push(format!("close {epoch}: {e}"));
                return out;
            }
        }
    }
    out
}

/// Count the run's operations and check every round's digest and the
/// global debit ledger against a reference computed for exactly the
/// rounds it closed.
fn verify(
    report: &mut Report,
    cluster: &ClusterCampaign,
    inputs: &Inputs,
    run: &CoordRun,
) -> Result<(), String> {
    report.ok_ops(run.ops.saturating_sub(run.failures.len() as u64));
    for f in &run.failures {
        report.op::<(), _>("cluster", Err(f.clone()));
    }
    let reference = Reference::compute(inputs, run.digests.len() as u64)?;
    for (r, (got, want)) in run.digests.iter().zip(&reference.digests).enumerate() {
        report.check(got == want, || {
            format!("cluster round {r}: digest {got:016x} != reference {want:016x}")
        });
    }
    report.check(
        cluster.accountant().debits_by_user() == reference.final_ledger,
        || "cluster debit ledger differs from the reference".to_string(),
    );
    Ok(())
}

/// Durations (ms) of the program's barrier and node spans, grouped by
/// the round they belong to (the span context's trace id).
#[derive(Debug, Default, Clone)]
struct RoundSpans {
    prepare: Option<f64>,
    commit: Option<f64>,
    drain: [Option<f64>; 2],
    node_commit: [Option<f64>; 2],
}

fn round_spans(processes: &[ProcessTrace]) -> Vec<RoundSpans> {
    let mut by_round: HashMap<u64, RoundSpans> = HashMap::new();
    for process in processes {
        let node = process
            .label
            .strip_prefix("node")
            .and_then(|n| n.parse::<usize>().ok());
        let mut open: HashMap<(u64, u32), Vec<&dptd_obs::TraceEvent>> = HashMap::new();
        for e in &process.events {
            match e.phase {
                'B' => open.entry((e.tid, e.code)).or_default().push(e),
                'E' => {
                    let Some(b) = open.get_mut(&(e.tid, e.code)).and_then(Vec::pop) else {
                        continue;
                    };
                    let ms = e.ts_ns.saturating_sub(b.ts_ns) as f64 / 1e6;
                    let slot = by_round.entry(b.trace_id).or_default();
                    match (node, e.code) {
                        (None, codes::BARRIER_PREPARE) => slot.prepare = Some(ms),
                        (None, codes::BARRIER_COMMIT) => slot.commit = Some(ms),
                        (Some(n @ 0..=1), codes::NODE_DRAIN) => slot.drain[n] = Some(ms),
                        (Some(n @ 0..=1), codes::NODE_COMMIT) => slot.node_commit[n] = Some(ms),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    by_round.into_values().collect()
}

/// One traced barrier round: coordinator and node span lengths, ms.
struct Row {
    prepare: f64,
    commit: f64,
    /// Slowest node's drain.
    drain: f64,
    /// Slowest node's commit.
    node_commit: f64,
    /// Node 0's commit (which ships to the follower) minus node 1's.
    ship: f64,
}

/// The rounds whose barrier and node spans were all retained.
fn rows(processes: &[ProcessTrace]) -> Vec<Row> {
    round_spans(processes)
        .into_iter()
        .filter_map(|r| {
            let [Some(d0), Some(d1)] = r.drain else {
                return None;
            };
            let [Some(c0), Some(c1)] = r.node_commit else {
                return None;
            };
            Some(Row {
                prepare: r.prepare?,
                commit: r.commit?,
                drain: d0.max(d1),
                node_commit: c0.max(c1),
                ship: c0 - c1,
            })
        })
        .collect()
}

/// What traced segments collect for the cluster and replication layers.
#[derive(Default)]
struct Layers {
    rows: Vec<Row>,
    submit_per_round_ms: Vec<f64>,
    replica_bytes: u64,
    rounds: usize,
    skew: f64,
}

impl Layers {
    fn set_metrics(&self, report: &mut Report) -> Result<(), String> {
        if self.rows.is_empty() {
            return Err("no complete traced barrier round was retained".to_string());
        }
        let med =
            |f: &dyn Fn(&Row) -> f64| stats::median(&self.rows.iter().map(f).collect::<Vec<_>>());
        let n = self.rows.len();
        report.set_n("cluster.barrier_prepare_ms", med(&|r| r.prepare), n);
        report.set_n("cluster.barrier_commit_ms", med(&|r| r.commit), n);
        report.set_n("cluster.node_drain_ms", med(&|r| r.drain), n);
        report.set_n("cluster.node_commit_ms", med(&|r| r.node_commit), n);
        report.set_n(
            "cluster.barrier_overhead_ms",
            med(&|r| r.prepare - r.drain),
            n,
        );
        report.set_n("replication.ship_ms_per_round", med(&|r| r.ship), n);
        report.set("cluster.partition_skew", self.skew);
        report.set_n(
            "cluster.submit_ms_per_round",
            stats::median(&self.submit_per_round_ms),
            self.submit_per_round_ms.len(),
        );
        report.set(
            "replication.bytes_per_round",
            self.replica_bytes as f64 / self.rounds.max(1) as f64,
        );
        Ok(())
    }
}

/// Max ÷ min reports per node under the campaign's partition map.
fn partition_skew(cluster: &ClusterCampaign, inputs: &Inputs) -> f64 {
    let map = cluster.partition();
    let mut per_node = vec![0u64; map.num_nodes()];
    for stamped in inputs.rounds.iter().flatten() {
        per_node[map.node_of(stamped.report.user)] += 1;
    }
    let max = per_node.iter().copied().max().unwrap_or(0) as f64;
    let min = per_node.iter().copied().min().unwrap_or(0).max(1) as f64;
    max / min
}

/// Start a cluster and create the campaign on it.
fn start(
    ctx: &Ctx,
    tag: &str,
    inputs: &Inputs,
    traced: bool,
) -> Result<(Cluster, ClusterCampaign), String> {
    let cluster = Cluster::start(ctx, tag, traced)?;
    let campaign = ClusterCampaign::create(&cluster.addrs, "c0", spec(inputs.shape, inputs.seed))
        .map_err(|e| e.to_string())?;
    Ok((cluster, campaign))
}

/// Drive and verify the campaign; when `layers` is given, the cluster's
/// processes trace and their spans are read back with `collect_traces`.
fn timed(
    report: &mut Report,
    cluster: &Cluster,
    mut campaign: ClusterCampaign,
    inputs: &Inputs,
    window: Window,
    layers: Option<&mut Layers>,
) -> Result<CoordRun, String> {
    let traced = layers.is_some();
    if traced {
        dptd_obs::trace::reset();
        dptd_obs::trace::set_enabled(true);
        spans::set_enabled(true);
    }
    let run = drive(&mut campaign, inputs, window);
    let traces = if traced {
        spans::set_enabled(false);
        dptd_obs::trace::set_enabled(false);
        Some(campaign.collect_traces().map_err(|e| e.to_string())?)
    } else {
        None
    };
    verify(report, &campaign, inputs, &run)?;
    if let (Some(layers), Some(traces)) = (layers, traces) {
        layers.rows.extend(rows(&traces));
        layers.submit_per_round_ms.extend(&run.submit_per_round_ms);
        layers.replica_bytes += cluster.replica_bytes();
        layers.rounds += run.digests.len();
        layers.skew = partition_skew(&campaign, inputs);
    }
    Ok(run)
}

/// A traced campaign on a fresh traced cluster: the cluster and
/// replication layer metrics for workloads whose own path has no
/// cluster. Runs at most `max_rounds` rounds of `inputs`.
pub fn probe(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &Inputs,
    max_rounds: u64,
) -> Result<(), String> {
    let (cluster, campaign) = start(ctx, "probe-cluster", inputs, true)?;
    let mut layers = Layers::default();
    let outcome = timed(
        report,
        &cluster,
        campaign,
        inputs,
        Window {
            warmup: 0,
            seconds: 3600.0,
            max_rounds,
        },
        Some(&mut layers),
    );
    cluster.stop();
    outcome?;
    layers.set_metrics(report)
}

/// Untimed rounds a fresh cluster runs before its timed segment.
pub const WARMUP_ROUNDS: u64 = 100;

/// Set-ups that are followed by a timed segment. Each segment pays a
/// warm-up, so there are fewer, longer segments than set-ups.
pub const SEGMENTS: usize = 3;

/// Run the workload: [`SETUP_REPS`] set-ups; the first [`SEGMENTS`] are
/// each followed by an equal share of the window on the fresh cluster,
/// after its warm-up. A traced run traces the second segment.
///
/// The whole run, cluster processes included, is pinned to one CPU. The
/// coordinator waits on one node at a time, so the loop is a chain of
/// hand-offs between four processes that a second CPU cannot overlap.
/// Spread over two CPUs, the same code read 5-15% fewer reports/s and a
/// higher p99 in alternating runs on a 2-vCPU VM, and the host stole
/// more (up to 10% against at most 2.7% pinned), because a CPU that goes
/// idle between hand-offs waits for the hypervisor to run it again.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pinned = crate::host::pin_to_one_cpu()?;
    report
        .notes
        .push(format!("cluster_2node: pinned to CPU {}", pinned.cpu));
    let seed = served_wl::client_seed(ctx.seed, 0);
    let seconds = ctx.seconds / SEGMENTS as f64;
    let mut setups = Vec::new();
    let mut blocks = Vec::new();
    let mut traced_blocks = Vec::new();
    let mut close = Vec::new();
    let mut rss = Vec::new();
    let mut layers = Layers::default();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let trace_this = ctx.trace && rep == 1;
        let started = Instant::now();
        let generated = Inputs::generate(SHAPE, seed)?;
        let (cluster, campaign) = start(ctx, &format!("cluster-{rep}"), &generated, trace_this)?;
        setups.push(started.elapsed().as_secs_f64());
        if rep >= SEGMENTS {
            drop(campaign);
            cluster.stop();
            inputs = Some(generated);
            continue;
        }
        let run = timed(
            report,
            &cluster,
            campaign,
            &generated,
            Window {
                warmup: WARMUP_ROUNDS,
                seconds,
                max_rounds: u64::MAX,
            },
            trace_this.then_some(&mut layers),
        );
        rss.push(cluster.peak_rss_mb());
        cluster.stop();
        let run = run?;
        let segment_blocks = report.blocks(&run.submits);
        if trace_this {
            traced_blocks.extend(segment_blocks);
        } else {
            blocks.extend(segment_blocks);
            close.extend(run.close_ms);
        }
        inputs = Some(generated);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    report.setup(&setups);
    report.set("ldp.perturb_s", inputs.perturb_s);
    if blocks.is_empty() {
        return Err("no untraced submit completed".to_string());
    }
    report.throughput_blocks(&blocks, &format!("block(s) of {BLOCK} consecutive submits"));
    // Timed over `close_round`.
    report.latency("round_close_p50_ms", "round_close_p90_ms", 90.0, &close);
    report.set_n("peak_rss_mb", stats::median(&rss), rss.len());
    if !ctx.trace {
        return Ok(());
    }
    layers.set_metrics(report)?;
    report.overhead(&blocks, &traced_blocks);
    served_wl::round_shares(report, "cluster_2node coordinator round");
    probes::run_all(
        ctx,
        report,
        &inputs,
        probes::Have {
            cluster: true,
            ..probes::Have::default()
        },
    )
}
