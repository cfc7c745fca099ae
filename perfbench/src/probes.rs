//! Layer probes of the traced run. Each probe calls one layer's public
//! functions on the workload's own generated inputs and times the calls
//! from here; no probe adds instrumentation inside the program. Where a
//! workload's own path already exercised a layer (the served engine's
//! `QueryStatus` counters, the served clients' round trips, the cluster
//! workload's barrier spans), that reading is used instead of a probe.

use std::time::Instant;

use dptd_engine::recovery::recover_replay;
use dptd_engine::store::DirFs;
use dptd_engine::{Engine, EngineBackend, EngineConfig, SegmentStore, StoreConfig, WalPolicy};
use dptd_obs::names;
use dptd_protocol::campaign::CampaignDriver;
use dptd_server::registry::RegistryConfig;
use dptd_server::wire::{Request, Response, FRAME_HEADER_LEN};
use dptd_server::{CampaignRegistry, Client, Server, ServerConfig};
use dptd_truth::Loss;

use crate::campaign::{stream_tag, Inputs, Reference, FRAME};
use crate::report::Report;
use crate::timed_fs::{self, TimedFs};
use crate::{cluster_wl, procs, served_wl, spans, stats, Ctx};

/// Client-observed transport samples a workload already has.
#[derive(Debug, Default, Clone)]
pub struct Transport {
    /// Submit round trips, µs.
    pub submit_rtt_us: Vec<f64>,
    /// Typed-refusal round trips on the same connections, µs.
    pub ping_us: Vec<f64>,
}

/// Which layer readings the workload itself already produced.
#[derive(Debug, Default, Clone)]
pub struct Have {
    /// `engine.{route,filter,merge}_busy_s` and `engine.accept_ratio`.
    pub engine_busy: bool,
    /// `engine.backpressure_stalls` and `engine.max_queue_depth`.
    pub engine_counters: bool,
    /// `server.refused_busy`.
    pub refused_busy: bool,
    /// Submit and ping round trips.
    pub transport: Option<Transport>,
    /// The cluster and replication metrics.
    pub cluster: bool,
}

/// Note each part's share of `total` seconds, and the `residual` no
/// part explains.
pub fn print_shares(
    report: &mut Report,
    what: &str,
    total: f64,
    parts: &[(&str, f64)],
    residual: f64,
) {
    let pct = |x: f64| if total > 0.0 { x / total * 100.0 } else { 0.0 };
    for (name, secs) in parts {
        report.notes.push(format!(
            "share {what}: {name} {:.2}% ({secs:.6} s of {total:.6} s)",
            pct(*secs)
        ));
    }
    report.notes.push(format!(
        "share {what}: residual {:.2}% ({residual:.6} s)",
        pct(residual)
    ));
}

/// Run every probe the workload still needs.
pub fn run_all(ctx: &Ctx, report: &mut Report, inputs: &Inputs, have: Have) -> Result<(), String> {
    spans::set_enabled(true);
    let outcome = probe_layers(ctx, report, inputs, have);
    spans::set_enabled(false);
    outcome
}

fn probe_layers(ctx: &Ctx, report: &mut Report, inputs: &Inputs, have: Have) -> Result<(), String> {
    let reference = Reference::compute(inputs, inputs.rounds.len() as u64)?;
    protocol_and_store(ctx, report, inputs, &reference, &have)?;
    let (encode_us, decode_us) = wire(report, inputs);
    let submit_us = registry(ctx, report, inputs, &reference, !have.refused_busy)?;
    let transport = match have.transport {
        Some(t) => t,
        None => transport(inputs)?,
    };
    let rtt = stats::median(&transport.submit_rtt_us);
    let ping = stats::median(&transport.ping_us);
    report.set_n("transport.ping_rtt_us", ping, transport.ping_us.len());
    let parts = [encode_us, decode_us, submit_us, ping];
    report.set_n(
        "transport.unattributed_share",
        stats::residual_share(rtt, &parts),
        transport.submit_rtt_us.len(),
    );
    print_shares(
        report,
        "submit round trip (medians)",
        rtt / 1e6,
        &[
            ("wire.encode", encode_us / 1e6),
            ("wire.decode", decode_us / 1e6),
            ("registry.submit", submit_us / 1e6),
            ("transport.ping", ping / 1e6),
        ],
        stats::residual(rtt, &parts) / 1e6,
    );
    if !have.cluster {
        let per_round = inputs.rounds.first().map_or(1, Vec::len).max(1);
        let rounds = (600_000 / per_round).clamp(1, inputs.rounds.len());
        cluster_wl::probe(ctx, report, inputs, rounds as u64)?;
    }
    Ok(())
}

/// `CampaignDriver::run_round` on an in-process `EngineBackend` whose
/// `SegmentStore` sits on a timing `StoreFs` around `DirFs`; then
/// `SegmentStore::open_dir` + `recover_replay` on the log it wrote.
fn protocol_and_store(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &Inputs,
    reference: &Reference,
    have: &Have,
) -> Result<(), String> {
    let shape = inputs.shape;
    let dir = ctx.dir("probe-store");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (fs, totals) = TimedFs::new(DirFs::open(&dir).map_err(|e| e.to_string())?);
    let (store, replay) =
        SegmentStore::open(Box::new(fs), StoreConfig::default()).map_err(|e| e.to_string())?;
    let cfg = shape.campaign_config();
    let policy =
        WalPolicy::from_campaign(&cfg).with_stream_tag(stream_tag(&shape.load_config(inputs.seed)));
    let engine = Engine::new(EngineConfig {
        num_users: shape.users,
        num_objects: shape.objects,
        num_shards: shape.shards,
        workers: 0,
        queue_capacity: 4_096,
        epoch_deadline_us: cfg.deadline_us,
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let (backend, _) = EngineBackend::with_log(engine, Box::new(store), &replay, policy)
        .map_err(|e| e.to_string())?;
    let mut driver = CampaignDriver::new(backend, cfg).map_err(|e| e.to_string())?;

    struct Row {
        run_round: f64,
        self_time: f64,
        append_s: f64,
    }
    let mut rows = Vec::new();
    let opened = timed_fs::snapshot(&totals);
    let mut before = opened;
    for (r, reports) in inputs.rounds.iter().enumerate() {
        let reports = reports.clone();
        let engine_before = driver.backend().metrics().elapsed;
        let span = spans::begin("protocol.run_round", 0, r as u64, None);
        let started = Instant::now();
        let round = driver.run_round(r as u64, reports);
        let secs = started.elapsed().as_secs_f64();
        drop(span);
        let Some(round) = report.op("CampaignDriver::run_round", round) else {
            break;
        };
        let digest = dptd_stats::digest::fnv1a_f64s(&round.weights);
        report.check(digest == reference.digests[r], || {
            format!("probe round {r}: digest {digest:016x} != reference")
        });
        let after = timed_fs::snapshot(&totals);
        let engine_s = (driver.backend().metrics().elapsed - engine_before).as_secs_f64();
        let store_s = after.total_s() - before.total_s();
        rows.push(Row {
            run_round: secs,
            self_time: stats::residual(secs, &[engine_s, store_s]),
            append_s: after.append_s - before.append_s,
        });
        before = after;
    }
    if rows.is_empty() {
        return Err("the protocol probe ran no round".to_string());
    }
    // The orderly-shutdown flush `CampaignRegistry::finalize` issues.
    let flushed = driver.backend_mut().sync_log();
    report.op("EngineBackend::sync_log", flushed);
    let n = rows.len();
    let med = |f: &dyn Fn(&Row) -> f64| stats::median(&rows.iter().map(f).collect::<Vec<_>>());
    report.set_n("protocol.run_round_ms", med(&|r| r.run_round * 1e3), n);
    report.set_n("protocol.self_ms_per_round", med(&|r| r.self_time * 1e3), n);
    // `DirFs::append` writes and fsyncs, so each round's commit fsync is
    // inside the append time.
    report.set_n("store.append_ms_per_round", med(&|r| r.append_s * 1e3), n);
    // Explicit `StoreFs::sync` calls (the shutdown flush) and atomic
    // manifest writes (at open, rotation and compaction) are not per
    // round: both are spread over the rounds run.
    let all = timed_fs::snapshot(&totals);
    report.set_n("store.sync_ms_per_round", all.sync_s * 1e3 / n as f64, n);
    report.set_n(
        "store.write_atomic_ms_per_round",
        all.write_atomic_s * 1e3 / n as f64,
        n,
    );
    let bytes = (all.bytes() - opened.bytes()) as f64 / n as f64;
    report.set("store.bytes_per_round", bytes);
    report.set(
        "store.syncs_per_round",
        (all.barriers() - opened.barriers()) as f64 / n as f64,
    );
    let reports: usize = inputs.rounds[..n].iter().map(Vec::len).sum();
    report.set(
        "store.bytes_per_report",
        bytes * n as f64 / reports.max(1) as f64,
    );

    let metrics = driver.backend().metrics().clone();
    if !have.engine_busy {
        let per = |d: std::time::Duration| d.as_secs_f64() / n as f64;
        report.set_n("engine.route_busy_s", per(metrics.stage.route), n);
        report.set_n("engine.filter_busy_s", per(metrics.stage.filter), n);
        report.set_n("engine.merge_busy_s", per(metrics.stage.merge), n);
        report.set(
            "engine.accept_ratio",
            metrics.reports_accepted as f64 / metrics.reports_submitted.max(1) as f64,
        );
    }
    if !have.engine_counters {
        report.set(
            "engine.backpressure_stalls",
            metrics.backpressure_stalls as f64 / n as f64,
        );
        report.set("engine.max_queue_depth", metrics.max_queue_depth as f64);
    }
    drop(driver);

    let mut replays = Vec::new();
    for _ in 0..3 {
        let span = spans::begin("store.replay", 0, n as u64, None);
        let started = Instant::now();
        let (store, replay) =
            SegmentStore::open_dir(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
        let recovered = recover_replay(&replay, shape.users, Loss::Squared, Some(&policy));
        replays.push(started.elapsed().as_secs_f64());
        drop(span);
        drop(store);
        if let Some(state) = report.op("recover_replay", recovered) {
            report.check(state.records_applied == n as u64, || {
                format!("replay applied {} of {n} records", state.records_applied)
            });
        }
    }
    report.set_n("store.replay_s", stats::median(&replays), replays.len());
    report.set("store.disk_bytes", procs::dir_bytes(&dir) as f64);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The first round's reports as `SubmitReports` frames.
fn frames(inputs: &Inputs, campaign: &str, max: usize) -> Vec<Request> {
    inputs
        .rounds
        .first()
        .map(|round| {
            round
                .chunks(FRAME)
                .take(max)
                .map(|chunk| Request::SubmitReports {
                    campaign: campaign.to_string(),
                    reports: chunk.to_vec(),
                    ctx: None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// `Request`/`Response` encode and decode of the workload's own submit
/// frames and their acks. Returns the median µs per frame of each.
fn wire(report: &mut Report, inputs: &Inputs) -> (f64, f64) {
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut bytes = 0usize;
    let mut reports = 0usize;
    for request in frames(inputs, "probe", 800) {
        let Request::SubmitReports { reports: batch, .. } = &request else {
            continue;
        };
        let ack = Response::Submitted {
            queued: batch.len() as u64,
        };
        let span = spans::begin("wire.encode", 0, batch.len() as u64, None);
        let started = Instant::now();
        let frame = request.encode();
        let ack_frame = ack.encode();
        encode_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(span);
        let span = spans::begin("wire.decode", 0, frame.len() as u64, None);
        let started = Instant::now();
        let decoded = Request::decode(&frame[FRAME_HEADER_LEN..]);
        let decoded_ack = Response::decode(&ack_frame[FRAME_HEADER_LEN..]);
        decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(span);
        report.check(
            decoded.as_ref() == Ok(&request) && decoded_ack.as_ref() == Ok(&ack),
            || "a submit frame did not decode to what was encoded".to_string(),
        );
        bytes += frame.len();
        reports += batch.len();
    }
    let (enc, dec) = (stats::median(&encode_us), stats::median(&decode_us));
    report.set_n("wire.encode_us_per_frame", enc, encode_us.len());
    report.set_n("wire.decode_us_per_frame", dec, decode_us.len());
    report.set(
        "wire.bytes_per_report",
        bytes as f64 / reports.max(1) as f64,
    );
    (enc, dec)
}

/// `CampaignRegistry::handle` replaying the workload's request sequence
/// in-process (durable, as served). Returns the median submit µs.
fn registry(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &Inputs,
    reference: &Reference,
    want_refused: bool,
) -> Result<f64, String> {
    let dir = ctx.dir("probe-registry");
    let registry = CampaignRegistry::new(RegistryConfig {
        wal_root: Some(dir.clone()),
        ..RegistryConfig::default()
    });
    let campaign = "r0".to_string();
    let created = registry.handle(Request::CreateCampaign {
        campaign: campaign.clone(),
        spec: inputs.shape.spec(inputs.seed),
    });
    if !matches!(created, Response::Created { .. }) {
        return Err(format!("registry probe create: {created:?}"));
    }
    let (mut submit_us, mut close_ms, mut query_us) = (Vec::new(), Vec::new(), Vec::new());
    for (r, round) in inputs.rounds.iter().enumerate() {
        for chunk in round.chunks(FRAME) {
            let request = Request::SubmitReports {
                campaign: campaign.clone(),
                reports: chunk.to_vec(),
                ctx: None,
            };
            let span = spans::begin("registry.submit", 0, chunk.len() as u64, None);
            let started = Instant::now();
            let response = registry.handle(request);
            submit_us.push(started.elapsed().as_secs_f64() * 1e6);
            drop(span);
            let ok = matches!(response, Response::Submitted { .. });
            report.op(
                "registry submit",
                if ok {
                    Ok(())
                } else {
                    Err(format!("{response:?}"))
                },
            );
        }
        let span = spans::begin("registry.close", 0, r as u64, None);
        let started = Instant::now();
        let response = registry.handle(Request::CloseRound {
            campaign: campaign.clone(),
            epoch: r as u64,
        });
        close_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(span);
        match response {
            Response::RoundClosed { weights_digest, .. } => {
                report.ok_ops(1);
                report.check(weights_digest == reference.digests[r], || {
                    format!("registry probe round {r}: digest differs from the reference")
                });
            }
            other => {
                report.op::<(), _>("registry close", Err(format!("{other:?}")));
            }
        }
        let span = spans::begin("registry.query_truths", 0, r as u64, None);
        let started = Instant::now();
        let response = registry.handle(Request::QueryTruths {
            campaign: campaign.clone(),
        });
        query_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(span);
        let ok = matches!(response, Response::Truths { .. });
        report.op(
            "registry query",
            if ok {
                Ok(())
            } else {
                Err(format!("{response:?}"))
            },
        );
    }
    if want_refused {
        report.set(
            "server.refused_busy",
            served_wl::campaign_sum(&registry.status_snapshot(), names::REFUSED_BUSY),
        );
    }
    registry.finalize();
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
    let submit = stats::median(&submit_us);
    report.set_n("registry.submit_us", submit, submit_us.len());
    report.set_n(
        "registry.close_ms",
        stats::median(&close_ms),
        close_ms.len(),
    );
    report.set_n(
        "registry.query_truths_us",
        stats::median(&query_us),
        query_us.len(),
    );
    Ok(submit)
}

/// Submit and ping round trips against an in-process `Server` (the same
/// reactor front end `dptd serve` runs) over loopback, for workloads
/// without a server process of their own.
fn transport(inputs: &Inputs) -> Result<Transport, String> {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let outcome = (|| {
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut spec = inputs.shape.spec(inputs.seed);
        spec.durable = false;
        client
            .create_campaign("t0", spec)
            .map_err(|e| e.to_string())?;
        let mut out = Transport::default();
        // 200 frames stay inside the campaign's submission queue.
        for request in frames(inputs, "t0", 200) {
            let Request::SubmitReports { reports, .. } = request else {
                continue;
            };
            let span = spans::begin("client.submit", 1, reports.len() as u64, None);
            let started = Instant::now();
            client.submit("t0", reports).map_err(|e| e.to_string())?;
            out.submit_rtt_us
                .push(started.elapsed().as_secs_f64() * 1e6);
            drop(span);
            let span = spans::begin("client.ping", 1, 0, None);
            out.ping_us.push(served_wl::ping(&mut client)?);
            drop(span);
        }
        Ok(out)
    })();
    server.shutdown();
    outcome
}
