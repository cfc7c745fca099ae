//! What one run reports: operation counts, correctness checks, metrics
//! with their sample counts, and the final one-line JSON result.

use std::fmt::Display;

use crate::stats;

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reports_per_s", "reports/s"),
    ("peak_rss_mb", "MB"),
    ("submit_ack_p50_ms", "ms"),
    ("submit_ack_p99_ms", "ms"),
];

/// Per-layer metrics (name, unit), reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ldp.perturb_s", "s"),
    ("engine.route_busy_s", "s"),
    ("engine.filter_busy_s", "s"),
    ("engine.merge_busy_s", "s"),
    ("engine.backpressure_stalls", "count"),
    ("engine.max_queue_depth", "count"),
    ("engine.accept_ratio", "ratio"),
    ("protocol.run_round_ms", "ms"),
    ("protocol.self_ms_per_round", "ms"),
    ("store.append_ms_per_round", "ms"),
    ("store.sync_ms_per_round", "ms"),
    ("store.write_atomic_ms_per_round", "ms"),
    ("store.bytes_per_round", "bytes"),
    ("store.syncs_per_round", "count"),
    ("store.bytes_per_report", "bytes"),
    ("store.disk_bytes", "bytes"),
    ("store.replay_s", "s"),
    ("wire.encode_us_per_frame", "us"),
    ("wire.decode_us_per_frame", "us"),
    ("wire.bytes_per_report", "bytes"),
    ("registry.submit_us", "us"),
    ("registry.close_ms", "ms"),
    ("registry.query_truths_us", "us"),
    ("server.refused_busy", "count"),
    ("transport.ping_rtt_us", "us"),
    ("transport.unattributed_share", "ratio"),
    ("cluster.barrier_prepare_ms", "ms"),
    ("cluster.barrier_commit_ms", "ms"),
    ("cluster.node_drain_ms", "ms"),
    ("cluster.node_commit_ms", "ms"),
    ("cluster.barrier_overhead_ms", "ms"),
    ("cluster.partition_skew", "ratio"),
    ("cluster.submit_ms_per_round", "ms"),
    ("replication.bytes_per_round", "bytes"),
    ("replication.ship_ms_per_round", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metrics printed for information only (the workloads that measure
/// them print them; the gated result carries [`END_TO_END`]).
pub const INFO: &[(&str, &str)] = &[
    ("round_close_p50_ms", "ms"),
    ("round_close_p90_ms", "ms"),
    ("recovery_s", "s"),
];

/// Submits per block: the p99 of a block leaves exactly ten samples
/// beyond it, as the percentile rule asks.
pub const BLOCK: usize = 1000;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(INFO)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// One reported value.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    /// Samples behind the value (`None` for a single measurement or an
    /// exact count).
    samples: Option<usize>,
}

/// The accumulating result of a run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra lines printed before the result (informational metrics,
    /// shares, warnings).
    pub notes: Vec<String>,
}

impl Report {
    /// Count one attempted operation; an `Err` counts as failed and is
    /// noted. Returns the value on success.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.mismatches.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Count `n` attempted operations that all succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Compare an output against its reference; a mismatch fails the
    /// operation it belongs to and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Record a metric measured once (or an exact count).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: None,
        });
    }

    /// Record a metric computed from `samples` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples: Some(samples),
        });
    }

    /// Record `setup_s` as the median of the set-ups run.
    pub fn setup(&mut self, secs: &[f64]) {
        self.set_n("setup_s", stats::median(secs), secs.len());
        let each: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
        self.notes.push(format!("set-ups (s): {}", each.join(" ")));
    }

    /// Record `reports_per_s`, `submit_ack_p50_ms` and
    /// `submit_ack_p99_ms` as medians over the run's quiet blocks (those
    /// with no more host CPU steal than the median block, see
    /// [`stats::quiet`]).
    pub fn throughput_blocks(&mut self, blocks: &[stats::Block], what: &str) {
        let quiet = stats::quiet(blocks);
        let med =
            |f: fn(&stats::Block) -> f64| stats::median(&quiet.iter().map(f).collect::<Vec<_>>());
        let samples = quiet.iter().map(|b| b.samples).sum();
        self.set_n("reports_per_s", med(|b| b.rate), samples);
        self.set_n("submit_ack_p50_ms", med(|b| b.p50), samples);
        self.set_n("submit_ack_p99_ms", med(|b| b.tail), samples);
        let each: Vec<String> = blocks
            .iter()
            .map(|b| format!("{:.0}/{:.3}/{:.1}", b.rate, b.tail, b.steal * 100.0))
            .collect();
        self.notes.push(format!(
            "reports_per_s and submit_ack_*: medians over the {} of {} {what} with the least \
             host steal; per block rate/p99 ms/steal %: {}",
            quiet.len(),
            blocks.len(),
            each.join(" ")
        ));
    }

    /// One segment's submits cut into blocks of [`BLOCK`]; a segment too
    /// short for one block becomes a single block, with a warning that
    /// its p99 breaks the percentile rule.
    pub fn blocks(&mut self, samples: &[stats::Sample]) -> Vec<stats::Block> {
        let blocks = stats::blocks(samples, BLOCK, 99.0);
        if blocks.is_empty() && !samples.is_empty() {
            self.notes.push(format!(
                "warning: a segment had only {} submit(s), fewer than one block of {BLOCK}",
                samples.len()
            ));
            return stats::blocks(samples, samples.len(), 99.0);
        }
        blocks
    }

    /// `trace.overhead_pct`: how much lower the median rate of the quiet
    /// traced blocks is than that of the quiet untraced ones.
    pub fn overhead(&mut self, plain: &[stats::Block], traced: &[stats::Block]) {
        let rate = |b: &[stats::Block]| {
            stats::median(&stats::quiet(b).iter().map(|b| b.rate).collect::<Vec<_>>())
        };
        self.set(
            "trace.overhead_pct",
            (1.0 - rate(traced) / rate(plain)) * 100.0,
        );
    }

    /// Record the median and a tail percentile of `xs` under two names,
    /// noting when the tail breaks the percentile rule.
    pub fn latency(&mut self, p50: &'static str, tail: &'static str, p: f64, xs: &[f64]) {
        self.set_n(p50, stats::median(xs), xs.len());
        self.set_n(tail, stats::percentile(xs, p), xs.len());
        if !stats::tail_is_supported(xs.len(), p) {
            self.notes.push(format!(
                "warning: {tail} rests on {} sample(s) beyond it (rule: >= {}; {} samples needed)",
                stats::samples_beyond(xs.len(), p),
                stats::TAIL_SAMPLES,
                stats::samples_needed(p)
            ));
        }
    }

    /// Print every note, every metric of `wanted` with unit and sample
    /// count, and the final JSON line. Returns whether the run was
    /// correct. A wanted metric that was never set, or that is not a
    /// finite number, is a harness bug and aborts without a result.
    pub fn finish(self, wanted: &[(&str, &str)]) -> Result<bool, String> {
        for mismatch in &self.mismatches {
            println!("MISMATCH {mismatch}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        let mut json = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let Some(m) = self.metrics.iter().rev().find(|m| m.name == name) else {
                return Err(format!("metric {name} was not measured"));
            };
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("metric {name:<34} {:>16.6} {unit}{samples}", m.value);
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        for (i, m) in self.metrics.iter().enumerate() {
            let shadowed = self.metrics[i + 1..]
                .iter()
                .any(|later| later.name == m.name);
            if shadowed || wanted.iter().any(|(n, _)| *n == m.name) {
                continue;
            }
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!(
                "info   {:<34} {:>16.6} {}{samples}",
                m.name,
                m.value,
                unit_of(m.name)
            );
        }
        let correct = self.correct();
        println!(
            "error_rate {:.6} ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of BENCHMARK.json.
    fn names_in(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &doc[start..];
        let end = rest.find(']').expect("array end");
        let body = &rest[..end];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let tail = &obj[at..];
            let open = tail.find('"').expect("value start") + 1;
            let close = open + tail[open..].find('"').expect("value end");
            tail[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metric_names_match_benchmark_json_exactly() {
        let doc = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        assert_eq!(names_in(&doc, "end_to_end"), listed(END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn finish_refuses_missing_metrics_and_counts_failures() {
        let mut r = Report::default();
        r.ok_ops(3);
        r.check(false, || "digest differs".to_string());
        assert!(!r.correct());
        assert!((r.error_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(r.finish(&[("setup_s", "s")]).is_err());

        let mut r = Report::default();
        assert_eq!(r.op("x", Err::<(), _>("boom")), None);
        r.set("setup_s", 0.5);
        assert_eq!(r.finish(&[("setup_s", "s")]), Ok(false));
    }
}
