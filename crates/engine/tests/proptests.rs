//! Property tests for the engine's headline guarantees:
//!
//! 1. `StreamingCrh` fed a single batch reproduces batch CRH (one
//!    refinement pass) **bit-for-bit** — the streaming estimator is not a
//!    different algorithm, just an incremental evaluation order.
//! 2. Engine output is **identical across shard counts** (1/2/4/8/16),
//!    worker counts (including an uneven 8-over-3 split) and queue
//!    capacities under a fixed seed, matches the single-shard
//!    `StreamingCrh` reference fed the canonical epoch batches, and its
//!    weights digest equals the in-process `SimBackend` campaign's.

use proptest::prelude::*;

use dptd_engine::{Engine, EngineConfig, LoadGen, LoadGenConfig};
use dptd_protocol::campaign::{RoundBackend, RoundInput, SimBackend};
use dptd_stats::digest::fnv1a_f64s;
use dptd_truth::crh::Crh;
use dptd_truth::streaming::StreamingCrh;
use dptd_truth::{Convergence, Loss, ObservationMatrix, TruthDiscoverer};

fn dense_matrix() -> impl Strategy<Value = ObservationMatrix> {
    (2usize..10, 1usize..6).prop_flat_map(|(s, n)| {
        prop::collection::vec(prop::collection::vec(-50.0..50.0f64, n), s).prop_map(move |rows| {
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            ObservationMatrix::from_dense(&refs).expect("valid dims")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_single_batch_is_one_pass_crh(m in dense_matrix()) {
        // StreamingCrh's ingest is exactly one CRH refinement pass over
        // the batch: its truths equal one-iteration batch CRH bit-for-bit,
        // and its committed weights (losses measured against the refined
        // truths) equal the weights two-iteration batch CRH lands on —
        // same algorithm, incremental evaluation order.
        for loss in [Loss::Squared, Loss::Absolute, Loss::NormalizedSquared] {
            let mut streaming = StreamingCrh::new(m.num_users(), loss).unwrap();
            let streamed = streaming.ingest(&m).unwrap();

            let one_pass = Crh::new(loss, Convergence::new(1e-12, 1).unwrap())
                .discover(&m).unwrap();
            prop_assert_eq!(&streamed, &one_pass.truths, "truths diverged ({:?})", loss);

            let two_pass = Crh::new(loss, Convergence::new(f64::MIN_POSITIVE, 2).unwrap())
                .discover(&m).unwrap();
            prop_assert_eq!(streaming.weights(), two_pass.weights.as_slice(),
                "weights diverged ({:?})", loss);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_truths_are_invariant_across_shard_counts(
        users in 16usize..80,
        objects in 1usize..5,
        epochs in 1u64..4,
        seed in 0u64..1000,
        dup in 0.0..0.4f64,
        straggle in 0.0..0.3f64,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: objects,
            epochs,
            duplicate_probability: dup,
            straggler_fraction: straggle,
            coverage: 0.8,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();

        // Single-shard reference: plain StreamingCrh over the canonical
        // epoch batches.
        let mut reference = StreamingCrh::new(users, Loss::Squared).unwrap();
        let mut ref_truths = Vec::new();
        for e in 0..epochs {
            ref_truths.push(reference.ingest(&load.epoch_matrix(e).unwrap()).unwrap());
        }

        // The in-process campaign reference, round by round.
        let mut sim = SimBackend::new(users, Loss::Squared).unwrap();
        let mut sim_weights = Vec::new();
        for e in 0..epochs {
            sim_weights = sim.run_round(RoundInput {
                epoch: e,
                num_objects: objects,
                deadline_us: load.config().epoch_len_us,
                reports: load.epoch_reports(e),
            }).unwrap().weights;
        }
        let sim_digest = fnv1a_f64s(&sim_weights);

        // (shards, workers, queue_capacity): 8 shards over 3 workers
        // splits unevenly (3/3/2); a capacity of 32 or 3 is below the
        // router's batch length, so batches are cut at the capacity (3
        // also fills batches mid-epoch and stalls the router on full
        // worker queues).
        let layouts = [(1usize, 1usize, 64usize), (4, 2, 64), (16, 0, 64), (8, 3, 64), (2, 1, 32), (4, 2, 3)];
        let mut outputs = Vec::new();
        for (shards, workers, queue_capacity) in layouts {
            let engine = Engine::new(EngineConfig {
                num_users: users,
                num_objects: objects,
                num_shards: shards,
                workers,
                queue_capacity,
                epoch_deadline_us: load.config().epoch_len_us,
                loss: Loss::Squared,
                merge_workers: 0,
            }).unwrap();
            let report = engine.run(load.stream()).unwrap();
            prop_assert_eq!(report.epochs.len() as u64, epochs);
            prop_assert_eq!(fnv1a_f64s(&report.final_weights), sim_digest,
                "{}x{} (capacity {}) digest diverged from SimBackend", shards, workers, queue_capacity);
            prop_assert_eq!(report.metrics.ingest_latency.count(), report.metrics.reports_submitted,
                "{}x{} (capacity {}) lost ingest-latency samples", shards, workers, queue_capacity);
            outputs.push(report);
        }

        for report in &outputs {
            for (e, outcome) in report.epochs.iter().enumerate() {
                prop_assert_eq!(&outcome.truths, &ref_truths[e],
                    "shard run diverged from reference at epoch {}", e);
            }
            prop_assert_eq!(report.final_weights.as_slice(), reference.weights(),
                "final weights diverged from reference");
        }
        // And bit-identical across the sharding layouts (the
        // shard-drift observable legitimately depends on the layout — a
        // single shard has zero drift by definition — so it is excluded).
        for w in outputs.windows(2) {
            for (a, b) in w[0].epochs.iter().zip(&w[1].epochs) {
                prop_assert_eq!(&a.truths, &b.truths);
                prop_assert_eq!(a.accepted, b.accepted);
                prop_assert_eq!(a.duplicates_discarded, b.duplicates_discarded);
                prop_assert_eq!(a.late_dropped, b.late_dropped);
            }
            prop_assert_eq!(&w[0].final_weights, &w[1].final_weights);
        }
    }

    #[test]
    fn engine_accounting_is_conservative(
        users in 16usize..60,
        seed in 0u64..500,
        dup in 0.0..0.5f64,
    ) {
        let load = LoadGen::new(LoadGenConfig {
            num_users: users,
            num_objects: 3,
            epochs: 2,
            duplicate_probability: dup,
            straggler_fraction: 0.2,
            seed,
            ..LoadGenConfig::default()
        }).unwrap();
        let engine = Engine::new(EngineConfig {
            num_users: users,
            num_objects: 3,
            num_shards: 4,
            queue_capacity: 32,
            epoch_deadline_us: load.config().epoch_len_us,
            ..EngineConfig::default()
        }).unwrap();
        let report = engine.run(load.stream()).unwrap();
        let m = &report.metrics;
        // Every submitted report is accounted for exactly once.
        prop_assert_eq!(
            m.reports_submitted,
            m.reports_accepted + m.duplicates_discarded + m.late_dropped
                + m.out_of_order_dropped,
            "accounting leak: {:?}", m
        );
        prop_assert_eq!(m.epochs_merged, 2);
        prop_assert_eq!(m.ingest_latency.count(), m.reports_submitted);
    }
}
