//! Campaign shapes, input generation and the in-process references
//! every served and clustered run is checked against.

use dptd_engine::{ArrivalProcess, LoadGen, LoadGenConfig};
use dptd_ldp::PrivacyLoss;
use dptd_protocol::campaign::{
    CampaignConfig, CampaignDriver, RoundBackend, RoundInput, SimBackend,
};
use dptd_protocol::message::StampedReport;
use dptd_server::CampaignSpec;
use dptd_stats::digest::{fnv1a_f64s, Fnv1a};
use dptd_truth::Loss;

use crate::spans;

/// Reports per submitted frame (and per coordinator `submit` slice).
pub const FRAME: usize = 256;

/// Per-round privacy loss of every benchmark campaign.
pub const ROUND_EPSILON: f64 = 0.5;
/// Per-round δ.
pub const ROUND_DELTA: f64 = 1e-5;

/// Rounds a campaign's budget covers: more than any run closes, so no
/// user ever exhausts.
pub const BUDGET_ROUNDS: f64 = 10_000.0;

/// The shape of one campaign's generated input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Population.
    pub users: usize,
    /// Objects per round.
    pub objects: usize,
    /// Rounds generated. A campaign running longer reuses them in
    /// order, re-stamped with its own epoch (see [`Inputs::round`]).
    pub rounds: u64,
    /// Per-round participation churn.
    pub churn: f64,
    /// Duplicate-transmission probability.
    pub dup: f64,
    /// Straggler probability.
    pub straggler: f64,
    /// Engine shards the campaign's server-side engine runs.
    pub shards: usize,
}

impl Shape {
    /// The load-generator configuration for `seed`.
    pub fn load_config(&self, seed: u64) -> LoadGenConfig {
        LoadGenConfig {
            num_users: self.users,
            num_objects: self.objects,
            epochs: self.rounds,
            duplicate_probability: self.dup,
            straggler_fraction: self.straggler,
            churn: self.churn,
            arrival: ArrivalProcess::Poisson,
            seed,
            ..LoadGenConfig::default()
        }
    }

    /// The campaign-layer configuration: a budget no user can exhaust
    /// within [`BUDGET_ROUNDS`] rounds.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            num_objects: self.objects,
            deadline_us: LoadGenConfig::default().epoch_len_us,
            per_round_loss: PrivacyLoss::new(ROUND_EPSILON, ROUND_DELTA)
                .expect("valid per-round loss"),
            budget: PrivacyLoss::new(ROUND_EPSILON * BUDGET_ROUNDS, ROUND_DELTA * BUDGET_ROUNDS)
                .expect("valid budget"),
        }
    }

    /// Submission queue capacity: a whole round fits.
    pub fn submission_capacity(&self) -> u64 {
        (2 * self.users as u64).max(1 << 16)
    }

    /// The wire spec of a durable served campaign of this shape.
    pub fn spec(&self, seed: u64) -> CampaignSpec {
        let cfg = self.campaign_config();
        CampaignSpec {
            num_users: self.users as u64,
            num_objects: self.objects as u64,
            num_shards: self.shards as u64,
            workers: 0,
            engine_queue: 4_096,
            deadline_us: cfg.deadline_us,
            submission_capacity: self.submission_capacity(),
            per_round_epsilon: cfg.per_round_loss.epsilon(),
            per_round_delta: cfg.per_round_loss.delta(),
            budget_epsilon: cfg.budget.epsilon(),
            budget_delta: cfg.budget.delta(),
            stream_tag: stream_tag(&self.load_config(seed)),
            durable: true,
        }
    }
}

/// The input stream's fingerprint, stamped into durable records (the
/// same fields `dptd submit` hashes).
pub fn stream_tag(cfg: &LoadGenConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(cfg.seed);
    h.write_u64(cfg.num_users as u64);
    h.write_u64(cfg.num_objects as u64);
    h.write_u64(cfg.epoch_len_us);
    h.write_f64(cfg.lambda2);
    h.write_f64(cfg.coverage);
    h.write_f64(cfg.duplicate_probability);
    h.write_f64(cfg.straggler_fraction);
    h.write_f64(cfg.churn);
    h.finish()
}

/// One campaign's generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The shape it was generated with.
    pub shape: Shape,
    /// Its seed.
    pub seed: u64,
    /// Reports per round, in stream order.
    pub rounds: Vec<Vec<StampedReport>>,
    /// Seconds spent in `LoadGen::epoch_reports` (client-side
    /// perturbation included).
    pub perturb_s: f64,
}

impl Inputs {
    /// Generate every round of `shape` for `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Result<Self, String> {
        let load = LoadGen::new(shape.load_config(seed)).map_err(|e| e.to_string())?;
        let mut perturb_s = 0.0;
        let rounds = (0..shape.rounds)
            .map(|e| {
                let span = spans::begin("ldp.epoch_reports", 0, e, None);
                let reports = load.epoch_reports(e);
                perturb_s += span.end();
                reports
            })
            .collect();
        Ok(Self {
            shape,
            seed,
            rounds,
            perturb_s,
        })
    }

    /// The reports of campaign round `epoch`: generated round
    /// `epoch % rounds`, stamped with `epoch`.
    pub fn round(&self, epoch: u64) -> Vec<StampedReport> {
        let pool = &self.rounds[(epoch % self.rounds.len() as u64) as usize];
        pool.iter()
            .map(|s| StampedReport { epoch, ..s.clone() })
            .collect()
    }

    /// Every report of every generated round.
    pub fn total_reports(&self) -> u64 {
        self.rounds.iter().map(|r| r.len() as u64).sum()
    }
}

/// Per-round weights digests and the final debit ledger of an
/// in-process `CampaignDriver` run: the reference served and clustered
/// rounds must equal, recomputed for whatever seed the run was given.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Weights digest after round `r`.
    pub digests: Vec<u64>,
    /// Rounds debited per user after the last round.
    pub final_ledger: Vec<u32>,
}

impl Reference {
    /// Run campaign rounds `0..rounds` of `inputs` through
    /// `CampaignDriver<SimBackend>`.
    pub fn compute(inputs: &Inputs, rounds: u64) -> Result<Self, String> {
        let shape = inputs.shape;
        let backend = SimBackend::new(shape.users, Loss::Squared).map_err(|e| e.to_string())?;
        let mut driver =
            CampaignDriver::new(backend, shape.campaign_config()).map_err(|e| e.to_string())?;
        let mut digests = Vec::with_capacity(rounds as usize);
        for e in 0..rounds {
            let round = driver
                .run_round(e, inputs.round(e))
                .map_err(|err| format!("reference round {e}: {err}"))?;
            digests.push(fnv1a_f64s(&round.weights));
        }
        Ok(Self {
            digests,
            final_ledger: driver.accountant().debits_by_user().to_vec(),
        })
    }
}

/// Final weights digest of the stream run as one uninterrupted sequence
/// of `SimBackend` rounds — the engine's pinned-equal reference.
pub fn stream_digest(inputs: &Inputs) -> Result<u64, String> {
    let shape = inputs.shape;
    let mut sim = SimBackend::new(shape.users, Loss::Squared).map_err(|e| e.to_string())?;
    let cfg = shape.campaign_config();
    let mut weights = Vec::new();
    for (e, reports) in inputs.rounds.iter().enumerate() {
        let out = sim
            .run_round(RoundInput {
                epoch: e as u64,
                num_objects: shape.objects,
                deadline_us: cfg.deadline_us,
                reports: reports.clone(),
            })
            .map_err(|e| e.to_string())?;
        weights = out.weights;
    }
    Ok(fnv1a_f64s(&weights))
}
