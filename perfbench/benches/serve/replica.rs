//! A single-threaded replica of one serving shard's loop, timed around
//! every call into a layer's public function.
//!
//! It reproduces what `sibyl_serve::serve_stream` does for a one-shard,
//! independent-mode run with observers off: the same footprint-resolved
//! capacities, shard and migrator seeds, `time_scale` compression, batch
//! boundaries, §10 decide and train billing and migration ticks. Only
//! the router thread and its channel are missing, so the untraced wall
//! time minus the replica's loop time is the engine's own cost.
//! [`Replica::parity`] checks the reproduction against the engine's
//! report before any number is used.

use std::collections::HashSet;
use std::time::Instant;

use sibyl_core::{AgentStats, SibylAgent, TrainingMode};
use sibyl_hss::{AccessOutcome, HssStats, StorageManager};
use sibyl_migrate::Migrator;
use sibyl_serve::{ServeConfig, ShardReport};
use sibyl_trace::IoRequest;

/// A timed layer of the shard loop. Rows are named after the module
/// whose public function the row times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The request stream's `next`.
    TraceNext,
    /// `SibylAgent::place_batch` calls with no train step inside.
    CoreDecide,
    /// `SibylAgent::feedback_batch` calls with no train step inside.
    CoreFeedback,
    /// `place_batch` and `feedback_batch` calls during which a train
    /// step ran.
    CoreTrain,
    /// `StorageManager::access_after`, over a batch.
    HssAccess,
    /// `Migrator::tick`.
    MigrateTick,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::TraceNext,
        Layer::CoreDecide,
        Layer::CoreFeedback,
        Layer::CoreTrain,
        Layer::HssAccess,
        Layer::MigrateTick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::TraceNext => "trace.next",
            Layer::CoreDecide => "core.decide",
            Layer::CoreFeedback => "core.feedback",
            Layer::CoreTrain => "core.train",
            Layer::HssAccess => "hss.access",
            Layer::MigrateTick => "migrate.tick",
        }
    }
}

/// Per-call wall-time samples (ns) of one layer, plus the requests the
/// calls covered.
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub samples_ns: Vec<u64>,
    pub requests: u64,
}

impl Row {
    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }

    fn record(&mut self, ns: u64, requests: usize) {
        self.samples_ns.push(ns);
        self.requests += requests as u64;
    }
}

/// Everything one traced replica run produced.
#[derive(Debug, Clone)]
pub struct Replica {
    pub requests: u64,
    /// Wall time of the batch loop (ns): from the first stream pull to
    /// the end of the last batch.
    pub loop_ns: u64,
    /// One row per layer, in [`Layer::ALL`] order.
    pub rows: [Row; Layer::ALL.len()],
    /// Wall time of each whole batch through the loop (ns).
    pub batch_ns: Vec<u64>,
    pub nn_busy_us: f64,
    pub train_busy_us: f64,
    pub migrations: u64,
    pub migration_busy_us: f64,
    pub directory_pages: u64,
    pub directory_bytes: u64,
    pub stats: HssStats,
    pub agent: AgentStats,
}

impl Replica {
    pub fn row(&self, layer: Layer) -> &Row {
        &self.rows[layer as usize]
    }

    /// Loop time no row covers: bookkeeping between the calls and the
    /// timer reads themselves.
    pub fn unattributed_ns(&self) -> i64 {
        self.loop_ns as i64 - self.rows.iter().map(|r| r.total_ns() as i64).sum::<i64>()
    }

    /// Differences between this replica and the engine's one shard, by
    /// field; empty when the replica reproduced the engine exactly.
    pub fn parity(&self, shard: &ShardReport) -> Vec<String> {
        let mut diffs = Vec::new();
        let mut check = |field: &str, same: bool, detail: String| {
            if !same {
                diffs.push(format!("{field}: {detail}"));
            }
        };
        check(
            "requests",
            self.requests == shard.requests,
            format!("{} vs {}", self.requests, shard.requests),
        );
        check(
            "stats",
            self.stats == shard.stats,
            format!("{:?} vs {:?}", self.stats, shard.stats),
        );
        check(
            "agent",
            self.agent == shard.agent,
            format!("{:?} vs {:?}", self.agent, shard.agent),
        );
        check(
            "migrations",
            self.migrations == shard.migrations,
            format!("{} vs {}", self.migrations, shard.migrations),
        );
        check(
            "migration_busy_us",
            self.migration_busy_us.to_bits() == shard.migration_busy_us.to_bits(),
            format!("{} vs {}", self.migration_busy_us, shard.migration_busy_us),
        );
        check(
            "nn_busy_us",
            self.nn_busy_us.to_bits() == shard.nn_busy_us.to_bits(),
            format!("{} vs {}", self.nn_busy_us, shard.nn_busy_us),
        );
        check(
            "train_busy_us",
            self.train_busy_us.to_bits() == shard.train_busy_us.to_bits(),
            format!("{} vs {}", self.train_busy_us, shard.train_busy_us),
        );
        check(
            "directory",
            (self.directory_pages, self.directory_bytes)
                == (shard.directory_pages, shard.directory_bytes),
            format!(
                "{}/{} vs {}/{}",
                self.directory_pages,
                self.directory_bytes,
                shard.directory_pages,
                shard.directory_bytes
            ),
        );
        diffs
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Runs the replica over `input` under `config`, which must describe a
/// one-shard, independent-mode run with telemetry and x-ray off.
pub fn run<S>(config: &ServeConfig, input: S) -> Replica
where
    S: Iterator<Item = IoRequest> + Clone,
{
    assert_eq!(config.shards, 1, "the replica models exactly one shard");
    assert!(
        !config.coop.mode.is_cooperative(),
        "the replica models independent mode"
    );
    assert!(
        !config.telemetry.enabled() && !config.xray.enabled(),
        "the replica runs with observers off"
    );

    // Footprint pre-pass, as the engine's: fraction capacities resolve
    // against the pages this shard will hold.
    let mut pages: HashSet<u64> = HashSet::new();
    for req in input.clone() {
        pages.extend(req.pages());
    }
    let footprint = pages.len() as u64;
    drop(pages);

    let resolved = config.hss.resolved(footprint.max(1));
    let mut sibyl = config.sibyl.clone();
    sibyl.seed = config.shard_seed(0);
    sibyl.quant_mode = config.quant;
    sibyl.telemetry = config.telemetry;
    let mut migrate = config.migrate.clone();
    migrate.seed = config.migrate_seed(0);
    let mut manager = StorageManager::new(&resolved);
    let mut agent = SibylAgent::new(sibyl);
    let mut migrator = Migrator::new(migrate);
    let bill_training =
        config.nn_ns_per_mac > 0.0 && agent.config().training_mode == TrainingMode::Synchronous;

    let mut rows: [Row; Layer::ALL.len()] = Default::default();
    let mut batch_ns = Vec::new();
    let mut input = input.map(|mut req| {
        if config.time_scale != 1.0 {
            req.timestamp_us = (req.timestamp_us as f64 / config.time_scale) as u64;
        }
        req
    });
    let mut batch: Vec<IoRequest> = Vec::with_capacity(config.max_batch);
    let mut outcomes: Vec<AccessOutcome> = Vec::with_capacity(config.max_batch);
    let mut requests = 0u64;
    let mut batches = 0u64;
    let mut nn_busy_us = 0.0f64;
    let mut train_busy_us = 0.0f64;
    let mut pending_train_us = 0.0f64;
    let mut charged_train_steps = 0u64;
    let mut migrations = 0u64;
    let mut migration_busy_us = 0.0f64;

    let loop_start = Instant::now();
    let loop_ns = loop {
        let t_start = Instant::now();
        batch.clear();
        batch.extend(input.by_ref().take(config.max_batch));
        let t_filled = Instant::now();
        if batch.is_empty() {
            break ns_between(loop_start, t_filled);
        }
        let n = batch.len();
        rows[Layer::TraceNext as usize].record(ns_between(t_start, t_filled), n);

        let steps_before = agent.stats().train_steps;
        let targets = agent.place_batch(&batch, &manager);
        let t_placed = Instant::now();
        let layer = if agent.stats().train_steps > steps_before {
            Layer::CoreTrain
        } else {
            Layer::CoreDecide
        };
        rows[layer as usize].record(ns_between(t_filled, t_placed), n);

        let batch_decide_us =
            config
                .decide_cost
                .batch_us(agent.inference_macs(), config.nn_ns_per_mac, n);
        let per_req_nn_us = batch_decide_us / n as f64;
        let per_req_delay_us = per_req_nn_us + pending_train_us / n as f64;
        pending_train_us = 0.0;
        outcomes.clear();
        let t_access = Instant::now();
        for (req, &target) in batch.iter().zip(&targets) {
            nn_busy_us += per_req_nn_us;
            outcomes.push(manager.access_after(req, target, per_req_delay_us));
        }
        let t_accessed = Instant::now();
        rows[Layer::HssAccess as usize].record(ns_between(t_access, t_accessed), n);

        let steps_before = agent.stats().train_steps;
        agent.feedback_batch(&outcomes);
        let t_fed = Instant::now();
        let layer = if agent.stats().train_steps > steps_before {
            Layer::CoreTrain
        } else {
            Layer::CoreFeedback
        };
        rows[layer as usize].record(ns_between(t_accessed, t_fed), n);

        if bill_training {
            let new_steps = agent.stats().train_steps - charged_train_steps;
            if new_steps > 0 {
                let step_us = agent.inference_macs().map_or(0.0, |macs| {
                    2.0 * agent.config().batches_per_step as f64
                        * macs as f64
                        * config.nn_ns_per_mac
                        / 1_000.0
                });
                let billed = new_steps as f64 * step_us;
                pending_train_us += billed;
                train_busy_us += billed;
            }
            charged_train_steps = agent.stats().train_steps;
        }
        batches += 1;
        requests += n as u64;
        if let Some(m) = &mut migrator {
            if batches.is_multiple_of(m.config().scan_period) {
                let t_tick = Instant::now();
                let tick = m.tick(&mut manager);
                rows[Layer::MigrateTick as usize].record(ns_between(t_tick, Instant::now()), 0);
                migrations += tick.moved_pages;
                migration_busy_us += tick.busy_us;
            }
        }
        batch_ns.push(ns_between(t_start, Instant::now()));
    };

    Replica {
        requests,
        loop_ns,
        rows,
        batch_ns,
        nn_busy_us,
        train_busy_us,
        migrations,
        migration_busy_us,
        directory_pages: manager.directory().len() as u64,
        directory_bytes: manager.directory().directory_bytes() as u64,
        stats: manager.stats().clone(),
        agent: agent.stats().clone(),
    }
}
