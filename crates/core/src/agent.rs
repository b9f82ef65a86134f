//! The Sibyl agent: an online reinforcement-learning placement policy.
//!
//! This is the paper's contribution assembled: per-request observation of
//! the Table 1 state features, ε-greedy action selection from an
//! inference network, reward computed from served latency and eviction
//! penalty (Eq. 1), experience collection into a replay buffer, periodic
//! training of a separate training network, and training → inference
//! weight copies every `train_interval` requests (Algorithm 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sibyl_hss::{AccessOutcome, DeviceId, PlacementContext, PlacementPolicy, StorageManager};
use sibyl_nn::Mlp;
use sibyl_telemetry::{Log2Histogram, Registry};
use sibyl_trace::IoRequest;

use crate::buffer::Experience;
use crate::config::{QuantMode, SibylConfig, TrainingMode};
use crate::features::StateEncoder;
use crate::learner::{Learner, ValueHead};
use crate::reward::RewardShaper;
use crate::trainer::BackgroundTrainer;

/// Counters describing the agent's activity during a run.
///
/// Equality compares the *logical* counters only:
/// [`AgentStats::train_ns`] is wall-clock telemetry that legitimately
/// differs between two otherwise bit-identical runs, so it is excluded
/// from `PartialEq` — determinism tests can keep asserting whole-report
/// equality.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Placement decisions made.
    pub decisions: u64,
    /// Decisions taken by random exploration (ε branch).
    pub explorations: u64,
    /// Experiences pushed toward the learner.
    pub experiences: u64,
    /// Training steps completed (synchronous mode) or observed
    /// (background mode).
    pub train_steps: u64,
    /// Wall-clock nanoseconds spent inside training steps (the paper's
    /// §10 charges this to request latency in synchronous mode; in
    /// background mode it is the trainer thread's busy time as of the
    /// last weight adoption). Telemetry only — excluded from equality.
    pub train_ns: u64,
    /// Training→inference weight synchronizations.
    pub weight_syncs: u64,
    /// Experiences copied out through the experience tap toward a shared
    /// (cross-agent) replay pool.
    pub shared_published: u64,
    /// Foreign experiences absorbed from a shared replay pool.
    pub shared_absorbed: u64,
}

impl PartialEq for AgentStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `train_ns` (wall-clock telemetry). The
        // exhaustive destructuring makes adding a field a compile error
        // here, so new counters cannot silently escape equality.
        let AgentStats {
            decisions,
            explorations,
            experiences,
            train_steps,
            train_ns: _,
            weight_syncs,
            shared_published,
            shared_absorbed,
        } = self;
        *decisions == other.decisions
            && *explorations == other.explorations
            && *experiences == other.experiences
            && *train_steps == other.train_steps
            && *weight_syncs == other.weight_syncs
            && *shared_published == other.shared_published
            && *shared_absorbed == other.shared_absorbed
    }
}

impl Eq for AgentStats {}

/// Point-in-time snapshot of the agent's learning state — the RL
/// introspection probe the serving engine samples every `curve_every`
/// batches into the telemetry registry. Reading a probe is pure: it
/// consumes no RNG and touches no training state, so sampling it can
/// never perturb placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RlProbe {
    /// Current ε of the exploration anneal.
    pub epsilon: f64,
    /// Mean loss of the most recent training step, when one has run and
    /// telemetry is enabled (synchronous mode only — the background
    /// trainer does not publish losses).
    pub last_loss: Option<f32>,
    /// Experiences currently stored in the replay buffer (0 in
    /// background mode: the trainer thread owns the buffer).
    pub buffer_len: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Age distribution of the stored experiences in push counts
    /// (empty in background mode).
    pub buffer_age: Log2Histogram,
    /// Mean (best − second-best) Q-value gap over the greedy rows of the
    /// most recent decided batch — how decisively the policy is choosing
    /// (0 until a batch has been decided at `Full` telemetry).
    pub q_spread: f64,
    /// Normalized entropy of the chosen-action distribution of the most
    /// recent decided batch, in `[0, 1]` (0 until a batch has been
    /// decided at `Full` telemetry).
    pub argmax_entropy: f64,
    /// Training steps completed so far.
    pub train_steps: u64,
}

/// Introspection state, allocated only when telemetry is enabled so the
/// disabled path stays a null-pointer check.
#[derive(Debug, Default)]
struct Introspection {
    registry: Registry,
    last_loss: Option<f32>,
    last_q_spread: f64,
    last_argmax_entropy: f64,
}

/// Where training runs (resolved from [`TrainingMode`]).
#[derive(Debug)]
enum Engine {
    /// Learner runs inline on the decision path.
    Synchronous(Box<Learner>),
    /// Learner runs on a background thread (Fig. 7(a)).
    Background(BackgroundTrainer),
}

/// A decision awaiting its reward and next observation.
#[derive(Debug, Clone)]
struct Pending {
    obs: Vec<f32>,
    action: usize,
    reward: Option<f32>,
}

/// Lazily-built runtime state (needs the storage manager's shape).
#[derive(Debug)]
struct Runtime {
    encoder: StateEncoder,
    head: ValueHead,
    inference_net: Mlp,
    engine: Engine,
    shaper: RewardShaper,
    n_actions: usize,
    last_generation: u64,
}

/// The Sibyl reinforcement-learning data-placement agent.
///
/// # Examples
///
/// ```
/// use sibyl_core::{SibylAgent, SibylConfig};
/// use sibyl_hss::PlacementPolicy;
/// let agent = SibylAgent::new(SibylConfig::default());
/// assert_eq!(agent.name(), "Sibyl");
/// ```
#[derive(Debug)]
pub struct SibylAgent {
    config: SibylConfig,
    runtime: Option<Runtime>,
    pending: Option<Pending>,
    /// Decisions of the current [`SibylAgent::place_batch`] call, awaiting
    /// their rewards from [`SibylAgent::feedback_batch`].
    batch: Vec<Pending>,
    rng: StdRng,
    stats: AgentStats,
    pushes_seen: u64,
    next_train_at: u64,
    /// Experience-tap share fraction (0 = tap disabled).
    tap_fraction: f64,
    /// Fractional-stride accumulator of the tap (deterministic selection:
    /// an experience is published whenever the accumulator crosses 1).
    tap_acc: f64,
    /// Experiences selected by the tap since the last
    /// [`SibylAgent::take_published`].
    tapped: Vec<Experience>,
    /// Importance weight applied to absorbed foreign experiences
    /// (1.0 = equal footing with local ones).
    foreign_weight: f32,
    /// RL introspection state; `None` when telemetry is off.
    introspect: Option<Box<Introspection>>,
}

impl SibylAgent {
    /// Creates an agent with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`SibylConfig::validate`]).
    pub fn new(config: SibylConfig) -> Self {
        config.validate();
        let rng = StdRng::seed_from_u64(config.seed);
        let next_train_at = config.train_interval;
        let introspect = config
            .telemetry
            .enabled()
            .then(|| Box::new(Introspection::default()));
        SibylAgent {
            config,
            runtime: None,
            pending: None,
            batch: Vec::new(),
            rng,
            stats: AgentStats::default(),
            pushes_seen: 0,
            next_train_at,
            tap_fraction: 0.0,
            tap_acc: 0.0,
            tapped: Vec::new(),
            foreign_weight: 1.0,
            introspect,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &SibylConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The inference network's multiply-accumulate count per decision
    /// (§10.1), available once the agent has seen its first request.
    pub fn inference_macs(&self) -> Option<usize> {
        self.runtime.as_ref().map(|r| r.inference_net.mac_count())
    }

    fn ensure_runtime(&mut self, manager: &StorageManager) {
        if self.runtime.is_some() {
            return;
        }
        let n_actions = manager.num_devices();
        let encoder = StateEncoder::new(self.config.feature_mask, n_actions);
        let obs_len = encoder.observation_len();
        let head = ValueHead::new(&self.config, n_actions);
        let shaper = RewardShaper::new(
            self.config.reward_kind,
            self.config.eviction_penalty_coeff,
            manager.device(DeviceId(0)).spec().min_read_service_us(),
            self.config.clamp_eviction_reward,
            self.config.v_min as f64,
        );
        let (engine, mut inference_net) = match self.config.training_mode {
            TrainingMode::Synchronous => {
                let learner = Learner::new(&self.config, n_actions, obs_len);
                let net = learner.weights_snapshot();
                (Engine::Synchronous(Box::new(learner)), net)
            }
            TrainingMode::Background => {
                let trainer = BackgroundTrainer::spawn(&self.config, n_actions, obs_len);
                let net = trainer.published.lock().weights.clone();
                (Engine::Background(trainer), net)
            }
        };
        if self.config.quant_mode == QuantMode::F16 {
            // Shadow buffers stay in sync automatically: every weight
            // adoption below goes through Mlp::copy_weights_from or
            // Mlp::set_flat_params, both of which re-encode them.
            inference_net.enable_f16();
        }
        self.runtime = Some(Runtime {
            encoder,
            head,
            inference_net,
            engine,
            shaper,
            n_actions,
            last_generation: 0,
        });
    }

    /// Pushes a finalized experience into the learner and, in synchronous
    /// mode, runs due training steps + weight syncs.
    fn push_experience(&mut self, exp: Experience) {
        self.stats.experiences += 1;
        self.pushes_seen += 1;
        // Experience tap: deterministic stride selection — publish one
        // experience each time the fractional accumulator crosses 1, so a
        // fraction of f publishes every ⌈1/f⌉-th experience with no RNG
        // draw (the tap must not perturb the ε-greedy stream).
        if self.tap_fraction > 0.0 {
            self.tap_acc += self.tap_fraction;
            if self.tap_acc >= 1.0 {
                self.tap_acc -= 1.0;
                self.tapped.push(exp.clone());
                self.stats.shared_published += 1;
            }
        }
        let due = self.pushes_seen >= self.next_train_at;
        if due {
            self.next_train_at += self.config.train_interval;
        }
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: ensure_runtime ran at the top of this method
        let rt = self.runtime.as_mut().expect("runtime initialized");
        match &mut rt.engine {
            Engine::Synchronous(learner) => {
                learner.push(exp);
                if due {
                    if let Some(loss) = learner.train_step() {
                        rt.inference_net
                            .copy_weights_from(&learner.weights_snapshot());
                        self.stats.train_steps = learner.train_steps;
                        self.stats.train_ns = learner.train_ns;
                        self.stats.weight_syncs += 1;
                        if let Some(intro) = self.introspect.as_deref_mut() {
                            intro.last_loss = Some(loss);
                            intro.registry.series_push(
                                "rl.train_loss",
                                learner.train_steps,
                                f64::from(loss),
                            );
                        }
                    }
                }
            }
            Engine::Background(trainer) => {
                trainer.send(exp);
                // Adopt any newly published weights (cheap try-lock so the
                // decision path never blocks on the trainer).
                if let Some(p) = trainer.published.try_lock() {
                    if p.generation > rt.last_generation {
                        rt.inference_net.copy_weights_from(&p.weights);
                        rt.last_generation = p.generation;
                        self.stats.train_steps = p.train_steps;
                        self.stats.train_ns = p.train_ns;
                        self.stats.weight_syncs += 1;
                    }
                }
            }
        }
    }

    /// Makes placement decisions for a whole batch of requests at once,
    /// amortizing NN inference across the batch: the greedy decisions run
    /// through one [`Mlp::infer_batch`] matrix-matrix pass instead of
    /// one matrix-vector pass per request. This is the decision path of
    /// the `sibyl-serve` sharded serving engine.
    ///
    /// Observations are encoded against the manager state *before* any
    /// request of the batch is served — the staleness-for-throughput
    /// trade batched serving makes (request *k* of a batch does not see
    /// the residency/capacity effects of requests `0..k`). RNG
    /// consumption and ε-greedy annealing match the sequential
    /// [`PlacementPolicy::place`] path request for request, and the
    /// batched network outputs are bit-identical to per-request
    /// inference.
    ///
    /// Every `place_batch` call must be paired with a
    /// [`SibylAgent::feedback_batch`] call carrying the outcomes of the
    /// returned placements, in order. Do not interleave with the
    /// single-request [`PlacementPolicy::place`] path while a batch is
    /// outstanding.
    ///
    /// # Panics
    ///
    /// Panics if the previous batch was never completed with
    /// [`SibylAgent::feedback_batch`].
    pub fn place_batch(&mut self, reqs: &[IoRequest], manager: &StorageManager) -> Vec<DeviceId> {
        assert!(
            self.batch.is_empty(),
            "place_batch: previous batch still awaits feedback_batch"
        );
        if reqs.is_empty() {
            return Vec::new();
        }
        self.ensure_runtime(manager);
        let observations: Vec<Vec<f32>> = {
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: ensure_runtime ran at the top of this method
            let rt = self.runtime.as_ref().expect("runtime initialized");
            reqs.iter()
                .map(|req| rt.encoder.observe(req, manager).vector)
                .collect()
        };

        // Finalize the decision left over from the previous batch (or from
        // the sequential path) now that its next-state is known.
        self.finalize_pending(&observations[0]);

        let n_actions = self
            .runtime
            .as_ref()
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: ensure_runtime ran at the top of this method
            .expect("runtime initialized")
            .n_actions;
        let mut actions = vec![0usize; reqs.len()];
        let mut greedy = Vec::with_capacity(reqs.len());
        for (i, action) in actions.iter_mut().enumerate() {
            let eps = self.epsilon();
            if self.rng.gen::<f64>() < eps {
                self.stats.explorations += 1;
                *action = self.rng.gen_range(0..n_actions);
            } else {
                greedy.push(i);
            }
            self.stats.decisions += 1;
        }
        if !greedy.is_empty() {
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: ensure_runtime ran at the top of this method
            let rt = self.runtime.as_ref().expect("runtime initialized");
            let obs_len = observations[0].len();
            let mut flat = Vec::with_capacity(greedy.len() * obs_len);
            for &i in &greedy {
                flat.extend_from_slice(&observations[i]);
            }
            // The only consumer of the quantized fast path: greedy batched
            // decisions. Exploration, the sequential `place` path, and all
            // training stay f32 regardless of the mode.
            let logits = match self.config.quant_mode {
                QuantMode::Off => rt.inference_net.infer_batch(&flat, greedy.len()),
                QuantMode::F16 => rt.inference_net.infer_batch_f16(&flat, greedy.len()),
            };
            let out_dim = rt.inference_net.out_dim();
            // Full-level introspection: Q-value decisiveness of the
            // greedy rows, read off the same Q-values the decision uses —
            // it consumes no RNG and changes no decision, and the Off
            // path skips it entirely.
            let intro = if self.config.telemetry.histograms() {
                self.introspect.as_deref_mut()
            } else {
                None
            };
            let mut spread_sum = 0.0f64;
            for (k, &i) in greedy.iter().enumerate() {
                let q = rt.head.q_values(&logits[k * out_dim..(k + 1) * out_dim]);
                // sibyl-lint: allow(unwrap-in-lib) -- invariant: q_values always returns n_actions > 0 entries
                actions[i] = sibyl_nn::argmax(&q).expect("at least one action");
                if intro.is_some() {
                    let mut best = f64::NEG_INFINITY;
                    let mut second = f64::NEG_INFINITY;
                    for &v in &q {
                        let v = f64::from(v);
                        if v > best {
                            second = best;
                            best = v;
                        } else if v > second {
                            second = v;
                        }
                    }
                    if second.is_finite() {
                        spread_sum += best - second;
                    }
                }
            }
            if let Some(intro) = intro {
                intro.last_q_spread = spread_sum / greedy.len() as f64;
            }
        }
        if self.config.telemetry.histograms() {
            if let Some(intro) = self.introspect.as_deref_mut() {
                intro.last_argmax_entropy = argmax_entropy(&actions, n_actions);
            }
        }
        self.batch = observations
            .into_iter()
            .zip(&actions)
            .map(|(obs, &action)| Pending {
                obs,
                action,
                reward: None,
            })
            .collect();
        actions.into_iter().map(DeviceId).collect()
    }

    /// Completes the current batch: shapes one reward per outcome, chains
    /// experiences within the batch (`⟨O_i, a_i, r_i, O_{i+1}⟩`), and
    /// leaves the batch's last decision pending until the next batch
    /// supplies its next-state observation. Runs due training steps and
    /// weight syncs exactly like the sequential feedback path.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len()` differs from the preceding
    /// [`SibylAgent::place_batch`] call's request count.
    pub fn feedback_batch(&mut self, outcomes: &[AccessOutcome]) {
        assert_eq!(
            outcomes.len(),
            self.batch.len(),
            "feedback_batch: one outcome per batched decision required"
        );
        // An empty round (paired with an empty place_batch) is a no-op; it
        // must not disturb the still-pending decision of a previous batch.
        if outcomes.is_empty() || self.runtime.is_none() {
            return;
        }
        let rewards: Vec<f32> = {
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: runtime.is_none() returned above
            let rt = self.runtime.as_ref().expect("runtime initialized");
            outcomes.iter().map(|o| rt.shaper.reward(o)).collect()
        };
        let mut batch = std::mem::take(&mut self.batch);
        for (pending, reward) in batch.iter_mut().zip(rewards) {
            pending.reward = Some(reward);
        }
        let last = batch.pop();
        for (i, pending) in batch.iter().enumerate() {
            let next_obs = if i + 1 < batch.len() {
                batch[i + 1].obs.clone()
            } else {
                // sibyl-lint: allow(unwrap-in-lib) -- invariant: batch.pop() is Some when the loop body runs
                last.as_ref().expect("non-empty batch").obs.clone()
            };
            self.push_experience(Experience {
                obs: pending.obs.clone(),
                action: pending.action,
                // sibyl-lint: allow(unwrap-in-lib) -- invariant: reward assigned in the zip loop above
                reward: pending.reward.expect("reward set above"),
                next_obs,
            });
        }
        self.pending = last;
    }

    /// Enables (or, with `0.0`, disables) the experience tap: the given
    /// fraction of subsequently collected experiences is copied aside for
    /// a shared replay pool, retrievable with
    /// [`SibylAgent::take_published`]. Selection is a deterministic
    /// stride over the experience sequence — no RNG is consumed, so
    /// enabling the tap never changes the agent's decisions.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn set_experience_tap(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "set_experience_tap: fraction must be in [0, 1]"
        );
        self.tap_fraction = fraction;
    }

    /// Drains the experiences the tap selected since the last call (empty
    /// when the tap is disabled).
    pub fn take_published(&mut self) -> Vec<Experience> {
        std::mem::take(&mut self.tapped)
    }

    /// Pushes foreign experiences (another agent's transitions from a
    /// shared replay pool) into this agent's replay buffer. They become
    /// sampling candidates for future training steps but do **not**
    /// advance the training schedule — only locally collected experiences
    /// trigger training — and the buffer's deduplication applies as
    /// usual. Each absorbed transition carries the weight configured via
    /// [`SibylAgent::set_foreign_weight`], scaling its loss contribution
    /// when sampled. No-op in [`TrainingMode::Background`] (the trainer
    /// owns the buffer) and before the first decision (no runtime yet).
    pub fn absorb_experiences(&mut self, exps: &[Experience]) {
        let Some(rt) = self.runtime.as_mut() else {
            return;
        };
        if let Engine::Synchronous(learner) = &mut rt.engine {
            for exp in exps {
                learner.push_weighted(exp.clone(), self.foreign_weight);
            }
            self.stats.shared_absorbed += exps.len() as u64;
        }
    }

    /// Sets the importance weight future
    /// [`SibylAgent::absorb_experiences`] calls attach to foreign
    /// transitions. At the default 1.0, absorbed experiences train on
    /// equal footing with local ones (bit-identical to the pre-weighting
    /// behavior); lower values shrink their loss and gradient
    /// contribution without touching the sampling distribution.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not in `[0, 1]`.
    pub fn set_foreign_weight(&mut self, weight: f64) {
        assert!(
            (0.0..=1.0).contains(&weight),
            "set_foreign_weight: weight must be in [0, 1]"
        );
        self.foreign_weight = weight as f32;
    }

    /// The training network's flat parameters — this agent's contribution
    /// to cooperative weight averaging. `None` before the first decision
    /// (no runtime yet) or in [`TrainingMode::Background`] (the trainer
    /// thread owns the training network).
    pub fn export_weights(&self) -> Option<Vec<f32>> {
        let rt = self.runtime.as_ref()?;
        match &rt.engine {
            Engine::Synchronous(learner) => Some(learner.flat_params()),
            Engine::Background(_) => None,
        }
    }

    /// Adopts externally averaged parameters: overwrites the training,
    /// bootstrap-target, *and* inference networks, so the next decision
    /// and the next training step both start from the adopted weights.
    /// Returns `false` (and changes nothing) before the first decision or
    /// in [`TrainingMode::Background`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the network's parameter
    /// count.
    pub fn import_weights(&mut self, params: &[f32]) -> bool {
        let Some(rt) = self.runtime.as_mut() else {
            return false;
        };
        match &mut rt.engine {
            Engine::Synchronous(learner) => {
                learner.set_flat_params(params);
                rt.inference_net.set_flat_params(params);
                self.stats.weight_syncs += 1;
                true
            }
            Engine::Background(_) => false,
        }
    }

    /// Test hook: reroute this agent's synchronous learner through the
    /// pre-refactor per-sample training reference so golden tests can
    /// drive the exact old path through the public machinery. Requires
    /// the runtime to exist (one request seen) and no training to have
    /// happened yet for a meaningful comparison.
    #[cfg(test)]
    fn force_reference_training(&mut self) {
        if let Some(rt) = self.runtime.as_mut() {
            if let Engine::Synchronous(learner) = &mut rt.engine {
                learner.use_reference_train = true;
            }
        }
    }

    /// Changes the learning rate online (synchronous mode only; the
    /// Sibyl_Opt configuration of §8.3 uses a lower rate from the start).
    pub fn set_learning_rate(&mut self, lr: f32) {
        if let Some(rt) = self.runtime.as_mut() {
            if let Engine::Synchronous(learner) = &mut rt.engine {
                learner.set_learning_rate(lr);
            }
        }
    }

    /// Finalizes the previous decision — if its reward has arrived — now
    /// that its next-state observation is known (experience =
    /// ⟨O_t, a_t, r_t, O_{t+1}⟩, §6 footnote 6). Shared by the sequential
    /// and batched decision paths.
    fn finalize_pending(&mut self, next_obs: &[f32]) {
        if let Some(prev) = self.pending.take() {
            if let Some(reward) = prev.reward {
                self.push_experience(Experience {
                    obs: prev.obs,
                    action: prev.action,
                    reward,
                    next_obs: next_obs.to_vec(),
                });
            }
        }
    }

    /// Current ε of the linear anneal from `exploration_initial` to the
    /// tuned final ε, driven by decisions made so far. Shared by the
    /// sequential and batched decision paths — the batched path's
    /// request-for-request RNG parity depends on both using the exact
    /// same schedule.
    fn epsilon(&self) -> f64 {
        let progress = if self.config.exploration_decay_requests == 0 {
            1.0
        } else {
            (self.stats.decisions as f64 / self.config.exploration_decay_requests as f64).min(1.0)
        };
        self.config.exploration_initial
            + (self.config.exploration - self.config.exploration_initial) * progress
    }

    /// Samples the RL introspection probe: exploration position, latest
    /// loss, replay-buffer occupancy and age distribution, and the
    /// decisiveness statistics of the most recent batch. Pure — consumes
    /// no RNG and mutates nothing, so callers may sample at any cadence
    /// without perturbing placement. Background mode degrades gracefully:
    /// the trainer thread owns the buffer, so occupancy reads 0 and the
    /// age histogram is empty.
    pub fn probe(&self) -> RlProbe {
        let (buffer_len, buffer_age) = match self.runtime.as_ref().map(|rt| &rt.engine) {
            Some(Engine::Synchronous(learner)) => {
                (learner.buffer.len(), learner.buffer.age_histogram())
            }
            _ => (0, Log2Histogram::new()),
        };
        let intro = self.introspect.as_deref();
        RlProbe {
            epsilon: self.epsilon(),
            last_loss: intro.and_then(|i| i.last_loss),
            buffer_len,
            buffer_capacity: self.config.buffer_capacity,
            buffer_age,
            q_spread: intro.map_or(0.0, |i| i.last_q_spread),
            argmax_entropy: intro.map_or(0.0, |i| i.last_argmax_entropy),
            train_steps: self.stats.train_steps,
        }
    }

    /// Drains the agent's internal telemetry registry (the `rl.*` loss
    /// series plus the `measured.train_ns` wall-clock total), for the
    /// serving engine to fold into its shard sink at teardown. `None`
    /// when telemetry is off. The registry restarts empty, so calling
    /// this mid-run partitions the series rather than duplicating it.
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        let intro = self.introspect.as_deref_mut()?;
        let mut registry = std::mem::take(&mut intro.registry);
        registry.counter_add("measured.train_ns", self.stats.train_ns);
        Some(registry)
    }
}

/// Normalized entropy (in `[0, 1]`) of the action distribution a decided
/// batch produced: 0 when every request went to one device, 1 when
/// placements split evenly across all `n_actions`.
fn argmax_entropy(actions: &[usize], n_actions: usize) -> f64 {
    if actions.is_empty() || n_actions < 2 {
        return 0.0;
    }
    let mut counts = vec![0u64; n_actions];
    for &a in actions {
        counts[a] += 1;
    }
    let total = actions.len() as f64;
    let mut h = 0.0f64;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.ln();
        }
    }
    h / (n_actions as f64).ln()
}

impl PlacementPolicy for SibylAgent {
    fn name(&self) -> &str {
        "Sibyl"
    }

    fn place(&mut self, req: &IoRequest, ctx: &PlacementContext<'_>) -> DeviceId {
        assert!(
            self.batch.is_empty(),
            "place: a place_batch call still awaits feedback_batch"
        );
        self.ensure_runtime(ctx.manager);
        let obs = {
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: ensure_runtime ran at the top of this method
            let rt = self.runtime.as_ref().expect("runtime initialized");
            rt.encoder.observe(req, ctx.manager)
        };

        // Finalize the previous decision now that its next-state is known.
        self.finalize_pending(&obs.vector);

        let eps = self.epsilon();
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: ensure_runtime ran at the top of this method
        let rt = self.runtime.as_mut().expect("runtime initialized");
        let explore = self.rng.gen::<f64>() < eps;
        let action = if explore {
            self.stats.explorations += 1;
            self.rng.gen_range(0..rt.n_actions)
        } else {
            let logits = rt.inference_net.infer(&obs.vector);
            rt.head.best_action(&logits)
        };
        self.stats.decisions += 1;
        self.pending = Some(Pending {
            obs: obs.vector,
            action,
            reward: None,
        });
        DeviceId(action)
    }

    fn feedback(&mut self, _req: &IoRequest, outcome: &AccessOutcome, _ctx: &PlacementContext<'_>) {
        let Some(rt) = self.runtime.as_ref() else {
            return;
        };
        if let Some(pending) = self.pending.as_mut() {
            pending.reward = Some(rt.shaper.reward(outcome));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceSpec, HssConfig};
    use sibyl_trace::IoOp;

    fn manager(fast_pages: u64) -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![fast_pages, u64::MAX]);
        StorageManager::new(&cfg)
    }

    fn fast_test_config() -> SibylConfig {
        SibylConfig {
            buffer_capacity: 256,
            train_interval: 128,
            batch_size: 32,
            batches_per_step: 2,
            n_atoms: 11,
            learning_rate: 0.01,
            exploration: 0.05,
            exploration_initial: 0.3,
            exploration_decay_requests: 500,
            ..Default::default()
        }
    }

    /// Drives the agent through a request stream against a real manager.
    fn drive(agent: &mut SibylAgent, mgr: &mut StorageManager, reqs: &[IoRequest]) {
        for (i, req) in reqs.iter().enumerate() {
            let target = {
                let ctx = PlacementContext {
                    manager: mgr,
                    seq: i as u64,
                };
                agent.place(req, &ctx)
            };
            let outcome = mgr.access(req, target);
            let ctx = PlacementContext {
                manager: mgr,
                seq: i as u64,
            };
            agent.feedback(req, &outcome, &ctx);
        }
    }

    fn hot_cold_stream(n: usize) -> Vec<IoRequest> {
        // Odd requests hammer 8 hot pages; even requests stream cold data.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    IoRequest::new(i as u64 * 300, (i as u64) % 8, 1, IoOp::Write)
                } else {
                    IoRequest::new(i as u64 * 300, 10_000 + i as u64 * 8, 8, IoOp::Read)
                }
            })
            .collect()
    }

    #[test]
    fn agent_runs_and_collects_experiences() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(600));
        let st = agent.stats();
        assert_eq!(st.decisions, 600);
        assert!(st.experiences >= 590, "experiences: {}", st.experiences);
        assert!(st.train_steps >= 3, "train steps: {}", st.train_steps);
        assert!(st.weight_syncs >= 3);
    }

    #[test]
    fn exploration_rate_drives_random_actions() {
        let mut mgr = manager(512);
        let mut cfg = fast_test_config();
        cfg.exploration = 0.5;
        cfg.exploration_initial = 0.5; // constant ε
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(1_000));
        let frac = agent.stats().explorations as f64 / agent.stats().decisions as f64;
        assert!((frac - 0.5).abs() < 0.1, "exploration fraction {frac}");
    }

    #[test]
    fn zero_exploration_is_always_greedy() {
        let mut mgr = manager(512);
        let mut cfg = fast_test_config();
        cfg.exploration = 0.0;
        cfg.exploration_initial = 0.0;
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(300));
        assert_eq!(agent.stats().explorations, 0);
    }

    #[test]
    fn exploration_anneals_from_initial_to_final() {
        let mut mgr = manager(512);
        let mut cfg = fast_test_config();
        cfg.exploration = 0.0;
        cfg.exploration_initial = 1.0;
        cfg.exploration_decay_requests = 200;
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(1_000));
        // Expected randoms ≈ ∫ anneal = 200·0.5 = 100, none afterwards.
        let e = agent.stats().explorations;
        assert!((60..=140).contains(&e), "explorations {e}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            drive(&mut agent, &mut mgr, &hot_cold_stream(500));
            mgr.stats().avg_latency_us()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "synchronous agent must be deterministic");
    }

    #[test]
    fn learns_to_keep_hot_pages_fast() {
        // A tiny fast device that fits the hot set but not the cold
        // stream: after training, the agent should place hot writes fast
        // much more often than cold streams.
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(4_000));
        // Compare against Slow-Only on the same workload.
        let mut slow_mgr = manager(64);
        for (i, req) in hot_cold_stream(4_000).iter().enumerate() {
            let _ = i;
            let _ = slow_mgr.access(req, DeviceId(1));
        }
        let sibyl_lat = mgr.stats().avg_latency_us();
        let slow_lat = slow_mgr.stats().avg_latency_us();
        assert!(
            sibyl_lat < slow_lat,
            "Sibyl ({sibyl_lat:.0} µs) should beat Slow-Only ({slow_lat:.0} µs)"
        );
    }

    #[test]
    fn background_mode_runs_and_shuts_down() {
        let mut mgr = manager(256);
        let mut cfg = fast_test_config();
        cfg.training_mode = TrainingMode::Background;
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(2_000));
        assert_eq!(agent.stats().decisions, 2_000);
        // Give the trainer a moment, then drop (joins the thread).
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(agent);
    }

    #[test]
    fn tri_device_action_space() {
        let cfg = HssConfig::tri(
            DeviceSpec::optane_ssd(),
            DeviceSpec::tlc_ssd(),
            DeviceSpec::hdd(),
        )
        .with_capacity_pages(vec![64, 128, u64::MAX]);
        let mut mgr = StorageManager::new(&cfg);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(900);
        drive(&mut agent, &mut mgr, &reqs);
        // All three devices should have received at least one placement.
        let placements = &mgr.stats().placements;
        assert_eq!(placements.len(), 3);
        assert_eq!(placements.iter().sum::<u64>(), 900);
    }

    /// Drives the agent through the batched decision path.
    fn drive_batched(
        agent: &mut SibylAgent,
        mgr: &mut StorageManager,
        reqs: &[IoRequest],
        batch: usize,
    ) {
        for chunk in reqs.chunks(batch) {
            let targets = agent.place_batch(chunk, mgr);
            let outcomes: Vec<AccessOutcome> = chunk
                .iter()
                .zip(&targets)
                .map(|(req, &t)| mgr.access(req, t))
                .collect();
            agent.feedback_batch(&outcomes);
        }
    }

    #[test]
    fn batched_drive_collects_experiences_and_trains() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive_batched(&mut agent, &mut mgr, &hot_cold_stream(600), 32);
        let st = agent.stats();
        assert_eq!(st.decisions, 600);
        assert!(st.experiences >= 590, "experiences: {}", st.experiences);
        assert!(st.train_steps >= 3, "train steps: {}", st.train_steps);
    }

    #[test]
    fn batched_drive_is_deterministic() {
        let run = || {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            drive_batched(&mut agent, &mut mgr, &hot_cold_stream(500), 16);
            mgr.stats().avg_latency_us()
        };
        assert_eq!(run(), run(), "batched agent must be deterministic");
    }

    #[test]
    fn batched_drive_learns_to_keep_hot_pages_fast() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        drive_batched(&mut agent, &mut mgr, &hot_cold_stream(4_000), 32);
        let mut slow_mgr = manager(64);
        for req in hot_cold_stream(4_000).iter() {
            let _ = slow_mgr.access(req, DeviceId(1));
        }
        let sibyl_lat = mgr.stats().avg_latency_us();
        let slow_lat = slow_mgr.stats().avg_latency_us();
        assert!(
            sibyl_lat < slow_lat,
            "batched Sibyl ({sibyl_lat:.0} µs) should beat Slow-Only ({slow_lat:.0} µs)"
        );
    }

    #[test]
    #[should_panic(expected = "one outcome per batched decision")]
    fn feedback_batch_rejects_mismatched_outcomes() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(4);
        let _ = agent.place_batch(&reqs, &mgr);
        let out = mgr.access(&reqs[0], DeviceId(0));
        agent.feedback_batch(&[out]);
    }

    #[test]
    fn empty_batch_round_is_a_noop() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(8);
        // A real batch, then an empty round: the empty round must not
        // drop the batch's last decision, so the follow-up batch still
        // finalizes it into an experience.
        let targets = agent.place_batch(&reqs, &mgr);
        let outcomes: Vec<AccessOutcome> = reqs
            .iter()
            .zip(&targets)
            .map(|(r, &t)| mgr.access(r, t))
            .collect();
        agent.feedback_batch(&outcomes);
        assert_eq!(agent.place_batch(&[], &mgr), Vec::new());
        agent.feedback_batch(&[]);
        drive_batched(&mut agent, &mut mgr, &hot_cold_stream(8), 8);
        // 8 + 8 decisions; all but the final pending become experiences.
        assert_eq!(agent.stats().decisions, 16);
        assert_eq!(agent.stats().experiences, 15);
    }

    #[test]
    #[should_panic(expected = "a place_batch call still awaits")]
    fn sequential_place_rejects_outstanding_batch() {
        let mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(4);
        let _ = agent.place_batch(&reqs, &mgr);
        let ctx = PlacementContext {
            manager: &mgr,
            seq: 0,
        };
        let _ = agent.place(&reqs[0], &ctx);
    }

    #[test]
    #[should_panic(expected = "previous batch still awaits")]
    fn place_batch_rejects_unfinished_batch() {
        let mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(4);
        let _ = agent.place_batch(&reqs, &mgr);
        let _ = agent.place_batch(&reqs, &mgr);
    }

    #[test]
    fn experience_tap_publishes_requested_fraction() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        agent.set_experience_tap(0.25);
        drive(&mut agent, &mut mgr, &hot_cold_stream(800));
        let published = agent.take_published();
        let st = agent.stats();
        assert_eq!(st.shared_published, published.len() as u64);
        let frac = published.len() as f64 / st.experiences as f64;
        assert!(
            (frac - 0.25).abs() < 0.01,
            "tap fraction {frac} (published {})",
            published.len()
        );
        // Drained: a second take is empty until new experiences arrive.
        assert!(agent.take_published().is_empty());
    }

    #[test]
    fn experience_tap_does_not_change_decisions() {
        let run = |fraction: f64| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            agent.set_experience_tap(fraction);
            drive(&mut agent, &mut mgr, &hot_cold_stream(600));
            (mgr.stats().avg_latency_us(), agent.stats().explorations)
        };
        assert_eq!(
            run(0.0),
            run(0.5),
            "the tap must be invisible to the decision path"
        );
    }

    #[test]
    fn absorbed_experiences_enter_buffer_without_advancing_schedule() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(64));
        let foreign: Vec<Experience> = (0..10)
            .map(|i| Experience {
                obs: vec![0.9 - i as f32 * 0.01; 6],
                action: i % 2,
                reward: 0.5,
                next_obs: vec![0.8; 6],
            })
            .collect();
        let before_steps = agent.stats().train_steps;
        let before_exps = agent.stats().experiences;
        agent.absorb_experiences(&foreign);
        assert_eq!(agent.stats().shared_absorbed, 10);
        assert_eq!(agent.stats().train_steps, before_steps);
        assert_eq!(
            agent.stats().experiences,
            before_exps,
            "foreign experiences must not count as local collections"
        );
    }

    #[test]
    fn foreign_weight_changes_training_but_not_the_default_path() {
        let run = |weight: Option<f64>| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            if let Some(w) = weight {
                agent.set_foreign_weight(w);
            }
            drive(&mut agent, &mut mgr, &hot_cold_stream(100));
            let foreign: Vec<Experience> = (0..24)
                .map(|i| Experience {
                    obs: vec![0.3 + i as f32 * 0.02; 6],
                    action: i % 2,
                    reward: 0.8,
                    next_obs: vec![0.35 + i as f32 * 0.02; 6],
                })
                .collect();
            agent.absorb_experiences(&foreign);
            drive(&mut agent, &mut mgr, &hot_cold_stream(400));
            agent
                .export_weights()
                .expect("synchronous agent exports")
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        let default = run(None);
        let explicit_one = run(Some(1.0));
        let half = run(Some(0.5));
        assert_eq!(
            default, explicit_one,
            "weight 1.0 must match the pre-knob behavior bit for bit"
        );
        assert_ne!(default, half, "down-weighting must alter training");
    }

    #[test]
    #[should_panic(expected = "weight must be in [0, 1]")]
    fn foreign_weight_rejects_out_of_range() {
        let mut agent = SibylAgent::new(fast_test_config());
        agent.set_foreign_weight(1.5);
    }

    #[test]
    fn absorb_before_first_decision_is_a_noop() {
        let mut agent = SibylAgent::new(fast_test_config());
        agent.absorb_experiences(&[Experience {
            obs: vec![0.0; 6],
            action: 0,
            reward: 1.0,
            next_obs: vec![0.0; 6],
        }]);
        assert_eq!(agent.stats().shared_absorbed, 0);
    }

    #[test]
    fn weight_export_import_roundtrip_syncs_agents() {
        let mut mgr_a = manager(256);
        let mut mgr_b = manager(256);
        let mut a = SibylAgent::new(fast_test_config());
        let mut cfg_b = fast_test_config();
        cfg_b.seed ^= 0xDEAD_BEEF;
        let mut b = SibylAgent::new(cfg_b);
        drive(&mut a, &mut mgr_a, &hot_cold_stream(300));
        drive(&mut b, &mut mgr_b, &hot_cold_stream(300));
        let wa = a.export_weights().expect("synchronous agent exports");
        let wb = b.export_weights().expect("synchronous agent exports");
        assert_ne!(wa, wb, "independently trained nets should differ");
        let syncs_before = b.stats().weight_syncs;
        assert!(b.import_weights(&wa));
        assert_eq!(b.export_weights().unwrap(), wa);
        assert_eq!(b.stats().weight_syncs, syncs_before + 1);
    }

    #[test]
    fn weight_export_unavailable_before_runtime_and_in_background() {
        let agent = SibylAgent::new(fast_test_config());
        assert!(agent.export_weights().is_none());
        let mut cfg = fast_test_config();
        cfg.training_mode = TrainingMode::Background;
        let mut bg = SibylAgent::new(cfg);
        let mut mgr = manager(256);
        drive(&mut bg, &mut mgr, &hot_cold_stream(50));
        assert!(bg.export_weights().is_none());
        assert!(!bg.import_weights(&[0.0; 4]));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn tap_rejects_bad_fraction() {
        let mut agent = SibylAgent::new(fast_test_config());
        agent.set_experience_tap(1.5);
    }

    /// The end-to-end golden pin: a seeded agent trained through the
    /// batched learner produces bit-identical placement decisions,
    /// weights, and served latencies to the pre-refactor per-sample
    /// training path (kept as a `cfg(test)` reference implementation so
    /// this comparison cannot rot).
    #[test]
    fn batched_training_matches_reference_path_end_to_end() {
        let reqs = hot_cold_stream(700);
        let run = |reference: bool| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            let mut decisions = Vec::with_capacity(reqs.len());
            for (i, req) in reqs.iter().enumerate() {
                let target = {
                    let ctx = PlacementContext {
                        manager: &mgr,
                        seq: i as u64,
                    };
                    agent.place(req, &ctx)
                };
                if i == 0 && reference {
                    // The runtime exists now and no training has run yet
                    // (train_interval > 1), so the whole training history
                    // goes through the reference path.
                    agent.force_reference_training();
                }
                decisions.push(target);
                let outcome = mgr.access(req, target);
                let ctx = PlacementContext {
                    manager: &mgr,
                    seq: i as u64,
                };
                agent.feedback(req, &outcome, &ctx);
            }
            let weights: Vec<u32> = agent
                .export_weights()
                .expect("synchronous agent exports")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (
                decisions,
                weights,
                mgr.stats().avg_latency_us().to_bits(),
                agent.stats().clone(),
            )
        };
        let batched = run(false);
        let reference = run(true);
        assert!(
            batched.3.train_steps >= 4,
            "the comparison must cover several train steps: {}",
            batched.3.train_steps
        );
        assert_eq!(batched.0, reference.0, "placement decisions diverged");
        assert_eq!(batched.1, reference.1, "trained weights diverged");
        assert_eq!(batched.2, reference.2, "served latency diverged");
        assert_eq!(batched.3, reference.3, "logical stats diverged");
    }

    #[test]
    fn train_ns_is_accounted_but_ignored_by_equality() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(300));
        let stats = agent.stats().clone();
        assert!(stats.train_steps > 0);
        assert!(stats.train_ns > 0, "training time must be accounted");
        let mut other = stats.clone();
        other.train_ns = stats.train_ns + 12345;
        assert_eq!(stats, other, "train_ns is telemetry, not identity");
        other.train_steps += 1;
        assert_ne!(stats, other, "logical counters still compare");
    }

    #[test]
    fn telemetry_probes_observe_without_perturbing() {
        use sibyl_telemetry::TelemetryConfig;
        let run = |telemetry: TelemetryConfig, sample: bool| {
            let mut mgr = manager(256);
            let mut cfg = fast_test_config();
            cfg.telemetry = telemetry;
            let mut agent = SibylAgent::new(cfg);
            let reqs = hot_cold_stream(600);
            for chunk in reqs.chunks(16) {
                let targets = agent.place_batch(chunk, &mgr);
                if sample {
                    let _ = agent.probe();
                }
                let outcomes: Vec<AccessOutcome> = chunk
                    .iter()
                    .zip(&targets)
                    .map(|(req, &t)| mgr.access(req, t))
                    .collect();
                agent.feedback_batch(&outcomes);
            }
            (
                mgr.stats().avg_latency_us().to_bits(),
                agent.stats().clone(),
                agent.probe(),
                agent.take_telemetry(),
            )
        };
        let off = run(TelemetryConfig::off(), false);
        let full = run(TelemetryConfig::full(), true);
        // The probes must be invisible to the decision path.
        assert_eq!(off.0, full.0, "telemetry changed served latency");
        assert_eq!(off.1, full.1, "telemetry changed agent stats");
        // Off: no registry, default probe fields.
        assert!(off.3.is_none());
        assert_eq!(off.2.last_loss, None);
        assert_eq!(off.2.q_spread, 0.0);
        // Full: probes carry real learning state.
        let probe = &full.2;
        assert!(probe.last_loss.is_some(), "loss should be captured");
        assert!(probe.buffer_len > 0);
        assert_eq!(probe.buffer_capacity, 256);
        assert_eq!(probe.buffer_age.count(), probe.buffer_len as u64);
        assert!(probe.q_spread > 0.0, "greedy rows should have a Q gap");
        assert!((0.0..=1.0).contains(&probe.argmax_entropy));
        assert!(probe.train_steps >= 3);
        assert!((0.0..1.0).contains(&probe.epsilon));
        let registry = full.3.expect("full telemetry has a registry");
        let loss_series = registry.series("rl.train_loss").expect("loss series");
        assert_eq!(loss_series.len(), probe.train_steps as usize);
        assert!(registry.counter("measured.train_ns") > 0);
    }

    #[test]
    fn argmax_entropy_spans_unit_interval() {
        assert_eq!(argmax_entropy(&[], 2), 0.0);
        assert_eq!(argmax_entropy(&[0, 0, 0], 2), 0.0);
        assert_eq!(argmax_entropy(&[1, 1], 1), 0.0);
        let even = argmax_entropy(&[0, 1, 0, 1], 2);
        assert!((even - 1.0).abs() < 1e-12, "even split entropy {even}");
        let tri = argmax_entropy(&[0, 1, 2], 3);
        assert!((tri - 1.0).abs() < 1e-12);
        let skew = argmax_entropy(&[0, 0, 0, 1], 2);
        assert!(skew > 0.0 && skew < 1.0);
    }

    #[test]
    fn inference_macs_reported_after_first_request() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        assert!(agent.inference_macs().is_none());
        drive(&mut agent, &mut mgr, &hot_cold_stream(2));
        let macs = agent.inference_macs().expect("runtime built");
        // 6·20 + 20·30 + 30·(2·11) = 120 + 600 + 660
        assert_eq!(macs, 1380);
    }
}
