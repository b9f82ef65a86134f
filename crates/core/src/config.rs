//! Sibyl's hyper-parameters (the paper's Table 2) and design knobs.

use serde::{Deserialize, Serialize};
use sibyl_telemetry::{TelemetryConfig, TelemetryConfigError};

use crate::features::FeatureMask;

/// Which value-learning algorithm the agent uses.
///
/// The paper uses a Categorical Deep Q-Network (C51, Bellemare et al.)
/// because learning the *distribution* of returns captures more of the
/// environment than a single expected value (§6.2.1). The plain DQN
/// variant is provided as an ablation of that design choice — it also
/// reproduces the exact 6-20-30-|A| network shape of the paper's overhead
/// analysis (§10.1 counts 780 weights, i.e. one output neuron per
/// action).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AgentKind {
    /// Categorical distributional DQN (the paper's choice).
    #[default]
    C51,
    /// Classic DQN with mean-squared Bellman error (ablation).
    Dqn,
}

/// Which gradient optimizer trains the network.
///
/// The paper trains with plain SGD (Algorithm 1 line 18) over week-long
/// traces. Our synthetic runs are orders of magnitude shorter, and C51's
/// cross-entropy gradients are too small for SGD to contract the value
/// estimates in so few steps; Adam (the optimizer TF-Agents configures
/// for its categorical DQN agents in practice) reaches the Bellman fixed
/// point within the budget. SGD remains available for fidelity
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam with standard betas (default).
    #[default]
    Adam,
    /// Plain stochastic gradient descent (the paper's description).
    Sgd,
}

/// How training runs relative to decision-making.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TrainingMode {
    /// Train inline on the decision thread every `train_interval`
    /// requests. Deterministic; the default for tests and benches.
    #[default]
    Synchronous,
    /// Mirror the paper's two-thread design (Fig. 7(a)): a background
    /// training thread consumes experiences from a channel, trains, and
    /// publishes weights that the decision thread copies into its
    /// inference network. Keeps training off the decision critical path.
    Background,
}

/// The reward structure (§5 Eq. 1 plus the §11 alternatives the paper
/// discusses and rejects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RewardKind {
    /// `R = 1/L_t`, minus the eviction penalty when an eviction happened —
    /// the paper's reward (Eq. 1).
    #[default]
    RequestLatency,
    /// +1 when the request was served by the fast device, 0 otherwise —
    /// the "hit rate" alternative §11 shows over-fills fast storage.
    HitRate,
    /// −1 on eviction, 0 otherwise — the "high negative reward"
    /// alternative §11 shows under-uses fast storage.
    EvictionOnly,
}

/// Numeric precision of the batched inference (decide) path.
///
/// The paper stores its weights in 16 bits to reach the §10.2 footprint;
/// this knob makes that storage real on the hot path. Training always
/// stays f32 and bit-pinned — quantization only ever touches the
/// inference network's *weight storage* (compute remains f32 on decoded
/// values), and only the batched [`place_batch`] path reads it; the
/// sequential [`place`] path and all learner state are untouched.
///
/// [`place_batch`]: crate::SibylAgent::place_batch
/// [`place`]: sibyl_hss::PlacementPolicy::place
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum QuantMode {
    /// Full f32 inference — bit-identical to the pre-quantization
    /// behavior (the default).
    #[default]
    Off,
    /// Binary16 weight storage for the inference network: `place_batch`
    /// decodes f16 shadow weights per batch and computes in f32. The
    /// serving golden test pins that this changes zero placement
    /// decisions on the reference trace.
    F16,
}

/// Complete configuration of a Sibyl agent. Defaults are the paper's
/// tuned hyper-parameters (Table 2).
///
/// # Examples
///
/// ```
/// use sibyl_core::SibylConfig;
/// let cfg = SibylConfig::default();
/// assert_eq!(cfg.discount, 0.9);
/// assert_eq!(cfg.batch_size, 128);
/// assert_eq!(cfg.buffer_capacity, 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SibylConfig {
    /// Discount factor γ (Table 2: 0.9).
    pub discount: f32,
    /// Learning rate α. The paper tunes α = 1e-4 on week-long traces
    /// (Table 2); our default is 1e-3 because synthetic runs are two to
    /// three orders of magnitude shorter, and Fig. 14(b) shows the two
    /// perform within a few percent of each other. `Sibyl_Opt` for mixed
    /// workloads uses 1e-5 (§8.3).
    pub learning_rate: f32,
    /// Final exploration rate ε for ε-greedy action selection
    /// (Table 2: 0.001).
    pub exploration: f64,
    /// Initial exploration rate, annealed linearly down to
    /// [`SibylConfig::exploration`] over
    /// [`SibylConfig::exploration_decay_requests`] requests. The paper
    /// reports only the tuned final ε; on short traces the anneal supplies
    /// the off-policy coverage that a week of enterprise I/O provides
    /// naturally.
    pub exploration_initial: f64,
    /// Requests over which the exploration anneal runs.
    pub exploration_decay_requests: u64,
    /// Batch size per training batch (Table 2: 128).
    pub batch_size: usize,
    /// Experience-buffer capacity e_EB (Table 2: 1000).
    pub buffer_capacity: usize,
    /// Batches per training step (§6.2.2: 8).
    pub batches_per_step: usize,
    /// Requests between training steps and training→inference weight
    /// copies (§6.2.2: 1000).
    pub train_interval: u64,
    /// Hidden-layer widths (§6.2.2: 20 and 30 neurons).
    pub hidden_dims: [usize; 2],
    /// Number of C51 support atoms (ignored by [`AgentKind::Dqn`]).
    pub n_atoms: usize,
    /// Lower bound of the C51 value support. Negative so that unclamped
    /// eviction penalties are representable.
    pub v_min: f32,
    /// Upper bound of the C51 value support (scaled-return units; rewards
    /// are normalized so one unqueued fast access ≈ 1).
    pub v_max: f32,
    /// Eviction-penalty coefficient (§5: R_p = 0.001 × L_e).
    pub eviction_penalty_coeff: f64,
    /// Whether eviction-penalized rewards are clamped at zero, the
    /// paper's exact Eq. 1 form (`max(0, 1/L_t − R_p)`). Our simulator's
    /// device-latency ratios make the clamped form too forgiving — an
    /// evicting fast placement still nets more than a slow placement, so
    /// the agent never learns restraint on cold workloads. The default
    /// lets the penalty go negative (floored at `v_min`); set `true` for
    /// the paper-exact reward.
    pub clamp_eviction_reward: bool,
    /// Which features the agent observes (Fig. 13 ablation).
    pub feature_mask: FeatureMask,
    /// Value-learning algorithm.
    pub agent_kind: AgentKind,
    /// Gradient optimizer.
    pub optimizer: OptimizerKind,
    /// Synchronous or background training.
    pub training_mode: TrainingMode,
    /// Reward structure (§11 ablation).
    pub reward_kind: RewardKind,
    /// Precision of the batched decide path (f16 weight storage opt-in).
    pub quant_mode: QuantMode,
    /// Telemetry recording level for the agent's RL introspection probes
    /// (loss curves, Q-value spread, replay-buffer age). `Off` by
    /// default — no registry is allocated and the decision path is
    /// bit-identical to a build without telemetry.
    pub telemetry: TelemetryConfig,
    /// RNG seed for initialization, exploration, and replay sampling.
    pub seed: u64,
}

impl Default for SibylConfig {
    fn default() -> Self {
        SibylConfig {
            discount: 0.9,
            learning_rate: 1e-3,
            exploration: 0.001,
            exploration_initial: 0.3,
            exploration_decay_requests: 4_000,
            batch_size: 128,
            buffer_capacity: 1000,
            batches_per_step: 8,
            train_interval: 1000,
            hidden_dims: [20, 30],
            n_atoms: 51,
            v_min: -1.0,
            v_max: 4.0,
            eviction_penalty_coeff: 0.001,
            clamp_eviction_reward: false,
            feature_mask: FeatureMask::ALL,
            agent_kind: AgentKind::C51,
            optimizer: OptimizerKind::Adam,
            training_mode: TrainingMode::Synchronous,
            reward_kind: RewardKind::RequestLatency,
            quant_mode: QuantMode::Off,
            telemetry: TelemetryConfig::default(),
            seed: 0x51BB_1AA7,
        }
    }
}

impl SibylConfig {
    /// The `Sibyl_Opt` variant for mixed workloads (§8.3): lower learning
    /// rate for smaller, more frequent-feeling updates.
    pub fn mixed_workload_optimized() -> Self {
        SibylConfig {
            learning_rate: 1e-5,
            ..Default::default()
        }
    }

    /// Validates ranges, returning the first violated constraint.
    ///
    /// # Errors
    ///
    /// Returns a [`SibylConfigError`] naming the first hyper-parameter
    /// outside its documented range.
    pub fn check(&self) -> Result<(), SibylConfigError> {
        use SibylConfigError as E;
        let checks = [
            ((0.0..=1.0).contains(&self.discount), E::Discount),
            (
                self.learning_rate.is_finite() && self.learning_rate > 0.0,
                E::LearningRate,
            ),
            ((0.0..=1.0).contains(&self.exploration), E::Exploration),
            (
                (0.0..=1.0).contains(&self.exploration_initial),
                E::ExplorationInitial,
            ),
            (
                self.exploration_initial >= self.exploration,
                E::InvertedAnneal,
            ),
            (self.batch_size > 0, E::ZeroBatchSize),
            (self.buffer_capacity > 0, E::ZeroBufferCapacity),
            (self.batches_per_step > 0, E::ZeroBatchesPerStep),
            (self.train_interval > 0, E::ZeroTrainInterval),
            (self.n_atoms >= 2, E::TooFewAtoms),
            (self.v_max > 0.0, E::NonPositiveVMax),
            (self.v_min < self.v_max, E::InvertedSupport),
            (
                self.eviction_penalty_coeff >= 0.0,
                E::NegativeEvictionPenalty,
            ),
        ];
        if let Some(&(_, err)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(err);
        }
        self.telemetry.validate().map_err(E::Telemetry)
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics if any hyper-parameter is outside its documented range
    /// (see [`SibylConfig::check`] for the non-panicking form).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Why a [`SibylConfig`] was rejected by [`SibylConfig::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SibylConfigError {
    /// `discount` is outside `[0, 1]`.
    Discount,
    /// `learning_rate` is not positive and finite.
    LearningRate,
    /// `exploration` is outside `[0, 1]`.
    Exploration,
    /// `exploration_initial` is outside `[0, 1]`.
    ExplorationInitial,
    /// `exploration_initial` is below the final `exploration` rate.
    InvertedAnneal,
    /// `batch_size == 0`.
    ZeroBatchSize,
    /// `buffer_capacity == 0`.
    ZeroBufferCapacity,
    /// `batches_per_step == 0`.
    ZeroBatchesPerStep,
    /// `train_interval == 0`.
    ZeroTrainInterval,
    /// `n_atoms < 2`.
    TooFewAtoms,
    /// `v_max` is not positive.
    NonPositiveVMax,
    /// `v_min` is not below `v_max`.
    InvertedSupport,
    /// `eviction_penalty_coeff` is negative.
    NegativeEvictionPenalty,
    /// The embedded telemetry configuration is degenerate.
    Telemetry(TelemetryConfigError),
}

impl std::fmt::Display for SibylConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SibylConfigError::Discount => write!(f, "discount must be in [0, 1]"),
            SibylConfigError::LearningRate => write!(f, "learning rate must be positive"),
            SibylConfigError::Exploration => write!(f, "exploration must be in [0, 1]"),
            SibylConfigError::ExplorationInitial => {
                write!(f, "exploration_initial must be in [0, 1]")
            }
            SibylConfigError::InvertedAnneal => write!(
                f,
                "exploration_initial must be >= the final exploration rate"
            ),
            SibylConfigError::ZeroBatchSize => write!(f, "batch_size must be positive"),
            SibylConfigError::ZeroBufferCapacity => write!(f, "buffer_capacity must be positive"),
            SibylConfigError::ZeroBatchesPerStep => {
                write!(f, "batches_per_step must be positive")
            }
            SibylConfigError::ZeroTrainInterval => write!(f, "train_interval must be positive"),
            SibylConfigError::TooFewAtoms => write!(f, "n_atoms must be at least 2"),
            SibylConfigError::NonPositiveVMax => write!(f, "v_max must be positive"),
            SibylConfigError::InvertedSupport => write!(f, "v_min must be below v_max"),
            SibylConfigError::NegativeEvictionPenalty => {
                write!(f, "eviction_penalty_coeff must be non-negative")
            }
            SibylConfigError::Telemetry(e) => write!(f, "telemetry: {e}"),
        }
    }
}

impl std::error::Error for SibylConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = SibylConfig::default();
        assert_eq!(c.discount, 0.9);
        assert_eq!(c.exploration, 0.001);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.buffer_capacity, 1000);
        assert_eq!(c.batches_per_step, 8);
        assert_eq!(c.train_interval, 1000);
        assert_eq!(c.hidden_dims, [20, 30]);
        c.validate();
    }

    #[test]
    fn exploration_anneal_is_configured_sanely() {
        let c = SibylConfig::default();
        assert!(c.exploration_initial >= c.exploration);
        assert!(c.exploration_decay_requests > 0);
    }

    #[test]
    #[should_panic(expected = "exploration_initial")]
    fn validate_rejects_inverted_anneal() {
        let c = SibylConfig {
            exploration: 0.5,
            exploration_initial: 0.1,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn sibyl_opt_lowers_learning_rate() {
        let c = SibylConfig::mixed_workload_optimized();
        assert_eq!(c.learning_rate, 1e-5);
        assert_eq!(c.discount, 0.9);
    }

    #[test]
    #[should_panic(expected = "discount must be in")]
    fn validate_rejects_bad_discount() {
        let c = SibylConfig {
            discount: 1.5,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "n_atoms")]
    fn validate_rejects_single_atom() {
        let c = SibylConfig {
            n_atoms: 1,
            ..Default::default()
        };
        c.validate();
    }
}
