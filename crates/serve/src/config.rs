//! Configuration of the sharded serving engine.

use sibyl_coop::CoopConfig;
use sibyl_core::{QuantMode, SibylConfig, TrainingMode};
use sibyl_hss::HssConfig;
use sibyl_migrate::MigrateConfig;
use sibyl_telemetry::TelemetryConfig;
use sibyl_xray::XrayConfig;

use crate::engine::ServeError;

/// How each batch's placement-decision compute is billed by the §10
/// overhead model.
///
/// The default, [`DecideCost::PerMac`], is the original analytic model:
/// one forward pass of `inference_macs ×
/// [`nn_ns_per_mac`](ServeConfig::nn_ns_per_mac)` per batch, amortized
/// over the batch's requests (free when `nn_ns_per_mac` is 0 — exactly
/// the pre-fit engine, bit for bit).
///
/// [`DecideCost::TwoTerm`] instead bills the *measured* shape of the
/// batched decide path: `sibyl-bench`'s `sec10_overhead` sweep times
/// `place_batch` across batch sizes and fits `setup_us + per_row_us ×
/// rows` to the medians, and this variant replays that fit inside the
/// simulation — so the modeled bill carries the real kernels' fixed
/// per-batch setup (feature encoding, dispatch) on top of the per-row
/// stream, rather than assuming pure MAC proportionality. The fit is in
/// microseconds and does not scale with `nn_ns_per_mac`; training is
/// still billed through the MAC rate (the fit only measures inference).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecideCost {
    /// MAC-proportional forward pass per batch (the default; exactly the
    /// model the engine used before the calibrated fit existed).
    #[default]
    PerMac,
    /// A calibrated two-term fit: each batch of `n` requests is billed
    /// `setup_us + per_row_us × n` microseconds, amortized over the
    /// batch. Produce one with `sibyl-bench`'s `TwoTermFit::decide_cost`.
    TwoTerm {
        /// Fixed per-batch setup cost in microseconds.
        setup_us: f64,
        /// Marginal cost per batched request in microseconds.
        per_row_us: f64,
    },
}

impl DecideCost {
    /// The modeled decide bill for one batch of `rows` requests, in
    /// microseconds. `macs` and `ns_per_mac` feed the [`PerMac`]
    /// (analytic) variant only.
    ///
    /// [`PerMac`]: DecideCost::PerMac
    pub fn batch_us(&self, macs: Option<usize>, ns_per_mac: f64, rows: usize) -> f64 {
        match *self {
            DecideCost::PerMac => {
                if ns_per_mac > 0.0 {
                    macs.map_or(0.0, |macs| macs as f64 * ns_per_mac / 1_000.0)
                } else {
                    0.0
                }
            }
            DecideCost::TwoTerm {
                setup_us,
                per_row_us,
            } => setup_us + per_row_us * rows as f64,
        }
    }

    /// True when the fit's terms are finite and non-negative (trivially
    /// true for [`DecideCost::PerMac`]).
    pub fn is_valid(&self) -> bool {
        match *self {
            DecideCost::PerMac => true,
            DecideCost::TwoTerm {
                setup_us,
                per_row_us,
            } => {
                setup_us.is_finite()
                    && setup_us >= 0.0
                    && per_row_us.is_finite()
                    && per_row_us >= 0.0
            }
        }
    }
}

/// Configuration of a sharded serving run: how many worker shards to
/// spawn, how deep each shard's inference batches may grow, how (and
/// whether) shard agents cooperate, and the per-shard storage and agent
/// configurations.
///
/// Every shard owns a private [`sibyl_hss::StorageManager`] (its own
/// devices) plus a private [`sibyl_core::SibylAgent`] seeded from
/// [`SibylConfig::seed`] and the shard index, so an `N`-shard engine
/// models a scale-out deployment of `N` hybrid-storage nodes, each
/// serving its own partition of the LBA regions (see [`crate::shard_of`]
/// for the boundary-straddle caveat). With a cooperative
/// [`CoopConfig::mode`] the nodes additionally exchange experiences
/// and/or federated-averaged weights at deterministic sync rounds.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceSpec, HssConfig};
/// use sibyl_serve::ServeConfig;
///
/// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
/// let cfg = ServeConfig::new(hss).with_shards(4).with_max_batch(64);
/// assert_eq!(cfg.shards, 4);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; each serves the requests whose LBA region hashes
    /// to it (see [`crate::shard_of`]). Default: 4.
    pub shards: usize,
    /// Maximum requests taken into one batched-inference decision.
    /// Default: 32. A shard fills each batch from its own slice of the
    /// stream until the batch is full or the slice is exhausted, so batch
    /// boundaries — and therefore results — are deterministic regardless
    /// of thread scheduling.
    pub max_batch: usize,
    /// Trace-replay time compression, as in the sim crate's
    /// `Experiment::with_time_scale`: every timestamp is divided by this
    /// factor, putting the system in the device-bound regime where
    /// throughput differentiates. Default: 1.0 (no compression).
    pub time_scale: f64,
    /// Simulated NN-inference cost in nanoseconds per multiply-accumulate
    /// (the §10 overhead model). When positive, each batch is charged one
    /// forward pass — `inference_macs × nn_ns_per_mac` — amortized over
    /// the batch: batched inference streams the weight matrices once per
    /// *batch*, so the per-request placement-decision delay shrinks as
    /// batches grow, and serve metrics show the batching win in latency
    /// rather than IOPS alone. The delay holds back device dispatch and
    /// counts toward each request's reported latency
    /// (`StorageManager::access_after`); it is not compressed by
    /// [`ServeConfig::time_scale`] (thinking time compresses; compute
    /// does not). Training is billed through the same rate: each train
    /// step charges `batches_per_step` batched forward+backward weight
    /// streams, delaying the shard's next batch (§10 charges training to
    /// request latency too; see [`crate::ShardReport::train_busy_us`]).
    /// Default: 0.0 (NN compute is free, as before the overhead model
    /// was coupled in).
    pub nn_ns_per_mac: f64,
    /// Which model prices the per-batch decide bill: the analytic
    /// MAC-proportional default, or a [`DecideCost::TwoTerm`] fit
    /// calibrated from measured kernel timings (see [`DecideCost`]).
    /// Training cost always goes through [`ServeConfig::nn_ns_per_mac`].
    pub decide_cost: DecideCost,
    /// When positive, every shard samples a learning-curve point
    /// (cumulative average latency, fast-placement fraction) every
    /// `curve_every` batches into [`crate::ShardReport::curve`].
    /// Default: 0 (disabled).
    pub curve_every: u64,
    /// How shard agents cooperate (shared replay / weight averaging /
    /// both). Default: [`sibyl_coop::CoopMode::Independent`] — no
    /// cooperation, bit-identical to an engine without the layer.
    pub coop: CoopConfig,
    /// The background-migration subsystem run by every shard against its
    /// private storage node: which policy plans moves, how many batches
    /// between ticks, and the per-tick move budget. Default:
    /// [`sibyl_migrate::MigratePolicyKind::None`] — no migrator is
    /// constructed and the engine is bit-identical to one without the
    /// subsystem. Ticks sit at deterministic batch-count boundaries
    /// (after every [`MigrateConfig::scan_period`] of a shard's own
    /// batches), and migration I/O is charged against device time
    /// through [`sibyl_hss::StorageManager::migrate_batch`], so
    /// foreground requests observe the contention.
    pub migrate: MigrateConfig,
    /// The hybrid-storage configuration instantiated per shard. Fraction
    /// capacities resolve against each shard's own footprint.
    pub hss: HssConfig,
    /// The agent configuration instantiated per shard (the seed is
    /// perturbed per shard).
    pub sibyl: SibylConfig,
    /// Precision of every shard agent's batched decide path. Default:
    /// [`QuantMode::Off`] — full f32, bit-identical to an engine without
    /// the knob. [`QuantMode::F16`] switches the per-shard inference
    /// networks to binary16 weight storage (compute stays f32); the
    /// serving golden test pins that this changes zero placement
    /// decisions on the reference trace. Overrides
    /// [`SibylConfig::quant_mode`] per shard, the same way the per-shard
    /// seed overrides [`SibylConfig::seed`].
    pub quant: QuantMode,
    /// Telemetry recording for the run. Default:
    /// [`TelemetryConfig::off`] — no sink is allocated, no event is
    /// recorded, and the engine is pinned bit-identical to one without
    /// the subsystem. When enabled, every shard collects a metrics
    /// registry plus a bounded event trace into
    /// [`crate::ServeReport::telemetry`], keyed on logical time (request
    /// and batch counts) so two enabled runs export byte-identical
    /// JSONL; wall-clock durations are confined to the `measured.*`
    /// namespace, which is excluded from equality and the deterministic
    /// export. Overrides [`SibylConfig::telemetry`] per shard, the same
    /// way the per-shard seed overrides [`SibylConfig::seed`].
    pub telemetry: TelemetryConfig,
    /// Per-request span tracing for the run. Default:
    /// [`XrayConfig::Off`] — no tracer is constructed and the engine is
    /// pinned bit-identical to one without the subsystem.
    /// [`XrayConfig::Sampled(k)`](XrayConfig::Sampled) traces a
    /// deterministic `1/2^k` subset of requests — the sampling decision
    /// is a stateless hash of `(base seed, lba, per-shard seq)`, so the
    /// traced set is identical across runs and thread schedules — and
    /// collects critical-path attribution, folded-stacks exports, and
    /// tail forensics into [`crate::ServeReport::xray`]. Span durations
    /// are simulated time quantized to logical nanoseconds: tracing
    /// reads no wall clock and perturbs zero placement decisions.
    pub xray: XrayConfig,
}

impl ServeConfig {
    /// Creates a serving configuration with default sharding (4 shards,
    /// batches of up to 32, no cooperation) over the given storage
    /// configuration and the paper's default agent hyper-parameters.
    pub fn new(hss: HssConfig) -> Self {
        ServeConfig {
            shards: 4,
            max_batch: 32,
            time_scale: 1.0,
            nn_ns_per_mac: 0.0,
            decide_cost: DecideCost::PerMac,
            curve_every: 0,
            coop: CoopConfig::default(),
            migrate: MigrateConfig::default(),
            hss,
            sibyl: SibylConfig::default(),
            quant: QuantMode::Off,
            telemetry: TelemetryConfig::off(),
            xray: XrayConfig::Off,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the maximum inference batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the replay time compression (>1 compresses think time).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Sets the simulated NN-inference cost (ns per MAC; 0 disables).
    pub fn with_nn_ns_per_mac(mut self, ns_per_mac: f64) -> Self {
        self.nn_ns_per_mac = ns_per_mac;
        self
    }

    /// Replaces the decide-cost model (see [`DecideCost`]).
    pub fn with_decide_cost(mut self, decide_cost: DecideCost) -> Self {
        self.decide_cost = decide_cost;
        self
    }

    /// Sets the telemetry recording level for every shard.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the per-request span-tracing mode (see [`XrayConfig`]).
    pub fn with_xray(mut self, xray: XrayConfig) -> Self {
        self.xray = xray;
        self
    }

    /// Enables learning-curve sampling every `batches` batches per shard
    /// (0 disables).
    pub fn with_curve_every(mut self, batches: u64) -> Self {
        self.curve_every = batches;
        self
    }

    /// Replaces the cooperation configuration.
    pub fn with_coop(mut self, coop: CoopConfig) -> Self {
        self.coop = coop;
        self
    }

    /// Replaces the background-migration configuration.
    pub fn with_migrate(mut self, migrate: MigrateConfig) -> Self {
        self.migrate = migrate;
        self
    }

    /// Replaces the per-shard agent configuration.
    pub fn with_sibyl(mut self, sibyl: SibylConfig) -> Self {
        self.sibyl = sibyl;
        self
    }

    /// Sets the decide-path precision for every shard agent.
    pub fn with_quant(mut self, quant: QuantMode) -> Self {
        self.quant = quant;
        self
    }

    /// The agent seed for one shard: the base seed perturbed by the shard
    /// index so shards explore independently while staying reproducible.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.sibyl
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1))
    }

    /// The migration-policy seed for one shard, perturbed like
    /// [`ServeConfig::shard_seed`] so per-shard RL migrators explore
    /// independently while staying reproducible.
    pub fn migrate_seed(&self, shard: usize) -> u64 {
        self.migrate
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1))
    }

    /// Validates ranges, returning a descriptive [`ServeError`] for
    /// degenerate settings (0 shards, 0-deep batches, a cooperative mode
    /// with a zero sync period, an out-of-range agent hyper-parameter, …)
    /// before any shard thread starts, instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        if self.max_batch == 0 {
            return Err(ServeError::ZeroMaxBatch);
        }
        if !(self.time_scale.is_finite() && self.time_scale > 0.0) {
            return Err(ServeError::InvalidTimeScale);
        }
        if !(self.nn_ns_per_mac.is_finite() && self.nn_ns_per_mac >= 0.0) {
            return Err(ServeError::InvalidNnCost);
        }
        if !self.decide_cost.is_valid() {
            return Err(ServeError::InvalidDecideCost);
        }
        self.telemetry.validate().map_err(ServeError::Telemetry)?;
        self.xray.validate().map_err(ServeError::Xray)?;
        self.coop.validate().map_err(ServeError::Coop)?;
        self.migrate.validate().map_err(ServeError::Migrate)?;
        if self.coop.mode.is_cooperative() && self.sibyl.training_mode != TrainingMode::Synchronous
        {
            return Err(ServeError::CoopRequiresSynchronousTraining);
        }
        self.sibyl.check().map_err(ServeError::Sibyl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_coop::{CoopConfigError, CoopMode};
    use sibyl_hss::DeviceSpec;

    fn hss() -> HssConfig {
        HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
    }

    #[test]
    fn defaults_are_valid() {
        let cfg = ServeConfig::new(hss());
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.max_batch, 32);
        assert_eq!(cfg.nn_ns_per_mac, 0.0);
        assert_eq!(cfg.decide_cost, DecideCost::PerMac);
        assert_eq!(cfg.coop.mode, CoopMode::Independent);
        assert!(!cfg.telemetry.enabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn builders_apply() {
        let cfg = ServeConfig::new(hss())
            .with_shards(8)
            .with_max_batch(4)
            .with_time_scale(40.0)
            .with_nn_ns_per_mac(2.0)
            .with_curve_every(16)
            .with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(4))
            .with_quant(QuantMode::F16)
            .with_decide_cost(DecideCost::TwoTerm {
                setup_us: 3.0,
                per_row_us: 0.5,
            })
            .with_telemetry(TelemetryConfig::events());
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.quant, QuantMode::F16);
        assert_eq!(
            cfg.decide_cost,
            DecideCost::TwoTerm {
                setup_us: 3.0,
                per_row_us: 0.5,
            }
        );
        assert_eq!(cfg.telemetry, TelemetryConfig::events());
        assert_eq!(cfg.max_batch, 4);
        assert_eq!(cfg.time_scale, 40.0);
        assert_eq!(cfg.nn_ns_per_mac, 2.0);
        assert_eq!(cfg.curve_every, 16);
        assert_eq!(cfg.coop.mode, CoopMode::Both);
        cfg.validate().unwrap();
    }

    #[test]
    fn shard_seeds_differ_but_are_stable() {
        let cfg = ServeConfig::new(hss());
        assert_ne!(cfg.shard_seed(0), cfg.shard_seed(1));
        assert_eq!(cfg.shard_seed(3), cfg.shard_seed(3));
    }

    #[test]
    fn degenerate_settings_return_descriptive_errors() {
        assert_eq!(
            ServeConfig::new(hss()).with_shards(0).validate(),
            Err(ServeError::ZeroShards)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_max_batch(0).validate(),
            Err(ServeError::ZeroMaxBatch)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_time_scale(0.0).validate(),
            Err(ServeError::InvalidTimeScale)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_time_scale(f64::NAN).validate(),
            Err(ServeError::InvalidTimeScale)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_nn_ns_per_mac(-1.0).validate(),
            Err(ServeError::InvalidNnCost)
        );
        assert_eq!(
            ServeConfig::new(hss())
                .with_coop(CoopConfig::new(CoopMode::WeightAverage).with_sync_period(0))
                .validate(),
            Err(ServeError::Coop(CoopConfigError::ZeroSyncPeriod))
        );
        assert_eq!(
            ServeConfig::new(hss())
                .with_coop(CoopConfig::new(CoopMode::SharedReplay).with_share_fraction(0.0))
                .validate(),
            Err(ServeError::Coop(CoopConfigError::InvalidShareFraction))
        );
    }

    #[test]
    fn decide_cost_models_price_batches() {
        assert_eq!(DecideCost::PerMac.batch_us(Some(1_380), 10.0, 32), 13.8);
        assert_eq!(DecideCost::PerMac.batch_us(Some(1_380), 0.0, 32), 0.0);
        assert_eq!(DecideCost::PerMac.batch_us(None, 10.0, 32), 0.0);
        let fit = DecideCost::TwoTerm {
            setup_us: 2.0,
            per_row_us: 0.25,
        };
        // The fit is measured, so it ignores the MAC rate entirely.
        assert_eq!(fit.batch_us(Some(1_380), 0.0, 8), 4.0);
        assert_eq!(fit.batch_us(None, 99.0, 8), 4.0);
    }

    #[test]
    fn degenerate_decide_cost_and_telemetry_are_errors() {
        assert_eq!(
            ServeConfig::new(hss())
                .with_decide_cost(DecideCost::TwoTerm {
                    setup_us: -1.0,
                    per_row_us: 0.1,
                })
                .validate(),
            Err(ServeError::InvalidDecideCost)
        );
        assert_eq!(
            ServeConfig::new(hss())
                .with_decide_cost(DecideCost::TwoTerm {
                    setup_us: 1.0,
                    per_row_us: f64::NAN,
                })
                .validate(),
            Err(ServeError::InvalidDecideCost)
        );
        let mut telemetry = TelemetryConfig::events();
        telemetry.event_capacity = 0;
        assert!(matches!(
            ServeConfig::new(hss()).with_telemetry(telemetry).validate(),
            Err(ServeError::Telemetry(_))
        ));
        ServeConfig::new(hss())
            .with_telemetry(TelemetryConfig::full())
            .validate()
            .unwrap();
    }

    #[test]
    fn bad_agent_config_is_an_error_not_a_panic() {
        // Every field SibylConfig::check rejects surfaces as a typed
        // ServeError up front, before any shard thread could panic on it.
        let cases: [fn(&mut SibylConfig); 14] = [
            |c| c.discount = 1.5,
            |c| c.learning_rate = 0.0,
            |c| c.exploration = -0.1,
            |c| c.exploration_initial = 2.0,
            |c| {
                c.exploration = 0.5;
                c.exploration_initial = 0.1;
            },
            |c| c.batch_size = 0,
            |c| c.buffer_capacity = 0,
            |c| c.batches_per_step = 0,
            |c| c.train_interval = 0,
            |c| c.n_atoms = 1,
            |c| c.v_max = 0.0,
            |c| c.v_min = c.v_max,
            |c| c.eviction_penalty_coeff = -1.0,
            |c| {
                c.telemetry = TelemetryConfig::events();
                c.telemetry.event_capacity = 0;
            },
        ];
        let mut seen = Vec::new();
        for break_field in cases {
            let mut sibyl = SibylConfig::default();
            break_field(&mut sibyl);
            let err = sibyl.check().unwrap_err();
            assert_eq!(
                ServeConfig::new(hss()).with_sibyl(sibyl).validate(),
                Err(ServeError::Sibyl(err))
            );
            assert!(!seen.contains(&err), "{err:?} reached twice");
            seen.push(err);
        }
    }

    #[test]
    fn cooperative_modes_require_synchronous_training() {
        let mut cfg = ServeConfig::new(hss()).with_coop(CoopConfig::new(CoopMode::WeightAverage));
        cfg.sibyl.training_mode = sibyl_core::TrainingMode::Background;
        assert_eq!(
            cfg.validate(),
            Err(ServeError::CoopRequiresSynchronousTraining)
        );
        // Background training stays fine without cooperation.
        let mut indep = ServeConfig::new(hss());
        indep.sibyl.training_mode = sibyl_core::TrainingMode::Background;
        indep.validate().unwrap();
    }
}
