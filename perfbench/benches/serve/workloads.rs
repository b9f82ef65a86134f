//! The three one-shard serving workloads: their request streams and
//! serving configurations. See `DESIGN.md` for why each was chosen.

use sibyl_bench::{hl_config, hm_config};
use sibyl_core::SibylConfig;
use sibyl_serve::{MigrateConfig, MigratePolicyKind, ServeConfig, TelemetryConfig, XrayConfig};
use sibyl_trace::mix::Mix;
use sibyl_trace::msrc::{self, Workload};
use sibyl_trace::stream::{DiurnalStream, MixStream, SpecStream};
use sibyl_trace::IoRequest;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Mix2 on H&M at the paper-default learner: learner-bound.
    Mix2Learn,
    /// stg_1 on H&M, near-unique pages: directory- and `hss`-bound.
    Stg1Churn,
    /// Phase-shifting hot set on H&L with RL migration and observers on.
    DiurnalMigrate,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::Mix2Learn,
        WorkloadId::Stg1Churn,
        WorkloadId::DiurnalMigrate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Mix2Learn => "mix2-learn",
            WorkloadId::Stg1Churn => "stg1-churn",
            WorkloadId::DiurnalMigrate => "diurnal-migrate",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests served per `serve_stream` call. Fixed per workload, so
    /// the modeled metrics of a seed never depend on the run length.
    pub fn requests(self) -> usize {
        match self {
            WorkloadId::Mix2Learn => 100_000,
            WorkloadId::Stg1Churn => 200_000,
            WorkloadId::DiurnalMigrate => 100_000,
        }
    }

    /// Traces of [`WorkloadId::requests`] each that one end-to-end
    /// invocation serves, each from its own seed. The modeled metrics
    /// pool them, which keeps their spread across `--seed` values small.
    pub fn traces(self) -> usize {
        match self {
            WorkloadId::Mix2Learn => 20,
            WorkloadId::Stg1Churn => 6,
            WorkloadId::DiurnalMigrate => 20,
        }
    }

    /// Whether the workload runs telemetry and x-ray observers.
    pub fn has_observers(self) -> bool {
        self == WorkloadId::DiurnalMigrate
    }

    /// The serving configuration: one shard, batches of 16, the §10 NN
    /// cost billed at 20 ns/MAC. `observers` switches telemetry and x-ray
    /// on for the workloads that carry them; it changes nothing else.
    pub fn config(self, observers: bool) -> ServeConfig {
        let base = |hss| {
            ServeConfig::new(hss)
                .with_shards(1)
                .with_max_batch(16)
                .with_nn_ns_per_mac(20.0)
        };
        match self {
            WorkloadId::Mix2Learn => base(hm_config()).with_time_scale(40.0),
            WorkloadId::Stg1Churn => {
                base(hm_config())
                    .with_time_scale(40.0)
                    .with_sibyl(SibylConfig {
                        train_interval: 10_000,
                        ..SibylConfig::default()
                    })
            }
            WorkloadId::DiurnalMigrate => {
                let mut migrate = MigrateConfig::new(MigratePolicyKind::Rl)
                    .with_scan_period(4)
                    .with_max_moves(32)
                    .with_promote_min_heat(3);
                migrate.demote_min_idle = 4_096;
                migrate.demote_watermark = 0.95;
                let config = base(hl_config()).with_time_scale(5.0).with_migrate(migrate);
                if observers {
                    config
                        .with_telemetry(TelemetryConfig::full())
                        .with_xray(XrayConfig::Sampled(6))
                } else {
                    config
                }
            }
        }
    }

    /// The seeded request stream, bounded to [`WorkloadId::requests`].
    pub fn input(self, seed: u64) -> Input {
        let n = self.requests();
        match self {
            WorkloadId::Mix2Learn => Input::Mix(Mix::Mix2.stream(50_000, seed).take(n)),
            WorkloadId::Stg1Churn => Input::Spec(msrc::stream(Workload::Stg1, n, seed).take(n)),
            WorkloadId::DiurnalMigrate => Input::Diurnal(DiurnalStream::new(n, 5, seed).take(n)),
        }
    }
}

/// A workload's finite request stream. `Clone` replays the identical
/// sequence, as `serve_stream` requires.
// One value per run: boxing the large variant would only add an
// indirection to every `next`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Input {
    Mix(std::iter::Take<MixStream>),
    Spec(std::iter::Take<SpecStream>),
    Diurnal(std::iter::Take<DiurnalStream>),
}

impl Iterator for Input {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        match self {
            Input::Mix(s) => s.next(),
            Input::Spec(s) => s.next(),
            Input::Diurnal(s) => s.next(),
        }
    }
}
