//! # sibyl-serve
//!
//! A sharded placement-serving engine for the Sibyl reproduction: the
//! step from *one agent on one thread* toward the production-scale
//! serving layer the ROADMAP targets.
//!
//! The engine runs `N` shards. Each shard owns a private
//! [`sibyl_hss::StorageManager`] and [`sibyl_core::SibylAgent`] —
//! modeling a scale-out deployment of independent hybrid-storage nodes —
//! and serves the requests whose starting LBA's 64-page region hashes to
//! it ([`shard_of`]; requests straddling a region boundary follow their
//! start region, see there for the modeling consequence). Each shard
//! walks its own clone of the request stream, keeps its slice, and takes
//! it in batches of up to [`ServeConfig::max_batch`] requests; it
//! decides each batch with **one batched C51 inference pass**
//! (`Mlp::infer_batch`): one matrix-matrix product per layer instead
//! of a matrix-vector product per request, bit-identical to per-request
//! inference.
//!
//! Shard agents can **cooperate** through the `sibyl-coop` layer
//! ([`ServeConfig::coop`]): under [`CoopMode::SharedReplay`] each shard
//! publishes a fraction of its experiences into a pool redistributed at
//! sync rounds, under [`CoopMode::WeightAverage`] all shards
//! federated-average their training networks at a barrier every
//! `sync_period` batches, and [`CoopMode::Both`] combines the two.
//! Sync rounds sit at logical batch-count boundaries — never wall-clock
//! time — so cooperation preserves the engine's determinism guarantee.
//! The `sibyl-migrate` background-migration subsystem rides the same
//! discipline ([`ServeConfig::migrate`]): each shard ticks a private
//! migrator every `scan_period` of its own batches, and migration I/O
//! is charged against the shard's device clocks.
//! When [`ServeConfig::nn_ns_per_mac`] is set, the §10 overhead model
//! charges each batch one amortized NN forward pass, so the batching win
//! shows up in latency, not just IOPS.
//!
//! Determinism survives sharding — in the default
//! `TrainingMode::Synchronous`: batch boundaries are fixed chunks of
//! each shard's request subsequence (a batch ends only when it is full
//! or the slice runs out), and every shard's RNG is seeded from the base
//! seed and the shard index — so a seeded synchronous run reproduces
//! identical per-shard and aggregate metrics regardless of thread
//! scheduling, in every cooperation mode. `TrainingMode::Background`
//! trades that reproducibility for an off-critical-path trainer per
//! shard: weight adoption depends on trainer timing, so metrics drift
//! run to run by design (cooperative modes therefore reject it).
//!
//! ## Quickstart
//!
//! ```rust
//! use sibyl_hss::{DeviceSpec, HssConfig};
//! use sibyl_serve::{serve_trace, ServeConfig};
//! use sibyl_trace::msrc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Serve an MSRC-like workload across 2 shards with batches of 16.
//! let trace = msrc::generate(msrc::Workload::Rsrch0, 2_000, 42);
//! let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
//! let config = ServeConfig::new(hss).with_shards(2).with_max_batch(16);
//! let report = serve_trace(&config, &trace)?;
//! assert_eq!(report.total_requests(), 2_000);
//! let agg = report.aggregate();
//! println!(
//!     "{} requests, {:.0} aggregate IOPS, {:.1} µs mean latency",
//!     agg.total_requests, agg.iops, agg.avg_latency_us,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! For experiment-style results in the paper's metric vocabulary
//! (normalized latency/IOPS per shard), use `sibyl_sim::ServeExperiment`,
//! which wraps this engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod report;

pub use config::{DecideCost, ServeConfig};
pub use engine::{serve_stream, serve_trace, shard_of, ServeError, REGION_BITS};
pub use report::{Aggregate, CurvePoint, ServeReport, ShardReport};

// Re-exported so engine users can configure cooperation, background
// migration, decide-path precision, telemetry, and span tracing without
// direct `sibyl-coop`/`sibyl-migrate`/`sibyl-core`/`sibyl-telemetry`/
// `sibyl-xray` dependencies.
pub use sibyl_coop::{CoopConfig, CoopConfigError, CoopMode};
pub use sibyl_core::{QuantMode, SibylConfigError};
pub use sibyl_migrate::{MigrateConfig, MigrateConfigError, MigratePolicyKind};
pub use sibyl_telemetry::{
    ShardTelemetry, TelemetryConfig, TelemetryConfigError, TelemetryLevel, TelemetryReport,
    TraceEvent,
};
pub use sibyl_xray::{ShardXray, XrayConfig, XrayConfigError, XrayReport};
