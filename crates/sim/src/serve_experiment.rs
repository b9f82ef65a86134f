//! The sharded-serving experiment driver: trace × serving configuration
//! → per-shard and aggregate metrics.

use sibyl_serve::{
    serve_stream, serve_trace, Aggregate, ServeConfig, ServeReport, TelemetryReport, XrayReport,
};
use sibyl_trace::{IoRequest, Trace};

use crate::experiment::SimError;
use crate::metrics::Metrics;

/// Result of one sharded serving run: the engine's raw report plus each
/// shard's statistics lifted into the paper's [`Metrics`] vocabulary.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-shard metrics, ordered by shard index.
    pub shard_metrics: Vec<Metrics>,
    /// Aggregate metrics across shards (parallel-span IOPS,
    /// request-weighted latency).
    pub aggregate: Aggregate,
    /// The engine's full report (batch counts, agent counters).
    pub report: ServeReport,
}

impl ServeOutcome {
    /// Lifts an engine report into the paper's metric vocabulary.
    fn from_report(report: ServeReport) -> Self {
        let shard_metrics = report
            .shards
            .iter()
            .map(|s| Metrics::from_stats(&s.stats))
            .collect();
        let aggregate = report.aggregate();
        ServeOutcome {
            shard_metrics,
            aggregate,
            report,
        }
    }

    /// The run's merged-and-per-shard telemetry export as deterministic
    /// JSONL (one JSON object per line; `measured.*` wall-clock entries
    /// are excluded, so two identically-seeded runs export byte-identical
    /// text). `None` when the run's
    /// [`ServeConfig::telemetry`](sibyl_serve::ServeConfig) was off.
    pub fn telemetry_jsonl(&self) -> Option<String> {
        self.report
            .telemetry
            .as_ref()
            .map(TelemetryReport::export_jsonl)
    }

    /// A plain-text `sibyl-top`-style rendering of the run's telemetry:
    /// merged counters, gauges, histogram percentiles, and per-shard
    /// event accounting. `None` when telemetry was off.
    pub fn telemetry_top(&self) -> Option<String> {
        self.report
            .telemetry
            .as_ref()
            .map(TelemetryReport::render_top)
    }

    /// The run's span-tracing results — per-shard and merged
    /// critical-path totals, folded-stacks export, tail forensics.
    /// `None` when the run's
    /// [`ServeConfig::xray`](sibyl_serve::ServeConfig) was off.
    pub fn xray_report(&self) -> Option<&XrayReport> {
        self.report.xray.as_ref()
    }

    /// The run's folded-stacks export (`stack;frames weight` lines,
    /// flamegraph-ready; byte-identical across identically-seeded runs).
    /// `None` when xray was off.
    pub fn xray_folded(&self) -> Option<String> {
        self.report.xray.as_ref().map(XrayReport::xray_folded)
    }
}

/// A reusable sharded-serving experiment: one workload served through the
/// [`sibyl_serve`] engine under one [`ServeConfig`].
///
/// This is the scale-out counterpart of [`crate::Experiment`]: instead of
/// replaying the trace through a single policy/manager pair, the trace is
/// partitioned by LBA hash across `N` shards, each deciding placements
/// with batched C51 inference.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceSpec, HssConfig};
/// use sibyl_serve::ServeConfig;
/// use sibyl_sim::ServeExperiment;
/// use sibyl_trace::msrc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = msrc::generate(msrc::Workload::Hm1, 2_000, 42);
/// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
/// let exp = ServeExperiment::new(ServeConfig::new(hss).with_shards(2), trace);
/// let outcome = exp.run()?;
/// assert_eq!(outcome.shard_metrics.len(), 2);
/// assert_eq!(outcome.aggregate.total_requests, 2_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeExperiment {
    config: ServeConfig,
    trace: Trace,
}

impl ServeExperiment {
    /// Creates a serving experiment from a serving configuration and a
    /// trace.
    pub fn new(config: ServeConfig, trace: Trace) -> Self {
        ServeExperiment { config, trace }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The workload.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs the sharded engine over the whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn run(&self) -> Result<ServeOutcome, SimError> {
        let report = serve_trace(&self.config, &self.trace).map_err(SimError::from)?;
        Ok(ServeOutcome::from_report(report))
    }

    /// Runs the sharded engine over a finite request stream without ever
    /// materializing it — the scale path for 10M-request runs. Bound an
    /// infinite generator stream with `.take(n)`; see
    /// [`sibyl_serve::serve_stream`] for the footprint pre-pass and the
    /// memory bound.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for a stream yielding no requests.
    pub fn run_stream<S>(config: &ServeConfig, stream: S) -> Result<ServeOutcome, SimError>
    where
        S: Iterator<Item = IoRequest> + Clone + Send,
    {
        let report = serve_stream(config, stream).map_err(SimError::from)?;
        Ok(ServeOutcome::from_report(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_core::SibylConfig;
    use sibyl_hss::{DeviceSpec, HssConfig};
    use sibyl_trace::msrc;

    fn config(shards: usize) -> ServeConfig {
        let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
        ServeConfig::new(hss)
            .with_shards(shards)
            .with_sibyl(SibylConfig {
                buffer_capacity: 256,
                train_interval: 128,
                batch_size: 32,
                batches_per_step: 2,
                n_atoms: 11,
                ..Default::default()
            })
    }

    #[test]
    fn outcome_covers_every_shard_and_request() {
        let trace = msrc::generate(msrc::Workload::Prxy1, 2_000, 5);
        let exp = ServeExperiment::new(config(4), trace);
        let out = exp.run().unwrap();
        assert_eq!(out.shard_metrics.len(), 4);
        assert_eq!(out.aggregate.total_requests, 2_000);
        let per_shard: u64 = out.shard_metrics.iter().map(|m| m.total_requests).sum();
        assert_eq!(per_shard, 2_000);
        assert_eq!(exp.config().shards, 4);
        assert_eq!(exp.trace().len(), 2_000);
    }

    #[test]
    fn telemetry_dump_is_deterministic_and_optional() {
        let trace = msrc::generate(msrc::Workload::Prxy1, 1_200, 5);
        let off = ServeExperiment::new(config(2), trace.clone())
            .run()
            .unwrap();
        assert!(off.telemetry_jsonl().is_none());
        assert!(off.telemetry_top().is_none());
        let cfg = config(2)
            .with_curve_every(4)
            .with_telemetry(sibyl_serve::TelemetryConfig::full());
        let exp = ServeExperiment::new(cfg, trace);
        let a = exp.run().unwrap();
        let b = exp.run().unwrap();
        let jsonl = a.telemetry_jsonl().unwrap();
        assert_eq!(
            jsonl,
            b.telemetry_jsonl().unwrap(),
            "export must be byte-identical"
        );
        assert!(jsonl.lines().count() > 10);
        assert!(!jsonl.contains("measured."));
        let top = a.telemetry_top().unwrap();
        assert!(top.contains("sibyl-top"));
        assert!(top.contains("serve.requests"));
    }

    #[test]
    fn xray_report_is_deterministic_and_optional() {
        let trace = msrc::generate(msrc::Workload::Prxy1, 1_200, 5);
        let off = ServeExperiment::new(config(2), trace.clone())
            .run()
            .unwrap();
        assert!(off.xray_report().is_none());
        assert!(off.xray_folded().is_none());
        let cfg = config(2).with_xray(sibyl_serve::XrayConfig::Sampled(0));
        let exp = ServeExperiment::new(cfg, trace);
        let a = exp.run().unwrap();
        let b = exp.run().unwrap();
        let folded = a.xray_folded().unwrap();
        assert_eq!(
            folded,
            b.xray_folded().unwrap(),
            "folded export must be byte-identical"
        );
        assert!(folded.contains("request;hss.access;device.transfer"));
        let report = a.xray_report().unwrap();
        assert_eq!(report.requests_seen(), 1_200);
        assert_eq!(report.sampled(), 1_200, "1/2^0 sampling traces everything");
        assert!(report.breakdown_table().contains("merged"));
    }

    #[test]
    fn empty_trace_maps_to_sim_error() {
        let exp = ServeExperiment::new(config(2), Trace::from_requests("e", vec![]));
        assert!(matches!(exp.run(), Err(SimError::EmptyTrace)));
        assert!(matches!(
            ServeExperiment::run_stream(&config(2), std::iter::empty()),
            Err(SimError::EmptyTrace)
        ));
    }

    #[test]
    fn streamed_experiment_matches_materialized_run() {
        let cfg = config(2);
        let n = 900;
        let seed = 11;
        let trace = msrc::generate(msrc::Workload::Prxy1, n, seed);
        let vec_fed = ServeExperiment::new(cfg.clone(), trace).run().unwrap();
        let streamed =
            ServeExperiment::run_stream(&cfg, msrc::stream(msrc::Workload::Prxy1, n, seed).take(n))
                .unwrap();
        assert_eq!(vec_fed.report, streamed.report);
        assert_eq!(vec_fed.aggregate, streamed.aggregate);
    }
}
