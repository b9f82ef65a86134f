//! The sharded-serving experiment driver: trace × serving configuration
//! → per-shard and aggregate metrics, one run or a sweep over one
//! configuration knob.

use sibyl_serve::{
    serve_stream, serve_trace, Aggregate, CurvePoint, ServeConfig, ServeReport, TelemetryReport,
    XrayReport,
};
use sibyl_trace::{IoRequest, Trace};

use crate::experiment::SimError;
use crate::metrics::Metrics;

/// Result of one sharded serving run: the engine's raw report plus each
/// shard's statistics lifted into the paper's [`Metrics`] vocabulary.
#[derive(Debug, Clone, PartialEq)]
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

    /// The aggregate learning curve: sample k is the request-weighted
    /// mean of every shard's k-th cumulative sample. The aggregate is
    /// truncated to the *shortest* shard curve so every sample combines
    /// the same shard set — without that, shards dropping out of the
    /// tail would make the aggregate non-monotonic in requests. Empty
    /// unless the run's [`ServeConfig::curve_every`] was set.
    pub fn curve(&self) -> Vec<CurvePoint> {
        let samples = self
            .report
            .shards
            .iter()
            .map(|s| s.curve.len())
            .min()
            .unwrap_or(0);
        (0..samples)
            .map(|k| {
                let mut requests = 0u64;
                let mut latency_sum = 0.0;
                let mut fast_sum = 0.0;
                for shard in &self.report.shards {
                    let p = &shard.curve[k];
                    requests += p.requests;
                    latency_sum += p.avg_latency_us * p.requests as f64;
                    fast_sum += p.fast_placement_fraction * p.requests as f64;
                }
                let denom = requests.max(1) as f64;
                CurvePoint {
                    requests,
                    avg_latency_us: latency_sum / denom,
                    fast_placement_fraction: fast_sum / denom,
                }
            })
            .collect()
    }
}

/// One workload served once per key of a [`ServeExperiment::sweep`],
/// everything but the swept knob held fixed. The first run is the
/// baseline the ratios are taken against.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSweep<K> {
    /// One run per key, in sweep order (baseline first).
    pub runs: Vec<(K, ServeOutcome)>,
}

impl<K: Copy + PartialEq> ServeSweep<K> {
    /// The outcome of one key, or `None` if the key was not swept.
    pub fn outcome(&self, key: K) -> Option<&ServeOutcome> {
        self.runs.iter().find(|(k, _)| *k == key).map(|(_, o)| o)
    }

    /// The outcome of `key` next to the baseline's, when both exist.
    fn against_baseline(&self, key: K) -> Option<(&ServeOutcome, &ServeOutcome)> {
        Some((&self.runs.first()?.1, self.outcome(key)?))
    }

    /// A key's aggregate average latency normalized to the baseline —
    /// below 1.0 means the setting served the same workload faster.
    /// `0.0` when the key was not swept (or the baseline latency is
    /// degenerate).
    pub fn normalized_latency(&self, key: K) -> f64 {
        match self.against_baseline(key) {
            Some((base, run)) if base.aggregate.avg_latency_us > 0.0 => {
                run.aggregate.avg_latency_us / base.aggregate.avg_latency_us
            }
            _ => 0.0,
        }
    }

    /// A key's aggregate fast-placement fraction minus the baseline's —
    /// above 0.0 means the setting kept more of the working set fast.
    /// `0.0` when the key was not swept.
    pub fn hit_rate_gain(&self, key: K) -> f64 {
        self.against_baseline(key).map_or(0.0, |(base, run)| {
            run.aggregate.fast_placement_fraction - base.aggregate.fast_placement_fraction
        })
    }

    /// The non-baseline key with the lowest aggregate latency (the first
    /// on a tie); the baseline key for a one-run sweep.
    pub fn best(&self) -> Option<K> {
        let ((baseline, _), rest) = self.runs.split_first()?;
        let best = rest.iter().min_by(|(_, a), (_, b)| {
            a.aggregate
                .avg_latency_us
                .total_cmp(&b.aggregate.avg_latency_us)
        });
        Some(best.map_or(*baseline, |(k, _)| *k))
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

    /// Serves the workload once per key, each time under a clone of the
    /// base configuration that `apply` has set to that key. The first
    /// key is the baseline ([`sibyl_serve::CoopMode::ALL`] and
    /// [`sibyl_serve::MigratePolicyKind::ALL`] both list theirs first).
    ///
    /// # Examples
    ///
    /// ```
    /// use sibyl_hss::{DeviceSpec, HssConfig};
    /// use sibyl_serve::{MigratePolicyKind, ServeConfig};
    /// use sibyl_sim::ServeExperiment;
    /// use sibyl_trace::synth;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let trace = synth::diurnal(2_000, 2, 42);
    /// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
    /// let exp = ServeExperiment::new(ServeConfig::new(hss).with_shards(2), trace);
    /// let keys = [MigratePolicyKind::None, MigratePolicyKind::HotCold];
    /// let sweep = exp.sweep(&keys, |c, policy| {
    ///     c.migrate = c.migrate.clone().with_policy(policy)
    /// })?;
    /// assert_eq!(sweep.normalized_latency(MigratePolicyKind::None), 1.0);
    /// assert_eq!(sweep.best(), Some(MigratePolicyKind::HotCold));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing run's error: [`SimError::EmptyTrace`]
    /// for an empty trace, [`SimError::Serve`] for a configuration the
    /// engine rejects.
    pub fn sweep<K: Copy>(
        &self,
        keys: &[K],
        apply: impl Fn(&mut ServeConfig, K),
    ) -> Result<ServeSweep<K>, SimError> {
        let runs = keys
            .iter()
            .map(|&key| {
                let mut config = self.config.clone();
                apply(&mut config, key);
                let report = serve_trace(&config, &self.trace)?;
                Ok((key, ServeOutcome::from_report(report)))
            })
            .collect::<Result<_, SimError>>()?;
        Ok(ServeSweep { runs })
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
    use sibyl_serve::{CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind};
    use sibyl_trace::mix::Mix;
    use sibyl_trace::{msrc, synth};

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

    fn sweep_config(shards: usize) -> ServeConfig {
        let mut cfg = config(shards).with_max_batch(16);
        cfg.sibyl.exploration = 0.05;
        cfg.sibyl.exploration_initial = 0.3;
        cfg.sibyl.exploration_decay_requests = 500;
        cfg
    }

    fn coop_config(shards: usize) -> ServeConfig {
        sweep_config(shards)
            .with_curve_every(4)
            .with_coop(CoopConfig::default().with_sync_period(4))
    }

    fn migrate_config(shards: usize) -> ServeConfig {
        sweep_config(shards).with_migrate(MigrateConfig::default().with_scan_period(4))
    }

    fn set_mode(config: &mut ServeConfig, mode: CoopMode) {
        config.coop = config.coop.with_mode(mode);
    }

    fn set_policy(config: &mut ServeConfig, policy: MigratePolicyKind) {
        config.migrate = config.migrate.clone().with_policy(policy);
    }

    #[test]
    fn empty_trace_maps_to_sim_error() {
        let exp = ServeExperiment::new(config(2), Trace::from_requests("e", vec![]));
        assert!(matches!(exp.run(), Err(SimError::EmptyTrace)));
        assert!(matches!(
            ServeExperiment::run_stream(&config(2), std::iter::empty()),
            Err(SimError::EmptyTrace)
        ));
        let both = exp.sweep(&[CoopMode::Both], set_mode);
        assert!(matches!(both, Err(SimError::EmptyTrace)));
        let hot_cold = exp.sweep(&[MigratePolicyKind::HotCold], set_policy);
        assert!(matches!(hot_cold, Err(SimError::EmptyTrace)));
    }

    #[test]
    fn coop_sweep_covers_every_mode_in_order() {
        let exp = ServeExperiment::new(coop_config(2), Mix::Mix2.generate(400, 5));
        let sweep = exp.sweep(&CoopMode::ALL, set_mode).unwrap();
        assert!(sweep.runs.iter().map(|(m, _)| *m).eq(CoopMode::ALL));
        for (mode, o) in &sweep.runs {
            assert_eq!(o.aggregate.total_requests, 800);
            let curve = o.curve();
            assert!(!curve.is_empty(), "{mode}: no aggregate curve");
            for w in curve.windows(2) {
                assert!(w[0].requests <= w[1].requests);
            }
        }
        assert!(sweep.normalized_latency(CoopMode::Independent) == 1.0);
        assert!(sweep.best().is_some_and(CoopMode::is_cooperative));
        let _ = sweep.hit_rate_gain(CoopMode::Both);
    }

    #[test]
    fn migration_sweep_covers_every_policy_in_order() {
        let exp = ServeExperiment::new(migrate_config(2), synth::diurnal(1_200, 3, 5));
        let sweep = exp.sweep(&MigratePolicyKind::ALL, set_policy).unwrap();
        assert!(sweep
            .runs
            .iter()
            .map(|(p, _)| *p)
            .eq(MigratePolicyKind::ALL));
        for (policy, r) in &sweep.runs {
            assert_eq!(r.aggregate.total_requests, 1_200, "{policy}");
            let shards = &r.report.shards;
            let promoted: u64 = shards.iter().map(|s| s.stats.bg_promoted_pages).sum();
            let demoted: u64 = shards.iter().map(|s| s.stats.bg_demoted_pages).sum();
            let busy: f64 = shards.iter().map(|s| s.migration_busy_us).sum();
            if policy.is_active() {
                assert!(promoted > 0, "{policy}: nothing promoted");
                assert!(busy > 0.0, "{policy}: free migration");
            } else {
                assert_eq!(promoted + demoted, 0);
                assert_eq!(busy, 0.0);
            }
        }
        assert_eq!(sweep.normalized_latency(MigratePolicyKind::None), 1.0);
        assert!(sweep.best().is_some_and(MigratePolicyKind::is_active));
        let _ = sweep.hit_rate_gain(MigratePolicyKind::Rl);
    }

    /// Two seeded sweeps must be bit-identical, in every cooperation mode
    /// and every migration policy — the cooperation layer's hard design
    /// constraint, and the migrator's.
    #[test]
    fn sweeps_are_deterministic() {
        let coop = ServeExperiment::new(coop_config(4), Mix::Mix2.generate(300, 9));
        let coop_sweep = || coop.sweep(&CoopMode::ALL, set_mode).unwrap();
        assert_eq!(coop_sweep(), coop_sweep());
        let migrate = ServeExperiment::new(migrate_config(2), synth::diurnal(800, 2, 11));
        let migrate_sweep = || migrate.sweep(&MigratePolicyKind::ALL, set_policy).unwrap();
        assert_eq!(migrate_sweep(), migrate_sweep());
    }

    /// The no-migration run of a sweep must be bit-identical to a plain
    /// serve run whose config never mentions migration.
    #[test]
    fn no_migration_run_matches_migration_free_engine() {
        let trace = synth::diurnal(800, 2, 9);
        let exp = ServeExperiment::new(migrate_config(2), trace.clone());
        let sweep = exp.sweep(&[MigratePolicyKind::None], set_policy).unwrap();
        let plain = serve_trace(&sweep_config(2), &trace).unwrap();
        assert_eq!(sweep.runs[0].1.report, plain);
    }

    #[test]
    fn zero_sync_period_errors_only_under_cooperation() {
        let mut cfg = coop_config(2);
        cfg.coop = cfg.coop.with_sync_period(0);
        let exp = ServeExperiment::new(cfg, Mix::Mix2.generate(50, 5));
        assert!(matches!(
            exp.sweep(&[CoopMode::Both], set_mode),
            Err(SimError::Serve(_))
        ));
        // ... while the inert baseline tolerates the knob.
        assert!(exp.sweep(&[CoopMode::Independent], set_mode).is_ok());
    }

    /// A one-key sweep is its own baseline: `best()` falls back to it,
    /// and a key the sweep never ran normalizes (and gains) to `0.0`.
    #[test]
    fn one_key_sweep_is_its_own_baseline() {
        let exp = ServeExperiment::new(coop_config(2), Mix::Mix2.generate(200, 3));
        let sweep = exp.sweep(&[CoopMode::WeightAverage], set_mode).unwrap();
        assert_eq!(sweep.best(), Some(CoopMode::WeightAverage));
        assert_eq!(sweep.normalized_latency(CoopMode::WeightAverage), 1.0);
        assert!(sweep.outcome(CoopMode::Both).is_none());
        assert_eq!(sweep.normalized_latency(CoopMode::Both), 0.0);
        assert_eq!(sweep.hit_rate_gain(CoopMode::Both), 0.0);
        let empty = exp.sweep(&[], set_mode).unwrap();
        assert_eq!(empty.best(), None);
        assert_eq!(empty.normalized_latency(CoopMode::Independent), 0.0);
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
