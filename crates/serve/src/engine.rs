//! The sharded serving engine: LBA-hash sharding, per-shard workers
//! that each read their own slice of the request stream, batched
//! inference, cooperative sync rounds, and background-migration ticks.

use sibyl_coop::{CoopConfigError, Coordinator};
use sibyl_core::{SibylAgent, SibylConfigError, TrainingMode};
use sibyl_hss::{AccessOutcome, StorageManager};
use sibyl_migrate::{MigrateConfigError, Migrator};
use sibyl_telemetry::{
    measured, Log2Histogram, ShardTelemetry, TelemetryConfigError, TelemetryReport, TelemetrySink,
    TraceEvent,
};
use sibyl_trace::{IoRequest, Trace};
use sibyl_xray::{RequestObservation, ShardXray, XrayConfigError, XrayReport, XrayTracer};

use crate::config::ServeConfig;
use crate::report::{CurvePoint, ServeReport, ShardReport};

/// Errors from serving runs: an unusable trace or a degenerate
/// configuration ([`ServeConfig::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The trace contains no requests.
    EmptyTrace,
    /// `shards == 0`: there would be no shard to serve the stream.
    ZeroShards,
    /// `max_batch == 0`: a shard could never fill a batch.
    ZeroMaxBatch,
    /// `time_scale` is not positive and finite.
    InvalidTimeScale,
    /// `nn_ns_per_mac` is negative or not finite.
    InvalidNnCost,
    /// A [`DecideCost::TwoTerm`](crate::DecideCost) fit carries a
    /// negative or non-finite term.
    InvalidDecideCost,
    /// The telemetry configuration is degenerate.
    Telemetry(TelemetryConfigError),
    /// The xray span-tracing configuration is degenerate.
    Xray(XrayConfigError),
    /// The cooperation configuration is degenerate.
    Coop(CoopConfigError),
    /// The background-migration configuration is degenerate.
    Migrate(MigrateConfigError),
    /// The per-shard agent configuration is degenerate.
    Sibyl(SibylConfigError),
    /// A shard died mid-run (it panicked), so the trace could not be
    /// fully served. Carries the dead shard's index. This surfaces as an
    /// error instead of re-raising the panic in the caller.
    ShardDown {
        /// Index of the shard that died.
        shard: usize,
    },
    /// The OS refused to spawn a worker thread for this shard, so the
    /// engine could not be brought up. Like [`ServeError::ShardDown`],
    /// this is surfaced as a typed error rather than a panic.
    SpawnFailed {
        /// Index of the shard whose worker could not be spawned.
        shard: usize,
    },
    /// A cooperative mode was combined with
    /// [`TrainingMode::Background`](sibyl_core::TrainingMode): weight
    /// export/import and replay absorption need the learner on the shard
    /// thread, and background trainers would break the determinism the
    /// sync barriers exist to preserve.
    CoopRequiresSynchronousTraining,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyTrace => write!(f, "trace contains no requests"),
            ServeError::ZeroShards => write!(f, "ServeConfig: shards must be positive"),
            ServeError::ZeroMaxBatch => write!(f, "ServeConfig: max_batch must be positive"),
            ServeError::InvalidTimeScale => {
                write!(f, "ServeConfig: time_scale must be positive and finite")
            }
            ServeError::InvalidNnCost => {
                write!(
                    f,
                    "ServeConfig: nn_ns_per_mac must be non-negative and finite"
                )
            }
            ServeError::InvalidDecideCost => {
                write!(
                    f,
                    "ServeConfig: decide-cost fit terms must be non-negative and finite"
                )
            }
            ServeError::Telemetry(e) => write!(f, "ServeConfig: {e}"),
            ServeError::Xray(e) => write!(f, "ServeConfig: {e}"),
            ServeError::Coop(e) => write!(f, "ServeConfig: {e}"),
            ServeError::Migrate(e) => write!(f, "ServeConfig: {e}"),
            ServeError::Sibyl(e) => write!(f, "ServeConfig: sibyl: {e}"),
            ServeError::ShardDown { shard } => {
                write!(f, "worker shard {shard} died before the trace was served")
            }
            ServeError::SpawnFailed { shard } => {
                write!(f, "could not spawn the worker thread for shard {shard}")
            }
            ServeError::CoopRequiresSynchronousTraining => {
                write!(
                    f,
                    "ServeConfig: cooperative modes require synchronous training"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Pages per routing region (`2^REGION_BITS` = 64 pages, 256 KiB at 4 KiB
/// pages). Sized to the trace generators' maximum request size, so a
/// request's pages almost always share one region — and therefore one
/// shard.
pub const REGION_BITS: u32 = 6;

/// The shard a request routes to: a mixing hash of its starting LPN's
/// *region* (`lpn >> REGION_BITS`) modulo the shard count. Same LPN →
/// same region → same shard, so each shard's access-frequency features
/// stay meaningful, and whole regions colocate, so multi-page requests
/// land on the shard that owns (nearly all of) their pages.
///
/// Routing is by the request's *starting* LPN: a request that straddles
/// a region boundary carries its tail pages to the start region's shard,
/// so a page in the straddled tail can materialize in more than one
/// shard's private manager. Shard-private copies are modeled
/// independently (no cross-shard invalidation) — an approximation that
/// only occurs at region boundaries and is the price of stateless
/// routing; cross-shard migration is an open ROADMAP item.
pub fn shard_of(lpn: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // splitmix64 finalizer — cheap, stateless, and avalanching, so
    // adjacent regions spread evenly across shards.
    let mut h = (lpn >> REGION_BITS).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % shards as u64) as usize
}

/// Serves a whole materialized trace through the sharded engine.
///
/// Thin wrapper over [`serve_stream`] — the trace's requests are fed
/// straight from the slice, so existing call sites keep their exact
/// behavior (bit-identical reports) while the engine itself is
/// stream-fed. For production-sized runs, hand [`serve_stream`] an
/// infinite generator (e.g. [`sibyl_trace::stream::SpecStream`]) bounded
/// with `.take(n)` instead of materializing a `Vec` of requests.
///
/// # Errors
///
/// Returns [`ServeError::EmptyTrace`] for an empty trace, or whatever
/// [`serve_stream`] returns.
pub fn serve_trace(config: &ServeConfig, trace: &Trace) -> Result<ServeReport, ServeError> {
    serve_stream(config, trace.iter().copied())
}

/// Serves a finite request stream through the sharded engine and collects
/// per-shard reports — without ever materializing the workload.
///
/// This is the engine's real entry point ([`serve_trace`] delegates
/// here). A *footprint pre-pass* over one clone of the stream, on the
/// caller thread, computes each shard's unique-page count (so
/// fraction-mode capacities resolve against exactly the data that shard
/// will hold, identically to the materialized path). Then every shard
/// walks a clone of its own — shard 0 on the caller thread, the others
/// on scoped worker threads: it keeps the requests [`shard_of`] assigns
/// to it, in stream order, and compresses their timestamps by
/// [`ServeConfig::time_scale`]. No request is ever queued between
/// threads, so peak memory is bounded by the workload's footprint (the
/// pre-pass page sets) — never by the trace length — in every
/// cooperation mode. That is what makes 10M-request runs practical: a
/// seeded generator stream costs O(footprint) memory where a
/// materialized `Trace` costs 24 bytes per request. The price is that
/// each of the `N` shards regenerates the whole stream.
///
/// The stream must be **finite** (bound an infinite generator with
/// `.take(n)`) and `Clone` must replay the identical sequence — true for
/// every seeded [`sibyl_trace::stream::RequestStream`] and for slice
/// iterators.
///
/// Each worker shard owns a private [`StorageManager`] + [`SibylAgent`]
/// pair and repeatedly takes the next [`ServeConfig::max_batch`]
/// requests of its slice (fewer only at the end), decides the whole
/// batch with one [`SibylAgent::place_batch`] call — batched C51
/// inference — then serves the batch and feeds the outcomes back.
///
/// Under a cooperative [`CoopConfig`](sibyl_coop::CoopConfig) mode, every
/// shard additionally arrives at a [`Coordinator`] sync round after each
/// `sync_period` of its batches: experience-sharing modes publish the
/// tap's selections and absorb every other shard's, weight-averaging
/// modes contribute training-net parameters and adopt the federated
/// mean. Sync rounds sit at logical (batch-count) boundaries, and a
/// shard whose slice is exhausted leaves the coordinator, so the
/// contributor set of every round — hence every result — is independent
/// of thread scheduling.
///
/// When [`ServeConfig::migrate`] runs an active policy, every shard
/// additionally ticks a private [`Migrator`] after each
/// `scan_period` of its batches — another logical boundary, so seeded
/// runs stay deterministic — promoting hot slower-device pages and
/// demoting cold fast ones through the bandwidth-accounted
/// [`StorageManager::migrate_batch`]; the migration I/O advances the
/// shard's device clocks, so subsequent foreground requests observe the
/// contention ([`ShardReport::migrations`] /
/// [`ShardReport::migration_busy_us`]).
///
/// When [`ServeConfig::nn_ns_per_mac`] is positive, every batch is
/// charged one simulated NN forward pass amortized over its requests
/// (see the field's docs), so placement-decision compute shows up in the
/// latency metrics. Training is charged through the same model: a train
/// step bills `batches_per_step` batched forward+backward weight streams
/// (the batched `train_step` streams each weight matrix once per replay
/// batch, exactly like batched inference), and the bill delays the
/// shard's *next* batch — the §10 overhead analysis's point that both
/// halves of the two-network design cost request latency. Training is
/// billed only under synchronous training; a background trainer runs
/// concurrently off the decision path and is not charged.
///
/// Because batch boundaries are fixed chunks of each shard's request
/// subsequence, with the default
/// [`TrainingMode::Synchronous`](sibyl_core::TrainingMode) results are
/// bit-identical across runs for a given config and trace, regardless
/// of thread scheduling — in every cooperation mode.
/// [`TrainingMode::Background`](sibyl_core::TrainingMode) keeps the
/// trainer off the decision path instead: weight adoption then depends
/// on trainer-thread timing, so run-to-run metric drift is expected, not
/// a bug (and cooperative modes therefore reject it).
///
/// # Errors
///
/// Returns [`ServeError::EmptyTrace`] for a stream that yields no
/// requests, the configuration's first violated constraint (see
/// [`ServeConfig::validate`]), [`ServeError::SpawnFailed`] when the OS
/// refuses a worker thread, or [`ServeError::ShardDown`] when a worker
/// panics.
pub fn serve_stream<S>(config: &ServeConfig, stream: S) -> Result<ServeReport, ServeError>
where
    S: Iterator<Item = IoRequest> + Clone + Send,
{
    config.validate()?;

    // Footprint pre-pass over a clone of the stream, so fraction-mode
    // capacities resolve against the data each shard will actually hold
    // — the same per-shard footprints the materialized path computes.
    // Sets keep this O(unique pages), not O(total request pages).
    let mut shard_pages: Vec<std::collections::HashSet<u64>> =
        vec![std::collections::HashSet::new(); config.shards];
    let mut total_requests = 0u64;
    for req in stream.clone() {
        let s = shard_of(req.lpn, config.shards);
        shard_pages[s].extend(req.pages());
        total_requests += 1;
    }
    if total_requests == 0 {
        return Err(ServeError::EmptyTrace);
    }
    let footprints: Vec<u64> = shard_pages.iter().map(|pages| pages.len() as u64).collect();
    drop(shard_pages);

    let coordinator = config
        .coop
        .mode
        .is_cooperative()
        .then(|| Coordinator::new(config.coop, config.shards));
    // Every member's guard exists before the first spawn, so each shard
    // leaves the coordinator exactly once — when its closure finishes or
    // unwinds, or, if its thread never starts, when the guard drops
    // unused — and no peer can park at a barrier waiting on it forever.
    let leave_guards: Vec<Option<LeaveGuard<'_>>> = (0..config.shards)
        .map(|member| {
            coordinator
                .as_deref()
                .map(|coord| LeaveGuard { coord, member })
        })
        .collect();

    let (shards, time_scale) = (config.shards, config.time_scale);
    let slice = |shard: usize| {
        stream
            .clone()
            .filter(move |req| shard_of(req.lpn, shards) == shard)
            .map(move |mut req| {
                if time_scale != 1.0 {
                    req.timestamp_us = (req.timestamp_us as f64 / time_scale) as u64;
                }
                req
            })
    };
    let coop = coordinator.as_deref();
    let joined = std::thread::scope(|scope| {
        // Owned by this closure, so an early return or unwind drops the
        // guards of unstarted shards before the scope joins the others.
        let mut leave_guards = leave_guards.into_iter();
        let first_guard = leave_guards.next().flatten();
        let mut workers = Vec::with_capacity(shards - 1);
        for (shard, &footprint) in footprints.iter().enumerate().skip(1) {
            let leave_guard = leave_guards.next().flatten();
            let requests = slice(shard);
            let spawned = std::thread::Builder::new()
                .name(format!("sibyl-shard-{shard}"))
                .spawn_scoped(scope, move || {
                    let _leave_guard = leave_guard;
                    run_shard(config, shard, footprint, coop, requests)
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(_) => {
                    // The failed closure dropped its guard; release the
                    // members not yet started too, so the running shards
                    // finish their slices instead of waiting on them.
                    drop((first_guard, leave_guards));
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(ServeError::SpawnFailed { shard });
                }
            }
        }
        // Shard 0 runs on the caller thread, which would otherwise idle
        // in `join`; catching its panic mirrors what `join` reports.
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _leave_guard = first_guard;
            run_shard(config, 0, footprints[0], coop, slice(0))
        }));
        Ok(std::iter::once(first)
            .chain(workers.into_iter().map(|worker| worker.join()))
            .collect::<Vec<_>>())
    })?;

    let mut shards: Vec<ShardReport> = Vec::with_capacity(joined.len());
    let mut shard_telemetry: Vec<ShardTelemetry> = Vec::new();
    let mut shard_xrays: Vec<ShardXray> = Vec::new();
    for (shard, result) in joined.into_iter().enumerate() {
        let Ok((report, telemetry, xray)) = result else {
            return Err(ServeError::ShardDown { shard });
        };
        shards.push(report);
        shard_telemetry.extend(telemetry);
        shard_xrays.extend(xray);
    }
    let telemetry = config
        .telemetry
        .enabled()
        .then(|| TelemetryReport::new(shard_telemetry));
    let xray = config.xray.enabled().then(|| XrayReport::new(shard_xrays));
    Ok(ServeReport {
        shards,
        telemetry,
        xray,
    })
}

/// Deregisters a shard from the coordinator when dropped — after the
/// shard's run returns, while it unwinds, or unused when its thread
/// never started. Without this, a missing shard would leave `members`
/// overcounted and every peer parked at the sync barrier forever,
/// turning a loud failure into a silent hang.
struct LeaveGuard<'a> {
    coord: &'a Coordinator,
    member: usize,
}

impl Drop for LeaveGuard<'_> {
    fn drop(&mut self) {
        self.coord.leave(self.member);
    }
}

/// One worker shard's lifetime: take the next batch of its requests,
/// decide it with batched inference, serve it (charging amortized NN
/// time when configured), feed rewards back, and arrive at cooperative
/// sync rounds on its logical batch boundaries; repeat until its
/// `slice` of the stream runs dry.
fn run_shard(
    config: &ServeConfig,
    shard: usize,
    footprint: u64,
    coop: Option<&Coordinator>,
    mut slice: impl Iterator<Item = IoRequest>,
) -> (ShardReport, Option<ShardTelemetry>, Option<ShardXray>) {
    let mut manager = StorageManager::new(&config.hss.resolved(footprint.max(1)));
    let mut sibyl = config.sibyl.clone();
    sibyl.seed = config.shard_seed(shard);
    sibyl.quant_mode = config.quant;
    sibyl.telemetry = config.telemetry;
    let mut agent = SibylAgent::new(sibyl);
    // `XrayConfig::Off` builds no tracer — same discipline as the sink
    // and the migrator: a disabled engine holds no xray branch that ever
    // fires, pinning it bit-identical to one without the subsystem.
    // Sampling keys on the *base* seed, not the shard-perturbed one: a
    // request's sampling decision must depend only on (seed, lba, seq),
    // so re-sharding a run keeps comparable sampled sets.
    let mut xray = XrayTracer::new(&config.xray, shard, config.sibyl.seed);
    // `TelemetryConfig::off()` builds no sink: every telemetry branch
    // below is an `if let Some(..)` that never fires, keeping the
    // disabled engine bit-identical to one without the subsystem. The
    // stopwatch is the one wall-clock read, and its total can only land
    // in the `measured.*` namespace — excluded from report equality and
    // the deterministic export.
    let mut sink = TelemetrySink::new(&config.telemetry);
    let stopwatch = sink.as_ref().map(|_| measured::Stopwatch::start());
    // Per-request latency samples accumulate into a shard-local histogram
    // and merge into the registry once at teardown: a name lookup per
    // request is the kind of hot-path cost the ≤3% overhead pin exists
    // to keep out, and bucket counts merge commutatively, so the final
    // registry (and export) is identical either way.
    let mut latency_hist = match &sink {
        Some(s) if s.histograms() => Some(Log2Histogram::new()),
        _ => None,
    };
    if let Some(coord) = coop {
        if coord.config().mode.shares_experiences() {
            agent.set_experience_tap(coord.config().share_fraction);
            agent.set_foreign_weight(coord.config().foreign_weight);
        }
    }
    // `MigratePolicyKind::None` builds no migrator: the loop below then
    // contains no migration branch at all, keeping the baseline
    // bit-identical to the engine before the subsystem existed.
    let mut migrate = config.migrate.clone();
    migrate.seed = config.migrate_seed(shard);
    let mut migrator = Migrator::new(migrate);
    let mut batch: Vec<IoRequest> = Vec::with_capacity(config.max_batch);
    let mut outcomes: Vec<AccessOutcome> = Vec::with_capacity(config.max_batch);
    let mut batches = 0u64;
    let mut requests = 0u64;
    let mut coop_syncs = 0u64;
    let mut nn_busy_us = 0.0f64;
    let mut train_busy_us = 0.0f64;
    let mut migrations = 0u64;
    let mut migration_busy_us = 0.0f64;
    // Training time billed by the §10 model but not yet charged to any
    // request: a train step runs after a batch's outcomes are fed back,
    // so its cost lands on the *next* batch's dispatch.
    let mut pending_train_us = 0.0f64;
    let mut charged_train_steps = 0u64;
    // Train steps already turned into `TraceEvent::TrainStep` records —
    // tracked separately from `charged_train_steps`, which only advances
    // when the §10 cost model is billing.
    let mut event_train_steps = 0u64;
    let mut curve: Vec<CurvePoint> = Vec::new();
    loop {
        batch.clear();
        batch.extend(slice.by_ref().take(config.max_batch));
        if batch.is_empty() {
            break;
        }
        let targets = agent.place_batch(&batch, &manager);
        // §10 overhead model: one forward pass per batch — the batched
        // kernels stream each weight matrix once per *batch* — amortized
        // evenly across the batch's requests as an arrival delay, plus
        // any training bill carried over from the previous batch. The
        // default `DecideCost::PerMac` keeps the analytic MAC bill;
        // `DecideCost::TwoTerm` replays the measured setup + per-row fit.
        let batch_decide_us =
            config
                .decide_cost
                .batch_us(agent.inference_macs(), config.nn_ns_per_mac, batch.len());
        let per_req_nn_us = batch_decide_us / batch.len() as f64;
        let per_req_delay_us = per_req_nn_us + pending_train_us / batch.len() as f64;
        pending_train_us = 0.0;
        if let Some(sink) = &mut sink {
            sink.event(TraceEvent::BatchDecided {
                batch: batches,
                requests: batch.len(),
                decide_us: batch_decide_us,
            });
        }
        outcomes.clear();
        for (req, &target) in batch.iter().zip(&targets) {
            nn_busy_us += per_req_nn_us;
            let outcome = manager.access_after(req, target, per_req_delay_us);
            if let Some(sink) = &mut sink {
                sink.event(TraceEvent::RequestServed {
                    lpn: req.lpn,
                    device: target.0,
                    latency_us: outcome.latency_us,
                });
                if outcome.evicted_pages > 0 {
                    sink.event(TraceEvent::Eviction {
                        lpn: req.lpn,
                        pages: outcome.evicted_pages,
                    });
                }
            }
            if let Some(h) = &mut latency_hist {
                h.record(outcome.latency_us as u64);
            }
            if let Some(x) = &mut xray {
                // The storage manager's sub-span hook is valid right
                // after `access_after`: which device sat on the critical
                // path and how its time split into queueing vs transfer.
                let detail = manager.last_access_detail();
                let summary = x.observe_request(&RequestObservation {
                    lba: req.lpn,
                    timestamp_us: req.timestamp_us as f64,
                    arrival_us: outcome.arrival_us,
                    latency_us: outcome.latency_us,
                    decide_us: per_req_nn_us,
                    train_us: per_req_delay_us - per_req_nn_us,
                    queue_us: detail.queue_us,
                    batch: batch.len(),
                    device: detail.device,
                    target: outcome.target.0,
                    promoted: outcome.migrated_pages,
                    evicted: outcome.evicted_pages,
                });
                // Sampled spans double as `xray.*` telemetry histograms:
                // the quantized decomposition is already exact, so the
                // registry sees the same logical-ns values the report
                // aggregates. Sampling keeps this off the per-request
                // hot path at any k > 0.
                if let Some(s) = summary {
                    if let Some(sink) = &mut sink {
                        if sink.histograms() {
                            let registry = sink.registry_mut();
                            registry.histogram_record("xray.latency_ns", s.latency_ns);
                            registry.histogram_record("xray.decide_ns", s.decide_ns);
                            registry.histogram_record("xray.train_ns", s.train_ns);
                            registry.histogram_record("xray.queue_ns", s.queue_ns);
                            registry.histogram_record("xray.transfer_ns", s.transfer_ns);
                            registry.histogram_record("xray.queue_wait_ns", s.queue_wait_ns);
                        }
                    }
                }
            }
            outcomes.push(outcome);
        }
        if let Some(sink) = &mut sink {
            let registry = sink.registry_mut();
            registry.counter_add("serve.requests", batch.len() as u64);
            registry.counter_add("serve.batches", 1);
            if sink.histograms() {
                let registry = sink.registry_mut();
                registry.histogram_record("serve.batch_fill", batch.len() as u64);
                registry.histogram_record("serve.decide_ns", (batch_decide_us * 1_000.0) as u64);
            }
        }
        agent.feedback_batch(&outcomes);
        // Training is billed only in synchronous mode, where the learner
        // really does run inline on the decision path; a background
        // trainer is concurrent by design (and its weight-adoption
        // timing is thread-schedule dependent), so charging it to
        // request latency would be both wrong and nondeterministic.
        if config.nn_ns_per_mac > 0.0 && agent.config().training_mode == TrainingMode::Synchronous {
            let new_steps = agent.stats().train_steps - charged_train_steps;
            if new_steps > 0 {
                // The batched train step streams each weight matrix once
                // forward and once backward per replay batch — two passes
                // at the same ns/MAC rate batched inference is billed.
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
        if let Some(sink) = &mut sink {
            // Synchronous train steps happen inside `feedback_batch`, so
            // the count delta over this batch is deterministic; the loss
            // comes from the agent's introspection probe (telemetry is
            // propagated into `SibylConfig`, so it is always on here).
            let steps = agent.stats().train_steps;
            if steps > event_train_steps {
                let loss = agent.probe().last_loss.map_or(f64::NAN, f64::from);
                for step in event_train_steps..steps {
                    sink.event(TraceEvent::TrainStep {
                        step: step + 1,
                        loss,
                    });
                }
                event_train_steps = steps;
            }
        }
        batches += 1;
        requests += batch.len() as u64;
        // Background-migration tick at deterministic batch-count
        // boundaries: the migrator scans residency/heat, plans, and
        // executes moves whose I/O is charged against this shard's
        // device clocks — the next batch's requests queue behind it.
        if let Some(m) = &mut migrator {
            if batches.is_multiple_of(m.config().scan_period) {
                let tick = m.tick(&mut manager);
                migrations += tick.moved_pages;
                migration_busy_us += tick.busy_us;
                if let Some(x) = &mut xray {
                    x.observe_migration_tick(tick.read_us, tick.write_us, tick.moved_pages);
                }
                if let Some(sink) = &mut sink {
                    sink.event(TraceEvent::MigrationTick {
                        tick: batches / m.config().scan_period,
                        moved_pages: tick.moved_pages,
                        busy_us: tick.busy_us,
                    });
                }
            }
        }
        if config.curve_every > 0 && batches.is_multiple_of(config.curve_every) {
            let point = CurvePoint::from_stats(manager.stats());
            if let Some(sink) = &mut sink {
                // The learning curve doubles as a registry time series —
                // keyed on the shard's request count, logical time — and
                // at `Full` level the same cadence samples the agent's RL
                // introspection probe (pure: no RNG, no mutation).
                let registry = sink.registry_mut();
                registry.series_push("curve.avg_latency_us", point.requests, point.avg_latency_us);
                registry.series_push(
                    "curve.fast_fraction",
                    point.requests,
                    point.fast_placement_fraction,
                );
                if sink.histograms() {
                    let probe = agent.probe();
                    let registry = sink.registry_mut();
                    registry.series_push("rl.epsilon", batches, probe.epsilon);
                    registry.series_push("rl.buffer_len", batches, probe.buffer_len as f64);
                    registry.series_push("rl.q_spread", batches, probe.q_spread);
                    registry.series_push("rl.argmax_entropy", batches, probe.argmax_entropy);
                    if let Some(loss) = probe.last_loss {
                        registry.series_push("rl.loss", batches, f64::from(loss));
                    }
                    registry.histogram_merge("rl.replay_age", &probe.buffer_age);
                }
            }
            curve.push(point);
        }
        if let Some(coord) = coop {
            if batches.is_multiple_of(coord.config().sync_period) {
                let weights = if coord.config().mode.averages_weights() {
                    agent.export_weights()
                } else {
                    None
                };
                let published = if coord.config().mode.shares_experiences() {
                    agent.take_published()
                } else {
                    Vec::new()
                };
                let outcome = coord.sync(shard, weights, published);
                if let Some(avg) = &outcome.weights {
                    agent.import_weights(avg);
                }
                if !outcome.shared.is_empty() {
                    agent.absorb_experiences(&outcome.shared);
                }
                coop_syncs += 1;
                if let Some(x) = &mut xray {
                    x.observe_coop_sync();
                }
                if let Some(sink) = &mut sink {
                    sink.event(TraceEvent::CoopSync {
                        round: coop_syncs,
                        batches,
                    });
                    sink.registry_mut().counter_add("coop.syncs", 1);
                }
            }
        }
    }
    let telemetry = sink.map(|mut sink| {
        // Fold the run's terminal state into the registry: the agent's
        // internal `rl.*` series and `measured.train_ns`, the storage
        // manager's `hss.*` counters, the migrator's `migrate.*`
        // counters, and the cooperation configuration. Shard-local state
        // only — global coordinator counters keep advancing while other
        // shards drain, so reading them here would make the export
        // depend on teardown timing.
        if let Some(h) = &latency_hist {
            // Guarded on non-empty so a shard that served nothing exports
            // exactly what per-request recording would have: no entry.
            if h.count() > 0 {
                sink.registry_mut().histogram_merge("serve.latency_us", h);
            }
        }
        if let Some(registry) = agent.take_telemetry() {
            sink.registry_mut().absorb(registry);
        }
        // Directory footprint at teardown: the compact directory is
        // append-only (pages move devices but are never forgotten), so
        // the final size is the run's peak. Gauges merge by max, so the
        // cross-shard report shows the largest shard's directory.
        sink.registry_mut()
            .gauge_set("dir.bytes", manager.directory().directory_bytes() as f64);
        sink.registry_mut()
            .gauge_set("dir.pages", manager.directory().len() as f64);
        manager.stats().record_registry(sink.registry_mut());
        if let Some(m) = &migrator {
            m.stats().record_registry(sink.registry_mut());
        }
        if let Some(coord) = coop {
            coord.config().record_registry(sink.registry_mut());
        }
        if let Some(stopwatch) = stopwatch {
            stopwatch.stop_into(sink.registry_mut(), "measured.shard_run_ns");
        }
        sink.finish(shard)
    });
    let report = ShardReport {
        shard,
        requests,
        batches,
        directory_bytes: manager.directory().directory_bytes() as u64,
        directory_pages: manager.directory().len() as u64,
        coop_syncs,
        nn_busy_us,
        train_busy_us,
        migrations,
        migration_busy_us,
        curve,
        stats: manager.stats().clone(),
        agent: agent.stats().clone(),
    };
    (report, telemetry, xray.map(XrayTracer::finish))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecideCost;
    use sibyl_coop::{CoopConfig, CoopMode};
    use sibyl_core::SibylConfig;
    use sibyl_hss::{DeviceSpec, HssConfig};
    use sibyl_migrate::{MigrateConfig, MigratePolicyKind};
    use sibyl_telemetry::TelemetryConfig;
    use sibyl_trace::{mix, msrc, IoOp};
    use sibyl_xray::XrayConfig;

    fn fast_sibyl() -> SibylConfig {
        SibylConfig {
            buffer_capacity: 256,
            train_interval: 128,
            batch_size: 32,
            batches_per_step: 2,
            n_atoms: 11,
            exploration: 0.05,
            exploration_initial: 0.3,
            exploration_decay_requests: 500,
            ..Default::default()
        }
    }

    fn config(shards: usize, max_batch: usize) -> ServeConfig {
        let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
        ServeConfig::new(hss)
            .with_shards(shards)
            .with_max_batch(max_batch)
            .with_sibyl(fast_sibyl())
    }

    fn mixed_trace(n_per_component: usize) -> sibyl_trace::Trace {
        mix::Mix::Mix2.generate(n_per_component, 7)
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for lpn in [0u64, 1, 4096, u64::MAX] {
            let s = shard_of(lpn, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(lpn, 4));
        }
        assert_eq!(shard_of(12345, 1), 0);
    }

    #[test]
    fn shard_of_keeps_a_region_together() {
        // All 64 pages of one region — the span of the largest generated
        // request — route to the same shard.
        let region_shard = shard_of(0, 8);
        for lpn in 0..(1u64 << REGION_BITS) {
            assert_eq!(shard_of(lpn, 8), region_shard);
        }
    }

    #[test]
    fn shard_of_spreads_adjacent_regions() {
        let mut hit = vec![false; 8];
        for region in 0..64u64 {
            hit[shard_of(region << REGION_BITS, 8)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never hit: {hit:?}");
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let trace = mixed_trace(1_000);
        let report = serve_trace(&config(4, 16), &trace).unwrap();
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.total_requests(), trace.len() as u64);
        for s in &report.shards {
            assert_eq!(s.stats.total_requests, s.requests);
            assert_eq!(s.agent.decisions, s.requests);
            assert!(s.batches >= s.requests.div_ceil(16));
            assert_eq!(s.coop_syncs, 0, "no cooperation by default");
            assert_eq!(s.agent.shared_published, 0);
            assert_eq!(s.agent.shared_absorbed, 0);
        }
    }

    #[test]
    fn seeded_run_reproduces_identical_metrics() {
        let trace = mixed_trace(1_000);
        let cfg = config(4, 32);
        let a = serve_trace(&cfg, &trace).unwrap();
        let b = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(a, b, "sharded serving must be deterministic");
        assert_eq!(a.aggregate(), b.aggregate());
    }

    #[test]
    fn more_shards_increase_aggregate_iops() {
        let trace = mixed_trace(1_500);
        let one = serve_trace(&config(1, 16).with_time_scale(40.0), &trace).unwrap();
        let four = serve_trace(&config(4, 16).with_time_scale(40.0), &trace).unwrap();
        let (i1, i4) = (one.aggregate().iops, four.aggregate().iops);
        assert!(
            i4 > i1,
            "4 shards ({i4:.0} IOPS) should out-serve 1 shard ({i1:.0} IOPS)"
        );
    }

    #[test]
    fn single_shard_single_batch_matches_sequential_structure() {
        // max_batch = 1 degenerates to the sequential decision path: one
        // request per inference round.
        let trace = msrc::generate(msrc::Workload::Rsrch0, 300, 3);
        let report = serve_trace(&config(1, 1), &trace).unwrap();
        assert_eq!(report.shards[0].batches, 300);
        assert!((report.shards[0].avg_batch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let trace = sibyl_trace::Trace::from_requests("empty", vec![]);
        assert_eq!(
            serve_trace(&config(2, 8), &trace),
            Err(ServeError::EmptyTrace)
        );
        assert_eq!(
            ServeError::EmptyTrace.to_string(),
            "trace contains no requests"
        );
    }

    #[test]
    fn streamed_run_is_bit_identical_to_vec_fed_run() {
        // Satellite of the scale work: feeding the engine from the seeded
        // generator stream must reproduce the materialized golden Mix2
        // run exactly — same shard reports, same placement decisions —
        // because the stream's prefix is bit-identical to the Vec and each
        // shard reads its slice the same way either way.
        let n = 600;
        let trace = mix::Mix::Mix2.generate(n, 7);
        let cfg = config(4, 8);
        let vec_fed = serve_trace(&cfg, &trace).unwrap();
        let streamed = serve_stream(&cfg, mix::Mix::Mix2.stream(n, 7).take(trace.len())).unwrap();
        assert_eq!(vec_fed, streamed);
        // And a materialized trace adapts into the stream path unchanged.
        let adapted = serve_stream(&cfg, trace.clone().into_stream()).unwrap();
        assert_eq!(vec_fed, adapted);
    }

    #[test]
    fn streamed_runs_scale_directory_with_footprint_not_length() {
        // Serving the same infinite stream for 4x the requests must not
        // grow the directory 4x: pages repeat, the directory tracks the
        // footprint. (The wider sweep lives in the sec14_scale bench.)
        let cfg = config(2, 8);
        let short = serve_stream(&cfg, mix::Mix::Mix2.stream(400, 7).take(800)).unwrap();
        let long = serve_stream(&cfg, mix::Mix::Mix2.stream(400, 7).take(3_200)).unwrap();
        assert_eq!(long.total_requests(), 4 * short.total_requests());
        assert!(short.peak_directory_bytes() > 0);
        assert!(
            long.total_directory_bytes() < 3 * short.total_directory_bytes(),
            "directory must be footprint-bounded: short {} bytes, long {} bytes",
            short.total_directory_bytes(),
            long.total_directory_bytes()
        );
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert_eq!(
            serve_stream(&config(2, 8), std::iter::empty()),
            Err(ServeError::EmptyTrace)
        );
    }

    #[test]
    fn degenerate_config_is_an_error_not_a_panic() {
        let trace = mixed_trace(10);
        assert_eq!(
            serve_trace(&config(0, 8), &trace),
            Err(ServeError::ZeroShards)
        );
        assert_eq!(
            serve_trace(&config(2, 0), &trace),
            Err(ServeError::ZeroMaxBatch)
        );
        let coop_zero = config(2, 8).with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(0));
        assert!(matches!(
            serve_trace(&coop_zero, &trace),
            Err(ServeError::Coop(_))
        ));
    }

    #[test]
    fn background_training_mode_serves_and_shuts_down() {
        let mut cfg = config(2, 16);
        cfg.sibyl.training_mode = sibyl_core::TrainingMode::Background;
        let trace = mixed_trace(500);
        let report = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(report.total_requests(), trace.len() as u64);
    }

    #[test]
    fn cooperative_modes_serve_every_request_and_sync() {
        let trace = mixed_trace(1_000);
        for mode in [
            CoopMode::SharedReplay,
            CoopMode::WeightAverage,
            CoopMode::Both,
        ] {
            let cfg = config(4, 16).with_coop(CoopConfig::new(mode).with_sync_period(4));
            let report = serve_trace(&cfg, &trace).unwrap();
            assert_eq!(report.total_requests(), trace.len() as u64, "{mode}");
            let total_syncs: u64 = report.shards.iter().map(|s| s.coop_syncs).sum();
            assert!(total_syncs > 0, "{mode}: no sync rounds happened");
            if mode.shares_experiences() {
                let absorbed: u64 = report.shards.iter().map(|s| s.agent.shared_absorbed).sum();
                assert!(absorbed > 0, "{mode}: nothing crossed shard boundaries");
            }
            if mode.averages_weights() {
                for s in &report.shards {
                    assert!(
                        s.agent.weight_syncs >= s.coop_syncs,
                        "{mode}: shard {} adopted no averaged weights",
                        s.shard
                    );
                }
            }
        }
    }

    #[test]
    fn cooperative_runs_are_deterministic() {
        let trace = mixed_trace(800);
        for mode in [
            CoopMode::SharedReplay,
            CoopMode::WeightAverage,
            CoopMode::Both,
        ] {
            let cfg = config(4, 16).with_coop(CoopConfig::new(mode).with_sync_period(4));
            let a = serve_trace(&cfg, &trace).unwrap();
            let b = serve_trace(&cfg, &trace).unwrap();
            assert_eq!(a, b, "{mode}: cooperative serving must be deterministic");
        }
    }

    #[test]
    fn independent_mode_is_bit_identical_to_baseline_engine() {
        // CoopMode::Independent must take the exact PR-2 code path: no
        // coordinator, no tap — so its report matches a config that never
        // mentions cooperation, bit for bit, even with the other coop
        // knobs set to exotic values.
        let trace = mixed_trace(1_000);
        let baseline = serve_trace(&config(4, 16), &trace).unwrap();
        let explicit = config(4, 16).with_coop(
            CoopConfig::new(CoopMode::Independent)
                .with_sync_period(3)
                .with_share_fraction(0.9),
        );
        let report = serve_trace(&explicit, &trace).unwrap();
        assert_eq!(report, baseline);
        for s in &report.shards {
            assert_eq!(s.coop_syncs, 0);
            assert_eq!(s.agent.shared_published, 0);
            assert_eq!(s.agent.shared_absorbed, 0);
        }
    }

    #[test]
    fn idle_shards_leave_cooperative_runs_cleanly() {
        // Every request sits in one 64-page region, so one shard serves
        // the whole trace and the other three see an empty slice. They
        // must leave the coordinator without a batch or a sync round, and
        // the busy shard's barriers must not wait on them.
        let requests: Vec<IoRequest> = (0..600u64)
            .map(|i| {
                let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
                IoRequest::new(i * 50, (i * 7) % (1u64 << REGION_BITS), 1, op)
            })
            .collect();
        let trace = Trace::from_requests("one-region", requests);
        let busy = shard_of(0, 4);
        for mode in [
            CoopMode::SharedReplay,
            CoopMode::WeightAverage,
            CoopMode::Both,
        ] {
            let cfg = config(4, 8).with_coop(CoopConfig::new(mode).with_sync_period(2));
            let report = serve_trace(&cfg, &trace).unwrap();
            assert_eq!(report.total_requests(), trace.len() as u64, "{mode}");
            for s in &report.shards {
                if s.shard == busy {
                    assert_eq!(s.requests, trace.len() as u64, "{mode}");
                    assert!(s.coop_syncs > 0, "{mode}: busy shard never synced");
                } else {
                    assert_eq!(s.batches, 0, "{mode}: idle shard {} batched", s.shard);
                    assert_eq!(s.coop_syncs, 0, "{mode}: idle shard {} synced", s.shard);
                }
            }
        }
    }

    #[test]
    fn no_migration_is_bit_identical_to_baseline_engine() {
        // MigratePolicyKind::None must take the exact pre-subsystem code
        // path: no migrator, no ticks — so its report matches a config
        // that never mentions migration, bit for bit, even with every
        // other migration knob set to exotic values.
        let trace = mixed_trace(1_000);
        let baseline = serve_trace(&config(4, 16), &trace).unwrap();
        let explicit = config(4, 16).with_migrate(
            MigrateConfig::new(MigratePolicyKind::None)
                .with_scan_period(1)
                .with_max_moves(1_000)
                .with_promote_min_heat(1)
                .with_seed(99),
        );
        let report = serve_trace(&explicit, &trace).unwrap();
        assert_eq!(report, baseline);
        for s in &report.shards {
            assert_eq!(s.migrations, 0);
            assert_eq!(s.migration_busy_us, 0.0);
            assert_eq!(s.stats.bg_migration_events, 0);
        }
    }

    #[test]
    fn active_migration_moves_pages_and_charges_device_time() {
        let trace = mixed_trace(1_500);
        for policy in [MigratePolicyKind::HotCold, MigratePolicyKind::Rl] {
            let cfg = config(2, 16).with_migrate(MigrateConfig::new(policy).with_scan_period(2));
            let report = serve_trace(&cfg, &trace).unwrap();
            assert_eq!(report.total_requests(), trace.len() as u64, "{policy}");
            let moved: u64 = report.shards.iter().map(|s| s.migrations).sum();
            let busy: f64 = report.shards.iter().map(|s| s.migration_busy_us).sum();
            assert!(moved > 0, "{policy}: no pages migrated");
            assert!(busy > 0.0, "{policy}: migration I/O must cost device time");
            for s in &report.shards {
                assert_eq!(
                    s.stats.bg_promoted_pages + s.stats.bg_demoted_pages,
                    s.migrations,
                    "{policy}: shard {} counters disagree with manager stats",
                    s.shard
                );
            }
        }
    }

    #[test]
    fn migrating_runs_are_deterministic() {
        let trace = mixed_trace(1_000);
        for policy in [MigratePolicyKind::HotCold, MigratePolicyKind::Rl] {
            let cfg = config(4, 16).with_migrate(MigrateConfig::new(policy).with_scan_period(4));
            let a = serve_trace(&cfg, &trace).unwrap();
            let b = serve_trace(&cfg, &trace).unwrap();
            assert_eq!(a, b, "{policy}: migrating runs must be deterministic");
        }
    }

    #[test]
    fn degenerate_migration_config_is_an_error_not_a_panic() {
        let trace = mixed_trace(10);
        let cfg = config(2, 8)
            .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(0));
        assert!(matches!(
            serve_trace(&cfg, &trace),
            Err(ServeError::Migrate(_))
        ));
    }

    #[test]
    fn dead_shard_surfaces_as_shard_down_error() {
        // A capacity-limited slowest device makes StorageManager::new
        // panic inside every worker thread; the engine must fold that
        // into ServeError::ShardDown instead of re-raising the panic —
        // and, under cooperation, the dead shards must still leave the
        // coordinator so nothing hangs at a barrier.
        let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
            .with_capacity_pages(vec![10, 10]);
        let trace = mixed_trace(200);
        for mode in [CoopMode::Independent, CoopMode::Both] {
            let cfg = ServeConfig::new(hss.clone())
                .with_shards(2)
                .with_max_batch(8)
                .with_sibyl(fast_sibyl())
                .with_coop(CoopConfig::new(mode).with_sync_period(1));
            match serve_trace(&cfg, &trace) {
                Err(ServeError::ShardDown { shard }) => {
                    assert!(shard < 2);
                    assert!(ServeError::ShardDown { shard }
                        .to_string()
                        .contains(&format!("shard {shard}")));
                }
                other => panic!("{mode}: expected ShardDown, got {other:?}"),
            }
        }
    }

    #[test]
    fn nn_cost_charges_latency_and_amortizes_with_batch() {
        let trace = mixed_trace(800);
        let free = serve_trace(&config(2, 1), &trace).unwrap();
        let charged_b1 = serve_trace(&config(2, 1).with_nn_ns_per_mac(10.0), &trace).unwrap();
        let charged_b32 = serve_trace(&config(2, 32).with_nn_ns_per_mac(10.0), &trace).unwrap();
        assert!(
            charged_b1.aggregate().avg_latency_us > free.aggregate().avg_latency_us,
            "charging inference time must raise latency"
        );
        let busy_b1: f64 = charged_b1.shards.iter().map(|s| s.nn_busy_us).sum();
        let busy_b32: f64 = charged_b32.shards.iter().map(|s| s.nn_busy_us).sum();
        assert!(busy_b1 > 0.0 && busy_b32 > 0.0);
        assert!(
            busy_b32 < busy_b1 / 8.0,
            "batched inference must amortize the pass: {busy_b32:.0} vs {busy_b1:.0} µs"
        );
        assert_eq!(
            free.shards.iter().map(|s| s.nn_busy_us).sum::<f64>(),
            0.0,
            "disabled model must charge nothing"
        );
        assert_eq!(
            free.shards.iter().map(|s| s.train_busy_us).sum::<f64>(),
            0.0,
            "disabled model must charge no training either"
        );
    }

    #[test]
    fn training_is_charged_through_the_nn_cost_model() {
        let trace = mixed_trace(1_200);
        let cfg = config(2, 8).with_nn_ns_per_mac(10.0);
        let report = serve_trace(&cfg, &trace).unwrap();
        for s in &report.shards {
            assert!(
                s.agent.train_steps > 0,
                "shard {} never trained — the charge has nothing to bill",
                s.shard
            );
            // Each train step bills batches_per_step forward+backward
            // weight streams of the 1380-MAC C51 net at 10 ns/MAC.
            let expected = s.agent.train_steps as f64
                * 2.0
                * cfg.sibyl.batches_per_step as f64
                * 1380.0
                * 10.0
                / 1_000.0;
            assert!(
                (s.train_busy_us - expected).abs() < 1e-6 * expected,
                "shard {}: train_busy_us {} vs expected {}",
                s.shard,
                s.train_busy_us,
                expected
            );
        }
        // The training bill delays subsequent batches, so it must show up
        // in served latency on top of the inference-only charge.
        let inference_only = {
            let mut sib = fast_sibyl();
            sib.train_interval = u64::MAX; // never train
            let cfg = ServeConfig::new(HssConfig::dual(
                DeviceSpec::optane_ssd(),
                DeviceSpec::tlc_ssd(),
            ))
            .with_shards(2)
            .with_max_batch(8)
            .with_nn_ns_per_mac(10.0)
            .with_sibyl(sib);
            serve_trace(&cfg, &trace).unwrap()
        };
        assert_eq!(
            inference_only
                .shards
                .iter()
                .map(|s| s.train_busy_us)
                .sum::<f64>(),
            0.0,
            "an untrained run must bill no training time"
        );
    }

    #[test]
    fn background_training_is_never_billed_to_latency() {
        // A background trainer runs concurrently off the decision path,
        // so the §10 model must not charge it (and must not let its
        // thread-schedule-dependent step timing perturb latencies).
        let trace = mixed_trace(800);
        let mut cfg = config(2, 8).with_nn_ns_per_mac(10.0);
        cfg.sibyl.training_mode = sibyl_core::TrainingMode::Background;
        let report = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(
            report.shards.iter().map(|s| s.train_busy_us).sum::<f64>(),
            0.0,
            "background training must not be billed"
        );
        assert!(
            report.shards.iter().map(|s| s.nn_busy_us).sum::<f64>() > 0.0,
            "inference is still charged"
        );
    }

    #[test]
    fn telemetry_off_is_bit_identical_to_baseline_engine() {
        // TelemetryConfig::off() must take the exact pre-subsystem code
        // path: no sink, no events, no registry — so its report matches
        // a config that never mentions telemetry, bit for bit, even with
        // the ring capacity set to an exotic value.
        let trace = mixed_trace(1_000);
        let baseline = serve_trace(&config(4, 16), &trace).unwrap();
        let mut off = TelemetryConfig::off();
        off.event_capacity = 7;
        let report = serve_trace(&config(4, 16).with_telemetry(off), &trace).unwrap();
        assert_eq!(report, baseline);
        assert!(report.telemetry.is_none());
    }

    #[test]
    fn telemetry_observes_without_perturbing_placement() {
        // Enabling telemetry must change zero placement decisions: the
        // per-shard reports (latencies, placements, agent counters) stay
        // bit-identical; only the `telemetry` section appears.
        let trace = mixed_trace(1_000);
        let cfg = config(4, 16)
            .with_curve_every(4)
            .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(4));
        let baseline = serve_trace(&cfg, &trace).unwrap();
        let full =
            serve_trace(&cfg.clone().with_telemetry(TelemetryConfig::full()), &trace).unwrap();
        assert_eq!(full.shards, baseline.shards);
        let telemetry = full.telemetry.as_ref().expect("telemetry section");
        assert_eq!(telemetry.shards.len(), 4);
        for (shard, report) in telemetry.shards.iter().zip(&full.shards) {
            assert_eq!(shard.shard, report.shard);
            assert!(shard.recorded_events > 0, "shard {} silent", shard.shard);
            assert_eq!(shard.registry.counter("serve.requests"), report.requests);
            assert_eq!(shard.registry.counter("serve.batches"), report.batches);
            assert_eq!(
                shard.registry.counter("hss.requests"),
                report.stats.total_requests
            );
            let latency = shard.registry.histogram("serve.latency_us").unwrap();
            assert_eq!(latency.count(), report.requests);
            assert_eq!(
                shard.registry.counter("migrate.promoted_pages")
                    + shard.registry.counter("migrate.demoted_pages"),
                report.migrations
            );
            // Full level samples the RL probe at the curve cadence and
            // drains the agent's internal loss series.
            assert!(shard.registry.series("rl.epsilon").is_some());
            assert!(shard.registry.series("rl.train_loss").is_some());
            assert!(shard.registry.histogram("rl.replay_age").is_some());
            assert_eq!(
                shard.registry.series("curve.avg_latency_us").unwrap().len(),
                report.curve.len()
            );
            // The wall-clock total lives in the measured namespace only.
            assert!(shard.registry.counter("measured.shard_run_ns") > 0);
        }
        // Events level records the trace and counters but no histograms.
        let events = serve_trace(
            &cfg.clone().with_telemetry(TelemetryConfig::events()),
            &trace,
        )
        .unwrap();
        assert_eq!(events.shards, baseline.shards);
        for shard in &events.telemetry.as_ref().unwrap().shards {
            assert!(shard.registry.histogram("serve.latency_us").is_none());
            assert!(shard.recorded_events > 0);
        }
    }

    #[test]
    fn telemetry_event_trace_covers_the_taxonomy() {
        let trace = mixed_trace(1_000);
        let cfg = config(2, 8)
            .with_nn_ns_per_mac(10.0)
            .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(4))
            .with_coop(CoopConfig::new(CoopMode::SharedReplay).with_sync_period(4))
            .with_telemetry(TelemetryConfig::full());
        let report = serve_trace(&cfg, &trace).unwrap();
        let telemetry = report.telemetry.unwrap();
        let kinds: std::collections::BTreeSet<&str> = telemetry
            .shards
            .iter()
            .flat_map(|s| s.events.iter().map(|e| e.event.kind()))
            .collect();
        for expected in [
            "batch_decided",
            "request_served",
            "train_step",
            "migration_tick",
            "coop_sync",
        ] {
            assert!(kinds.contains(expected), "no {expected} event recorded");
        }
        // Sequence numbers are per-shard and strictly increasing.
        for shard in &telemetry.shards {
            for w in shard.events.windows(2) {
                assert!(w[0].seq < w[1].seq);
            }
            assert_eq!(shard.registry.counter("coop.syncs"), {
                report
                    .shards
                    .iter()
                    .find(|s| s.shard == shard.shard)
                    .unwrap()
                    .coop_syncs
            });
        }
    }

    #[test]
    fn two_term_decide_cost_reduces_to_per_mac_when_flat() {
        // A TwoTerm fit with `setup_us = macs × ns/MAC / 1000` and zero
        // per-row slope prices batches exactly like the analytic model,
        // so the two configurations must produce bit-identical reports.
        let trace = mixed_trace(800);
        let per_mac = serve_trace(&config(2, 8).with_nn_ns_per_mac(10.0), &trace).unwrap();
        let flat = config(2, 8)
            .with_nn_ns_per_mac(10.0) // training is still billed per MAC
            .with_decide_cost(DecideCost::TwoTerm {
                setup_us: 1_380.0 * 10.0 / 1_000.0,
                per_row_us: 0.0,
            });
        assert_eq!(serve_trace(&flat, &trace).unwrap(), per_mac);
        // A positive per-row slope bills more than the flat fit.
        let sloped = config(2, 8)
            .with_nn_ns_per_mac(10.0)
            .with_decide_cost(DecideCost::TwoTerm {
                setup_us: 1_380.0 * 10.0 / 1_000.0,
                per_row_us: 0.5,
            });
        let sloped_report = serve_trace(&sloped, &trace).unwrap();
        let flat_busy: f64 = per_mac.shards.iter().map(|s| s.nn_busy_us).sum();
        let sloped_busy: f64 = sloped_report.shards.iter().map(|s| s.nn_busy_us).sum();
        assert!(
            sloped_busy > flat_busy,
            "per-row slope must add decide cost: {sloped_busy} vs {flat_busy}"
        );
    }

    #[test]
    fn xray_off_is_bit_identical_to_baseline_engine() {
        // XrayConfig::Off must take the exact pre-subsystem code path:
        // no tracer, no observations — so its report matches a config
        // that never mentions xray, bit for bit, across shard/batch
        // geometries.
        let trace = mixed_trace(1_000);
        for (shards, max_batch) in [(4usize, 16usize), (2, 8)] {
            let baseline = serve_trace(&config(shards, max_batch), &trace).unwrap();
            let explicit = config(shards, max_batch).with_xray(XrayConfig::Off);
            let report = serve_trace(&explicit, &trace).unwrap();
            assert_eq!(report, baseline, "{shards} shards × batch {max_batch}");
            assert!(report.xray.is_none());
        }
    }

    #[test]
    fn xray_observes_without_perturbing_placement() {
        // Enabling span tracing must change zero placement decisions:
        // the per-shard reports stay bit-identical; only the `xray`
        // section appears — with exact critical-path sums.
        let trace = mixed_trace(1_000);
        let cfg = config(4, 16)
            .with_nn_ns_per_mac(10.0)
            .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(4));
        let baseline = serve_trace(&cfg, &trace).unwrap();
        let traced = serve_trace(&cfg.clone().with_xray(XrayConfig::Sampled(2)), &trace).unwrap();
        assert_eq!(traced.shards, baseline.shards);
        let xray = traced.xray.as_ref().expect("xray section");
        assert_eq!(xray.requests_seen(), trace.len() as u64);
        assert!(
            xray.sampled() > 0 && xray.sampled() < xray.requests_seen(),
            "1/4 sampling must trace a strict subset: {}/{}",
            xray.sampled(),
            xray.requests_seen()
        );
        let merged = xray.merged_totals();
        let comp_sum: u64 = merged.components().iter().map(|(_, ns)| ns).sum();
        assert_eq!(comp_sum, merged.latency_ns, "shares must sum to 100%");
        assert!(merged.decide_ns > 0, "charged NN time must be attributed");
        assert!(merged.transfer_ns > 0, "device time must be attributed");
        assert!(
            xray.shards.iter().map(|s| s.migrate_ticks).sum::<u64>() > 0,
            "migration ticks must be observed"
        );
        // Tail forensics: every retained span tree decomposes exactly.
        let tail = xray.tail(5);
        assert!(!tail.is_empty());
        for t in &tail {
            let path = sibyl_xray::critical_path(t);
            assert_eq!(path.total_ns, t.latency_ns);
            let sum: u64 = path.components.iter().map(|(_, ns)| ns).sum();
            assert_eq!(sum, t.latency_ns, "tail trace must decompose exactly");
        }
        assert!(traced
            .xray
            .as_ref()
            .unwrap()
            .breakdown_table()
            .contains("merged"));
    }

    #[test]
    fn xray_sampled_runs_reproduce_identical_folded_exports() {
        let trace = mixed_trace(800);
        let cfg = config(2, 8).with_xray(XrayConfig::Sampled(1));
        let a = serve_trace(&cfg, &trace).unwrap();
        let b = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(a, b, "traced runs must be deterministic");
        let folded = a.xray.as_ref().unwrap().xray_folded();
        assert_eq!(
            folded,
            b.xray.as_ref().unwrap().xray_folded(),
            "folded-stacks exports must be byte-identical"
        );
        assert!(folded.contains("request;hss.access;device.transfer"));
    }

    #[test]
    fn xray_spans_feed_telemetry_histograms() {
        let trace = mixed_trace(800);
        let cfg = config(2, 8)
            .with_nn_ns_per_mac(10.0)
            .with_telemetry(TelemetryConfig::full())
            .with_xray(XrayConfig::Sampled(0));
        let report = serve_trace(&cfg, &trace).unwrap();
        let xray = report.xray.as_ref().expect("xray section");
        let telemetry = report.telemetry.as_ref().expect("telemetry section");
        for (ts, xs) in telemetry.shards.iter().zip(&xray.shards) {
            let lat = ts.registry.histogram("xray.latency_ns").expect("histogram");
            assert_eq!(lat.count(), xs.totals.sampled);
            for name in ["xray.decide_ns", "xray.queue_wait_ns", "xray.transfer_ns"] {
                assert_eq!(
                    ts.registry.histogram(name).expect(name).count(),
                    xs.totals.sampled
                );
            }
        }
    }

    #[test]
    fn degenerate_xray_config_is_an_error_not_a_panic() {
        let trace = mixed_trace(10);
        let cfg = config(2, 8).with_xray(XrayConfig::Sampled(64));
        assert!(matches!(
            serve_trace(&cfg, &trace),
            Err(ServeError::Xray(_))
        ));
    }

    #[test]
    fn learning_curve_sampling_is_cumulative_and_optional() {
        let trace = mixed_trace(800);
        let off = serve_trace(&config(2, 16), &trace).unwrap();
        assert!(off.shards.iter().all(|s| s.curve.is_empty()));
        let on = serve_trace(&config(2, 16).with_curve_every(4), &trace).unwrap();
        for s in &on.shards {
            assert!(!s.curve.is_empty(), "shard {} sampled no points", s.shard);
            for w in s.curve.windows(2) {
                assert!(w[0].requests < w[1].requests, "curve must move forward");
            }
            assert_eq!(s.curve.len() as u64, s.batches / 4);
        }
    }
}
