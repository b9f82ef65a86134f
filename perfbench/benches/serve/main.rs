//! The repository benchmark: one-shard Sibyl serving on three workloads.
//!
//! ```text
//! cargo bench -q --offline --manifest-path perfbench/Cargo.toml --bench serve -- \
//!     --workload <mix2-learn|stg1-churn|diurnal-migrate|all> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public
//! `sibyl_serve::serve_stream` with no timer inside the serving path.
//! `--trace 1` measures the per-layer metrics: untraced `serve_stream`
//! runs for the engine's own cost, a traced single-threaded replica of
//! the shard loop (checked for exact parity with the engine) for layer
//! costs, and an `nn` kernel probe. `--workload all` runs both modes on
//! every workload. Human-readable tables go to stderr; the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `DESIGN.md` for the workloads and metric mapping.

mod probe;
mod replica;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sibyl_serve::{serve_stream, ServeError, ServeReport};

use replica::{Layer, Replica};
use stats::{median, percentile, Dist};
use workloads::WorkloadId;

const USAGE: &str = "usage: serve --workload <mix2-learn|stg1-churn|diurnal-migrate|all> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Fewest untraced `serve_stream` runs behind a per-layer wall time.
const MIN_REPS: usize = 3;
/// The sec14 invariant of the compact page directory.
const MAX_DIR_BYTES_PER_PAGE: u64 = 96;

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<WorkloadId>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads: Option<Vec<WorkloadId>> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<u64> = None;
    let mut trace: Option<bool> = None;
    while let Some(flag) = args.next() {
        // `cargo bench` appends `--bench` to the target's arguments.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    WorkloadId::ALL.to_vec()
                } else {
                    vec![WorkloadId::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One metric value with its name and unit.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The result of one measurement mode on one workload.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed output checks; the run is correct when this is empty.
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// The deterministic, modeled side of one serving report. A trace seed
/// must produce identical values on every run.
#[derive(Debug, Clone, PartialEq)]
struct Modeled {
    served: u64,
    sum_latency_us: f64,
    span_us: f64,
    p99_latency_us: f64,
    placements: u64,
    directory_pages: u64,
    directory_bytes: u64,
    nn_busy_us: f64,
    train_busy_us: f64,
    migrations: u64,
}

impl Modeled {
    fn of(report: &ServeReport) -> Modeled {
        let stats = report.shards.iter().map(|s| &s.stats);
        let first_arrival = stats
            .clone()
            .map(|s| s.first_arrival_us)
            .fold(f64::INFINITY, f64::min);
        let last_completion = stats
            .clone()
            .map(|s| s.last_completion_us)
            .fold(f64::NEG_INFINITY, f64::max);
        Modeled {
            served: report.total_requests(),
            sum_latency_us: stats.clone().map(|s| s.sum_latency_us).sum(),
            span_us: last_completion - first_arrival,
            p99_latency_us: stats
                .clone()
                .map(|s| s.histogram.percentile_us(99.0))
                .fold(0.0, f64::max),
            placements: stats.flat_map(|s| s.placements.iter()).sum(),
            directory_pages: report.total_directory_pages(),
            directory_bytes: report.total_directory_bytes(),
            nn_busy_us: report.shards.iter().map(|s| s.nn_busy_us).sum(),
            train_busy_us: report.shards.iter().map(|s| s.train_busy_us).sum(),
            migrations: report.shards.iter().map(|s| s.migrations).sum(),
        }
    }
}

/// The seed of an invocation's `i`-th trace. Distinct `--seed` values
/// give disjoint trace sets.
fn trace_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(i as u64)
}

/// One untraced `serve_stream` call and the set-up before it.
struct Served {
    setup: Duration,
    wall: Duration,
    report: Result<ServeReport, ServeError>,
}

/// Builds and validates the configuration and constructs the stream
/// (the set-up), then serves it.
fn serve_once(w: WorkloadId, seed: u64, observers: bool) -> Served {
    let start = Instant::now();
    let config = w.config(observers);
    if let Err(e) = config.validate() {
        return Served {
            setup: start.elapsed(),
            wall: Duration::ZERO,
            report: Err(e),
        };
    }
    let input = w.input(seed);
    let entered = Instant::now();
    let report = serve_stream(&config, input);
    Served {
        setup: entered - start,
        wall: entered.elapsed(),
        report,
    }
}

/// Untraced runs of one configuration over a set of traces.
struct Runs {
    observers: bool,
    /// Wall µs per request of each timed run.
    wall_us_per_req: Vec<f64>,
    /// Set-up seconds before each timed run.
    setup_s: Vec<f64>,
    /// The first modeled result of each trace.
    modeled: Vec<Option<Modeled>>,
    /// The first report of trace 0.
    report: Option<ServeReport>,
}

impl Runs {
    fn new(traces: usize, observers: bool) -> Runs {
        Runs {
            observers,
            wall_us_per_req: Vec::new(),
            setup_s: Vec::new(),
            modeled: vec![None; traces],
            report: None,
        }
    }

    /// Serves trace `i` once more, checks its outputs, and folds the run
    /// in; an untimed run only warms up and checks. Returns false when
    /// `serve_stream` failed.
    fn serve(
        &mut self,
        w: WorkloadId,
        seed: u64,
        i: usize,
        timed: bool,
        out: &mut Outcome,
    ) -> bool {
        let n = w.requests() as u64;
        let served = serve_once(w, trace_seed(seed, i), self.observers);
        out.attempted += n;
        let report = match served.report {
            Ok(report) => report,
            Err(e) => {
                out.failed += n;
                out.errors
                    .push(format!("serve_stream failed on trace {i}: {e}"));
                return false;
            }
        };
        let modeled = Modeled::of(&report);
        out.failed += n.saturating_sub(modeled.served);
        out.check(modeled.served == n, || {
            format!("served {} of {n} requests", modeled.served)
        });
        out.check(modeled.placements == modeled.served, || {
            format!(
                "placements sum to {} for {} requests",
                modeled.placements, modeled.served
            )
        });
        out.check(
            modeled.directory_bytes <= MAX_DIR_BYTES_PER_PAGE * modeled.directory_pages,
            || {
                format!(
                    "directory holds {} B for {} pages, over {MAX_DIR_BYTES_PER_PAGE} B/page",
                    modeled.directory_bytes, modeled.directory_pages
                )
            },
        );
        match &self.modeled[i] {
            Some(first) => out.check(*first == modeled, || {
                format!("trace {i} modeled differently on a rerun: {first:?} vs {modeled:?}")
            }),
            None => self.modeled[i] = Some(modeled),
        }
        if i == 0 && self.report.is_none() {
            self.report = Some(report);
        }
        if timed {
            self.setup_s.push(served.setup.as_secs_f64());
            self.wall_us_per_req
                .push(served.wall.as_secs_f64() * 1e6 / n as f64);
        }
        true
    }

    fn wall_us_per_req(&self) -> f64 {
        median(&self.wall_us_per_req)
    }
}

/// Whether another run fits in `budget`, given `runs` runs so far.
fn another_run(started: Instant, runs: usize, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    runs == 0 || elapsed + elapsed / runs as u32 <= budget
}

/// Process high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics, from untraced `serve_stream` runs: one
/// untimed warm-up on trace 0, then every trace of the invocation once,
/// then reruns of the traces in turn while `seconds` last. A rerun must
/// reproduce its trace's modeled results exactly; the warm-up makes sure
/// trace 0 is always rerun. The modeled metrics pool the traces as if
/// served back to back.
fn end_to_end(w: WorkloadId, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let traces = w.traces();
    let mut runs = Runs::new(traces, w.has_observers());
    let started = Instant::now();
    let mut ok = runs.serve(w, seed, 0, false, &mut out);
    let mut timed = 0;
    while ok && (timed < traces || another_run(started, timed + 1, Duration::from_secs(seconds))) {
        ok = runs.serve(w, seed, timed % traces, true, &mut out);
        timed += 1;
    }
    let rss = peak_rss_mib();
    out.check(rss.is_some(), || "VmHWM is unreadable".to_string());
    let modeled: Vec<&Modeled> = runs.modeled.iter().flatten().collect();
    let served: u64 = modeled.iter().map(|m| m.served).sum();
    let pooled = |f: fn(&Modeled) -> f64| modeled.iter().map(|m| f(m)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.metrics = vec![
        metric("wall_us_per_req", "us", runs.wall_us_per_req()),
        metric("setup_s", "s", median(&runs.setup_s)),
        metric("peak_rss_mib", "MiB", rss.unwrap_or(0.0)),
        metric(
            "modeled_avg_latency_us",
            "us",
            ratio(pooled(|m| m.sum_latency_us), served as f64),
        ),
        metric(
            "modeled_p99_latency_us",
            "us",
            ratio(pooled(|m| m.p99_latency_us), modeled.len() as f64),
        ),
        metric(
            "modeled_iops",
            "1/s",
            ratio(served as f64 * 1e6, pooled(|m| m.span_us)),
        ),
        metric(
            "served_fraction",
            "ratio",
            ratio((out.attempted - out.failed) as f64, out.attempted as f64),
        ),
    ];
    eprintln!(
        "{}: {timed} timed runs over {traces} traces, wall µs/req {:?}",
        w.name(),
        runs.wall_us_per_req
    );
    for (i, m) in runs.modeled.iter().enumerate() {
        if let Some(m) = m {
            eprintln!(
                "  trace {i}: avg {:.3} µs, p99 {:.3} µs, iops {:.3}",
                m.sum_latency_us / m.served as f64,
                m.p99_latency_us,
                m.served as f64 * 1e6 / m.span_us
            );
        }
    }
    out
}

/// The per-layer metrics: untraced runs for the engine's own cost (and,
/// where observers run, the same runs with them off), then one traced
/// replica run, checked for parity, and the `nn` probe.
fn per_layer(w: WorkloadId, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = Runs::new(1, false);
    let mut observed = Runs::new(1, true);
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut reps = 0;
    while reps < MIN_REPS || another_run(started, reps, budget) {
        let mut ok = plain.serve(w, seed, 0, true, &mut out);
        if w.has_observers() {
            ok &= observed.serve(w, seed, 0, true, &mut out);
        }
        reps += 1;
        if !ok {
            break;
        }
    }
    let error_rate = if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    let Some(report) = plain.report.take() else {
        out.errors.push("no untraced run succeeded".to_string());
        return out;
    };
    if let Some(on) = &observed.report {
        out.check(on.shards[0].stats == report.shards[0].stats, || {
            "observers changed the modeled results".to_string()
        });
    }

    let config = w.config(false);
    let rep = replica::run(&config, w.input(trace_seed(seed, 0)));
    let diffs = rep.parity(&report.shards[0]);
    out.check(diffs.is_empty(), || {
        format!(
            "traced replica diverged from serve_stream: {}",
            diffs.join("; ")
        )
    });
    let probe = probe::run(&config, seed);

    let n = rep.requests.max(1) as f64;
    let loop_us_per_req = rep.loop_ns as f64 / 1e3 / n;
    let untraced_us_per_req = plain.wall_us_per_req();
    let per_req_ns = |layer: Layer| {
        let row = rep.row(layer);
        row.total_ns() as f64 / row.requests.max(1) as f64
    };
    let train = rep.row(Layer::CoreTrain);
    let train_steps = rep.agent.train_steps;
    let ticks = rep.row(Layer::MigrateTick);
    let mut batch_ns = rep.batch_ns.clone();
    batch_ns.sort_unstable();
    let observe_us_per_req = if observed.wall_us_per_req.is_empty() {
        0.0
    } else {
        observed.wall_us_per_req() - untraced_us_per_req
    };
    let [xray_decide, xray_train, xray_queue, xray_transfer] = observed
        .report
        .as_ref()
        .and_then(|r| r.xray.as_ref())
        .map(|x| x.merged_totals())
        .map_or([0.0; 4], |t| {
            [t.decide_ns, t.train_ns, t.queue_ns, t.transfer_ns].map(|ns| t.share(ns))
        });

    eprintln!(
        "{}: untraced wall µs/req of trace 0 {:?}, with observers {:?}",
        w.name(),
        plain.wall_us_per_req,
        observed.wall_us_per_req
    );
    print_layer_table(w, &rep, untraced_us_per_req);
    out.metrics = vec![
        metric(
            "core.train_ms_per_step",
            "ms",
            if train_steps == 0 {
                0.0
            } else {
                train.total_ns() as f64 / 1e6 / train_steps as f64
            },
        ),
        metric(
            "core.train_share",
            "ratio",
            train.total_ns() as f64 / rep.loop_ns.max(1) as f64,
        ),
        metric("core.train_steps", "count", train_steps as f64),
        metric(
            "core.decide_ns_per_req",
            "ns",
            per_req_ns(Layer::CoreDecide),
        ),
        metric(
            "core.feedback_ns_per_req",
            "ns",
            per_req_ns(Layer::CoreFeedback),
        ),
        metric("nn.infer_batch_ns_per_row", "ns", probe.infer_ns_per_row),
        metric(
            "nn.train_batch_ns_per_sample",
            "ns",
            probe.train_ns_per_sample,
        ),
        metric("hss.access_ns_per_req", "ns", per_req_ns(Layer::HssAccess)),
        metric(
            "hss.evicted_pages_per_req",
            "pages",
            rep.stats.evicted_pages as f64 / n,
        ),
        metric(
            "hss.fast_fraction",
            "ratio",
            rep.stats.placement_fraction(0),
        ),
        metric("hss.dir_pages", "pages", rep.directory_pages as f64),
        metric(
            "hss.dir_bytes_per_page",
            "B",
            rep.directory_bytes as f64 / rep.directory_pages.max(1) as f64,
        ),
        metric("trace.next_ns_per_req", "ns", per_req_ns(Layer::TraceNext)),
        metric(
            "migrate.tick_us",
            "us",
            if ticks.samples_ns.is_empty() {
                0.0
            } else {
                ticks.total_ns() as f64 / 1e3 / ticks.samples_ns.len() as f64
            },
        ),
        metric("migrate.moved_pages", "pages", rep.migrations as f64),
        metric(
            "migrate.modeled_busy_us_per_req",
            "us",
            rep.migration_busy_us / n,
        ),
        metric(
            "serve.engine_us_per_req",
            "us",
            untraced_us_per_req - loop_us_per_req,
        ),
        metric(
            "serve.batch_wall_p50_us",
            "us",
            percentile(&batch_ns, 50.0) as f64 / 1e3,
        ),
        metric(
            "serve.batch_wall_p99_us",
            "us",
            percentile(&batch_ns, 99.0) as f64 / 1e3,
        ),
        metric(
            "serve.modeled_decide_us_per_req",
            "us",
            report.shards[0].nn_busy_us / n,
        ),
        metric(
            "serve.modeled_train_us_per_req",
            "us",
            report.shards[0].train_busy_us / n,
        ),
        metric(
            "serve.trace_overhead",
            "ratio",
            loop_us_per_req / untraced_us_per_req,
        ),
        metric("observe.us_per_req", "us", observe_us_per_req),
        metric("xray.decide_share", "ratio", xray_decide),
        metric("xray.train_share", "ratio", xray_train),
        metric("xray.queue_share", "ratio", xray_queue),
        metric("xray.transfer_share", "ratio", xray_transfer),
        metric("error_rate", "ratio", error_rate),
    ];
    out
}

/// Prints the replica's layer rows, the explicit `unattributed` row, and
/// their sum against the loop wall time, to stderr.
fn print_layer_table(w: WorkloadId, rep: &Replica, untraced_us_per_req: f64) {
    let loop_ns = rep.loop_ns.max(1) as f64;
    let n = rep.requests.max(1) as f64;
    eprintln!(
        "{}: traced replica, {} requests, loop {:.3} s",
        w.name(),
        rep.requests,
        rep.loop_ns as f64 / 1e9
    );
    eprintln!(
        "{:<14} {:>8} {:>11} {:>10} {:>7} {:>9} {:>16}",
        "layer", "calls", "total ms", "ns/req", "share", "p50 µs", "tail µs"
    );
    let mut sum_ns = 0i64;
    for (layer, row) in Layer::ALL.iter().zip(&rep.rows) {
        let total = row.total_ns();
        sum_ns += total as i64;
        let d = Dist::of(&row.samples_ns);
        eprintln!(
            "{:<14} {:>8} {:>11.3} {:>10.1} {:>6.1}% {:>9.3} {:>16}",
            layer.name(),
            d.count,
            total as f64 / 1e6,
            total as f64 / n,
            100.0 * total as f64 / loop_ns,
            d.p50 as f64 / 1e3,
            tail_label(&d),
        );
    }
    let unattributed = rep.unattributed_ns();
    sum_ns += unattributed;
    eprintln!(
        "{:<14} {:>8} {:>11.3} {:>10.1} {:>6.1}%",
        "unattributed",
        "",
        unattributed as f64 / 1e6,
        unattributed as f64 / n,
        100.0 * unattributed as f64 / loop_ns,
    );
    eprintln!(
        "{:<14} {:>8} {:>11.3} {:>10.1} {:>6.1}%   (loop wall {:.3} ms)",
        "sum",
        "",
        sum_ns as f64 / 1e6,
        sum_ns as f64 / n,
        100.0 * sum_ns as f64 / loop_ns,
        loop_ns / 1e6,
    );
    let d = Dist::of(&rep.batch_ns);
    eprintln!(
        "batch wall: p50 {:.3} µs, {} over {} batches; untraced serve_stream {:.3} µs/req, \
         traced loop {:.3} µs/req",
        d.p50 as f64 / 1e3,
        tail_label(&d),
        d.count,
        untraced_us_per_req,
        loop_ns / 1e3 / n,
    );
}

fn tail_label(d: &Dist) -> String {
    if d.tail_pct > 0.0 {
        format!("p{} {:.3}", d.tail_pct, d.tail as f64 / 1e3)
    } else {
        "-".to_string()
    }
}

/// The result line: one JSON object.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = args.workloads.len() > 1;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let modes: &[bool] = if all { &[false, true] } else { &[args.trace] };
        for &trace in modes {
            let out = if trace {
                per_layer(w, args.seed, args.seconds)
            } else {
                end_to_end(w, args.seed, args.seconds)
            };
            attempted += out.attempted;
            failed += out.failed;
            errors.extend(out.errors.iter().map(|e| format!("{}: {e}", w.name())));
            eprintln!("{} (--trace {}):", w.name(), u8::from(trace));
            for m in &out.metrics {
                eprintln!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
            }
            metrics.extend(out.metrics.into_iter().map(|mut m| {
                if all {
                    m.name = format!("{}/{}", w.name(), m.name);
                }
                m
            }));
        }
    }
    for m in &mut metrics {
        if !m.value.is_finite() {
            errors.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{}",
        json_line(errors.is_empty(), attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
