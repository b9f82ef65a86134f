//! §12 cooperation: multi-agent learning across shards of the serving
//! engine (the Harmonia direction, beyond the paper).
//!
//! The paper trains one agent on one HSS node. Once traffic is
//! partitioned across shards (`sec11_scale`), each shard's private agent
//! sees only its slice — and on a skew-partitioned workload, data-poor
//! shards relearn slowly what data-rich shards already know. This target
//! sweeps the four cooperation modes of `sibyl-coop` (independent /
//! shared replay / federated weight averaging / both) against shard
//! counts on a skew-partitioned hot/cold mix, reporting aggregate
//! latency (normalized to the independent baseline), fast-placement
//! preference ("hit rate"), and the learning curves that show *why*
//! cooperation wins: cooperative shards pull the knee of the curve
//! earlier. NN inference time is charged via the §10 overhead model, so
//! the latency columns include the decision cost cooperation has to
//! amortize.

use sibyl_bench::{banner, hm_config, seed, skewed_coop_trace, trace_len, BenchJson};
use sibyl_core::SibylConfig;
use sibyl_serve::{CoopConfig, CoopMode, ServeConfig};
use sibyl_sim::report::Table;
use sibyl_sim::{ServeExperiment, ServeOutcome, ServeSweep};

fn base_config(shards: usize) -> ServeConfig {
    // Shorter train interval than the paper's 1000 so every shard still
    // trains a useful number of steps on its partition of the trace; the
    // coop knobs (sync every 8 batches, publish half the experiences)
    // are shared by all cooperative modes.
    let sibyl = SibylConfig {
        train_interval: 250,
        ..Default::default()
    };
    ServeConfig::new(hm_config())
        .with_shards(shards)
        .with_max_batch(16)
        .with_time_scale(40.0)
        .with_nn_ns_per_mac(20.0)
        .with_curve_every(8)
        .with_coop(
            CoopConfig::default()
                .with_sync_period(8)
                .with_share_fraction(0.5),
        )
        .with_sibyl(sibyl)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(8_000);
    let trace = skewed_coop_trace(n, seed());
    banner(
        "§12 cooperation",
        "Multi-agent cooperation across shards: modes × shard counts on a skew-partitioned mix",
    );
    println!(
        "workload {} ({} requests), accelerated replay, NN cost charged\n",
        trace.name(),
        trace.len()
    );

    // The 4-shard sweep report doubles as the foreign-weight ablation's
    // baseline and weight-1.0 row (the default weight *is* 1.0), saving
    // two full serve runs.
    let mut json = BenchJson::new("sec12_coop", n, seed());
    let mut four_shard: Option<ServeSweep<CoopMode>> = None;
    for shards in [1usize, 2, 4, 8] {
        let exp = ServeExperiment::new(base_config(shards), trace.clone());
        let report = exp.sweep(&CoopMode::ALL, |c, mode| c.coop = c.coop.with_mode(mode))?;
        if shards == 4 {
            four_shard = Some(report.clone());
        }
        let mut table = Table::new(
            [
                "mode",
                "avg lat (us)",
                "norm lat",
                "fast frac",
                "hit gain",
                "syncs",
                "shared exps",
            ]
            .map(String::from)
            .to_vec(),
        );
        for (mode, outcome) in &report.runs {
            let syncs: u64 = outcome.report.shards.iter().map(|s| s.coop_syncs).sum();
            let shared: u64 = outcome
                .report
                .shards
                .iter()
                .map(|s| s.agent.shared_absorbed)
                .sum();
            table.add_row(vec![
                mode.to_string(),
                format!("{:.1}", outcome.aggregate.avg_latency_us),
                format!("{:.3}", report.normalized_latency(*mode)),
                format!("{:.3}", outcome.aggregate.fast_placement_fraction),
                format!("{:+.3}", report.hit_rate_gain(*mode)),
                syncs.to_string(),
                shared.to_string(),
            ]);
        }
        println!("{shards} shard(s)");
        println!("{}", table.render());
        json.table(&format!("shards{shards}"), &table);
        let best = report.best().expect("the sweep ran every mode");
        println!(
            "best cooperative mode: {best} (norm lat {:.3}, hit gain {:+.3})\n",
            report.normalized_latency(best),
            report.hit_rate_gain(best),
        );
        json.note(&format!("best_coop_shards{shards}"), best);

        // Learning curves explain the win: print the aggregate curve of
        // the baseline vs the best cooperative mode at the widest sweep
        // point.
        if shards == 8 {
            let indep = report
                .outcome(CoopMode::Independent)
                .expect("the sweep ran every mode");
            let coop = report.outcome(best).expect("the sweep ran every mode");
            let mut curve = Table::new(
                [
                    "requests",
                    "indep lat",
                    "coop lat",
                    "indep fast",
                    "coop fast",
                ]
                .map(String::from)
                .to_vec(),
            );
            for (a, b) in indep.curve().iter().zip(&coop.curve()) {
                curve.add_row(vec![
                    a.requests.to_string(),
                    format!("{:.1}", a.avg_latency_us),
                    format!("{:.1}", b.avg_latency_us),
                    format!("{:.3}", a.fast_placement_fraction),
                    format!("{:.3}", b.fast_placement_fraction),
                ]);
            }
            println!("learning curves, {shards} shards (cumulative): independent vs {best}");
            println!("{}", curve.render());
            json.table("curves_shards8", &curve);
        }
    }

    // Shared-replay importance weighting (ROADMAP item): absorbed foreign
    // experiences enter the replay buffer on equal terms at
    // foreign_weight 1.0 (bit-identical to the pre-knob engine); 0.5
    // halves their loss/gradient contribution, damping stale
    // off-partition transitions without changing what is shared or how
    // sampling draws.
    println!("foreign-weight ablation (shared replay, 4 shards)");
    let mut ablation = Table::new(
        ["foreign weight", "avg lat (us)", "norm lat", "shared exps"]
            .map(String::from)
            .to_vec(),
    );
    // Only SharedReplay depends on the weight, and the sweep above
    // already ran the 4-shard Independent baseline and the
    // default-weight (1.0) SharedReplay point — reuse both and run only
    // the 0.5 point fresh.
    let four_shard = four_shard.expect("4-shard sweep ran");
    let baseline = four_shard
        .outcome(CoopMode::Independent)
        .expect("the sweep ran every mode")
        .aggregate
        .avg_latency_us;
    let mut row = |weight: f64, outcome: &ServeOutcome| {
        let shared: u64 = outcome
            .report
            .shards
            .iter()
            .map(|s| s.agent.shared_absorbed)
            .sum();
        ablation.add_row(vec![
            format!("{weight:.1}"),
            format!("{:.1}", outcome.aggregate.avg_latency_us),
            format!(
                "{:.3}",
                outcome.aggregate.avg_latency_us / baseline.max(1e-9)
            ),
            shared.to_string(),
        ]);
    };
    row(
        1.0,
        four_shard
            .outcome(CoopMode::SharedReplay)
            .expect("the sweep ran every mode"),
    );
    let mut cfg = base_config(4);
    cfg.coop = cfg.coop.with_foreign_weight(0.5);
    cfg.coop = cfg.coop.with_mode(CoopMode::SharedReplay);
    let halved = ServeExperiment::new(cfg, trace.clone()).run()?;
    row(0.5, &halved);
    println!("{}", ablation.render());
    json.table("foreign_weight_ablation", &ablation);
    if let Some(path) = json.write()? {
        println!("bench JSON written to {path}");
    }
    Ok(())
}
