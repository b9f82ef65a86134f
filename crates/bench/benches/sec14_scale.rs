//! §14 scale: streamed 10M-request serving runs with footprint-bounded
//! memory.
//!
//! Everything before this target materialized its workload as a
//! `Vec<IoRequest>` (24 bytes per request — 240 MB for a 10M-request
//! run) and tracked pages in a `HashMap` + per-device `BTreeMap`
//! directory. This target exercises the scale path end to end: the
//! workload is Table 5's mix2 as a seeded *infinite stream*
//! ([`Mix::stream`]) fed straight into [`sibyl_serve::serve_stream`],
//! where each of the 4 shards walks its own clone of the stream and
//! keeps the requests that hash to it (so the `wall` column includes
//! every shard regenerating the whole stream), and each shard's compact
//! page directory (dense entry arena + open-addressing index +
//! intrusive LRU lists) reports its exact resident bytes.
//!
//! The sweep holds the stream's horizon — and therefore the workload's
//! page footprint — fixed while growing the request count 1×/10×/100×
//! (1e5 → 1e7 at default size). Two invariants are asserted, so this
//! bench doubles as the CI peak-directory-bytes gate (smoke-run with a
//! low `SIBYL_REQS`):
//!
//! - **Compactness**: resident directory bytes per tracked page stay
//!   under 96 (entry arena 40 B/page + index slot + Vec-doubling slack;
//!   the old map-of-maps layout sat well above 130 B/page before
//!   per-allocation overhead).
//! - **Sublinearity**: serving 100× the requests grows the directory by
//!   < 4× — metadata tracks the *footprint*, not the trace length.

use std::time::Instant;

use sibyl_bench::{banner, hm_config, seed, trace_len, BenchJson};
use sibyl_core::SibylConfig;
use sibyl_serve::ServeConfig;
use sibyl_sim::report::Table;
use sibyl_sim::ServeExperiment;
use sibyl_trace::mix::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-component horizon: fixes the calibrated footprint every scale
    // point streams over. Default 50k/component → 100k-request base
    // sweep point (2 components), ×100 → 10M.
    let horizon = trace_len(50_000);
    banner(
        "§14 scale",
        "Streamed serving at 1x/10x/100x the horizon: IOPS and resident directory bytes",
    );
    println!(
        "workload mix2 streamed (horizon {horizon}/component, footprint fixed), \
         4 shards x batch 16, accelerated replay\n"
    );

    let sibyl = SibylConfig {
        train_interval: 250,
        ..Default::default()
    };
    let config = ServeConfig::new(hm_config())
        .with_shards(4)
        .with_max_batch(16)
        .with_time_scale(40.0)
        .with_nn_ns_per_mac(20.0)
        .with_sibyl(sibyl);

    let mut table = Table::new(
        [
            "requests",
            "agg IOPS",
            "avg lat (us)",
            "dir peak (KiB)",
            "dir total (KiB)",
            "B/page",
            "wall (s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut dir_totals: Vec<u64> = Vec::new();
    let mut request_totals: Vec<u64> = Vec::new();
    for scale in [1usize, 10, 100] {
        let total = 2 * horizon * scale;
        let stream = Mix::Mix2.stream(horizon, seed()).take(total);
        let t = Instant::now();
        let outcome = ServeExperiment::run_stream(&config, stream)?;
        let wall = t.elapsed().as_secs_f64();
        let agg = outcome.aggregate;
        let peak = outcome.report.peak_directory_bytes();
        let dir_bytes = outcome.report.total_directory_bytes();
        let dir_pages = outcome.report.total_directory_pages();
        let bytes_per_page = dir_bytes as f64 / dir_pages.max(1) as f64;
        table.add_row(vec![
            total.to_string(),
            format!("{:.0}", agg.iops),
            format!("{:.1}", agg.avg_latency_us),
            format!("{:.0}", peak as f64 / 1024.0),
            format!("{:.0}", dir_bytes as f64 / 1024.0),
            format!("{bytes_per_page:.1}"),
            format!("{wall:.2}"),
        ]);
        assert_eq!(agg.total_requests, total as u64, "every request served");
        assert!(
            bytes_per_page <= 96.0,
            "directory not compact: {bytes_per_page:.1} bytes per tracked page"
        );
        dir_totals.push(dir_bytes);
        request_totals.push(agg.total_requests);
    }
    println!("{}", table.render());

    let (first, last) = (dir_totals[0], *dir_totals.last().unwrap());
    let growth = last as f64 / first.max(1) as f64;
    let req_growth = *request_totals.last().unwrap() as f64 / request_totals[0].max(1) as f64;
    println!(
        "directory growth {growth:.2}x across a {req_growth:.0}x request sweep \
         (metadata tracks footprint, not trace length)"
    );
    assert!(
        growth < 4.0,
        "directory bytes must be sublinear in trace length: {first} -> {last} bytes \
         over a {req_growth:.0}x request sweep"
    );

    let mut json = BenchJson::new("sec14_scale", horizon, seed());
    json.table("scale", &table);
    json.note("directory_growth", format!("{growth:.2}"));
    json.note("request_growth", format!("{req_growth:.0}"));
    if let Some(path) = json.write()? {
        println!("bench JSON written to {path}");
    }
    Ok(())
}
