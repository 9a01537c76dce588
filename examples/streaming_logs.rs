//! Streaming logs: the paper's §6 future-work scenario — the HDFS logs keep
//! growing (append-only) while analysts keep querying. Compares the two
//! view-maintenance policies:
//!
//! * `Invalidate`: drop affected views, let them regrow opportunistically;
//! * `Refresh`: keep the design warm (incremental for per-record views,
//!   full recomputation otherwise).
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_logs
//! ```

use miso::common::{Budgets, ByteSize, SimClock};
use miso::core::{MaintenancePolicy, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{generate_delta, Corpus, LogKind, LogsConfig};
use miso::lang::compile;
use miso::workload::{standard_udfs, workload_catalog};

fn build(corpus: &Corpus) -> MultistoreSystem {
    let budgets = Budgets::new(
        ByteSize::from_mib(64),
        ByteSize::from_mib(8),
        ByteSize::from_mib(4),
    )
    .with_discretization(ByteSize::from_kib(16));
    let mut config = SystemConfig::paper_default(budgets);
    config.reorg_every = 2;
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

fn main() {
    let cfg = LogsConfig::tiny();
    let catalog = workload_catalog();
    let query = |sql: &str| compile(sql, &catalog).unwrap();
    let analyst_queries = vec![
        (
            "q0".to_string(),
            query(
                "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
                 WHERE t.followers > 20 GROUP BY t.city",
            ),
        ),
        (
            "q1".to_string(),
            query(
                "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
                 WHERE t.followers > 20 GROUP BY t.city ORDER BY n DESC",
            ),
        ),
    ];

    for policy in [MaintenancePolicy::Invalidate, MaintenancePolicy::Refresh] {
        println!("=== policy: {policy:?} ===");
        let corpus = Corpus::generate(&cfg);
        let mut system = build(&corpus);
        let mut clock = SimClock::new();
        let mut total_rows = 0;

        for epoch in 0..3u64 {
            // Analysts query...
            let result = system
                .run_workload(Variant::MsMiso, &analyst_queries)
                .unwrap();
            total_rows += result.records.iter().map(|r| r.result_rows).sum::<u64>();
            println!(
                "  epoch {epoch}: queries ran, exec total {:.0}s, {} views live",
                result
                    .records
                    .iter()
                    .map(|r| r.exec_total().as_secs_f64())
                    .sum::<f64>(),
                system.catalog.len()
            );
            // ...and fresh tweets stream in.
            let delta = generate_delta(&cfg, LogKind::Twitter, epoch, 200);
            let report = system
                .append_log(LogKind::Twitter, &delta, policy, &mut clock)
                .unwrap();
            println!(
                "           +{} appended: {} invalidated, {} delta-refreshed, \
                 {} recomputed, maintenance {:.1}s",
                report.appended,
                report.invalidated.len(),
                report.delta_refreshed.len(),
                report.recomputed.len(),
                report.cost.as_secs_f64()
            );
        }
        println!("  (checksum of result rows across epochs: {total_rows})\n");
    }
    println!(
        "Invalidate pays nothing at append time but re-derives views on the \
         next query; Refresh pays maintenance up-front and keeps the next \
         query fast — the trade-off the paper's §6 sketches."
    );
}
