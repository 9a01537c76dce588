//! Beyond the paper: view-maintenance policies under append-only log growth
//! (the §6 future-work scenario, implemented in `miso_core::maintenance`).
//!
//! Interleaves the evolutionary workload with tweet-log append batches and
//! compares total cost (query execution + maintenance) for the two
//! policies, against a no-append baseline.

use miso_bench::{ks, Harness};
use miso_core::{MaintenancePolicy, Variant};
use miso_data::logs::{generate_delta, LogKind, LogsConfig};
use miso_data::Value;

fn main() {
    miso_bench::obs_init();
    let harness = Harness::standard();
    let cfg = LogsConfig::experiment();
    println!("View maintenance under streaming appends (4 batches x 2000 tweets)\n");
    println!(
        "{:>12} {:>11} {:>12} {:>11} {:>9}",
        "policy", "exec (ks)", "maint (ks)", "total (ks)", "views"
    );

    // Baseline: no appends.
    {
        let mut sys = harness.system(harness.budgets(2.0), None);
        let r = sys
            .run_workload(Variant::MsMiso, &harness.workload)
            .unwrap();
        println!(
            "{:>12} {:>11.1} {:>12.1} {:>11.1} {:>9}",
            "(no appends)",
            ks(r.tti_total()),
            0.0,
            ks(r.tti_total()),
            sys.catalog.len()
        );
    }

    let mut report_rows = Vec::new();
    for policy in [MaintenancePolicy::Invalidate, MaintenancePolicy::Refresh] {
        let mut sys = harness.system(harness.budgets(2.0), None);
        let mut clock = miso_common::SimClock::new();
        let mut exec = miso_common::SimDuration::ZERO;
        let mut maint = miso_common::SimDuration::ZERO;
        // 8 queries, then a batch, repeated.
        for (i, chunk) in harness.workload.chunks(8).enumerate() {
            let r = sys.run_workload(Variant::MsMiso, chunk).unwrap();
            exec += r.tti_total();
            let delta = generate_delta(&cfg, LogKind::Twitter, i as u64, 2000);
            let report = sys
                .append_log(LogKind::Twitter, &delta, policy, &mut clock)
                .unwrap();
            maint += report.cost;
        }
        println!(
            "{:>12} {:>11.1} {:>12.1} {:>11.1} {:>9}",
            format!("{policy:?}"),
            ks(exec),
            ks(maint),
            ks(exec + maint),
            sys.catalog.len()
        );
        report_rows.push(Value::object(vec![
            ("policy".into(), Value::str(format!("{policy:?}"))),
            ("exec_ks".into(), Value::Float(ks(exec))),
            ("maint_ks".into(), Value::Float(ks(maint))),
            ("total_ks".into(), Value::Float(ks(exec + maint))),
            ("views".into(), Value::Int(sys.catalog.len() as i64)),
        ]));
    }
    println!(
        "\nnote: run_workload per chunk resets the stream clock, so exec \
         columns are comparable across rows; `views` is the live design at \
         the end."
    );
    let extra = Value::object(vec![("policies".into(), Value::Array(report_rows))]);
    miso_bench::write_report("maintenance", extra);
}
