//! Figure 3: execution-time profile of *all* multistore plans of a single
//! query (each plan = one split), ordered by increasing total time, with the
//! HV / DUMP / TRANSFER+LOAD / DW component breakdown.
//!
//! Paper shape: the best plan (far left, "B") is only ~10% faster than the
//! HV-only plan ("H"); early splits (marked "S") that ship large working
//! sets are several times worse; good plans all transfer small, late
//! working sets.

use miso_bench::Harness;
use miso_common::SimDuration;
use miso_core::Variant;
use miso_data::Value;
use miso_dw::DwStore;
use miso_hv::HvStore;
use miso_optimizer::cost::{estimate_split_cost, TransferModel};
use miso_plan::estimate::estimate_plan;
use miso_plan::split::enumerate_splits;

fn main() {
    let observing = miso_bench::obs_init();
    let harness = Harness::standard();
    let mut profiles = Vec::new();
    // The paper profiles A1v1, a complex query with joins, aggregates and
    // UDF-free structure; we use A8v1 (the three-way join) as the profiled
    // query since it has the richest split space, and also print A1v1.
    for target in ["A1v1", "A8v1"] {
        let (label, plan) = harness
            .workload
            .iter()
            .find(|(l, _)| l == target)
            .expect("workload query");
        println!("=== Figure 3 profile for {label} (cold design, all splits) ===");
        let hv_store = HvStore::new();
        let dw_store = DwStore::new();
        let transfer = TransferModel::paper_default();

        let mut stats = miso_plan::estimate::MapStats::new();
        stats.set_log(
            "twitter",
            harness.corpus.twitter.len() as f64,
            harness.corpus.twitter.size.as_bytes() as f64,
        );
        stats.set_log(
            "foursquare",
            harness.corpus.foursquare.len() as f64,
            harness.corpus.foursquare.size.as_bytes() as f64,
        );
        stats.set_log(
            "landmarks",
            harness.corpus.landmarks.len() as f64,
            harness.corpus.landmarks.size.as_bytes() as f64,
        );
        let estimates = estimate_plan(plan, &stats);

        let mut rows: Vec<(
            SimDuration,
            SimDuration,
            SimDuration,
            SimDuration,
            usize,
            bool,
        )> = Vec::new();
        let splits = enumerate_splits(plan);
        let mut hv_only_total = SimDuration::ZERO;
        for split in &splits {
            let c = estimate_split_cost(
                plan,
                split,
                &estimates,
                &hv_store.cost_model,
                &dw_store.cost_model,
                &transfer,
            );
            // Split the transfer bar into DUMP and TRANSFER+LOAD like the
            // paper's green/yellow components.
            let cut_bytes: u64 = split
                .cut_nodes(plan)
                .iter()
                .map(|c| estimates[c].bytes as u64)
                .sum();
            let dump = hv_store
                .cost_model
                .dump_cost(miso_common::ByteSize::from_bytes(cut_bytes));
            let xferload = c.transfer.saturating_sub(dump);
            let is_hv_only = split.is_hv_only(plan);
            if is_hv_only {
                hv_only_total = c.total();
            }
            rows.push((
                c.hv,
                dump,
                xferload,
                c.dw,
                split.hv_nodes().len(),
                is_hv_only,
            ));
        }
        rows.sort_by_key(|r| r.0 + r.1 + r.2 + r.3);

        println!(
            "{} plans (one per valid split); times in simulated seconds",
            rows.len()
        );
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7} mark",
            "plan", "HV", "DUMP", "XFER+LOAD", "DW", "total", "hv_ops"
        );
        let best = rows.first().map(|r| r.0 + r.1 + r.2 + r.3).unwrap();
        for (i, (hv, dump, xl, dw, hv_ops, is_h)) in rows.iter().enumerate() {
            let total = *hv + *dump + *xl + *dw;
            let mark = if i == 0 {
                "B (best)"
            } else if *is_h {
                "H (HV-only)"
            } else if total.as_secs_f64() > hv_only_total.as_secs_f64() * 1.5 {
                "S (bad early split)"
            } else {
                ""
            };
            println!(
                "{:>5} {:>9.0} {:>9.0} {:>9.0} {:>9.1} {:>10.0} {:>7} {}",
                i + 1,
                hv.as_secs_f64(),
                dump.as_secs_f64(),
                xl.as_secs_f64(),
                dw.as_secs_f64(),
                total.as_secs_f64(),
                hv_ops,
                mark
            );
        }
        let gain = (1.0 - best.as_secs_f64() / hv_only_total.as_secs_f64()) * 100.0;
        println!(
            "\nbest plan vs HV-only: {gain:.1}% faster (paper: ~10%); worst/HV-only: {:.1}x\n",
            rows.last()
                .map(|r| (r.0 + r.1 + r.2 + r.3).as_secs_f64())
                .unwrap()
                / hv_only_total.as_secs_f64()
        );
        profiles.push(Value::object(vec![
            ("query".into(), Value::str(label.as_str())),
            ("plans".into(), Value::Int(rows.len() as i64)),
            ("best_s".into(), Value::Float(best.as_secs_f64())),
            (
                "hv_only_s".into(),
                Value::Float(hv_only_total.as_secs_f64()),
            ),
            ("gain_pct".into(), Value::Float(gain)),
        ]));
    }
    // The profile above is a static estimation pass; additionally run the
    // MS-MISO stream (silently — the printed figure is unchanged) so traces
    // carry the full query lifecycle (parse → optimize → split → hv/dw exec
    // → transfer) and the tuner epochs, and the run report carries the
    // optimizer/knapsack/tuner counters.
    let stream = harness.run(Variant::MsMiso, 2.0);

    // EXPLAIN ANALYZE of the two profiled queries on a fresh system. The
    // trees carry wall times, so they print only beside the other
    // observability output; the JSON artifacts always land in the run report.
    let mut sys = harness.system(harness.budgets(2.0), None);
    let xrays: Vec<_> = harness
        .workload
        .iter()
        .filter(|(label, _)| label == "A1v1" || label == "A8v1")
        .map(|(label, raw)| sys.explain_analyze(label, raw).expect("explain analyze").1)
        .collect();
    if observing {
        let snap = miso_obs::snapshot();
        for x in &xrays {
            println!("{}", miso_xray::explain_analyze_with_metrics(x, &snap));
        }
    }

    let extra = Value::object(vec![
        ("profiles".into(), Value::Array(profiles)),
        ("ms_miso_stream".into(), miso_bench::tti_value(&stream)),
        (
            "explain_analyze".into(),
            Value::Array(xrays.iter().map(|x| x.to_value()).collect()),
        ),
        (
            "calibration".into(),
            Value::Array(stream.calibrations.iter().map(|c| c.to_value()).collect()),
        ),
    ]);
    miso_bench::write_report("fig3", extra);
}
