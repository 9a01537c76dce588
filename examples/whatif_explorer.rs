//! What-if explorer: poke the multistore optimizer directly — enumerate a
//! query's split points, cost them under hypothetical physical designs, and
//! see how view placement changes the chosen plan.
//!
//! This is the interface the MISO tuner uses while packing its knapsacks.
//!
//! Run with:
//! ```text
//! cargo run --release --example whatif_explorer
//! ```

use miso::common::ids::NodeId;
use miso::data::logs::{Corpus, LogsConfig};
use miso::dw::DwStore;
use miso::hv::HvStore;
use miso::lang::compile;
use miso::optimizer::cost::{estimate_split_cost, TransferModel};
use miso::optimizer::optimize::{optimize, Design, OptimizerEnv};
use miso::plan::estimate::{estimate_plan, MapStats};
use miso::plan::split::enumerate_splits;
use miso::plan::Operator;
use miso::workload::workload_catalog;
use std::collections::HashSet;

fn main() {
    let corpus = Corpus::generate(&LogsConfig::experiment());
    let catalog = workload_catalog();
    let sql = "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood \
               FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
               WHERE t.followers > 1000 AND f.likes > 5 \
               GROUP BY t.city ORDER BY n DESC LIMIT 10";
    let plan = compile(sql, &catalog).unwrap();
    println!("query:\n{sql}\n\nlogical plan:\n{}", plan.render());

    // True sizes for the optimizer's estimates.
    let mut stats = MapStats::new();
    stats.set_log(
        "twitter",
        corpus.twitter.len() as f64,
        corpus.twitter.size.as_bytes() as f64,
    );
    stats.set_log(
        "foursquare",
        corpus.foursquare.len() as f64,
        corpus.foursquare.size.as_bytes() as f64,
    );

    let hv = HvStore::new();
    let dw = DwStore::new();
    let transfer = TransferModel::paper_default();

    // 1. Enumerate every split and show the cost landscape (Figure 3 style).
    let estimates = estimate_plan(&plan, &stats);
    let mut splits: Vec<_> = enumerate_splits(&plan)
        .into_iter()
        .map(|split| {
            let c = estimate_split_cost(
                &plan,
                &split,
                &estimates,
                &hv.cost_model,
                &dw.cost_model,
                &transfer,
            );
            (split, c)
        })
        .collect();
    splits.sort_by_key(|(_, c)| c.total());
    println!("split landscape ({} valid splits):", splits.len());
    for (split, c) in splits.iter().take(5) {
        println!(
            "  hv_ops={:<2} hv={:>7.0}s xfer={:>6.0}s dw={:>5.1}s total={:>7.0}s",
            split.hv_nodes().len(),
            c.hv.as_secs_f64(),
            c.transfer.as_secs_f64(),
            c.dw.as_secs_f64(),
            c.total().as_secs_f64()
        );
    }

    // 2. Cost the query under hypothetical designs: no views, the join view
    //    in HV, the join view in DW.
    let join_node = plan
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Operator::Join { .. }))
        .unwrap()
        .id;
    let join_view = plan.fingerprint(join_node).view_name();
    // Pretend the view was materialized with these statistics.
    stats.set_view(join_view.clone(), 2_000.0, 2_000.0 * 60.0);

    let scenarios: [(&str, Design); 3] = [
        ("cold (no views)", Design::new()),
        (
            "join view resident in HV",
            Design {
                hv_views: HashSet::from([join_view.clone()]),
                dw_views: HashSet::new(),
            },
        ),
        (
            "join view resident in DW",
            Design {
                hv_views: HashSet::new(),
                dw_views: HashSet::from([join_view.clone()]),
            },
        ),
    ];
    println!("\nwhat-if costs under hypothetical designs:");
    for (label, design) in scenarios {
        let env = OptimizerEnv {
            stats: &stats,
            hv: &hv.cost_model,
            dw: &dw.cost_model,
            transfer: &transfer,
            catalog: None,
        };
        let planned = optimize(&plan, &design, &env).unwrap();
        println!(
            "  {label:<28} total={:>8.1}s  (hv={:>7.1}s, xfer={:>6.1}s, dw={:>5.2}s; views used: {})",
            planned.est.total().as_secs_f64(),
            planned.est.hv.as_secs_f64(),
            planned.est.transfer.as_secs_f64(),
            planned.est.dw.as_secs_f64(),
            planned.used_views.len(),
        );
    }
    println!(
        "\nnote how the same view is worth far more in the warehouse than in \
         Hive — that asymmetry is the whole reason MISO packs DW first."
    );

    // 3. EXPLAIN the chosen plan under the DW-resident design.
    let env = OptimizerEnv {
        stats: &stats,
        hv: &hv.cost_model,
        dw: &dw.cost_model,
        transfer: &transfer,
        catalog: None,
    };
    let design = Design {
        hv_views: HashSet::new(),
        dw_views: HashSet::from([join_view]),
    };
    let chosen = optimize(&plan, &design, &env).unwrap();
    println!(
        "\nEXPLAIN (join view in DW):\n{}",
        miso::optimizer::explain(&chosen)
    );
    let _ = NodeId(0); // silence unused-import lints on some toolchains
}
