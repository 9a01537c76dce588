//! The evaluation as one table of figure functions.
//!
//! Each entry renders one result from a [`Harness`]: the paper's Figures
//! 3–9, Table 2 and §3.2 figure, then the ablation and the maintenance table
//! this reproduction adds; [`FAULTS`] holds the fault-path figures. A
//! [`Figure`] holds the text the `figures` binary prints (byte-identical to
//! `results/NAME.txt`), the CSV of the figures that have one and the
//! figure's part of the run report. Nothing here prints or writes a file, so
//! `tests/golden.rs` and `tests/faults.rs` diff every figure against
//! `results/` in-process.

use crate::{ks, obj, row, tti_value, Harness};
use miso_common::{ByteSize, SimDuration};
use miso_core::{ExperimentResult, GrowthConfig, MaintenancePolicy, SystemConfig, Variant};
use miso_data::logs::{LogKind, LogsConfig};
use miso_data::Value;
use miso_dw::{BackgroundSim, DwActivity, DwStore, Resource};
use miso_hv::HvStore;
use miso_optimizer::cost::{estimate_split_cost, TransferModel};
use miso_plan::estimate::estimate_plan;
use miso_plan::split::enumerate_splits;
use miso_workload::background::{paper_profiles, BackgroundProfile};
use Variant::*;

mod faults;

/// One rendered figure.
pub struct Figure {
    /// What `figures NAME` prints: `results/NAME.txt`.
    pub text: String,
    /// Output that carries wall times (fig3's EXPLAIN ANALYZE trees): filled
    /// only while observability is on, printed after `text`, in no golden.
    pub observed: String,
    /// `results/NAME.csv`, for the figures whose data is re-plotted.
    pub csv: Option<String>,
    /// The figure's part of `results/NAME.report.json`.
    pub report: Value,
}

impl Figure {
    fn new(text: Text, report: Value) -> Figure {
        Figure {
            text: text.0,
            observed: String::new(),
            csv: None,
            report,
        }
    }
}

/// Renders one figure.
pub type Render = fn(&Harness) -> Figure;

/// Every figure, by the name `figures` takes and `results/` files it under.
pub const FIGURES: [(&str, Render); 11] = [
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table2", table2),
    ("fig_motivation", fig_motivation),
    ("ablation", ablation),
    ("maintenance", maintenance),
];

/// The fault-path figures. They install the process's fault plan and zero
/// its counters, so no other render may run beside them.
pub const FAULTS: [(&str, Render); 4] = [
    ("chaos", faults::chaos),
    ("integrity", faults::integrity),
    ("soakbench", faults::soakbench),
    ("servebench", faults::servebench),
];

/// Every entry of both tables, [`FIGURES`] first.
pub fn all() -> impl Iterator<Item = (&'static str, Render)> {
    FIGURES.iter().chain(&FAULTS).copied()
}

/// The figure called `name`, from either table.
pub fn find(name: &str) -> Option<Render> {
    all().find(|(n, _)| *n == name).map(|(_, f)| f)
}

/// A figure's text, written with `write!` / `writeln!`, which cannot fail.
#[derive(Default)]
struct Text(String);

impl Text {
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        std::fmt::Write::write_fmt(&mut self.0, args).expect("writing to a String");
    }
}

/// One experiment per variant, in the order they ran.
struct Runs(Vec<ExperimentResult>);

impl Runs {
    fn new(variants: &[Variant], mut run: impl FnMut(Variant) -> ExperimentResult) -> Runs {
        Runs(variants.iter().map(|&v| run(v)).collect())
    }

    fn get(&self, v: Variant) -> &ExperimentResult {
        let found = self.0.iter().find(|r| r.variant == v.name());
        found.expect("variant was run")
    }

    /// `v`'s TTI in simulated seconds.
    fn tti(&self, v: Variant) -> f64 {
        self.get(v).tti_total().as_secs_f64()
    }

    /// The `"variants"` report: each run's TTI breakdown.
    fn report(&self) -> Value {
        obj([(
            "variants",
            Value::Array(self.0.iter().map(tti_value).collect()),
        )])
    }
}

/// A run's variant, then its TTI components in 10³ s at `prec` decimals:
/// DW-EXE, TRANSFER, TUNE, HV-EXE, ETL (when `etl`) and the total.
fn components(r: &ExperimentResult, etl: bool, prec: usize) -> Vec<String> {
    let t = &r.tti;
    let mut parts = vec![t.dw_exe, t.transfer, t.tune, t.hv_exe];
    parts.extend(etl.then_some(t.etl));
    parts.push(r.tti_total());
    let cells = parts.into_iter().map(|d| format!("{:.prec$}", ks(d)));
    std::iter::once(r.variant.clone()).chain(cells).collect()
}

/// The TTI component table of fig4 (with ETL) and fig7 (without).
fn component_table(t: &mut Text, runs: &Runs, etl: bool) {
    let mut header = vec!["variant", "DW-EXE", "TRANSFER", "TUNE", "HV-EXE"];
    header.extend(etl.then_some("ETL"));
    header.push("TTI");
    let widths = vec![9; header.len()];
    writeln!(t, "{}", row(&header, &widths));
    for r in &runs.0 {
        writeln!(t, "{}", row(&components(r, etl, 1), &widths));
    }
}

/// MS-MISO at 2× on a DW beside `load`, a background reporting load: the
/// run and the background simulator's record of it.
fn beside_background(h: &Harness, load: &BackgroundProfile) -> (ExperimentResult, BackgroundSim) {
    let mut sys = h.system(h.budgets(2.0), Some(load.simulator()));
    let run = sys
        .run_workload(MsMiso, &h.workload)
        .expect("experiment runs");
    (run, sys.background().expect("background load").clone())
}

/// How much slower (%) `busy` ran than `idle`, the same stream on an idle DW.
fn slowdown_pct(busy: &ExperimentResult, idle: &ExperimentResult) -> f64 {
    (busy.tti_total().as_secs_f64() / idle.tti_total().as_secs_f64() - 1.0) * 100.0
}

/// Figure 3: execution-time profile of *all* multistore plans of a single
/// query (each plan = one split), ordered by increasing total time, with the
/// HV / DUMP / TRANSFER+LOAD / DW component breakdown.
///
/// Paper shape: the best plan (far left, "B") is only ~10% faster than the
/// HV-only plan ("H"); early splits (marked "S") that ship large working
/// sets are several times worse; good plans all transfer small, late
/// working sets.
fn fig3(h: &Harness) -> Figure {
    let mut t = Text::default();
    let (hv_cost, dw_cost) = (HvStore::new().cost_model, DwStore::new().cost_model);
    let transfer = TransferModel::paper_default();
    let stats = h.system(h.budgets(2.0), None).build_stats();
    let mut profiles = Vec::new();
    // The paper profiles A1v1, a complex query with joins, aggregates and
    // UDF-free structure; we use A8v1 (the three-way join) as the profiled
    // query since it has the richest split space, and also print A1v1.
    for target in ["A1v1", "A8v1"] {
        let (label, plan) = h.workload.iter().find(|(l, _)| l == target).expect("query");
        writeln!(
            t,
            "=== Figure 3 profile for {label} (cold design, all splits) ==="
        );
        let estimates = estimate_plan(plan, &stats);
        // Per plan: HV, DUMP, TRANSFER+LOAD and DW, HV operators, HV-only.
        let mut rows: Vec<([SimDuration; 4], usize, bool)> = Vec::new();
        let mut hv_only_total = SimDuration::ZERO;
        for split in &enumerate_splits(plan) {
            let c = estimate_split_cost(plan, split, &estimates, &hv_cost, &dw_cost, &transfer);
            // Split the transfer bar into DUMP and TRANSFER+LOAD like the
            // paper's green/yellow components.
            let cuts = split.cut_nodes(plan);
            let cut_bytes: u64 = cuts.iter().map(|c| estimates[c].bytes as u64).sum();
            let dump = hv_cost.dump_cost(ByteSize::from_bytes(cut_bytes));
            let is_hv_only = split.is_hv_only(plan);
            if is_hv_only {
                hv_only_total = c.total();
            }
            let parts = [c.hv, dump, c.transfer.saturating_sub(dump), c.dw];
            rows.push((parts, split.hv_nodes().len(), is_hv_only));
        }
        let total = |parts: &[SimDuration; 4]| parts[0] + parts[1] + parts[2] + parts[3];
        rows.sort_by_key(|r| total(&r.0));

        writeln!(
            t,
            "{} plans (one per valid split); times in simulated seconds",
            rows.len()
        );
        writeln!(
            t,
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7} mark",
            "plan", "HV", "DUMP", "XFER+LOAD", "DW", "total", "hv_ops"
        );
        let best = total(&rows[0].0).as_secs_f64();
        let hv_only = hv_only_total.as_secs_f64();
        for (i, (parts, hv_ops, is_hv_only)) in rows.iter().enumerate() {
            let total = total(parts).as_secs_f64();
            let mark = if i == 0 {
                "B (best)"
            } else if *is_hv_only {
                "H (HV-only)"
            } else if total > hv_only * 1.5 {
                "S (bad early split)"
            } else {
                ""
            };
            let [hv, dump, xl, dw] = parts.map(|d| d.as_secs_f64());
            writeln!(
                t,
                "{:>5} {hv:>9.0} {dump:>9.0} {xl:>9.0} {dw:>9.1} {total:>10.0} {hv_ops:>7} {mark}",
                i + 1
            );
        }
        let gain = (1.0 - best / hv_only) * 100.0;
        let worst = total(&rows[rows.len() - 1].0).as_secs_f64();
        writeln!(
            t,
            "\nbest plan vs HV-only: {gain:.1}% faster (paper: ~10%); worst/HV-only: {:.1}x\n",
            worst / hv_only
        );
        profiles.push(obj([
            ("query", Value::str(label.as_str())),
            ("plans", Value::Int(rows.len() as i64)),
            ("best_s", Value::Float(best)),
            ("hv_only_s", Value::Float(hv_only)),
            ("gain_pct", Value::Float(gain)),
        ]));
    }
    // The profile above is a static estimation pass; the MS-MISO stream runs
    // too, silently, so traces carry the full query lifecycle (parse →
    // optimize → split → hv/dw exec → transfer) and the tuner epochs, and
    // the run report carries the optimizer/knapsack/tuner counters.
    let stream = h.run(MsMiso, 2.0);

    // EXPLAIN ANALYZE of the two profiled queries on a fresh system. The
    // trees carry wall times, so they are shown only beside the other
    // observability output; the JSON always lands in the run report.
    let mut sys = h.system(h.budgets(2.0), None);
    let xrays: Vec<_> = h
        .workload
        .iter()
        .filter(|(label, _)| label == "A1v1" || label == "A8v1")
        .map(|(label, raw)| sys.explain_analyze(label, raw).expect("explain analyze").1)
        .collect();
    let mut observed = Text::default();
    if miso_obs::enabled() {
        let snap = miso_obs::snapshot();
        for x in &xrays {
            let tree = miso_xray::explain_analyze_with_metrics(x, &snap);
            writeln!(observed, "{tree}");
        }
    }
    let explained = xrays.iter().map(|x| x.to_value()).collect();
    let report = obj([
        ("profiles", Value::Array(profiles)),
        ("ms_miso_stream", tti_value(&stream)),
        ("explain_analyze", Value::Array(explained)),
    ]);
    Figure {
        observed: observed.0,
        ..Figure::new(t, report)
    }
}

/// Figure 4: TTI of the five system variants, with the component breakdown
/// (DW-EXE / TRANSFER / TUNE / HV-EXE / ETL).
///
/// Paper result: MS-MISO best (4.3× over HV-ONLY, 3.1× over MS-BASIC, 1.8×
/// over HV-OP); DW-ONLY worst (ETL dominates, ~3% slower than HV-ONLY);
/// MS-BASIC ≈ 1.2× over HV-ONLY. Budgets: `B_h = B_d = 2×`, `B_t = 10 GB`.
fn fig4(h: &Harness) -> Figure {
    let runs = Runs::new(&[HvOnly, DwOnly, MsBasic, HvOp, MsMiso], |v| h.run(v, 2.0));
    let mut t = Text::default();
    writeln!(
        t,
        "Figure 4: TTI by system variant (10^3 simulated seconds), B = 2x, Bt = 10GB-equivalent\n"
    );
    component_table(&mut t, &runs, true);
    let tti = |v| runs.tti(v);
    writeln!(t, "\nSpeedups vs paper:");
    for (label, slow, paper) in [
        ("MS-MISO over HV-ONLY ", HvOnly, "4.3x"),
        ("MS-MISO over MS-BASIC", MsBasic, "3.1x"),
        ("MS-MISO over HV-OP   ", HvOp, "1.8x"),
    ] {
        writeln!(
            t,
            "  {label}: {:.1}x   (paper {paper})",
            tti(slow) / tti(MsMiso)
        );
    }
    let basic_speedup = tti(HvOnly) / tti(MsBasic);
    writeln!(
        t,
        "  MS-BASIC over HV-ONLY: {basic_speedup:.2}x   (paper ~1.2x)"
    );
    let dw_only = (tti(DwOnly) / tti(HvOnly) - 1.0) * 100.0;
    writeln!(
        t,
        "  DW-ONLY vs HV-ONLY   : {dw_only:+.1}%  (paper +3% slower)"
    );
    let mut csv = Text("variant,dw_exe_ks,transfer_ks,tune_ks,hv_exe_ks,etl_ks,tti_ks\n".into());
    for r in &runs.0 {
        writeln!(csv, "{}", components(r, true, 3).join(","));
    }
    Figure {
        csv: Some(csv.0),
        ..Figure::new(t, runs.report())
    }
}

/// Figure 5: (a) cumulative TTI vs queries completed and (b) query
/// execution-time distribution, for the five §5.2 variants.
///
/// Paper shape: (a) DW-ONLY is flat until ETL completes, then jumps;
/// MS-MISO has the lowest curve while allowing immediate querying.
/// (b) DW-ONLY has the fastest queries (65% < 10 s, 84%... < 100 s);
/// HV-ONLY the slowest (< 3% under 1000 s); MS-MISO completes ≥ 30% of
/// queries in under 100 s.
fn fig5(h: &Harness) -> Figure {
    let runs = Runs::new(&[HvOnly, DwOnly, MsBasic, HvOp, MsMiso], |v| h.run(v, 2.0));
    let mut t = Text::default();
    let names: String = runs
        .0
        .iter()
        .map(|r| format!(" {:>9}", r.variant))
        .collect();
    writeln!(
        t,
        "Figure 5(a): cumulative TTI (10^3 s) after each completed query\n"
    );
    writeln!(t, "{:>7}{names}", "query");
    let n = h.workload.len();
    for i in (3..=n).step_by(4).chain([n]) {
        write!(t, "{:>7}", i);
        for r in &runs.0 {
            write!(t, " {:>9.1}", ks(r.cumulative_tti()[i - 1]));
        }
        writeln!(t);
    }

    writeln!(
        t,
        "\nFigure 5(b): fraction of queries with execution time under bound\n"
    );
    let bounds = [10.0, 100.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 50_000.0];
    writeln!(t, "{:>10}{names}", "bound(s)");
    let cdfs: Vec<_> = runs.0.iter().map(|r| r.exec_time_cdf(&bounds)).collect();
    for (bi, b) in bounds.iter().enumerate() {
        write!(t, "{:>10}", format!("<{b}"));
        for cdf in &cdfs {
            write!(t, " {:>8.0}%", cdf[bi] * 100.0);
        }
        writeln!(t);
    }

    writeln!(t, "\nCheckpoints vs paper:");
    let checkpoints = [
        (DwOnly, "<10s ", 10.0, "~65%"),
        (DwOnly, "<100s", 100.0, "~90%"),
        (HvOnly, "<1ks ", 1_000.0, "<3%"),
        (MsMiso, "<100s", 100.0, ">=30%"),
    ];
    for (v, label, bound, paper) in checkpoints {
        let pct = runs.get(v).exec_time_cdf(&[bound])[0] * 100.0;
        writeln!(t, "  {} {label}: {pct:>3.0}%   (paper {paper})", v.name());
    }
    Figure::new(t, runs.report())
}

/// Figure 6: per-query store utilization (fraction of execution time in HV,
/// DW, and transfer), queries ranked by DW utilization, for (a) MS-BASIC,
/// (b) MS-MISO at 0.125× storage, (c) MS-MISO at 2× storage.
///
/// Paper shape: DW-majority queries — (a) 2, (b) 9, (c) 14; HV-seconds per
/// DW-second over the top-16 ranks — (a) 55, (b) 1.6, (c) 0.12; operator
/// splits shift from 2/3-HV (MS-BASIC) to 3/3-DW for MS-MISO's fastest
/// queries.
fn fig6(h: &Harness) -> Figure {
    let cases = [
        ("(a) MS-BASIC", MsBasic, 2.0),
        ("(b) MS-MISO 0.125x", MsMiso, 0.125),
        ("(c) MS-MISO 2x", MsMiso, 2.0),
    ];
    let mut t = Text::default();
    let mut summary = Vec::new();
    let mut report_cases = Vec::new();
    for (title, variant, mult) in cases {
        let r = h.run(variant, mult);
        writeln!(t, "Figure 6 {title}: queries ranked by DW utilization\n");
        writeln!(
            t,
            "{:>5} {:>8} {:>7}% {:>7}% {:>7}% {:>9}",
            "rank", "label", "HV", "DW", "XFER", "ops H/D"
        );
        for (i, rec) in r.by_dw_utilization().iter().enumerate().take(20) {
            let total = rec.exec_total().as_secs_f64().max(1e-9);
            writeln!(
                t,
                "{:>5} {:>8} {:>7.0} {:>7.0} {:>7.0} {:>6}/{}",
                i + 1,
                rec.label,
                rec.hv.as_secs_f64() / total * 100.0,
                rec.dw.as_secs_f64() / total * 100.0,
                rec.transfer.as_secs_f64() / total * 100.0,
                rec.hv_ops,
                rec.dw_ops
            );
        }
        let majority = r.dw_majority_queries();
        let ratio = r.hv_per_dw_second(16);
        writeln!(
            t,
            "\nDW-majority queries: {majority}; HV seconds per DW second (top 16): {ratio:.2}\n"
        );
        summary.push((majority, ratio));
        report_cases.push(obj([
            ("case", Value::str(title)),
            ("storage_multiple", Value::Float(mult)),
            ("dw_majority_queries", Value::Int(majority as i64)),
            ("hv_per_dw_second_top16", Value::Float(ratio)),
            ("tti", tti_value(&r)),
        ]));
    }
    let [a, b, c] = [summary[0], summary[1], summary[2]];
    writeln!(t, "Summary vs paper:");
    writeln!(
        t,
        "  DW-majority: (a) {} (paper 2), (b) {} (paper 9), (c) {} (paper 14)",
        a.0, b.0, c.0
    );
    writeln!(
        t,
        "  HV:DW seconds (top16): (a) {:.1} (paper 55), (b) {:.2} (paper 1.6), (c) {:.2} (paper 0.12)",
        a.1,
        b.1,
        c.1
    );
    Figure::new(t, obj([("cases", Value::Array(report_cases))]))
}

/// Figure 7: TTI comparison of multistore tuning techniques at constrained
/// budgets (`B_h = B_d = 0.125×`, `B_t = 10 GB`).
///
/// Paper shape: MS-BASIC worst; MS-OFF worst among tuned (its one-shot
/// design can't track the workload under small budgets); MS-MISO ~60% better
/// than MS-OFF and ~56% better than MS-LRU; MS-ORA (oracle) ~32% better than
/// MS-MISO.
fn fig7(h: &Harness) -> Figure {
    let runs = Runs::new(&[MsBasic, MsOff, MsLru, MsMiso, MsOra], |v| h.run(v, 0.125));
    let mut t = Text::default();
    writeln!(t, "Figure 7: tuning-technique comparison at B = 0.125x\n");
    component_table(&mut t, &runs, false);
    let tti = |v| runs.tti(v);
    writeln!(t, "\nRelations vs paper:");
    for (label, other, paper) in [("MS-OFF", MsOff, "~60%"), ("MS-LRU", MsLru, "~56%")] {
        let gain = (1.0 - tti(MsMiso) / tti(other)) * 100.0;
        writeln!(
            t,
            "  MS-MISO vs {label} : {gain:+.0}% improvement (paper {paper})"
        );
    }
    writeln!(
        t,
        "  MS-MISO vs MS-ORA : {:+.0}% worse (paper ~32% worse)",
        (tti(MsMiso) / tti(MsOra) - 1.0) * 100.0
    );
    let basic = tti(MsBasic);
    let basic_worst = runs
        .0
        .iter()
        .all(|r| r.tti_total().as_secs_f64() <= basic + 1e-9);
    writeln!(t, "  MS-BASIC is worst : {basic_worst}");
    Figure::new(t, runs.report())
}

/// Figure 8: TTI of MS-LRU / MS-OFF / MS-MISO as the view storage budgets
/// sweep 0.125× → 4×, transfer budget held constant.
///
/// Paper shape: MS-MISO best at every budget; MS-OFF and MS-LRU improve
/// with budget and all three converge at 2–4× where storage is plentiful.
fn fig8(h: &Harness) -> Figure {
    let variants = [MsLru, MsOff, MsMiso];
    let mut t = Text::default();
    writeln!(
        t,
        "Figure 8: TTI (10^3 s) while sweeping view storage budgets\n"
    );
    let [a, b, c] = variants.map(|v| v.name());
    writeln!(t, "{:>8} {a:>9} {b:>9} {c:>9}", "budget");
    let mut csv = Text("budget_multiple,ms_lru_ks,ms_off_ks,ms_miso_ks\n".into());
    let mut sweep = Vec::new();
    // TTI in simulated seconds, one row per multiple, one column per variant.
    let mut table = Vec::new();
    for m in [0.125, 0.5, 1.0, 2.0, 4.0] {
        let tti = variants.map(|v| h.run(v, m).tti_total().as_secs_f64());
        let [lru, off, miso] = tti.map(|s| s / 1000.0);
        writeln!(
            t,
            "{:>8} {lru:>9.1} {off:>9.1} {miso:>9.1}",
            format!("{m}x")
        );
        writeln!(csv, "{m},{lru:.1},{off:.1},{miso:.1}");
        sweep.push(obj([
            ("budget_multiple", Value::Float(m)),
            ("ms_lru_s", Value::Float(tti[0])),
            ("ms_off_s", Value::Float(tti[1])),
            ("ms_miso_s", Value::Float(tti[2])),
        ]));
        table.push(tti);
    }
    let [lru, off, miso] = table[0];
    writeln!(t, "\nShape vs paper:");
    writeln!(
        t,
        "  at 0.125x MS-MISO beats MS-LRU by {:.0}% (paper large gap) and MS-OFF by {:.0}%",
        (1.0 - miso / lru) * 100.0,
        (1.0 - miso / off) * 100.0
    );
    let spread = |row: &[f64; 3]| {
        row.iter().cloned().fold(f64::MIN, f64::max) / row.iter().cloned().fold(f64::MAX, f64::min)
    };
    writeln!(
        t,
        "  spread (worst/best) at 0.125x: {:.2}; at 4x: {:.2} (paper: converging)",
        spread(&table[0]),
        spread(&table[4])
    );
    Figure {
        csv: Some(csv.0),
        ..Figure::new(t, obj([("sweep", Value::Array(sweep))]))
    }
}

/// Figure 9: impact of the multistore workload on a DW with 40% spare IO
/// capacity — (a) IO/CPU utilization over time with R (reorg transfer),
/// T (working-set transfer), and Q (query execution) events; (b) average
/// background reporting-query latency over time.
///
/// Paper shape: IO sits at 60% while only the background runs; R/T events
/// briefly push IO to ~100% and background latency from 1.06 s to >5 s;
/// long Q stretches barely register. Overall background slowdown ~2.5%.
fn fig9(h: &Harness) -> Figure {
    let profile = paper_profiles()
        .into_iter()
        .find(|p| p.resource == Resource::Io && p.spare_percent == 40)
        .expect("IO 40% profile");
    let (busy, bg) = beside_background(h, &profile);
    let mut t = Text::default();
    writeln!(
        t,
        "Figure 9: DW with {} spare capacity (background template {} x{})\n",
        profile.label(),
        profile.template,
        profile.instances
    );
    writeln!(
        t,
        "(a) resource timeline (one row per recorded interval, merged):"
    );
    writeln!(
        t,
        "{:>10} {:>10} {:>6} {:>6} {:>9} {:>7}",
        "t(ks)", "dur(s)", "IO%", "CPU%", "bg_lat(s)", "mark"
    );
    // Compress: show every non-idle event plus sparse idle context.
    for (i, s) in bg.samples().iter().enumerate() {
        let mark = match s.activity {
            DwActivity::Idle if i % 6 != 0 => continue,
            DwActivity::Idle => "",
            DwActivity::QueryExec => "Q",
            DwActivity::WorkingSetTransfer => "T",
            DwActivity::ViewTransfer => "R",
        };
        writeln!(
            t,
            "{:>10.1} {:>10.1} {:>6.0} {:>6.0} {:>9.2} {:>7}",
            s.start.elapsed_since_epoch().as_secs_f64() / 1000.0,
            s.duration.as_secs_f64(),
            s.io_util * 100.0,
            s.cpu_util * 100.0,
            s.bg_latency.as_secs_f64(),
            mark
        );
    }
    let peak = (bg.samples().iter())
        .map(|s| bg.bg_latency_peak(s.activity).as_secs_f64())
        .fold(0.0, f64::max);
    writeln!(t, "\n(b) background-query latency:");
    writeln!(
        t,
        "  base latency          : {:.2}s (paper 1.06s)",
        bg.base_latency.as_secs_f64()
    );
    writeln!(t, "  peak during transfers : {peak:.2}s (paper >5s)");
    writeln!(
        t,
        "  time-weighted average : {:.3}s -> {:.1}% slowdown (paper 2.5%)",
        bg.avg_bg_latency().as_secs_f64(),
        bg.bg_slowdown_percent()
    );
    let idle = h.run(MsMiso, 2.0);
    let slow = slowdown_pct(&busy, &idle);
    writeln!(
        t,
        "  multistore workload slowdown vs idle DW: {slow:.1}% (paper 2.5%)"
    );
    let report = obj([
        ("busy_dw", tti_value(&busy)),
        ("idle_dw", tti_value(&idle)),
        ("bg_peak_latency_s", Value::Float(peak)),
        ("multistore_slowdown_pct", Value::Float(slow)),
    ]);
    Figure::new(t, report)
}

/// Table 2: mutual slowdown between the multistore workload and the DW
/// background reporting queries, for the four spare-capacity configurations.
///
/// Paper:
/// ```text
///   spare          DW-query slowdown   multistore slowdown
///   IO  40%              1.1%                 2.5%
///   IO  20%              1.7%                 4.0%
///   CPU 40%              0.3%                 4.2%
///   CPU 20%              0.8%                 5.0%
/// ```
fn table2(h: &Harness) -> Figure {
    let idle = h.run(MsMiso, 2.0);
    let mut t = Text::default();
    writeln!(
        t,
        "Table 2: impact of multistore workload on DW queries and vice-versa\n"
    );
    writeln!(
        t,
        "{:>10} {:>22} {:>24}",
        "spare", "DW-query slowdown", "multistore slowdown"
    );
    let paper = [(1.1, 2.5), (1.7, 4.0), (0.3, 4.2), (0.8, 5.0)];
    let mut rows = Vec::new();
    for (profile, (p_dw, p_ms)) in paper_profiles().into_iter().zip(paper) {
        let (busy, bg) = beside_background(h, &profile);
        let dw_slow = bg.bg_slowdown_percent();
        let ms_slow = slowdown_pct(&busy, &idle);
        writeln!(
            t,
            "{:>10} {:>13.1}% ({p_dw}%) {:>16.1}% ({p_ms}%)",
            profile.label(),
            dw_slow,
            ms_slow
        );
        rows.push(obj([
            ("spare", Value::str(profile.label())),
            ("dw_slowdown_pct", Value::Float(dw_slow)),
            ("multistore_slowdown_pct", Value::Float(ms_slow)),
        ]));
    }
    writeln!(t, "\n(parenthesized values: paper)");
    let report = obj([
        ("idle_baseline", tti_value(&idle)),
        ("rows", Value::Array(rows)),
    ]);
    Figure::new(t, report)
}

/// §3.2 inline figure: two related queries (q1 = A1v1, q2 = A1v2) under
/// HV-ONLY, MS-BASIC, and MS-MISO with a reorganization phase triggered
/// between them.
///
/// Paper shape: MS-BASIC only ~8% faster than HV-ONLY; MS-MISO ~2× faster
/// than both, because the tuner moved the "right" views into DW after q1.
fn fig_motivation(h: &Harness) -> Figure {
    // Two subsequent queries by the same analyst with overlap.
    let pair: Vec<_> = h
        .workload
        .iter()
        .filter(|(l, _)| l == "A1v1" || l == "A1v2")
        .cloned()
        .collect();
    assert_eq!(pair.len(), 2);
    let runs = Runs::new(&[HvOnly, MsBasic, MsMiso], |v| {
        // reorg_every = 1 makes the tuner run right between q1 and q2 for
        // MS-MISO, matching the paper's setup.
        let mut config = SystemConfig::paper_default(h.budgets(2.0));
        config.reorg_every = 1;
        h.system_with(config)
            .run_workload(v, &pair)
            .expect("experiment runs")
    });
    let mut t = Text::default();
    writeln!(
        t,
        "Section 3.2 motivation: q1 (A1v1) then q2 (A1v2), reorg between\n"
    );
    writeln!(
        t,
        "{:>10} {:>8} {:>8} {:>9}",
        "variant", "q1(ks)", "q2(ks)", "total(ks)"
    );
    for r in &runs.0 {
        writeln!(
            t,
            "{:>10} {:>8.2} {:>8.2} {:>9.2}",
            r.variant,
            ks(r.records[0].exec_total()),
            ks(r.records[1].exec_total()),
            ks(r.tti_total()),
        );
    }
    let tti = |v| runs.tti(v);
    writeln!(
        t,
        "\nMS-BASIC vs HV-ONLY: {:.0}% faster (paper ~8%)",
        (1.0 - tti(MsBasic) / tti(HvOnly)) * 100.0
    );
    writeln!(
        t,
        "MS-MISO vs HV-ONLY : {:.1}x (paper ~2x)",
        tti(HvOnly) / tti(MsMiso)
    );
    Figure::new(t, runs.report())
}

/// Ablation study: which of MISO's design choices actually matter?
///
/// Knocks out one ingredient at a time (paper §4's heuristics and §6's
/// discussion knobs) and measures the damage on the standard workload:
///
/// * **no benefit decay** — uniform weights over the history window;
/// * **short / long history** — window 3 vs 12 (default 6);
/// * **rare reorganization** — every 8 queries instead of every 3;
/// * **transfer budget sweep** — the §6 `B_t` trade-off;
/// * **no interactions** — doi threshold ∞ (each view independent).
fn ablation(h: &Harness) -> Figure {
    type Tweak = fn(&mut SystemConfig);
    let tti = |tweak: Tweak| {
        let mut config = SystemConfig::paper_default(h.budgets(2.0));
        tweak(&mut config);
        let run = h.system_with(config).run_workload(MsMiso, &h.workload);
        ks(run.expect("experiment runs").tti_total())
    };
    let cases: [(&str, Tweak); 8] = [
        ("no benefit decay (uniform weights)", |c| c.decay = 1.0),
        ("short history (window 3)", |c| c.history_len = 3),
        ("long history (window 12)", |c| c.history_len = 12),
        ("rare reorganization (every 8)", |c| c.reorg_every = 8),
        ("eager reorganization (every 1)", |c| c.reorg_every = 1),
        ("no interaction handling", |c| {
            c.doi_threshold = f64::INFINITY
        }),
        ("tiny transfer budget (Bt/8)", |c| {
            c.budgets.transfer = c.budgets.transfer.scale(0.125)
        }),
        ("huge transfer budget (Bt*8)", |c| {
            c.budgets.transfer = c.budgets.transfer.scale(8.0)
        }),
    ];
    let mut t = Text::default();
    writeln!(
        t,
        "Ablations of MS-MISO (B = 2x); TTI in 10^3 simulated seconds\n"
    );
    let baseline = tti(|_| {});
    writeln!(t, "{:<34} {:>8.1}", "baseline (paper defaults)", baseline);
    let mut report_cases = vec![obj([
        ("case", Value::str("baseline")),
        ("tti_ks", Value::Float(baseline)),
    ])];
    for (label, tweak) in cases {
        let total = tti(tweak);
        let delta = (total / baseline - 1.0) * 100.0;
        writeln!(t, "{label:<34} {total:>8.1}  ({delta:+.1}% vs baseline)");
        report_cases.push(obj([
            ("case", Value::str(label)),
            ("tti_ks", Value::Float(total)),
            ("delta_pct", Value::Float(delta)),
        ]));
    }
    writeln!(
        t,
        "\nreading: positive deltas mean the knocked-out ingredient was \
         pulling its weight; Bt rows reproduce the §6 discussion (too small \
         starves DW placement; larger helps with diminishing returns and \
         more DW impact per phase)."
    );
    Figure::new(t, obj([("cases", Value::Array(report_cases))]))
}

/// Beyond the paper: view-maintenance policies under append-only log growth
/// (the §6 future-work scenario, implemented in `miso_core::maintenance`).
///
/// Runs the evolutionary workload once per policy on the growth path the
/// online stream takes (`SystemConfig::growth`: the tweet log grows before
/// every reorganization) and compares total cost (query execution +
/// maintenance) for the two policies, against a no-append baseline.
fn maintenance(h: &Harness) -> Figure {
    const RECORDS: usize = 800;
    let mut sys = h.system(h.budgets(2.0), None);
    let base = sys
        .run_workload(MsMiso, &h.workload)
        .expect("experiment runs");
    let base_views = sys.catalog.len();
    let policies = [MaintenancePolicy::Invalidate, MaintenancePolicy::Refresh];
    let runs = policies.map(|policy| {
        let mut config = SystemConfig::paper_default(h.budgets(2.0));
        config.growth = Some(GrowthConfig {
            kind: LogKind::Twitter,
            records_per_epoch: RECORDS,
            policy,
            logs: LogsConfig::experiment(),
        });
        let mut sys = h.system_with(config);
        let run = sys
            .run_workload(MsMiso, &h.workload)
            .expect("experiment runs");
        (policy, run, sys.catalog.len())
    });

    let mut t = Text::default();
    writeln!(
        t,
        "View maintenance under streaming appends ({} batches x {RECORDS} tweets, \
         one before each reorganization)\n",
        runs[0].1.maintenance.len()
    );
    writeln!(
        t,
        "{:>12} {:>11} {:>12} {:>11} {:>9}",
        "policy", "exec (ks)", "maint (ks)", "total (ks)", "views"
    );
    let line = |t: &mut Text, policy: &str, exec: SimDuration, maint, views: usize| {
        let total = ks(exec + maint);
        let (exec, maint) = (ks(exec), ks(maint));
        writeln!(
            t,
            "{policy:>12} {exec:>11.1} {maint:>12.1} {total:>11.1} {views:>9}"
        );
    };
    line(
        &mut t,
        "(no appends)",
        base.tti_total(),
        SimDuration::ZERO,
        base_views,
    );

    let mut rows = Vec::new();
    for (policy, run, views) in runs {
        let maint: SimDuration = run.maintenance.iter().map(|m| m.cost).sum();
        let exec = run.tti_total() - maint;
        let name = format!("{policy:?}");
        line(&mut t, &name, exec, maint, views);
        rows.push(obj([
            ("policy", Value::str(name)),
            ("exec_ks", Value::Float(ks(exec))),
            ("maint_ks", Value::Float(ks(maint))),
            ("total_ks", Value::Float(ks(exec + maint))),
            ("views", Value::Int(views as i64)),
        ]));
    }
    writeln!(
        t,
        "\nnote: one MS-MISO stream per row; exec is its TTI less the \
         maintenance charged, one fold job per batch included; `views` is \
         the live design at the end."
    );
    Figure::new(t, obj([("policies", Value::Array(rows))]))
}
