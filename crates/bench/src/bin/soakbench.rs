//! soakbench: the miso-guard endurance storm.
//!
//! Runs the standard 32-query MS-MISO stream for several epochs under a
//! combined fault storm — transient errors, pathological stalls, memory
//! hogs, silent corruption, and reorg crashes — with the full guard layer
//! engaged (deadlines, memory budgets, overload shedding) and read-time
//! integrity verification on. The binary asserts the control plane's core
//! promises:
//!
//! 1. **zero process deaths** — every epoch's workload returns, never
//!    panics or aborts;
//! 2. **zero wrong answers** — every query that completes returns the
//!    fault-free result (corrupt copies are quarantined, never served);
//! 3. **every loss is classified** — a query that does not complete has a
//!    [`miso_core::QueryFailure`] with a stable error kind (and a
//!    `retry_after` hint when it was shed at admission);
//! 4. **bounded memory** — the peak of guard-charged bytes never exceeds
//!    the configured per-query budget (over-budget charges are refused,
//!    not recorded).
//!
//! The deadline and budget are calibrated from a fault-free guarded run
//! (observe-only: no deadline, unlimited budget), so the storm's stalls
//! (×10⁴ cost) and hogs (×4096 charged bytes) reliably trip guards while
//! ordinary queries clear them. `--smoke` shortens the storm for CI.
//!
//! Exits non-zero on any violated invariant; writes
//! `results/soakbench.report.json`.

use miso_bench::{ks, tti_value, Harness};
use miso_common::ByteSize;
use miso_core::{GuardConfig, SystemConfig, Variant};
use miso_data::Value;
use std::collections::HashMap;

const FULL_EPOCHS: usize = 5;
const SMOKE_EPOCHS: usize = 2;

/// One epoch's seeded storm: DW outages and stalls, HV stragglers, memory
/// hogs on both stores, wire and at-rest corruption, and reorg crashes.
/// No plain `error` injection at `hv.execute`: HV is the fallback store,
/// and an unlucky streak there is the one thing that *should* fail a
/// query (which would abort the epoch, not classify it).
fn storm_spec(seed: u64) -> String {
    format!(
        "seed={seed};dw.execute=error@p0.1;dw.execute=stall@p0.05;dw.execute=hog:4096@p0.1;\
         hv.execute=delay:1.5@p0.08;hv.execute=stall@p0.04;hv.execute=hog:4096@p0.08;\
         transfer.ship=error@p0.15;transfer.ship=corrupt@p0.1;\
         dw.view_read=corrupt@p0.05;hv.view_read=corrupt@p0.05;\
         reorg.step=crash@p0.1"
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let epochs = if smoke { SMOKE_EPOCHS } else { FULL_EPOCHS };
    if !miso_bench::obs_init() {
        // The assertions below read the guard/chaos counters, so metrics
        // must flow even when MISO_OBS is unset.
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    let harness = Harness::standard();

    // Fault-free calibration run with an observe-only guard (no deadline,
    // unlimited budget): yields the reference answers, the workload's
    // natural peak of charged bytes, and its slowest query.
    let mut cfg = SystemConfig::paper_default(harness.budgets(2.0));
    cfg.guard = GuardConfig {
        enabled: true,
        ..GuardConfig::disabled()
    };
    let mut sys = harness.system_with(cfg);
    let clean = sys
        .run_workload(Variant::MsMiso, &harness.workload)
        .expect("fault-free run succeeds");
    assert!(
        clean.failures.is_empty(),
        "observe-only guards must kill nothing"
    );
    let clean_rows: HashMap<&str, u64> = clean
        .records
        .iter()
        .map(|r| (r.label.as_str(), r.result_rows))
        .collect();
    let base_peak = sys.guard_peak_bytes().max(1);
    let max_exec = clean
        .records
        .iter()
        .map(|r| r.exec_total())
        .max()
        .expect("non-empty workload");

    // Deadline: generous headroom over the slowest clean query (delays and
    // retry backoffs fit easily) but far under a ×10⁴ stall. Budget: 2× the
    // natural peak, so a ×32 hog on any substantial query trips it.
    let deadline = max_exec * 100.0;
    let budget = ByteSize::from_bytes(base_peak.saturating_mul(2));

    println!("=== Soak storm (MS-MISO, 2x budgets, {epochs} epochs) ===");
    println!(
        "calibration: peak {} KiB charged, slowest query {:.1} s \
         -> deadline {:.1} s, budget {} KiB",
        base_peak / 1024,
        max_exec.as_secs_f64(),
        deadline.as_secs_f64(),
        budget.as_bytes() / 1024,
    );

    let mut aborts = 0usize;
    let mut mismatches = 0usize;
    let mut unclassified = 0usize;
    let mut budget_breaches = 0usize;
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut shed = 0usize;
    let mut peak_overall = 0u64;
    let mut epoch_values = Vec::new();
    for epoch in 0..epochs {
        let spec = storm_spec(1_000 + epoch as u64);
        let plan = miso_chaos::parse_spec(&spec).expect("storm spec parses");
        miso_chaos::install(plan);
        let mut cfg = SystemConfig::paper_default(harness.budgets(2.0));
        cfg.verify_on_read = true;
        cfg.guard = GuardConfig {
            enabled: true,
            deadline: Some(deadline),
            mem_budget: budget,
            max_inflight: 1,
            shed_threshold: 3,
            shed_cooldown: deadline,
        };
        let mut sys = harness.system_with(cfg);
        let outcome = sys.run_workload(Variant::MsMiso, &harness.workload);
        miso_chaos::disable();
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                eprintln!("soakbench: epoch {epoch} aborted: {e}");
                aborts += 1;
                continue;
            }
        };

        // Wrong answers: a completed query must match the fault-free run.
        let mut epoch_mismatches = 0usize;
        for r in &result.records {
            match clean_rows.get(r.label.as_str()) {
                Some(&rows) if rows == r.result_rows => {}
                _ => {
                    eprintln!(
                        "soakbench: epoch {epoch}: {} returned {} rows under storm, \
                         {} clean",
                        r.label,
                        r.result_rows,
                        clean_rows.get(r.label.as_str()).copied().unwrap_or(0),
                    );
                    epoch_mismatches += 1;
                }
            }
        }
        // Classified losses: completed + failed must account for the whole
        // stream, every failure carries a kind, sheds carry retry_after.
        if result.records.len() + result.failures.len() != harness.workload.len() {
            eprintln!(
                "soakbench: epoch {epoch}: {} completed + {} failed != {} queries",
                result.records.len(),
                result.failures.len(),
                harness.workload.len()
            );
            unclassified += 1;
        }
        for f in &result.failures {
            if f.kind.is_empty() || (f.shed && f.retry_after.is_none()) {
                eprintln!(
                    "soakbench: epoch {epoch}: unclassified failure for {}: kind={:?} \
                     shed={} retry_after={:?}",
                    f.label, f.kind, f.shed, f.retry_after
                );
                unclassified += 1;
            }
        }
        // Bounded memory: refused charges are never recorded, so the peak
        // must sit at or under the budget even with hogs firing.
        let peak = sys.guard_peak_bytes();
        if peak > budget.as_bytes() {
            eprintln!(
                "soakbench: epoch {epoch}: peak {} B exceeds budget {} B",
                peak,
                budget.as_bytes()
            );
            budget_breaches += 1;
        }

        let epoch_shed = result.failures.iter().filter(|f| f.shed).count();
        println!(
            "epoch {epoch}: {:2} completed, {:2} killed ({} shed), {} mismatches, \
             peak {} KiB, TTI {:8.1} ks",
            result.records.len(),
            result.failures.len(),
            epoch_shed,
            epoch_mismatches,
            peak / 1024,
            ks(result.tti_total()),
        );
        mismatches += epoch_mismatches;
        completed += result.records.len();
        failed += result.failures.len();
        shed += epoch_shed;
        peak_overall = peak_overall.max(peak);
        epoch_values.push(Value::object(vec![
            ("epoch".into(), Value::Int(epoch as i64)),
            ("spec".into(), Value::str(spec.as_str())),
            ("completed".into(), Value::Int(result.records.len() as i64)),
            ("failed".into(), Value::Int(result.failures.len() as i64)),
            ("shed".into(), Value::Int(epoch_shed as i64)),
            ("mismatches".into(), Value::Int(epoch_mismatches as i64)),
            ("peak_bytes".into(), Value::Int(peak as i64)),
            ("tti".into(), tti_value(&result)),
        ]));
    }

    let snap = miso_obs::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "storm totals: {completed} completed, {failed} killed ({shed} shed), \
         peak {} KiB / budget {} KiB",
        peak_overall / 1024,
        budget.as_bytes() / 1024,
    );
    println!(
        "guard: {} admitted, {} shed, {} cancelled, {} deadline, {} mem",
        counter("guard.admitted"),
        counter("guard.shed"),
        counter("guard.cancelled"),
        counter("guard.deadline_exceeded"),
        counter("guard.mem_exceeded"),
    );
    println!(
        "chaos: {} errors, {} stalls, {} hogs, {} corruptions, {} crashes; \
         integrity: {} checksum failures, {} quarantined, {} repaired",
        counter("chaos.errors_injected"),
        counter("chaos.stalls_injected"),
        counter("chaos.hogs_injected"),
        counter("chaos.corruptions_injected"),
        counter("chaos.crashes_injected"),
        counter("integrity.checksum_failures"),
        counter("integrity.quarantined"),
        counter("integrity.repaired"),
    );

    miso_bench::write_report(
        "soakbench",
        Value::object(vec![
            ("epochs".into(), Value::Int(epochs as i64)),
            ("smoke".into(), Value::Bool(smoke)),
            ("deadline_s".into(), Value::Float(deadline.as_secs_f64())),
            ("budget_bytes".into(), Value::Int(budget.as_bytes() as i64)),
            ("aborts".into(), Value::Int(aborts as i64)),
            ("mismatches".into(), Value::Int(mismatches as i64)),
            ("unclassified".into(), Value::Int(unclassified as i64)),
            ("budget_breaches".into(), Value::Int(budget_breaches as i64)),
            ("completed".into(), Value::Int(completed as i64)),
            ("failed".into(), Value::Int(failed as i64)),
            ("shed".into(), Value::Int(shed as i64)),
            ("peak_bytes".into(), Value::Int(peak_overall as i64)),
            ("clean".into(), tti_value(&clean)),
            ("epochs_detail".into(), Value::Array(epoch_values)),
        ]),
    );

    if aborts + mismatches + unclassified + budget_breaches > 0 {
        eprintln!(
            "soakbench: FAILED ({aborts} aborts, {mismatches} mismatches, \
             {unclassified} unclassified, {budget_breaches} budget breaches)"
        );
        std::process::exit(1);
    }
    println!("soakbench: storm survived — no aborts, no wrong answers, all losses classified");
}
