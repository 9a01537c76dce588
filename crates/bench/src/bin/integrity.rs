//! Integrity benchmark: the standard 32-query stream (MS-MISO, 2× budgets)
//! under silent-corruption injection.
//!
//! Runs the workload twice with read-time verification and the
//! between-epoch auditor enabled — once clean, once with `corrupt` faults
//! injected at the `hv.view_read` / `dw.view_read` / `transfer.ship` /
//! `reorg.step` points — and verifies the integrity layer end to end:
//! every query returns the clean run's answer (corrupt views are
//! quarantined and re-planned around, never served), corruption is
//! actually detected (`integrity.checksum_failures` > 0), and the
//! self-healing paths actually repair (`integrity.repaired` > 0). Exits
//! non-zero on any divergence, which makes this binary the CI integrity
//! smoke test.
//!
//! Set `MISO_CHAOS=<spec>` to override the default corruption plan.

use miso_bench::{ks, tti_value, Harness};
use miso_core::{AuditConfig, SystemConfig, Variant};
use miso_data::Value;

/// The default bit-rot storm: stored view copies silently corrupted on
/// read in both stores, plus in-flight corruption of shipped working sets
/// and reorg staging copies.
const DEFAULT_SPEC: &str = "seed=1337;dw.view_read=corrupt@p0.15;\
                            hv.view_read=corrupt@p0.1;transfer.ship=corrupt@p0.1;\
                            reorg.step=corrupt@p0.1";

fn main() {
    if !miso_bench::obs_init() {
        // The report surfaces the integrity counters, so metrics must
        // flow even when MISO_OBS is unset.
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    let harness = Harness::standard();
    // Same integrity posture for both runs: verify every view read and
    // audit (counting mode) between epochs, so the clean run also proves
    // the fault-free overhead does not change any answer.
    let config = |harness: &Harness| -> SystemConfig {
        let mut c = SystemConfig::paper_default(harness.budgets(2.0));
        c.verify_on_read = true;
        c.audit = Some(AuditConfig::counting(harness.hv_base()));
        c
    };

    // Clean baseline.
    let mut sys = harness.system_with(config(&harness));
    let clean = sys
        .run_workload(Variant::MsMiso, &harness.workload)
        .expect("clean run");
    let after_clean = miso_obs::snapshot();
    let clean_failures = after_clean
        .counters
        .get("integrity.checksum_failures")
        .copied()
        .unwrap_or(0);

    // Corrupted run under the (seeded, deterministic) plan.
    let spec = miso_bench::install_chaos("integrity", DEFAULT_SPEC);
    let mut sys = harness.system_with(config(&harness));
    let corrupted = match sys.run_workload(Variant::MsMiso, &harness.workload) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("integrity: workload failed under corruption: {e}");
            std::process::exit(1);
        }
    };
    miso_chaos::disable();

    // Query-by-query answer agreement with the clean run.
    let mut mismatches = 0usize;
    for (c, f) in clean.records.iter().zip(&corrupted.records) {
        if c.result_rows != f.result_rows {
            eprintln!(
                "integrity: {} returned {} rows under corruption, {} clean",
                f.label, f.result_rows, c.result_rows
            );
            mismatches += 1;
        }
    }
    if corrupted.records.len() != clean.records.len() {
        eprintln!(
            "integrity: {} of {} queries completed",
            corrupted.records.len(),
            clean.records.len()
        );
        mismatches += 1;
    }

    let snap = miso_obs::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let tuner_repairs: u64 = corrupted
        .reorgs
        .iter()
        .map(|r| r.repaired.len() as u64)
        .sum();

    println!("=== Integrity run (MS-MISO, 2x budgets, 32 queries) ===");
    println!("spec: {spec}");
    println!(
        "clean TTI: {:8.1} ks   under corruption: {:8.1} ks ({:+.1}%)",
        ks(clean.tti_total()),
        ks(corrupted.tti_total()),
        100.0 * (corrupted.tti_total().as_secs_f64() / clean.tti_total().as_secs_f64() - 1.0),
    );
    println!(
        "queries: {}/{} completed, {} result mismatches",
        corrupted.records.len(),
        clean.records.len(),
        mismatches
    );
    println!(
        "injected: {} corruptions   detected: {} checksum failures \
         (clean run: {clean_failures})",
        counter("chaos.corruptions_injected"),
        counter("integrity.checksum_failures"),
    );
    println!(
        "handled: {} quarantined, {} repaired ({} by the tuner), \
         {} view fallbacks, {} re-ships",
        counter("integrity.quarantined"),
        counter("integrity.repaired"),
        tuner_repairs,
        counter("query.view_fallback"),
        counter("transfer.reshipped"),
    );
    println!(
        "audit: {} passes, {} views scrubbed, {} violations",
        counter("audit.passes"),
        counter("audit.views_scrubbed"),
        counter("audit.violations"),
    );

    miso_bench::write_report(
        "integrity",
        Value::object(vec![
            ("spec".into(), Value::str(spec.as_str())),
            ("clean".into(), tti_value(&clean)),
            ("corrupted".into(), tti_value(&corrupted)),
            ("mismatches".into(), Value::Int(mismatches as i64)),
            (
                "corruptions_injected".into(),
                Value::Int(counter("chaos.corruptions_injected") as i64),
            ),
            (
                "checksum_failures".into(),
                Value::Int(counter("integrity.checksum_failures") as i64),
            ),
            (
                "quarantined".into(),
                Value::Int(counter("integrity.quarantined") as i64),
            ),
            (
                "repaired".into(),
                Value::Int(counter("integrity.repaired") as i64),
            ),
            ("tuner_repairs".into(), Value::Int(tuner_repairs as i64)),
            (
                "view_fallbacks".into(),
                Value::Int(counter("query.view_fallback") as i64),
            ),
            (
                "audit_violations".into(),
                Value::Int(counter("audit.violations") as i64),
            ),
        ]),
    );

    let mut failed = false;
    if mismatches > 0 {
        failed = true;
    }
    if clean_failures > 0 {
        eprintln!("integrity: clean run reported {clean_failures} checksum failures");
        failed = true;
    }
    if counter("integrity.checksum_failures") == 0 {
        eprintln!("integrity: corruption was injected but never detected");
        failed = true;
    }
    if counter("integrity.repaired") == 0 {
        eprintln!("integrity: views were quarantined but never repaired");
        failed = true;
    }
    if counter("audit.violations") > 0 {
        eprintln!(
            "integrity: auditor found {} invariant violations",
            counter("audit.violations")
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("integrity: all queries correct under silent corruption");
}
