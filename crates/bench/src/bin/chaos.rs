//! Chaos benchmark: the standard 32-query stream (MS-MISO, 2× budgets)
//! under a seeded fault plan.
//!
//! Runs the workload twice — once fault-free, once with faults injected at
//! the `hv.execute` / `dw.execute` / `transfer.ship` / `reorg.step` fail
//! points — and verifies the robustness layer end to end: every query
//! completes, per-query results are identical to the fault-free run, and
//! crash-interrupted reorganizations recover. Exits non-zero on any
//! divergence, which makes this binary the CI chaos smoke test.
//!
//! Set `MISO_CHAOS=<spec>` to override the default fault plan (see the
//! `miso-chaos` crate docs for the grammar).

use miso_bench::{ks, tti_value, Harness};
use miso_core::Variant;
use miso_data::Value;

/// The default storm: an initial hard DW outage (the first 25 calls fail —
/// long enough to exhaust retries and trip the circuit breaker), then
/// intermittent DW and transfer failures, HV stragglers, and crashes
/// between reorg steps. No error injection at `hv.execute`: HV is the
/// fallback store, so an unlucky streak there is the one thing that
/// *should* fail a query.
const DEFAULT_SPEC: &str = "seed=42;dw.execute=error@u25;dw.execute=error@p0.2;\
                            transfer.ship=error@p0.25;hv.execute=delay:1.5@p0.1;\
                            reorg.step=crash@p0.15";

fn main() {
    if !miso_bench::obs_init() {
        // The report below surfaces the chaos/retry counters, so metrics
        // must flow even when MISO_OBS is unset.
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    let harness = Harness::standard();

    // Fault-free baseline.
    let clean = harness.run(Variant::MsMiso, 2.0);

    // Faulted run under the (seeded, deterministic) plan.
    let spec = miso_bench::install_chaos("chaos", DEFAULT_SPEC);
    let mut sys = harness.system(harness.budgets(2.0), None);
    let chaotic = match sys.run_workload(Variant::MsMiso, &harness.workload) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("chaos: workload failed under fault injection: {e}");
            std::process::exit(1);
        }
    };
    miso_chaos::disable();

    // Every query must complete with the fault-free answer.
    let mut mismatches = 0usize;
    for (c, f) in clean.records.iter().zip(&chaotic.records) {
        if c.result_rows != f.result_rows {
            eprintln!(
                "chaos: {} returned {} rows under faults, {} clean",
                f.label, f.result_rows, c.result_rows
            );
            mismatches += 1;
        }
    }
    if chaotic.records.len() != clean.records.len() {
        eprintln!(
            "chaos: {} of {} queries completed",
            chaotic.records.len(),
            clean.records.len()
        );
        mismatches += 1;
    }

    let recoveries: u64 = chaotic.reorgs.iter().map(|r| r.recoveries).sum();
    let rolled_back = chaotic.reorgs.iter().filter(|r| r.rolled_back).count();
    let snap = miso_obs::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    println!("=== Chaos run (MS-MISO, 2x budgets, 32 queries) ===");
    println!("spec: {spec}");
    println!(
        "clean TTI: {:8.1} ks   under faults: {:8.1} ks ({:+.1}%)",
        ks(clean.tti_total()),
        ks(chaotic.tti_total()),
        100.0 * (chaotic.tti_total().as_secs_f64() / clean.tti_total().as_secs_f64() - 1.0),
    );
    println!(
        "queries: {}/{} completed, {} result mismatches",
        chaotic.records.len(),
        clean.records.len(),
        mismatches
    );
    println!(
        "injected: {} errors, {} delays, {} crashes",
        counter("chaos.errors_injected"),
        counter("chaos.delays_injected"),
        counter("chaos.crashes_injected"),
    );
    println!(
        "handled: {} retries, {} circuit opens, {} HV fallbacks, \
         {} reorg recoveries ({} rolled back)",
        counter("store.retries"),
        counter("store.circuit_open"),
        counter("query.hv_fallback"),
        recoveries,
        rolled_back,
    );

    miso_bench::write_report(
        "chaos",
        Value::object(vec![
            ("spec".into(), Value::str(spec.as_str())),
            ("clean".into(), tti_value(&clean)),
            ("faulted".into(), tti_value(&chaotic)),
            ("mismatches".into(), Value::Int(mismatches as i64)),
            ("reorg_recoveries".into(), Value::Int(recoveries as i64)),
            ("reorgs_rolled_back".into(), Value::Int(rolled_back as i64)),
        ]),
    );

    if mismatches > 0 {
        std::process::exit(1);
    }
    println!("chaos: all queries correct under fault injection");
}
