//! The fault-path figures: the 32-query stream and the serving loop under
//! seeded fault storms. Each runs a fault-free reference first and writes,
//! last, its verdict: one line when every invariant held, else one line per
//! broken invariant, so a broken one is a diff against `results/`.
//!
//! Every render installs the process's fault plan and reads the process's
//! counters, which it zeroes first; renders in one process run one at a
//! time.

use super::{Figure, Text};
use crate::{ks, obj, tti_value, Harness};
use miso_common::{ByteSize, SimDuration};
use miso_core::{AuditConfig, ExperimentResult, GuardConfig, SystemConfig, Variant::MsMiso};
use miso_data::Value;
use miso_serve::{EpochSnapshot, ServeConfig, ServeEngine, ServeReport, SnapExecutor};
use miso_workload::standard_udfs;
use std::collections::{BTreeSet, HashMap};

/// `chaos`'s storm: a hard DW outage (the first 25 calls fail — long enough
/// to exhaust retries and trip the circuit breaker), then intermittent DW
/// and transfer failures, HV stragglers and crashes between reorg steps. No
/// error at `hv.execute`: HV is the fallback store, so an unlucky streak
/// there is the one thing that *should* fail a query.
const CHAOS_SPEC: &str = "seed=42;dw.execute=error@u25;dw.execute=error@p0.2;\
                          transfer.ship=error@p0.25;hv.execute=delay:1.5@p0.1;\
                          reorg.step=crash@p0.15";

/// `integrity`'s bit-rot storm: stored view copies silently corrupted on
/// read in both stores, plus in-flight corruption of shipped working sets
/// and reorg staging copies.
const INTEGRITY_SPEC: &str = "seed=1337;dw.view_read=corrupt@p0.15;\
                              hv.view_read=corrupt@p0.1;transfer.ship=corrupt@p0.1;\
                              reorg.step=corrupt@p0.1";

/// Epochs of `soakbench`'s storm, each under its own seed.
const SOAK_EPOCHS: u64 = 2;

/// One guarded storm: DW outages and stalls, HV stragglers, memory hogs on
/// both stores, wire and at-rest corruption, reorg crashes. `hv_errors`
/// adds transient HV errors: the serving loop classifies an exhausted HV
/// retry loop as a loss, where the stream driver would abort.
fn storm_spec(seed: u64, hv_errors: bool) -> String {
    let hv_error = if hv_errors {
        "hv.execute=error@p0.05;"
    } else {
        ""
    };
    format!(
        "seed={seed};dw.execute=error@p0.1;dw.execute=stall@p0.05;dw.execute=hog:4096@p0.1;\
         {hv_error}hv.execute=delay:1.5@p0.08;hv.execute=stall@p0.04;hv.execute=hog:4096@p0.08;\
         transfer.ship=error@p0.15;transfer.ship=corrupt@p0.1;\
         dw.view_read=corrupt@p0.05;hv.view_read=corrupt@p0.05;\
         reorg.step=crash@p0.1"
    )
}

/// Metrics on (a ring sink, as `MISO_OBS=1` installs, unless observability
/// is on already) and every counter at zero.
fn metrics_from_zero() {
    if !miso_obs::enabled() {
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    miso_obs::reset_metrics();
}

/// Runs `f` under the fault plan `spec`; no plan is installed after.
fn under<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    miso_chaos::install(miso_chaos::parse_spec(spec).expect("the storm's spec parses"));
    let out = f();
    miso_chaos::disable();
    out
}

/// The counters as they stand now, by name (0 when never counted).
fn counters() -> impl Fn(&str) -> u64 {
    let snap = miso_obs::snapshot();
    move |name| snap.counters.get(name).copied().unwrap_or(0)
}

/// The verdict: `ok` when nothing is broken, else one line per violation.
fn verdict(t: &mut Text, name: &str, violations: &[String], ok: &str) {
    if violations.is_empty() {
        writeln!(t, "{name}: {ok}");
    }
    for v in violations {
        writeln!(t, "{name}: {v}");
    }
}

/// Writes both runs' TTI and how many queries completed, and returns where
/// `faulted` answered other than `clean`: a query whose row count moved, and
/// queries that never completed.
fn compare(
    t: &mut Text,
    clean: &ExperimentResult,
    faulted: &ExperimentResult,
    under: &str,
) -> Vec<String> {
    let pairs = clean.records.iter().zip(&faulted.records);
    let mut diffs: Vec<String> = (pairs.filter(|(c, f)| c.result_rows != f.result_rows))
        .map(|(c, f)| {
            let (label, rows) = (&f.label, f.result_rows);
            format!(
                "{label} returned {rows} rows {under}, {} clean",
                c.result_rows
            )
        })
        .collect();
    let (done, all) = (faulted.records.len(), clean.records.len());
    if done != all {
        diffs.push(format!("{done} of {all} queries completed"));
    }
    let (c, f) = (clean.tti_total(), faulted.tti_total());
    let pct = 100.0 * (f.as_secs_f64() / c.as_secs_f64() - 1.0);
    writeln!(
        t,
        "clean TTI: {:8.1} ks   {under}: {:8.1} ks ({pct:+.1}%)",
        ks(c),
        ks(f)
    );
    let mismatches = diffs.len();
    writeln!(
        t,
        "queries: {done}/{all} completed, {mismatches} result mismatches"
    );
    diffs
}

/// Chaos: the stream (MS-MISO, 2×) clean and under [`CHAOS_SPEC`]. Every
/// query must complete with the clean answer, and crash-interrupted
/// reorganizations must recover.
pub(super) fn chaos(h: &Harness) -> Figure {
    metrics_from_zero();
    let clean = h.run(MsMiso, 2.0);
    let run = under(CHAOS_SPEC, || {
        h.system(h.budgets(2.0), None)
            .run_workload(MsMiso, &h.workload)
    });
    let mut t = Text::default();
    writeln!(t, "=== Chaos run (MS-MISO, 2x budgets, 32 queries) ===");
    writeln!(t, "spec: {CHAOS_SPEC}");
    let faulted = match run {
        Ok(faulted) => faulted,
        Err(e) => {
            writeln!(t, "chaos: the workload failed: {e}");
            return Figure::new(t, Value::Null);
        }
    };
    let violations = compare(&mut t, &clean, &faulted, "under faults");
    let recoveries: u64 = faulted.reorgs.iter().map(|r| r.recoveries).sum();
    let rolled_back = faulted.reorgs.iter().filter(|r| r.rolled_back).count();
    let counter = counters();
    writeln!(
        t,
        "injected: {} errors, {} delays, {} crashes",
        counter("chaos.errors_injected"),
        counter("chaos.delays_injected"),
        counter("chaos.crashes_injected"),
    );
    writeln!(
        t,
        "handled: {} retries, {} circuit opens, {} HV fallbacks, \
         {recoveries} reorg recoveries ({rolled_back} rolled back)",
        counter("store.retries"),
        counter("store.circuit_open"),
        counter("query.hv_fallback"),
    );
    verdict(
        &mut t,
        "chaos",
        &violations,
        "all queries correct under fault injection",
    );
    let report = obj([
        ("spec", Value::str(CHAOS_SPEC)),
        ("clean", tti_value(&clean)),
        ("faulted", tti_value(&faulted)),
        ("mismatches", Value::Int(violations.len() as i64)),
        ("reorg_recoveries", Value::Int(recoveries as i64)),
        ("reorgs_rolled_back", Value::Int(rolled_back as i64)),
    ]);
    Figure::new(t, report)
}

/// Integrity: the stream (MS-MISO, 2×) with verify-on-read and the counting
/// auditor on, clean and under [`INTEGRITY_SPEC`]. Every query must return
/// the clean answer (corrupt views are quarantined, never served), and
/// corruption must be detected and repaired.
pub(super) fn integrity(h: &Harness) -> Figure {
    metrics_from_zero();
    // The same posture for both runs, so the clean run also shows that
    // verifying changes no answer.
    let system = || {
        let mut config = SystemConfig::paper_default(h.budgets(2.0));
        config.verify_on_read = true;
        config.audit = Some(AuditConfig::counting(h.hv_base()));
        h.system_with(config)
    };
    let clean = system()
        .run_workload(MsMiso, &h.workload)
        .expect("clean run");
    let clean_failures = counters()("integrity.checksum_failures");
    let run = under(INTEGRITY_SPEC, || {
        system().run_workload(MsMiso, &h.workload)
    });
    let mut t = Text::default();
    writeln!(t, "=== Integrity run (MS-MISO, 2x budgets, 32 queries) ===");
    writeln!(t, "spec: {INTEGRITY_SPEC}");
    let corrupted = match run {
        Ok(corrupted) => corrupted,
        Err(e) => {
            writeln!(t, "integrity: the workload failed: {e}");
            return Figure::new(t, Value::Null);
        }
    };
    let mut violations = compare(&mut t, &clean, &corrupted, "under corruption");
    let mismatches = violations.len();
    let counter = counters();
    let tuner_repairs: usize = corrupted.reorgs.iter().map(|r| r.repaired.len()).sum();
    let [injected, failures, quarantined, repaired, fallbacks, violated] = [
        "chaos.corruptions_injected",
        "integrity.checksum_failures",
        "integrity.quarantined",
        "integrity.repaired",
        "query.view_fallback",
        "audit.violations",
    ]
    .map(&counter);
    writeln!(
        t,
        "injected: {injected} corruptions   detected: {failures} checksum failures \
         (clean run: {clean_failures})"
    );
    writeln!(
        t,
        "handled: {quarantined} quarantined, {repaired} repaired ({tuner_repairs} by the tuner), \
         {fallbacks} view fallbacks, {} re-ships",
        counter("transfer.reshipped"),
    );
    writeln!(
        t,
        "audit: {} passes, {} views scrubbed, {violated} violations",
        counter("audit.passes"),
        counter("audit.views_scrubbed"),
    );
    if clean_failures > 0 {
        violations.push(format!(
            "clean run reported {clean_failures} checksum failures"
        ));
    }
    if failures == 0 {
        violations.push("corruption was injected but never detected".into());
    }
    if repaired == 0 {
        violations.push("views were quarantined but never repaired".into());
    }
    if violated > 0 {
        violations.push(format!("auditor found {violated} invariant violations"));
    }
    verdict(
        &mut t,
        "integrity",
        &violations,
        "all queries correct under silent corruption",
    );
    let int = |n: u64| Value::Int(n as i64);
    let report = obj([
        ("spec", Value::str(INTEGRITY_SPEC)),
        ("clean", tti_value(&clean)),
        ("corrupted", tti_value(&corrupted)),
        ("mismatches", Value::Int(mismatches as i64)),
        ("corruptions_injected", int(injected)),
        ("checksum_failures", int(failures)),
        ("quarantined", int(quarantined)),
        ("repaired", int(repaired)),
        ("tuner_repairs", Value::Int(tuner_repairs as i64)),
        ("view_fallbacks", int(fallbacks)),
        ("audit_violations", int(violated)),
    ]);
    Figure::new(t, report)
}

/// Soak: the stream (MS-MISO, 2×) for [`SOAK_EPOCHS`] epochs under a guarded
/// storm, read-time verification on. Deadline and memory budget come from a
/// fault-free, observe-only run, so the storm's ×10⁴ stalls and ×4096 hogs
/// trip guards while ordinary queries clear them. No epoch may abort, a
/// completed query must answer as the clean run did, every loss must be
/// classified (sheds with a `retry_after`), and the charged peak must stay
/// within the budget (an over-budget charge is refused, not recorded).
pub(super) fn soakbench(h: &Harness) -> Figure {
    metrics_from_zero();
    let mut cfg = SystemConfig::paper_default(h.budgets(2.0));
    cfg.guard = GuardConfig {
        enabled: true,
        ..GuardConfig::disabled()
    };
    let mut sys = h.system_with(cfg);
    let clean = sys
        .run_workload(MsMiso, &h.workload)
        .expect("fault-free run succeeds");
    assert!(
        clean.failures.is_empty(),
        "observe-only guards must kill nothing"
    );
    let clean_rows: HashMap<&str, u64> = (clean.records.iter())
        .map(|r| (r.label.as_str(), r.result_rows))
        .collect();
    let base_peak = sys.guard_peak_bytes().max(1);
    let max_exec = (clean.records.iter().map(|r| r.exec_total()))
        .max()
        .expect("non-empty workload");
    // Headroom over the slowest clean query for delays and retry backoffs,
    // far under a ×10⁴ stall; twice the natural peak, so a hog on any
    // substantial query trips it.
    let deadline = max_exec * 100.0;
    let budget = ByteSize::from_bytes(base_peak.saturating_mul(2));

    let mut t = Text::default();
    writeln!(
        t,
        "=== Soak storm (MS-MISO, 2x budgets, {SOAK_EPOCHS} epochs) ==="
    );
    writeln!(
        t,
        "calibration: peak {} KiB charged, slowest query {:.1} s \
         -> deadline {:.1} s, budget {} KiB",
        base_peak / 1024,
        max_exec.as_secs_f64(),
        deadline.as_secs_f64(),
        budget.as_bytes() / 1024,
    );
    let mut violations = Vec::new();
    let (mut aborts, mut mismatches, mut unclassified, mut breaches) = (0, 0, 0, 0);
    let (mut completed, mut failed, mut shed, mut peak_overall) = (0, 0, 0, 0);
    let mut epochs = Vec::new();
    for epoch in 0..SOAK_EPOCHS {
        let spec = storm_spec(1_000 + epoch, false);
        let mut cfg = SystemConfig::paper_default(h.budgets(2.0));
        cfg.verify_on_read = true;
        cfg.guard = GuardConfig {
            enabled: true,
            deadline: Some(deadline),
            mem_budget: budget,
            max_inflight: 1,
            shed_threshold: 3,
            shed_cooldown: deadline,
        };
        let (sys, outcome) = under(&spec, || {
            let mut sys = h.system_with(cfg);
            let outcome = sys.run_workload(MsMiso, &h.workload);
            (sys, outcome)
        });
        let result = match outcome {
            Ok(result) => result,
            Err(e) => {
                violations.push(format!("epoch {epoch} aborted: {e}"));
                aborts += 1;
                continue;
            }
        };
        let mut wrong = 0;
        for r in &result.records {
            let want = clean_rows.get(r.label.as_str()).copied();
            if want != Some(r.result_rows) {
                violations.push(format!(
                    "epoch {epoch}: {} returned {} rows under storm, {} clean",
                    r.label,
                    r.result_rows,
                    want.unwrap_or(0)
                ));
                wrong += 1;
            }
        }
        let (done, lost) = (result.records.len(), result.failures.len());
        if done + lost != h.workload.len() {
            let all = h.workload.len();
            violations.push(format!(
                "epoch {epoch}: {done} completed + {lost} failed != {all} queries"
            ));
            unclassified += 1;
        }
        for f in &result.failures {
            if f.kind.is_empty() || (f.shed && f.retry_after.is_none()) {
                violations.push(format!(
                    "epoch {epoch}: unclassified failure for {}: kind={:?} shed={} \
                     retry_after={:?}",
                    f.label, f.kind, f.shed, f.retry_after
                ));
                unclassified += 1;
            }
        }
        let peak = sys.guard_peak_bytes();
        if peak > budget.as_bytes() {
            let limit = budget.as_bytes();
            violations.push(format!(
                "epoch {epoch}: peak {peak} B exceeds budget {limit} B"
            ));
            breaches += 1;
        }
        let epoch_shed = result.failures.iter().filter(|f| f.shed).count();
        writeln!(
            t,
            "epoch {epoch}: {done:2} completed, {lost:2} killed ({epoch_shed} shed), \
             {wrong} mismatches, peak {} KiB, TTI {:8.1} ks",
            peak / 1024,
            ks(result.tti_total()),
        );
        mismatches += wrong;
        completed += done;
        failed += lost;
        shed += epoch_shed;
        peak_overall = peak_overall.max(peak);
        epochs.push(obj([
            ("epoch", Value::Int(epoch as i64)),
            ("spec", Value::str(spec)),
            ("completed", Value::Int(done as i64)),
            ("failed", Value::Int(lost as i64)),
            ("shed", Value::Int(epoch_shed as i64)),
            ("mismatches", Value::Int(wrong as i64)),
            ("peak_bytes", Value::Int(peak as i64)),
            ("tti", tti_value(&result)),
        ]));
    }
    let counter = counters();
    writeln!(
        t,
        "storm totals: {completed} completed, {failed} killed ({shed} shed), \
         peak {} KiB / budget {} KiB",
        peak_overall / 1024,
        budget.as_bytes() / 1024,
    );
    writeln!(
        t,
        "guard: {} admitted, {} shed, {} cancelled, {} deadline, {} mem",
        counter("guard.admitted"),
        counter("guard.shed"),
        counter("guard.cancelled"),
        counter("guard.deadline_exceeded"),
        counter("guard.mem_exceeded"),
    );
    writeln!(
        t,
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
    verdict(
        &mut t,
        "soakbench",
        &violations,
        "storm survived — no aborts, no wrong answers, all losses classified",
    );
    let int = |n: usize| Value::Int(n as i64);
    let report = obj([
        ("epochs", Value::Int(SOAK_EPOCHS as i64)),
        ("deadline_s", Value::Float(deadline.as_secs_f64())),
        ("budget_bytes", Value::Int(budget.as_bytes() as i64)),
        ("aborts", int(aborts)),
        ("mismatches", int(mismatches)),
        ("unclassified", int(unclassified)),
        ("budget_breaches", int(breaches)),
        ("completed", int(completed)),
        ("failed", int(failed)),
        ("shed", int(shed)),
        ("peak_bytes", Value::Int(peak_overall as i64)),
        ("clean", tti_value(&clean)),
        ("epochs_detail", Value::Array(epochs)),
    ]);
    Figure::new(t, report)
}

/// A serving engine over a fresh 2× system.
fn engine(h: &Harness, cfg: ServeConfig) -> ServeEngine {
    let sys = h.system(h.budgets(2.0), None);
    ServeEngine::new(cfg, sys, h.workload.clone(), standard_udfs())
}

/// A serving run's report object.
fn serve_value(r: &ServeReport) -> Value {
    let int = |n: u64| Value::Int(n as i64);
    let secs = |d: SimDuration| Value::Float(d.as_secs_f64());
    let tenants = (r.tenants.iter())
        .map(|(name, t)| {
            obj([
                ("tenant", Value::str(name.as_str())),
                ("submitted", int(t.submitted)),
                ("delivered", int(t.delivered)),
                ("shed", int(t.shed)),
                ("killed", int(t.killed)),
                ("p99_s", secs(t.p99)),
            ])
        })
        .collect();
    obj([
        ("submitted", int(r.submitted)),
        ("delivered", int(r.delivered)),
        ("wrong_answers", int(r.wrong_answers)),
        ("shed", int(r.shed)),
        ("killed", int(r.killed)),
        ("drained", int(r.drained)),
        ("unclassified", int(r.unclassified)),
        ("hv_fallbacks", int(r.hv_fallbacks)),
        ("reorgs", int(r.reorgs)),
        ("reorg_failures", int(r.reorg_failures)),
        ("final_epoch", int(r.final_epoch)),
        ("makespan_s", secs(r.makespan)),
        ("qps", Value::Float(r.qps)),
        ("p50_s", secs(r.p50)),
        ("p99_s", secs(r.p99)),
        ("base_runs", Value::Int(r.base_runs as i64)),
        ("tenants", Value::Array(tenants)),
    ])
}

/// Serving: the discrete-event serving loop in three phases. Calibration
/// runs every query once against the boot snapshot, fault-free, for the
/// storm's deadline and budget. Scaling replays one fault-free arrival
/// trace at 1 and 8 simulated worker slots: both must deliver everything
/// correctly, and 8 slots at least 3× the qps. The storm is 96 sessions
/// over 8 tenants (`t0` the hog) under a guarded storm while the tuner
/// reorganizes online: every delivered answer must equal the serial
/// oracle's, every loss must be classified with tenant and session, and no
/// tenant but the hog may deliver less than half of what it submitted.
pub(super) fn servebench(h: &Harness) -> Figure {
    metrics_from_zero();
    let sys = h.system(h.budgets(2.0), None);
    let snap0 = EpochSnapshot {
        epoch: 0,
        hv: sys.hv.clone(),
        dw: sys.dw.clone(),
        catalog: sys.catalog.clone(),
        transfer: sys.transfer_model().clone(),
    };
    let mut calib = SnapExecutor::new(standard_udfs());
    let none = BTreeSet::new();
    let (mut max_service, mut total_service) = (SimDuration::ZERO, SimDuration::ZERO);
    let mut base_peak = 1u64;
    for (label, plan) in &h.workload {
        let run = calib
            .run(&snap0, label, plan, &none, false)
            .expect("fault-free base run succeeds");
        max_service = max_service.max(run.service());
        total_service += run.service();
        base_peak = base_peak.max(run.charged_bytes);
    }
    let mean_service = total_service / h.workload.len() as f64;
    // Clears every clean query with retry and delay headroom, but is far
    // under a ×10⁴ stall, which would pin a worker slot for the whole storm.
    let deadline = max_service * 10.0;
    let budget = ByteSize::from_bytes(base_peak.saturating_mul(2));
    let mut t = Text::default();
    writeln!(t, "=== servebench (smoke) ===");
    writeln!(
        t,
        "calibration: base runs mean {:.1} s / max {:.1} s, peak {} KiB charged \
         -> deadline {:.1} s, budget {} KiB",
        mean_service.as_secs_f64(),
        max_service.as_secs_f64(),
        base_peak / 1024,
        deadline.as_secs_f64(),
        budget.as_bytes() / 1024,
    );

    // Short think times, so worker slots and not arrivals bound throughput.
    let scale_sessions = 48;
    let scale_cfg = |workers| ServeConfig {
        workers,
        sessions: scale_sessions,
        tenants: 4,
        queries_per_session: 2,
        seed: 11,
        mean_think: SimDuration::from_secs(1),
        reorg_every: 0,
        drain: deadline,
        guard: GuardConfig::disabled(),
        ..ServeConfig::standard()
    };
    let (r1, r8) = (engine(h, scale_cfg(1)).run(), engine(h, scale_cfg(8)).run());
    let scaling = if r1.qps > 0.0 { r8.qps / r1.qps } else { 0.0 };
    writeln!(
        t,
        "scaling: {scale_sessions} sessions fault-free: 1 worker {:.3} qps, \
         8 workers {:.3} qps -> {scaling:.2}x",
        r1.qps, r8.qps
    );
    let mut violations = Vec::new();
    for (workers, r) in [(1, &r1), (8, &r8)] {
        if r.delivered != r.submitted || r.wrong_answers != 0 {
            violations.push(format!(
                "fault-free {workers}-worker run: {}/{} delivered, {} wrong",
                r.delivered, r.submitted, r.wrong_answers
            ));
        }
    }
    if scaling < 3.0 {
        violations.push(format!(
            "8-worker qps only {scaling:.2}x of 1-worker (need >= 3x)"
        ));
    }

    let (sessions, workers) = (96, 8);
    // Fault-free offered load at ~70 % of worker capacity; the ×8 hog
    // tenant and the storm's stalls and retries push it into overload.
    let think = mean_service * (sessions as f64 / (workers as f64 * 0.7));
    let storm_cfg = ServeConfig {
        workers,
        sessions,
        tenants: 8,
        queries_per_session: 2,
        seed: 23,
        mean_think: think,
        reorg_every: 40,
        // Shorter than a deadline-bound straggler, so publishes exercise
        // the bounded-drain kill path.
        drain: max_service * 2.0,
        queue_cap: 16,
        tenant_inflight_cap: 6,
        guard: GuardConfig {
            enabled: true,
            deadline: Some(deadline),
            mem_budget: budget,
            max_inflight: 64,
            shed_threshold: 5,
            shed_cooldown: max_service,
        },
        hog_factor: 8.0,
        ..ServeConfig::standard()
    };
    let storm = under(&storm_spec(2_000, true), || engine(h, storm_cfg).run());
    writeln!(
        t,
        "storm: {} submitted / {} delivered / {} shed / {} killed ({} drained), \
         {} wrong, {} unclassified",
        storm.submitted,
        storm.delivered,
        storm.shed,
        storm.killed,
        storm.drained,
        storm.wrong_answers,
        storm.unclassified,
    );
    writeln!(
        t,
        "storm: {} reorgs published ({} abandoned), final epoch {}, {} hv fallbacks, \
         {} base runs; {:.3} qps, p50 {:.1} s, p99 {:.1} s",
        storm.reorgs,
        storm.reorg_failures,
        storm.final_epoch,
        storm.hv_fallbacks,
        storm.base_runs,
        storm.qps,
        storm.p50.as_secs_f64(),
        storm.p99.as_secs_f64(),
    );
    for (tenant, s) in &storm.tenants {
        writeln!(
            t,
            "  {tenant}: {:4} submitted, {:4} delivered, {:4} shed, {:3} killed, p99 {:.1} s",
            s.submitted,
            s.delivered,
            s.shed,
            s.killed,
            s.p99.as_secs_f64()
        );
        if tenant != "t0" && s.submitted > 0 && (s.delivered as f64) < 0.5 * s.submitted as f64 {
            let (got, sent) = (s.delivered, s.submitted);
            violations.push(format!("tenant {tenant} starved: {got}/{sent} delivered"));
        }
    }
    if storm.wrong_answers != 0 {
        let n = storm.wrong_answers;
        violations.push(format!("{n} delivered answers diverged from the oracle"));
    }
    if storm.unclassified != 0 {
        let n = storm.unclassified;
        violations.push(format!("{n} losses carry no failure record"));
    }
    for f in &storm.failures {
        let attributed = f.tenant.is_some() && f.session.is_some();
        if f.kind.is_empty() || !attributed || (f.shed && f.retry_after.is_none()) {
            violations.push(format!(
                "incompletely classified loss for {}: kind={:?} tenant={:?} session={:?} \
                 shed={} retry_after={:?}",
                f.label, f.kind, f.tenant, f.session, f.shed, f.retry_after
            ));
        }
    }
    if storm.delivered == 0 {
        violations.push("the storm delivered nothing".into());
    }
    if storm.reorgs == 0 && storm.reorg_failures == 0 {
        violations.push("the storm never attempted an online reorg".into());
    }
    let ok = format!(
        "survived — no aborts, no wrong answers, all losses classified, \
         {scaling:.2}x worker scaling"
    );
    verdict(&mut t, "servebench", &violations, &ok);
    let report = obj([
        ("deadline_s", Value::Float(deadline.as_secs_f64())),
        ("budget_bytes", Value::Int(budget.as_bytes() as i64)),
        (
            "configs",
            Value::Array(vec![obj([
                ("name", Value::str("worker-scaling")),
                ("sessions", Value::Int(scale_sessions as i64)),
                ("qps_1", Value::Float(r1.qps)),
                ("qps_8", Value::Float(r8.qps)),
                ("speedup", Value::Float(scaling)),
            ])]),
        ),
        ("storm", serve_value(&storm)),
    ]);
    Figure::new(t, report)
}
