//! servebench: the miso-serve concurrent-serving benchmark and storm.
//!
//! Three phases, all on the deterministic discrete-event serving engine:
//!
//! 1. **Calibration** — every workload query is executed once, fault-free,
//!    against the boot snapshot to learn the slowest base service time and
//!    the natural peak of guard-charged bytes. The storm's deadline and
//!    memory budget derive from these, exactly as soakbench's do.
//! 2. **Scaling** — the same fault-free arrival trace is replayed with 1
//!    and with 8 simulated worker slots; delivered qps must improve by at
//!    least 3× (the worker pool, not wall-clock threads, is what serving
//!    throughput scales on — the CI box may have one core).
//! 3. **Storm** — 1k+ analyst sessions across tenants (one deliberate hog)
//!    under the combined chaos storm *while the tuner reorganizes online*.
//!    Asserted invariants: the process never aborts (reaching the report is
//!    the proof), every delivered answer is row-identical to the serial
//!    single-client oracle, and every loss is a classified
//!    [`miso_core::QueryFailure`] with tenant/session attribution (sheds
//!    carry `retry_after`).
//!
//! `--smoke` shrinks the session counts for CI. Exits non-zero on any
//! violated invariant; writes `results/servebench.report.json`.

use miso_bench::Harness;
use miso_common::{ByteSize, SimDuration};
use miso_core::GuardConfig;
use miso_data::Value;
use miso_serve::{EpochSnapshot, ServeConfig, ServeEngine, ServeReport, SnapExecutor};
use miso_workload::standard_udfs;
use std::collections::BTreeSet;

/// One seeded storm: DW outages and stalls, HV transient errors and
/// stragglers, memory hogs on both stores, wire and at-rest corruption, and
/// reorg crashes. Unlike soakbench, `hv.execute=error` is included: the
/// serving engine classifies an exhausted HV retry loop as a `transient`
/// loss instead of aborting the stream.
fn storm_spec(seed: u64) -> String {
    format!(
        "seed={seed};dw.execute=error@p0.1;dw.execute=stall@p0.05;dw.execute=hog:4096@p0.1;\
         hv.execute=error@p0.05;hv.execute=delay:1.5@p0.08;hv.execute=stall@p0.04;\
         hv.execute=hog:4096@p0.08;\
         transfer.ship=error@p0.15;transfer.ship=corrupt@p0.1;\
         dw.view_read=corrupt@p0.05;hv.view_read=corrupt@p0.05;\
         reorg.step=crash@p0.1"
    )
}

fn engine(harness: &Harness, cfg: ServeConfig) -> ServeEngine {
    let sys = harness.system(harness.budgets(2.0), None);
    ServeEngine::new(cfg, sys, harness.workload.clone(), standard_udfs())
}

fn report_value(r: &ServeReport) -> Value {
    let tenants = r
        .tenants
        .iter()
        .map(|(name, t)| {
            Value::object(vec![
                ("tenant".into(), Value::str(name.as_str())),
                ("submitted".into(), Value::Int(t.submitted as i64)),
                ("delivered".into(), Value::Int(t.delivered as i64)),
                ("shed".into(), Value::Int(t.shed as i64)),
                ("killed".into(), Value::Int(t.killed as i64)),
                ("p99_s".into(), Value::Float(t.p99.as_secs_f64())),
            ])
        })
        .collect();
    Value::object(vec![
        ("submitted".into(), Value::Int(r.submitted as i64)),
        ("delivered".into(), Value::Int(r.delivered as i64)),
        ("wrong_answers".into(), Value::Int(r.wrong_answers as i64)),
        ("shed".into(), Value::Int(r.shed as i64)),
        ("killed".into(), Value::Int(r.killed as i64)),
        ("drained".into(), Value::Int(r.drained as i64)),
        ("unclassified".into(), Value::Int(r.unclassified as i64)),
        ("hv_fallbacks".into(), Value::Int(r.hv_fallbacks as i64)),
        ("reorgs".into(), Value::Int(r.reorgs as i64)),
        ("reorg_failures".into(), Value::Int(r.reorg_failures as i64)),
        ("final_epoch".into(), Value::Int(r.final_epoch as i64)),
        ("makespan_s".into(), Value::Float(r.makespan.as_secs_f64())),
        ("qps".into(), Value::Float(r.qps)),
        ("p50_s".into(), Value::Float(r.p50.as_secs_f64())),
        ("p99_s".into(), Value::Float(r.p99.as_secs_f64())),
        ("base_runs".into(), Value::Int(r.base_runs as i64)),
        ("tenants".into(), Value::Array(tenants)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if !miso_bench::obs_init() {
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    let harness = Harness::standard();

    // ---- Phase 1: fault-free calibration against the boot snapshot -------
    let sys = harness.system(harness.budgets(2.0), None);
    let snap0 = EpochSnapshot {
        epoch: 0,
        hv: sys.hv.clone(),
        dw: sys.dw.clone(),
        catalog: sys.catalog.clone(),
        transfer: sys.transfer_model().clone(),
    };
    let mut calib = SnapExecutor::new(standard_udfs());
    let none = BTreeSet::new();
    let mut max_service = SimDuration::ZERO;
    let mut total_service = SimDuration::ZERO;
    let mut base_peak = 1u64;
    for (label, plan) in &harness.workload {
        let run = calib
            .run(&snap0, label, plan, &none, false)
            .expect("fault-free base run succeeds");
        max_service = max_service.max(run.service());
        total_service += run.service();
        base_peak = base_peak.max(run.charged_bytes);
    }
    let mean_service = total_service / harness.workload.len() as f64;
    // The deadline clears every clean query with retry/delay headroom but is
    // far under a ×10⁴ stall (which would otherwise pin a worker slot for
    // the whole storm); the budget trips on a ×4096 hog but never on
    // natural usage.
    let deadline = max_service * 10.0;
    let budget = ByteSize::from_bytes(base_peak.saturating_mul(2));
    println!(
        "=== servebench ({}) ===",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "calibration: base runs mean {:.1} s / max {:.1} s, peak {} KiB charged \
         -> deadline {:.1} s, budget {} KiB",
        mean_service.as_secs_f64(),
        max_service.as_secs_f64(),
        base_peak / 1024,
        deadline.as_secs_f64(),
        budget.as_bytes() / 1024,
    );

    // ---- Phase 2: fault-free worker scaling -------------------------------
    // Saturating arrivals (short think times) so throughput is bounded by
    // worker slots, not by the arrival process.
    let scale_sessions = if smoke { 48 } else { 128 };
    let scale_cfg = |workers: usize| ServeConfig {
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
    let r1 = engine(&harness, scale_cfg(1)).run();
    let r8 = engine(&harness, scale_cfg(8)).run();
    let scaling = if r1.qps > 0.0 { r8.qps / r1.qps } else { 0.0 };
    println!(
        "scaling: {} sessions fault-free: 1 worker {:.3} qps, 8 workers {:.3} qps -> {:.2}x",
        scale_sessions, r1.qps, r8.qps, scaling
    );
    let mut scaling_violations = 0usize;
    for (workers, r) in [(1usize, &r1), (8usize, &r8)] {
        if r.delivered != r.submitted || r.wrong_answers != 0 {
            eprintln!(
                "servebench: fault-free {workers}-worker run must deliver everything \
                 correctly: {}/{} delivered, {} wrong",
                r.delivered, r.submitted, r.wrong_answers
            );
            scaling_violations += 1;
        }
    }
    if scaling < 3.0 {
        eprintln!("servebench: 8-worker qps only {scaling:.2}x of 1-worker (need >= 3x)");
        scaling_violations += 1;
    }

    // ---- Phase 3: the multi-tenant storm with online reorg ----------------
    let storm_sessions: u64 = if smoke { 96 } else { 1024 };
    let workers = 8usize;
    // Size the think time so the fault-free offered load sits at ~70% of
    // worker capacity; the ×8 hog tenant and the storm's stalls/retries are
    // what push the server into genuine (shed-worthy) overload.
    let think = mean_service * (storm_sessions as f64 / (workers as f64 * 0.7));
    let storm_cfg = ServeConfig {
        workers,
        sessions: storm_sessions,
        tenants: 8,
        queries_per_session: 2,
        seed: 23,
        mean_think: think,
        reorg_every: if smoke { 40 } else { 250 },
        // A drain window shorter than a deadline-bound straggler, so reorg
        // publishes exercise the bounded-drain kill path.
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
    let plan = miso_chaos::parse_spec(&storm_spec(2_000)).expect("storm spec parses");
    miso_chaos::install(plan);
    let storm = engine(&harness, storm_cfg).run();
    miso_chaos::disable();

    println!(
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
    println!(
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
    for (tenant, t) in &storm.tenants {
        println!(
            "  {tenant}: {:4} submitted, {:4} delivered, {:4} shed, {:3} killed, \
             p99 {:.1} s",
            t.submitted,
            t.delivered,
            t.shed,
            t.killed,
            t.p99.as_secs_f64()
        );
    }

    let mut storm_violations = 0usize;
    if storm.wrong_answers != 0 {
        eprintln!(
            "servebench: {} delivered answers diverged from the serial oracle",
            storm.wrong_answers
        );
        storm_violations += 1;
    }
    if storm.unclassified != 0 {
        eprintln!(
            "servebench: {} losses carry no failure record",
            storm.unclassified
        );
        storm_violations += 1;
    }
    for f in &storm.failures {
        if f.kind.is_empty()
            || f.tenant.is_none()
            || f.session.is_none()
            || (f.shed && f.retry_after.is_none())
        {
            eprintln!(
                "servebench: incompletely classified loss for {}: kind={:?} tenant={:?} \
                 session={:?} shed={} retry_after={:?}",
                f.label, f.kind, f.tenant, f.session, f.shed, f.retry_after
            );
            storm_violations += 1;
        }
    }
    if storm.delivered == 0 {
        eprintln!("servebench: storm delivered nothing — the server starved");
        storm_violations += 1;
    }
    if storm.reorgs == 0 && storm.reorg_failures == 0 {
        eprintln!("servebench: storm never attempted an online reorg");
        storm_violations += 1;
    }
    // Fairness: the hog tenant must not starve the others — every non-hog
    // tenant keeps a delivered majority of its submissions.
    for (tenant, t) in &storm.tenants {
        if tenant != "t0" && t.submitted > 0 && (t.delivered as f64) < 0.5 * t.submitted as f64 {
            eprintln!(
                "servebench: tenant {tenant} starved: {}/{} delivered",
                t.delivered, t.submitted
            );
            storm_violations += 1;
        }
    }

    miso_bench::write_report(
        "servebench",
        Value::object(vec![
            ("smoke".into(), Value::Bool(smoke)),
            ("deadline_s".into(), Value::Float(deadline.as_secs_f64())),
            ("budget_bytes".into(), Value::Int(budget.as_bytes() as i64)),
            (
                "configs".into(),
                Value::Array(vec![Value::object(vec![
                    ("name".into(), Value::str("worker-scaling")),
                    ("sessions".into(), Value::Int(scale_sessions as i64)),
                    ("qps_1".into(), Value::Float(r1.qps)),
                    ("qps_8".into(), Value::Float(r8.qps)),
                    ("speedup".into(), Value::Float(scaling)),
                ])]),
            ),
            ("storm".into(), report_value(&storm)),
        ]),
    );

    if scaling_violations + storm_violations > 0 {
        eprintln!(
            "servebench: FAILED ({scaling_violations} scaling violations, \
             {storm_violations} storm violations)"
        );
        std::process::exit(1);
    }
    println!(
        "servebench: survived — no aborts, no wrong answers, all losses classified, \
         {scaling:.2}x worker scaling"
    );
}
