//! The HV store's shared log image: a column parsed once and kept must be
//! indistinguishable from a fresh parse — for answers, row counts, skip
//! counts, simulated costs and harvested outputs — whether it was served
//! warm, parsed cold, extended by an append, or read under a guard.

use miso::common::ids::NodeId;
use miso::common::{pool, Budgets, QueryGuard};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{generate_delta, Corpus, LogFile, LogKind, LogsConfig};
use miso::data::DataType;
use miso::exec::{col, execute_serial, DataSource, Execution, FusedField};
use miso::hv::{HvRun, HvStore, LogBatch};
use miso::plan::split::enumerate_splits;
use miso::plan::LogicalPlan;
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

/// Pool width and the columnar switch are process-global; every test here
/// reads or sets at least one of them, so every test takes this lock.
fn globals_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at the given pool width and columnar setting, then restores both.
fn with_mode<R>(threads: usize, columnar: bool, f: impl FnOnce() -> R) -> R {
    let (was_threads, was_col) = (pool::threads(), col::enabled());
    pool::set_threads(threads);
    col::set_enabled(columnar);
    let out = f();
    pool::set_threads(was_threads);
    col::set_enabled(was_col);
    out
}

const MODES: [(usize, bool); 4] = [(1, false), (1, true), (8, false), (8, true)];

/// Twitter-shaped lines that stress the SerDe: two malformed, a duplicate
/// key, a nested object, one with nearly every field missing, and one whose
/// fields change type (which degrades a typed column to `Mixed`).
fn odd_lines(tag: u64) -> Vec<String> {
    let id = 9_000_000 + tag * 10;
    vec![
        format!(r#"{{"tweet_id": {id}, "user_id": "#),
        format!("not json #{tag}"),
        format!(
            r#"{{"tweet_id": {}, "user_id": 3, "user_id": 5, "ts": 11, "text": "dup coffee", "hashtags": ["coffee"], "retweets": 2, "followers": 40, "lang": "en", "city": "austin", "sentiment": 0.25}}"#,
            id + 1
        ),
        format!(
            r#"{{"tweet_id": {}, "user_id": 4, "place": {{"city": "nowhere"}}, "ts": 12, "text": "nested pizza", "hashtags": [], "retweets": 0, "followers": 7, "lang": "en", "city": "boston", "sentiment": -0.5}}"#,
            id + 2
        ),
        format!(r#"{{"tweet_id": {}}}"#, id + 3),
        format!(
            r#"{{"tweet_id": {}, "user_id": "17", "ts": 13.5, "text": 42, "retweets": "many", "followers": 2.5, "lang": "en", "city": "miami", "sentiment": "meh", "extra": {tag}}}"#,
            id + 4
        ),
    ]
}

/// The tiny corpus with the odd lines mixed into the twitter log.
fn corpus() -> Corpus {
    let mut corpus = Corpus::generate(&LogsConfig::tiny());
    let mut lines = std::mem::take(&mut corpus.twitter.lines);
    let tail = lines.split_off(lines.len() / 2);
    lines.extend(odd_lines(0));
    lines.extend(tail);
    corpus.twitter = LogFile::from_lines(LogKind::Twitter, lines);
    corpus
}

fn store(corpus: &Corpus) -> HvStore {
    let mut hv = HvStore::new();
    hv.add_log(corpus.twitter.clone());
    hv.add_log(corpus.foursquare.clone());
    hv.add_log(corpus.landmarks.clone());
    hv
}

fn workload() -> Vec<(String, LogicalPlan)> {
    let workload = compile_workload(&workload_catalog()).expect("workload compiles");
    assert_eq!(workload.len(), 32);
    workload
}

/// The non-empty HV sides of every split of `plan`.
fn hv_sides(plan: &LogicalPlan) -> Vec<HashSet<NodeId>> {
    enumerate_splits(plan)
        .iter()
        .map(|split| split.hv_nodes().iter().copied().collect::<HashSet<_>>())
        .filter(|side| !side.is_empty())
        .collect()
}

/// Everything an `HvRun` hands on, in comparable form.
fn run_facts(run: &HvRun, plan: &LogicalPlan) -> impl PartialEq {
    let mut rows_out: Vec<_> = plan
        .nodes()
        .iter()
        .map(|n| (n.id, run.execution.rows_out(n.id)))
        .collect();
    rows_out.sort_unstable();
    let mut held: Vec<_> = plan
        .nodes()
        .iter()
        .filter_map(|n| Some((n.id, run.execution.try_output(n.id)?.clone())))
        .collect();
    held.sort_unstable_by_key(|(id, _)| *id);
    let materialized: Vec<_> = run
        .materialized
        .iter()
        .map(|m| (m.node, m.rows.clone(), m.schema.clone(), m.size))
        .collect();
    (
        run.cost,
        run.stage_costs.clone(),
        materialized,
        rows_out,
        held,
        run.execution.skipped_lines,
    )
}

/// What the run still holds must be what the serial interpreter computed.
fn assert_matches_serial(run: &Execution, serial: &Execution, plan: &LogicalPlan, what: &str) {
    for node in plan.nodes() {
        let id = node.id;
        if let Some(n) = run.rows_out(id) {
            assert_eq!(Some(n), serial.rows_out(id), "{what}: rows_out {id}");
        }
        if let Some(rows) = run.try_output(id) {
            assert_eq!(rows, serial.output(id), "{what}: node {id} vs serial");
        }
    }
}

/// 32 templates × every split's HV side × threads {1, 8} × columnar on/off:
/// a store whose image is warm, a store that has never been scanned and the
/// serial interpreter agree on rows and every `rows_out`; cost, stage costs
/// and harvested outputs are identical warm vs cold.
#[test]
fn warm_cold_and_serial_agree_on_every_hv_side() {
    let _globals = globals_lock();
    let corpus = corpus();
    let udfs = standard_udfs();
    let workload = workload();
    let warm = store(&corpus);
    // Warm the image with every field set the workload reads.
    with_mode(8, true, || {
        for (_, plan) in &workload {
            warm.execute(plan, None, &udfs).expect("warming run");
        }
    });
    let kept_when_warm = warm.log_columns_kept("twitter");
    assert!(kept_when_warm > 0, "the workload fuses twitter scans");
    let mut sides = 0usize;
    for (label, plan) in &workload {
        let serial = execute_serial(plan, &warm, &udfs).expect("serial run");
        for side in hv_sides(plan) {
            sides += 1;
            for (threads, columnar) in MODES {
                let what = format!("{label}, HV side {side:?}, {threads} threads, col={columnar}");
                with_mode(threads, columnar, || {
                    let cold = store(&corpus);
                    let cold_run = cold.execute(plan, Some(&side), &udfs).expect("cold run");
                    let warm_run = warm.execute(plan, Some(&side), &udfs).expect("warm run");
                    assert!(
                        run_facts(&warm_run, plan) == run_facts(&cold_run, plan),
                        "{what}: warm vs cold"
                    );
                    assert_matches_serial(&warm_run.execution, &serial, plan, &what);
                    assert_matches_serial(&cold_run.execution, &serial, plan, &what);
                    if !columnar {
                        assert_eq!(cold.log_columns_kept("twitter"), 0, "{what}: row path");
                    }
                });
            }
        }
    }
    assert!(sides > workload.len(), "splits were enumerated");
    assert_eq!(
        warm.log_columns_kept("twitter"),
        kept_when_warm,
        "a warm image parses nothing more"
    );
}

/// The fields the append test asks for: typed, bare, re-cast, one that is
/// absent from every base line, one that turns `Mixed`, one asked twice.
fn probe_fields() -> Vec<FusedField<'static>> {
    let f = |key, ty| FusedField { key, ty };
    vec![
        f("user_id", Some(DataType::Int)),
        f("user_id", None),
        f("city", Some(DataType::Str)),
        f("text", None),
        f("hashtags", None),
        f("retweets", Some(DataType::Int)),
        f("retweets", Some(DataType::Float)),
        f("sentiment", Some(DataType::Float)),
        f("followers", None),
        f("extra", None),
        f("place", None),
        f("user_id", Some(DataType::Int)),
    ]
}

/// After each of three `append_log` batches the extended columns equal
/// those a cold store parses from the grown log — same representation, same
/// `skipped_lines` — and queries answer alike; the appending store parses
/// the appended lines only.
#[test]
fn append_extends_columns_like_a_cold_parse() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let corpus = corpus();
    let udfs = standard_udfs();
    let workload = workload();
    let fields = probe_fields();
    for threads in [1usize, 8] {
        with_mode(threads, true, || {
            let mut grown = store(&corpus);
            let first = grown.log_columns("twitter", &fields).expect("first read");
            assert_eq!(first.cols_hit, 0);
            assert_eq!(first.cols_parsed, fields.len() as u64);
            assert_eq!(first.skipped_lines, 2);
            let mut all_lines = corpus.twitter.lines.clone();
            for batch in 1..=3u64 {
                let mut delta = generate_delta(&cfg, LogKind::Twitter, batch, 40);
                delta.splice(20..20, odd_lines(batch));
                all_lines.extend(delta.iter().cloned());
                let before = grown.log_columns_kept("twitter");
                grown
                    .append_log("twitter", &LogBatch::new(&delta))
                    .expect("append");
                assert_eq!(grown.log_columns_kept("twitter"), before);

                let mut cold_corpus = corpus.clone();
                cold_corpus.twitter = LogFile::from_lines(LogKind::Twitter, all_lines.clone());
                let cold = store(&cold_corpus);
                assert_eq!(grown.log_size("twitter"), cold.log_size("twitter"));
                let what = format!("batch {batch} @ {threads} threads");
                let kept = grown.log_columns("twitter", &fields).expect("kept read");
                let fresh = cold.log_columns("twitter", &fields).expect("cold read");
                assert_eq!(kept.cols_parsed, 0, "{what}: append already extended them");
                assert_eq!(kept.cols_hit, fields.len() as u64, "{what}");
                assert_eq!(kept.batch, fresh.batch, "{what}: columns");
                assert_eq!(kept.skipped_lines, fresh.skipped_lines, "{what}: skips");
                assert_eq!(kept.skipped_lines, 2 + 2 * batch, "{what}: skips");
                for (label, plan) in workload.iter().step_by(3) {
                    let a = grown.execute(plan, None, &udfs).expect("grown run");
                    let b = cold.execute(plan, None, &udfs).expect("cold run");
                    assert!(
                        run_facts(&a, plan) == run_facts(&b, plan),
                        "{what}: {label}"
                    );
                }
            }
        });
    }
}

/// Under an active guard a fused scan charges nothing of its own: answers
/// are those of the unguarded run, the peak charged does not depend on
/// whether the image was warm, and it never exceeds the unfused peak.
#[test]
fn guarded_scans_fuse_and_charge_no_more_than_unfused() {
    let _globals = globals_lock();
    let corpus = corpus();
    let udfs = standard_udfs();
    let warm = store(&corpus);
    let metered = |hv: &HvStore, plan: &LogicalPlan| {
        let meter = QueryGuard::new(None, 0);
        let run = hv
            .execute_guarded(plan, None, &udfs, &meter)
            .expect("metered run");
        assert_eq!(meter.used(), 0, "charges unwind");
        (run_facts(&run, plan), meter.peak())
    };
    let mut lower = 0usize;
    for (label, plan) in &workload() {
        let (unfused_facts, unfused_peak) = with_mode(8, false, || metered(&store(&corpus), plan));
        with_mode(8, true, || {
            let cold = store(&corpus);
            let plain = cold.execute(plan, None, &udfs).expect("unguarded run");
            let (cold_facts, cold_peak) = metered(&store(&corpus), plan);
            let (warm_facts, warm_peak) = metered(&warm, plan);
            let (again_facts, again_peak) = metered(&warm, plan);
            let plain_facts = run_facts(&plain, plan);
            assert!(cold_facts == plain_facts, "{label}: guarded vs unguarded");
            assert!(warm_facts == plain_facts, "{label}: warm guarded");
            assert!(again_facts == plain_facts, "{label}: warm guarded, again");
            assert!(unfused_facts == plain_facts, "{label}: row path");
            assert_eq!(cold_peak, warm_peak, "{label}: peak, cold vs warm");
            assert_eq!(warm_peak, again_peak, "{label}: peak, warm twice");
            assert!(
                warm_peak <= unfused_peak,
                "{label}: fused peak {warm_peak} > unfused peak {unfused_peak}"
            );
            lower += usize::from(warm_peak < unfused_peak);
        });
    }
    assert!(lower > 0, "some template fuses a scan under the guard");
    assert!(warm.log_columns_kept("twitter") > 0, "guarded runs fused");
}

/// The image belongs to the store: a second system over the same `Corpus`
/// starts with nothing parsed, however warm the first one is.
#[test]
fn a_fresh_system_starts_with_an_empty_image() {
    let _globals = globals_lock();
    let was_col = col::enabled();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let total = corpus.total_size();
    let budgets = Budgets::new(total.scale(2.0), total.scale(0.2), total.scale(0.02));
    let system = || {
        MultistoreSystem::new(
            &corpus,
            workload_catalog(),
            standard_udfs(),
            SystemConfig::paper_default(budgets),
        )
    };
    let mut first = system();
    first
        .run_workload(Variant::MsMiso, &workload()[..6])
        .expect("stream runs");
    let kept: usize = ["twitter", "foursquare", "landmarks"]
        .iter()
        .map(|log| first.hv.log_columns_kept(log))
        .sum();
    assert!(kept > 0, "the first system warmed its image");
    let second = system();
    for log in ["twitter", "foursquare", "landmarks"] {
        assert_eq!(second.hv.log_columns_kept(log), 0, "{log}");
    }
    col::set_enabled(was_col);
}

/// One maintenance pass parses a batch once: whoever asks first — the
/// store extending its image, or any of the N views folding the delta —
/// every distinct `(field, cast)` of the batch is parsed exactly once and
/// served from the batch image after that; and the image the append
/// extended is the image a cold store parses from the grown log.
#[test]
fn a_maintained_batch_parses_each_field_once() {
    use miso::core::{MaintAction, MaintenancePolicy};
    let _globals = globals_lock();
    let was_col = col::enabled();
    let cfg = LogsConfig::tiny();
    let corpus = corpus();
    let total = corpus.total_size();
    let budgets = Budgets::new(total.scale(2.0), total.scale(0.2), total.scale(0.02));
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(budgets),
    );
    sys.run_workload(Variant::HvOp, &workload()[..8])
        .expect("stream runs");
    // Columns no view reads are kept, and extended, all the same.
    let fields = probe_fields();
    sys.hv.log_columns("twitter", &fields).expect("probe read");
    let mut clock = miso::common::SimClock::new();
    let mut all_lines = corpus.twitter.lines.clone();
    let mut append = |sys: &mut MultistoreSystem, batch: u64| {
        let mut delta = generate_delta(&cfg, LogKind::Twitter, batch, 60);
        delta.splice(30..30, odd_lines(batch));
        all_lines.extend(delta.iter().cloned());
        sys.append_log(
            LogKind::Twitter,
            &delta,
            MaintenancePolicy::Refresh,
            &mut clock,
        )
        .expect("append")
    };
    // The first batch warms every fold state.
    append(&mut sys, 1);

    miso_obs::init(miso_obs::ObsConfig::ring(1 << 12));
    miso_obs::reset_metrics();
    let report = append(&mut sys, 2);
    let counters = miso_obs::snapshot().counters;
    miso_obs::init(miso_obs::ObsConfig::disabled());
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);

    let folded = report
        .decisions
        .iter()
        .filter(|d| d.action == MaintAction::Delta)
        .count() as u64;
    assert!(folded >= 4, "{folded} views folded the batch");
    assert_eq!(count("maint.delta_applies"), folded);
    // Every field a view's delta plan reads was read off the log when the
    // view was harvested, so the distinct fields of the batch are the
    // log's kept columns — each parsed once, for whoever asked first.
    let kept = sys.hv.log_columns_kept("twitter") as u64;
    assert!(kept > 0);
    assert_eq!(count("maint.delta_cols_parsed"), kept);
    assert!(
        count("maint.delta_cols_served") >= folded,
        "the views' scans were served: {counters:?}"
    );
    assert_eq!(
        count("hv.log_cols_parsed"),
        0,
        "the log itself is not re-read"
    );

    let mut cold_corpus = corpus.clone();
    cold_corpus.twitter = LogFile::from_lines(LogKind::Twitter, all_lines);
    let cold = store(&cold_corpus);
    let kept_cols = sys.hv.log_columns("twitter", &fields).expect("kept read");
    let fresh = cold.log_columns("twitter", &fields).expect("cold read");
    assert_eq!(kept_cols.cols_parsed, 0, "both appends extended them");
    assert_eq!(kept_cols.batch, fresh.batch, "extended image vs cold parse");
    assert_eq!(kept_cols.skipped_lines, fresh.skipped_lines);
    assert_eq!(sys.hv.log_size("twitter"), cold.log_size("twitter"));
    col::set_enabled(was_col);
}
