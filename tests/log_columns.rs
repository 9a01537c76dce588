//! The HV store's shared log image: a column parsed once and kept must be
//! indistinguishable from a fresh parse — for answers, row counts, skip
//! counts, simulated costs and harvested outputs — whether it was served
//! warm, parsed cold, extended by an append, or read under a guard.

use miso::common::ids::NodeId;
use miso::common::{pool, Budgets, QueryGuard};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::json::{parse_json, MAX_DEPTH};
use miso::data::logs::{generate_delta, Corpus, LogFile, LogKind, LogsConfig};
use miso::data::{checksum_rows, DataType, Row, Value};
use miso::exec::engine::execute;
use miso::exec::{execute_serial, DataSource, Execution, FusedField, Udf, UdfRegistry};
use miso::hv::{HvRun, HvStore, LogBatch};
use miso::plan::split::enumerate_splits;
use miso::plan::{LogicalPlan, Operator};
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use miso_obs::{Event, EventKind, FieldValue, RingSink};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

/// The pool width is process-global; every test here reads or sets it, so
/// every test takes this lock.
fn globals_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at the given pool width, then restores it.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let was = pool::threads();
    pool::set_threads(threads);
    let out = f();
    pool::set_threads(was);
    out
}

const THREADS: [usize; 2] = [1, 8];

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

/// How many distinct top-level keys the well-formed object lines of `lines`
/// have: the raw columns a store keeps of such a log once it has read it.
fn log_keys(lines: &[String]) -> usize {
    let mut keys = HashSet::new();
    for doc in lines.iter().filter_map(|line| parse_json(line).ok()) {
        if let Value::Object(members) = doc {
            keys.extend(members.into_iter().map(|(key, _)| key));
        }
    }
    keys.len()
}

/// The tiny corpus with the odd lines mixed into the twitter log.
fn corpus() -> Corpus {
    let mut corpus = Corpus::generate(&LogsConfig::tiny());
    let mut lines = corpus.twitter.lines.to_vec();
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
        .map(|m| (m.node, m.batch.to_rows(), m.schema.clone(), m.size))
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

/// 32 templates × every split's HV side × threads {1, 8}: a store whose image is warm, a store that has never been scanned and the
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
    with_threads(8, || {
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
            for threads in THREADS {
                let what = format!("{label}, HV side {side:?}, {threads} threads");
                with_threads(threads, || {
                    let cold = store(&corpus);
                    let cold_run = cold.execute(plan, Some(&side), &udfs).expect("cold run");
                    let warm_run = warm.execute(plan, Some(&side), &udfs).expect("warm run");
                    assert!(
                        run_facts(&warm_run, plan) == run_facts(&cold_run, plan),
                        "{what}: warm vs cold"
                    );
                    assert_matches_serial(&warm_run.execution, &serial, plan, &what);
                    assert_matches_serial(&cold_run.execution, &serial, plan, &what);
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

/// Turns observability on with a ring sink the caller can read back.
fn obs_ring_on() -> Arc<RingSink> {
    let ring = Arc::new(RingSink::new(1 << 16));
    miso_obs::init(miso_obs::ObsConfig::ring(16));
    miso_obs::set_sink(ring.clone());
    miso_obs::reset_metrics();
    ring
}

/// `(log scans served from a column image, log scans that parsed rows)`:
/// a fused `ScanLog` span says how its columns were come by, a row-path one
/// has nothing to say.
fn log_scans(events: &[Event]) -> (usize, usize) {
    fn field<'e>(e: &'e Event, key: &str) -> Option<&'e FieldValue> {
        e.fields.iter().find(|(k, _)| *k == key).map(|f| &f.1)
    }
    let scans = events.iter().filter(|e| {
        e.kind == EventKind::SpanEnd
            && e.name == "exec.op"
            && matches!(field(e, "op"), Some(FieldValue::Str(op)) if op.starts_with("ScanLog("))
    });
    let (fused, rows): (Vec<_>, Vec<_>) = scans.partition(|e| field(e, "cols_parsed").is_some());
    (fused.len(), rows.len())
}

/// On a warm store no template of the workload parses a log line or builds
/// a JSON tree: every one of its log scans — the UDF-fed ones included — is
/// served from the image.
#[test]
fn a_warm_store_serves_every_log_scan_from_the_image() {
    let _globals = globals_lock();
    let corpus = corpus();
    let udfs = standard_udfs();
    let workload = workload();
    with_threads(8, || {
        let hv = store(&corpus);
        for (_, plan) in &workload {
            hv.execute(plan, None, &udfs).expect("warming run");
        }
        let ring = obs_ring_on();
        for (_, plan) in &workload {
            hv.execute(plan, None, &udfs).expect("warm run");
        }
        let counters = miso_obs::snapshot().counters;
        miso_obs::init(miso_obs::ObsConfig::disabled());
        let (fused, row_path) = log_scans(&ring.events());
        let scans: usize = workload
            .iter()
            .flat_map(|(_, plan)| plan.nodes())
            .filter(|n| matches!(n.op, Operator::ScanLog { .. }))
            .count();
        assert!(scans >= workload.len());
        assert_eq!((fused, row_path), (scans, 0));
        assert_eq!(counters.get("hv.log_cols_parsed").copied().unwrap_or(0), 0);
        assert!(counters["hv.log_cols_served"] >= scans as u64);
    });
}

/// `buzz_score` as it was written before a UDF could declare its fields: it
/// takes the record and looks the five fields up itself.
fn record_reading_udfs() -> UdfRegistry {
    let output = standard_udfs()
        .require("buzz_score")
        .expect("the workload's UDF")
        .output
        .clone();
    let mut reg = UdfRegistry::new();
    reg.register(Udf::new(
        "buzz_score",
        output,
        Arc::new(|row: &Row| {
            let rec = row.get(0);
            let lang = rec.get_field("lang").and_then(Value::as_str);
            if lang != Some("en") {
                return Ok(vec![]);
            }
            let (Some(uid), Some(rts), Some(fol), Some(city)) = (
                rec.get_field("user_id").and_then(Value::as_i64),
                rec.get_field("retweets").and_then(Value::as_f64),
                rec.get_field("followers").and_then(Value::as_f64),
                rec.get_field("city").and_then(Value::as_str),
            ) else {
                return Ok(vec![]);
            };
            let buzz = (1.0 + rts).ln() / (1.0 + fol).ln().max(1.0) * 10.0;
            Ok(vec![Row::new(vec![
                Value::Int(uid),
                Value::Float(buzz),
                Value::Str(city.to_string()),
            ])])
        }),
    ));
    reg
}

/// How many of [`udf_lines`] are malformed.
const UDF_LINES_MALFORMED: u64 = 3;

/// Lines aimed at a UDF that reads `lang`, `user_id`, `retweets`,
/// `followers` and `city`: each of them missing, null, of the wrong type,
/// nested, and duplicated with either occurrence last; an escape in another
/// field, in a declared one and in a declared field's *key* (which only the
/// strict parser reads); lines that are JSON but no record; malformed ones.
fn udf_lines(tag: u64) -> Vec<String> {
    let id = 8_000_000 + tag * 100;
    let mut n = 0;
    let mut tweet = |fields: &str| {
        n += 1;
        format!(
            r#"{{"tweet_id": {}, {fields}, "hashtags": ["t{tag}"]}}"#,
            id + n
        )
    };
    vec![
        tweet(r#""lang": "en", "user_id": 1, "retweets": 3, "followers": 10, "city": "austin""#),
        tweet(r#""lang": "en", "user_id": 2, "retweets": 3, "followers": 10"#),
        tweet(r#""user_id": 3, "retweets": 3, "followers": 10, "city": "austin""#),
        tweet(r#""lang": "en", "user_id": 4, "retweets": null, "followers": 10, "city": "reno""#),
        tweet(r#""lang": "en", "user_id": "5", "retweets": 3, "followers": 10, "city": "reno""#),
        tweet(r#""lang": "en", "user_id": 6.5, "retweets": 3, "followers": 10, "city": "reno""#),
        tweet(r#""lang": "en", "user_id": 7, "retweets": "many", "followers": 1, "city": "reno""#),
        tweet(r#""lang": "en", "user_id": 8, "retweets": 2.5, "followers": 1e2, "city": "reno""#),
        tweet(r#""lang": 9, "user_id": 9, "retweets": 3, "followers": 10, "city": "reno""#),
        tweet(r#""lang": "en", "user_id": 10, "retweets": 3, "followers": 10, "city": 42"#),
        tweet(
            r#""lang": "en", "user_id": 11, "retweets": 3, "followers": 10, "city": {"name": "reno"}"#,
        ),
        tweet(r#""lang": ["en"], "user_id": 12, "retweets": 3, "followers": 10, "city": "reno""#),
        tweet(r#""lang": "en", "user_id": 13, "retweets": 3, "followers": [10], "city": "reno""#),
        tweet(
            r#""lang": "fr", "lang": "en", "user_id": 14, "retweets": 3, "followers": 10, "city": "reno""#,
        ),
        tweet(
            r#""lang": "en", "lang": "fr", "user_id": 15, "retweets": 3, "followers": 10, "city": "reno""#,
        ),
        tweet(
            r#""lang": "en", "user_id": {"n": 16}, "user_id": 16, "retweets": 3, "followers": 10, "city": ["x"], "city": "reno""#,
        ),
        tweet(
            r#""lang": "en", "user_id": 17, "user_id": [17], "retweets": 3, "followers": 10, "city": "reno""#,
        ),
        tweet(
            r#""text": "say \"hi\"\n", "lang": "en", "user_id": 18, "retweets": 3, "followers": 10, "city": "reno""#,
        ),
        tweet(
            r#""lang": "en", "user_id": 19, "retweets": 3, "followers": 10, "city": "new\u0020york""#,
        ),
        tweet(
            r#""la\u006eg": "en", "user_id": 20, "retweets": 3, "followers": 10, "city": "reno""#,
        ),
        tweet(
            r#""lang": "en", "user_id": 21, "retweets": 3, "followers": 10, "city": "reno", "place": {"deep": [[[{"k": "}]"}]]]}"#,
        ),
        "42".to_string(),
        r#"["en", 1, 2, 3, "reno"]"#.to_string(),
        r#""en""#.to_string(),
        // Malformed: torn, trailing bytes, nested past the cap.
        format!(
            r#"{{"tweet_id": {}, "lang": "en", "user_id": 22, "retweets": 3, "#,
            id + 90
        ),
        format!(
            r#"{{"lang": "en", "user_id": 23, "retweets": 3, "followers": 10, "city": "reno"}} #{tag}"#
        ),
        format!(
            r#"{{"lang": "en", "user_id": 24, "retweets": 3, "followers": 10, "city": "reno", "deep": {}{}}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ),
    ]
}

/// `buzz_score` declaring its fields and `buzz_score` reading the record are
/// the same function: on the four UDF templates × threads {1, 8}, the
/// serial interpreter, full retention and HV's keep-set runs
/// give identical rows, checksums, skip counts, `cost`, `stage_costs` and
/// `materialized`, on an image that is cold, warm, and extended by three
/// appends — over the corpus plus [`udf_lines`] and [`odd_lines`].
#[test]
fn declared_and_record_reading_udfs_agree() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let mut corpus = corpus();
    let at = corpus.twitter.lines.len() / 3;
    let mut lines = corpus.twitter.lines.to_vec();
    lines.splice(at..at, udf_lines(0));
    corpus.twitter = LogFile::from_lines(LogKind::Twitter, lines);

    let declared = standard_udfs();
    let record = record_reading_udfs();
    let reads = |udfs: &UdfRegistry| udfs.require("buzz_score").unwrap().reads().map(<[_]>::len);
    assert_eq!((reads(&declared), reads(&record)), (Some(5), None));
    let templates: Vec<_> = workload()
        .into_iter()
        .filter(|(_, plan)| {
            plan.nodes()
                .iter()
                .any(|n| matches!(n.op, Operator::Udf { .. }))
        })
        .collect();
    assert_eq!(templates.len(), 4, "the A3 templates");

    for threads in THREADS {
        with_threads(threads, || {
            let mut by_fields = store(&corpus);
            let mut by_record = store(&corpus);
            let mut all_lines = corpus.twitter.lines.to_vec();
            for batch in 0..=3u64 {
                if batch > 0 {
                    let mut delta = generate_delta(&cfg, LogKind::Twitter, batch, 40);
                    delta.splice(25..25, odd_lines(batch));
                    delta.splice(10..10, udf_lines(batch));
                    for hv in [&mut by_fields, &mut by_record] {
                        hv.append_log("twitter", &LogBatch::new(&delta))
                            .expect("append");
                    }
                    all_lines.extend(delta);
                }
                let skipped = (2 + UDF_LINES_MALFORMED) * (batch + 1);
                for (label, plan) in &templates {
                    let what = format!("{label}, {threads} threads, batch {batch}");
                    let serial = execute_serial(plan, &by_record, &record).expect("serial run");
                    assert_eq!(serial.skipped_lines, skipped, "{what}");
                    assert!(!serial.root_rows().unwrap().is_empty(), "{what}");
                    let root_sum = checksum_rows(serial.root_rows().unwrap());
                    for (udfs, hv, style) in [
                        (&declared, &by_fields, "declared"),
                        (&record, &by_record, "record"),
                    ] {
                        let what = format!("{what}, {style}");
                        for full in [
                            execute_serial(plan, hv, udfs).expect("serial run"),
                            execute(plan, hv, udfs).expect("full-retention run"),
                        ] {
                            assert_matches_serial(&full, &serial, plan, &what);
                            assert_eq!(full.executed_nodes().count(), plan.len(), "{what}");
                            assert_eq!(full.skipped_lines, skipped, "{what}");
                        }
                    }
                    // HV's keep-set run, image cold (or just extended), then warm.
                    for pass in ["first", "again"] {
                        let what = format!("{what}, {pass} keep-set run");
                        let by_f = by_fields.execute(plan, None, &declared).expect("declared");
                        let by_r = by_record.execute(plan, None, &record).expect("record");
                        assert!(run_facts(&by_f, plan) == run_facts(&by_r, plan), "{what}");
                        assert_matches_serial(&by_f.execution, &serial, plan, &what);
                        assert_eq!(by_f.execution.skipped_lines, skipped, "{what}");
                        assert_eq!(
                            checksum_rows(by_f.execution.root_rows().unwrap()),
                            root_sum,
                            "{what}"
                        );
                    }
                }
                // Only the declaring UDF's scan reads columns — it keeps one
                // per key of the log — and an image the appends extended is
                // the image a cold store parses.
                assert_eq!(
                    by_fields.log_columns_kept("twitter"),
                    log_keys(&all_lines),
                    "batch {batch}"
                );
                assert_eq!(by_record.log_columns_kept("twitter"), 0, "batch {batch}");
                let mut cold_corpus = corpus.clone();
                cold_corpus.twitter = LogFile::from_lines(LogKind::Twitter, all_lines.clone());
                let cold = store(&cold_corpus);
                for (label, plan) in &templates {
                    let a = by_fields.execute(plan, None, &declared).expect("grown run");
                    let b = cold.execute(plan, None, &declared).expect("cold run");
                    assert!(
                        run_facts(&a, plan) == run_facts(&b, plan),
                        "{label}, batch {batch}: extended vs cold image"
                    );
                }
            }
        });
    }
}

/// A line nested without end is one more malformed line — for the row scan,
/// the fused scan and an append alike — not a stack overflow.
#[test]
fn a_bottomless_line_is_skipped_not_fatal() {
    let _globals = globals_lock();
    let corpus = corpus();
    let udfs = standard_udfs();
    let workload = workload();
    let bombs = vec![
        format!(r#"{{"city": "x", "hashtags": {}"#, "[".repeat(2_000_000)),
        "[".repeat(2_000_000),
        r#"{"a":"#.repeat(500_000),
        format!(
            r#"{{"city": "x", "hashtags": {}{}}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ),
    ];
    let at_cap = format!(
        r#"{{"city": "capville", "hashtags": {}{}}}"#,
        "[".repeat(MAX_DEPTH - 1),
        "]".repeat(MAX_DEPTH - 1)
    );
    let mut delta = bombs.clone();
    delta.push(at_cap);
    let mut bombed = corpus.clone();
    let mut lines = corpus.twitter.lines.to_vec();
    lines.splice(7..7, delta.iter().cloned());
    bombed.twitter = LogFile::from_lines(LogKind::Twitter, lines);
    let skipped = 2 + bombs.len() as u64;
    let fields = probe_fields();
    for threads in THREADS {
        with_threads(threads, || {
            let what = format!("{threads} threads");
            let hv = store(&bombed);
            for (label, plan) in workload.iter().step_by(5) {
                let logs = plan.nodes().iter().filter_map(|n| match &n.op {
                    Operator::ScanLog { log } => Some(log.as_str()),
                    _ => None,
                });
                let want = skipped * logs.filter(|log| *log == "twitter").count() as u64;
                // The row scan, serial and morsel-parallel; then the fused one.
                let serial = execute_serial(plan, &hv, &udfs).expect("serial run");
                let full = execute(plan, &hv, &udfs).expect("full-retention run");
                let lean = hv.execute(plan, None, &udfs).expect("keep-set run");
                assert_eq!(serial.skipped_lines, want, "{what}: {label}, serial");
                assert_eq!(full.skipped_lines, want, "{what}: {label}, row scan");
                assert_eq!(lean.execution.skipped_lines, want, "{what}: {label}, fused");
                assert_matches_serial(&lean.execution, &serial, plan, &what);
            }
            // Appended to a warm image, the same lines extend it like a
            // cold parse of the grown log.
            let mut grown = store(&corpus);
            grown.log_columns("twitter", &fields).expect("warming read");
            grown
                .append_log("twitter", &LogBatch::new(&delta))
                .expect("append");
            let mut cold_corpus = corpus.clone();
            let mut all_lines = corpus.twitter.lines.to_vec();
            all_lines.extend(delta.iter().cloned());
            cold_corpus.twitter = LogFile::from_lines(LogKind::Twitter, all_lines);
            let kept = grown.log_columns("twitter", &fields).expect("kept read");
            let fresh = store(&cold_corpus)
                .log_columns("twitter", &fields)
                .expect("cold read");
            assert_eq!(kept.cols_parsed, 0, "{what}");
            assert_eq!(kept.skipped_lines, skipped, "{what}");
            assert_eq!(kept.skipped_lines, fresh.skipped_lines, "{what}");
            assert_eq!(kept.batch, fresh.batch, "{what}");
        });
    }
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
    for threads in THREADS {
        with_threads(threads, || {
            let mut grown = store(&corpus);
            let first = grown.log_columns("twitter", &fields).expect("first read");
            assert_eq!(first.cols_hit, 0);
            assert_eq!(first.cols_parsed, fields.len() as u64);
            assert_eq!(first.skipped_lines, 2);
            let mut all_lines = corpus.twitter.lines.to_vec();
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
/// whether the image was warm, and it never exceeds the peak of the run
/// whose log scans are kept — a kept scan cannot fuse, so it parses rows
/// and charges them.
#[test]
fn guarded_scans_fuse_and_charge_no_more_than_unfused() {
    let _globals = globals_lock();
    let corpus = corpus();
    let udfs = standard_udfs();
    let warm = store(&corpus);
    let metered = |hv: &HvStore, plan: &LogicalPlan, keep: &[NodeId]| {
        let meter = QueryGuard::new(None, 0);
        let run = hv
            .execute_guarded(plan, None, &udfs, &meter, keep)
            .expect("metered run");
        assert_eq!(meter.used(), 0, "charges unwind");
        (run_facts(&run, plan), meter.peak())
    };
    let mut lower = 0usize;
    for (label, plan) in &workload() {
        let log_scans: Vec<NodeId> = plan
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::ScanLog { .. }))
            .map(|n| n.id)
            .collect();
        with_threads(8, || {
            let (_, unfused_peak) = metered(&store(&corpus), plan, &log_scans);
            let cold = store(&corpus);
            let plain = cold.execute(plan, None, &udfs).expect("unguarded run");
            let (cold_facts, cold_peak) = metered(&store(&corpus), plan, &[]);
            let (warm_facts, warm_peak) = metered(&warm, plan, &[]);
            let (again_facts, again_peak) = metered(&warm, plan, &[]);
            let plain_facts = run_facts(&plain, plan);
            assert!(cold_facts == plain_facts, "{label}: guarded vs unguarded");
            assert!(warm_facts == plain_facts, "{label}: warm guarded");
            assert!(again_facts == plain_facts, "{label}: warm guarded, again");
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
}

/// One maintenance pass lexes a batch once: the store extending its image
/// asks first, and every one of the N views folding the delta is served
/// the batch's columns from that pass — any field, any cast — parsing
/// nothing; and the image the append extended is the image a cold store
/// parses from the grown log.
#[test]
fn a_maintained_batch_parses_each_field_once() {
    use miso::core::{MaintAction, MaintenancePolicy};
    let _globals = globals_lock();
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
    let mut all_lines = corpus.twitter.lines.to_vec();
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

    let ring = obs_ring_on();
    let report = append(&mut sys, 2);
    let counters = miso_obs::snapshot().counters;
    miso_obs::init(miso_obs::ObsConfig::disabled());
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);

    let folded: Vec<_> = report
        .decisions
        .iter()
        .filter(|d| d.action == MaintAction::Delta)
        .collect();
    let over_udf = |view: &str| {
        let def = sys
            .catalog
            .get(view)
            .expect("a maintained view is catalogued");
        let is_udf = |n: &miso::plan::PlanNode| matches!(n.op, Operator::Udf { .. });
        def.plan.nodes().iter().any(is_udf)
    };
    assert!(
        folded.iter().any(|d| over_udf(&d.view)),
        "a UDF view folded"
    );
    let folded = folded.len() as u64;
    assert!(folded >= 4, "{folded} views folded the batch");
    assert_eq!(count("maint.delta_applies"), folded);
    // No delta plan — the UDF views' included — parsed the batch into rows.
    let (fused, row_path) = log_scans(&ring.events());
    assert!(fused > 0, "delta plans scan the batch");
    assert_eq!(row_path, 0, "delta scans on the row path");
    // The append lexed the batch, line by line, once; the views' delta
    // scans parsed nothing, and the log keeps a column per key.
    let batch_lines = generate_delta(&cfg, LogKind::Twitter, 2, 60).len() + odd_lines(2).len();
    assert_eq!(count("hv.log_lines_tokenized"), batch_lines as u64);
    assert_eq!(count("maint.delta_cols_parsed"), 0);
    let kept = sys.hv.log_columns_kept("twitter");
    assert_eq!(kept, log_keys(&all_lines));
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
}

/// Lines that exercise the one lexing pass: an escape in a value, in a key and
/// in a nested value (the first two are read by the strict parser only), a
/// key order no other line has, missing and extra keys, duplicate keys with
/// a scalar or a nested value last, nested values, documents that are no
/// object, odd whitespace; three malformed lines.
fn index_lines(tag: u64) -> Vec<String> {
    let id = 7_000_000 + tag * 100;
    vec![
        format!(
            r#"{{"tweet_id": {id}, "user_id": 1, "text": "say \"hi\"\n", "city": "reno", "followers": 5}}"#
        ),
        format!(r#"{{"tweet_id": {id}, "user_id": 2, "city": "reno"}}"#),
        format!(
            r#"{{"tweet_id": {id}, "user_id": 3, "hashtags": ["a\"b", "\\"], "city": "reno", "place": {{"k": "é"}}}}"#
        ),
        format!(
            r#"{{"city": "elko", "followers": 2.5, "user_id": 4, "tweet_id": {id}, "extra": {tag}}}"#
        ),
        r#"{"user_id": 5}"#.to_string(),
        "{}".to_string(),
        r#"{"user_id": 6, "user_id": "six", "city": ["nested first"], "city": "scalar last", "retweets": 1, "retweets": 2.0}"#.to_string(),
        r#"{"user_id": {"n": 7}, "user_id": 7, "city": "scalar first", "city": {"name": "nested last"}}"#.to_string(),
        format!(
            r#"{{"tweet_id": {id}, "user_id": 8, "place": {{"deep": [[[{{"k": "}}]"}}]]]}}, "hashtags": [], "city": "x"}}"#
        ),
        "42".to_string(),
        r#"["user_id", 9]"#.to_string(),
        r#""user_id""#.to_string(),
        "  { \"user_id\" :\t10 , \"city\" : \"spaced\" }  ".to_string(),
        format!(r#"{{"tweet_id": {id}, "user_id": 11, "#),
        format!(r#"{{"user_id": 12, "city": "reno"}} #{tag}"#),
        format!("torn #{tag}"),
    ]
}

/// How many of [`index_lines`] are malformed.
const INDEX_LINES_MALFORMED: u64 = 3;

/// A twitter log of several morsels with [`index_lines`] and [`odd_lines`]
/// in the middle of each copy of the corpus, so that a second key layout
/// starts mid-log and mid-morsel.
fn indexed_log(corpus: &Corpus) -> Vec<String> {
    let mut lines = Vec::new();
    for tag in 0..5 {
        let at = lines.len() + 300 + 7 * tag as usize;
        lines.extend(corpus.twitter.lines.iter().cloned());
        lines.splice(at..at, index_lines(tag));
        lines.splice(at + 5..at + 5, odd_lines(tag));
    }
    assert!(lines.len() > 4096, "more than one morsel");
    lines
}

fn store_of(lines: Vec<String>) -> HvStore {
    let mut hv = HvStore::new();
    hv.add_log(LogFile::from_lines(LogKind::Twitter, lines));
    hv
}

/// The fields [`reads_one_by_one`] asks for: [`probe_fields`], a nested
/// field asked for bare and cast, and a field with an escaped key.
fn index_fields() -> Vec<FusedField<'static>> {
    let f = |key, ty| FusedField { key, ty };
    let mut fields = probe_fields();
    fields.extend([
        f("place", Some(DataType::Str)),
        f("city", None),
        f("user_id", Some(DataType::Str)),
        f("tweet_id", Some(DataType::Int)),
    ]);
    fields
}

/// Asks `source` for each of `fields` alone, in the given order, and checks
/// each answer against that column of `whole` — one `parse_log_columns` of
/// all of them over the same lines.
fn reads_one_by_one(
    source: &dyn Fn(&[FusedField<'_>]) -> miso::exec::LogColumns,
    fields: &[FusedField<'static>],
    order: &[usize],
    whole: &(miso::data::ColBatch, u64),
    what: &str,
) {
    for &i in order {
        let one = source(&fields[i..=i]);
        let what = format!("{what}: {:?} alone", fields[i]);
        assert_eq!(one.batch.len(), whole.0.len(), "{what}: rows");
        assert_eq!(one.skipped_lines, whole.1, "{what}: skipped");
        assert_eq!(one.batch.col(0), whole.0.col(i), "{what}: column");
    }
}

/// Three orders over `n` fields: forward, backward, and a stride walk.
fn orders(n: usize) -> [Vec<usize>; 3] {
    [
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).map(|i| (i * 7 + 3) % n).collect(),
    ]
}

/// Once the log is lexed, a column asked for alone — any column, under any
/// cast, in any order — is that column of one whole parse of all of them:
/// over escapes (strict fallback), malformed lines, duplicate keys, a
/// second key layout mid-log, a nested value asked for or not, and an
/// empty log. A log is tokenized once, whatever is asked of it afterwards,
/// and no read after that parses a column.
#[test]
fn columns_asked_one_at_a_time_equal_one_whole_parse() {
    use miso::exec::col::parse_log_columns;
    let _globals = globals_lock();
    let corpus = corpus();
    let lines = indexed_log(&corpus);
    let fields = index_fields();
    assert_eq!(
        orders(fields.len())[2].iter().collect::<HashSet<_>>().len(),
        fields.len()
    );
    for threads in THREADS {
        with_threads(threads, || {
            let whole = parse_log_columns(&lines, &fields).expect("whole parse");
            // Per copy: the corpus's own odd lines, this log's, the index lines'.
            assert_eq!(whole.1, 5 * (2 + 2 + INDEX_LINES_MALFORMED), "skipped");
            assert_eq!(whole.0.len() as u64 + whole.1, lines.len() as u64);
            for order in orders(fields.len()) {
                let what = format!("{threads} threads, order {:?}", &order[..3]);
                let hv = store_of(lines.clone());
                let ring = obs_ring_on();
                // The first read of anything lexes the log.
                let first = hv.log_columns("twitter", &[]).expect("lexing read");
                assert_eq!((first.batch.len(), first.batch.arity()), (whole.0.len(), 0));
                reads_one_by_one(
                    &|f| hv.log_columns("twitter", f).expect("one column"),
                    &fields,
                    &order,
                    &whole,
                    &what,
                );
                let again = hv.log_columns("twitter", &fields).expect("all, kept");
                let counters = miso_obs::snapshot().counters;
                miso_obs::init(miso_obs::ObsConfig::disabled());
                drop(ring);
                assert_eq!(again.cols_parsed, 0, "{what}");
                assert_eq!(again.batch, whole.0, "{what}");
                assert_eq!(
                    counters["hv.log_lines_tokenized"],
                    lines.len() as u64,
                    "{what}"
                );
                assert_eq!(hv.log_columns_kept("twitter"), log_keys(&lines), "{what}");
                let parsed = counters.get("hv.log_cols_parsed").copied();
                assert_eq!(parsed.unwrap_or(0), 0, "{what}");
            }
            // Nothing to lex is no special case.
            let empty = store_of(Vec::new());
            let whole = parse_log_columns(&[], &fields).expect("empty parse");
            assert_eq!(
                (whole.0.len(), whole.0.arity(), whole.1),
                (0, fields.len(), 0)
            );
            reads_one_by_one(
                &|f| empty.log_columns("twitter", f).expect("one column"),
                &fields,
                &orders(fields.len())[2],
                &whole,
                "empty log",
            );
        });
    }
}

/// The same after `append_log`: the grown store, a store cloned from it
/// after the append and one cloned before it each read — one column at a
/// time, kept before the append or not — what a whole parse of the lines
/// they hold builds; the store cloned before keeps the log as it was. And
/// a `LogBatch` read by several delta plans, in any order, is tokenized
/// once and hands each of them the whole-batch parse.
#[test]
fn indexed_reads_survive_append_clone_and_batch_sharing() {
    use miso::exec::col::parse_log_columns;
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let corpus = corpus();
    let base = indexed_log(&corpus);
    let fields = index_fields();
    let mut delta = generate_delta(&cfg, LogKind::Twitter, 1, 60);
    delta.splice(20..20, index_lines(9));
    delta.splice(45..45, odd_lines(9));
    let grown_lines = [base.as_slice(), delta.as_slice()].concat();
    for threads in THREADS {
        with_threads(threads, || {
            let whole_base = parse_log_columns(&base, &fields).expect("base parse");
            let whole_grown = parse_log_columns(&grown_lines, &fields).expect("grown parse");
            let whole_delta = parse_log_columns(&delta, &fields).expect("delta parse");
            assert_eq!(whole_grown.1, whole_base.1 + 2 + INDEX_LINES_MALFORMED);

            // Several delta plans read one batch: overlapping field sets,
            // then every field alone, backwards.
            let ring = obs_ring_on();
            let batch = LogBatch::new(&delta);
            for window in [&fields[2..6], &fields[4..9], &fields[..3]] {
                let got = batch.columns(window).expect("a delta plan's scan");
                let want = parse_log_columns(&delta, window).expect("its own parse");
                assert_eq!((got.batch, got.skipped_lines), want, "{threads} threads");
            }
            reads_one_by_one(
                &|f| batch.columns(f).expect("one column"),
                &fields,
                &orders(fields.len())[1],
                &whole_delta,
                &format!("{threads} threads, batch"),
            );
            let counters = miso_obs::snapshot().counters;
            miso_obs::init(miso_obs::ObsConfig::disabled());
            drop(ring);
            assert_eq!(counters["hv.log_lines_tokenized"], delta.len() as u64);
            // The first scan lexed the batch; no later one parsed a column.
            assert_eq!(counters["maint.delta_cols_parsed"], 4);

            for order in orders(fields.len()) {
                let what = format!("{threads} threads, order {:?}", &order[..3]);
                let mut grown = store_of(base.clone());
                // Lex the log, reading some of its fields, not all.
                grown
                    .log_columns("twitter", &fields[3..7])
                    .expect("warming read");
                let before = grown.clone();
                let ring = obs_ring_on();
                grown
                    .append_log("twitter", &LogBatch::new(&delta))
                    .expect("append");
                let after = grown.clone();
                for (hv, whole, who) in [
                    (&grown, &whole_grown, "grown"),
                    (&after, &whole_grown, "cloned after"),
                    (&before, &whole_base, "cloned before"),
                ] {
                    reads_one_by_one(
                        &|f| hv.log_columns("twitter", f).expect("one column"),
                        &fields,
                        &order,
                        whole,
                        &format!("{what}, {who}"),
                    );
                    let all = hv.log_columns("twitter", &fields).expect("all, kept");
                    assert_eq!(all.cols_parsed, 0, "{what}, {who}");
                    assert_eq!(&(all.batch, all.skipped_lines), whole, "{what}, {who}");
                }
                let counters = miso_obs::snapshot().counters;
                miso_obs::init(miso_obs::ObsConfig::disabled());
                drop(ring);
                // Only the appended lines were lexed end to end: the base
                // log's raw columns served every later read, on all three stores.
                assert_eq!(
                    counters["hv.log_lines_tokenized"],
                    delta.len() as u64,
                    "{what}"
                );
                assert_eq!(before.log_lines("twitter").expect("log").len(), base.len());
                assert_eq!(
                    after.log_lines("twitter").expect("log").len(),
                    grown_lines.len()
                );
            }
        });
    }
}
