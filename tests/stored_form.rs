//! What the stores and the catalog record about a view — content checksum,
//! size, row count — does not depend on the form the view is stored in. The
//! values pinned below were recorded with views stored as rows (PR 21), on
//! the 32-template MS-MISO stream with the twitter log growing under
//! `Refresh`: harvest, reorg moves between the stores and append refreshes
//! all happen inside it; a corrupted copy is then scrubbed, quarantined and
//! repaired by a second pass of the stream.

use miso::common::prehash::fnv1a_str;
use miso::common::{Budgets, ByteSize, SimClock};
use miso::core::{
    AuditConfig, GrowthConfig, MaintenancePolicy, MultistoreSystem, SystemConfig, Variant,
};
use miso::data::logs::{generate_delta, Corpus, LogKind, LogsConfig};
use miso::lang::compile;
use miso::workload::{compile_workload, standard_udfs, workload_catalog};

/// `LogsConfig::experiment()` scaled down to a tier-1 budget.
fn logs() -> LogsConfig {
    let base = LogsConfig::experiment();
    let eighth = |n: u64| n / 8;
    LogsConfig {
        users: eighth(base.users),
        venues: eighth(base.venues),
        tweets: eighth(base.tweets as u64) as usize,
        checkins: eighth(base.checkins as u64) as usize,
        landmarks: eighth(base.landmarks as u64) as usize,
        seed: 7,
    }
}

/// One line per catalog view, sorted by name: where it lives and what each
/// store and the catalog recorded for it.
fn record(sys: &MultistoreSystem) -> Vec<String> {
    let mut lines = Vec::new();
    for def in sys.catalog.defs() {
        let name = &def.name;
        let hv = sys.hv.views.get(name);
        let dw = sys.dw.views.get(name);
        let copy = |c: Option<&miso::data::StoredView>| match c {
            Some(v) => format!("{}/{}", v.checksum, v.size.as_bytes()),
            None => "-".to_string(),
        };
        lines.push(format!(
            "{name} hv={} dw={} catalog={}/{}/{} quarantined={}",
            copy(hv),
            copy(dw),
            def.checksum.map_or("-".to_string(), |c| c.to_string()),
            def.size.as_bytes(),
            def.rows,
            sys.catalog.is_quarantined(name),
        ));
    }
    lines.sort();
    lines
}

/// `(views, views resident in DW, total recorded bytes, digest of every line)`.
fn summary(sys: &MultistoreSystem) -> (usize, usize, u64, u64) {
    let lines = record(sys);
    let bytes = sys.hv.views.total_bytes() + sys.dw.views.total_bytes();
    (
        lines.len(),
        sys.dw.view_names().len(),
        bytes.as_bytes(),
        fnv1a_str(&lines.join("\n")),
    )
}

#[test]
fn recorded_checksums_sizes_and_stats_are_those_of_the_row_stored_parent() {
    let logs = logs();
    let corpus = Corpus::generate(&logs);
    let hv = corpus.total_size();
    let budgets = Budgets::new(hv.scale(2.0), hv.scale(0.2), hv.scale(0.02))
        .with_discretization(ByteSize::from_kib(8));
    let mut config = SystemConfig::paper_default(budgets);
    config.growth = Some(GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: logs.tweets / 50,
        policy: MaintenancePolicy::Refresh,
        logs: logs.clone(),
    });
    let mut sys = MultistoreSystem::new(&corpus, workload_catalog(), standard_udfs(), config);
    let stream = compile_workload(&workload_catalog()).expect("the standard workload compiles");

    // Harvest, reorg moves both ways, append refreshes (folds and rebuilds).
    let first = sys.run_workload(Variant::MsMiso, &stream).unwrap();
    let moved: usize = first
        .reorgs
        .iter()
        .map(|r| r.moved_to_dw.len() + r.moved_to_hv.len())
        .sum();
    let folded: usize = first
        .maintenance
        .iter()
        .map(|m| m.delta_refreshed.len())
        .sum();
    assert!(moved > 0 && folded > 0, "{moved} moved, {folded} folded");
    assert_eq!(
        summary(&sys),
        AFTER_STREAM,
        "after the stream:\n{}",
        record(&sys).join("\n")
    );
    // Every recorded checksum is the checksum of the bytes it stands for.
    for def in sys.catalog.defs() {
        let sum = def.checksum.expect("harvested views carry a checksum");
        let ok = sys
            .hv
            .views
            .verify(&def.name, sum)
            .or(sys.dw.views.verify(&def.name, sum));
        assert_eq!(ok, Some(true), "{}", def.name);
    }

    // Corrupt a DW-resident copy; the scrub quarantines it, and a second
    // pass of the stream repairs (or drops) it.
    let victim = sys.dw.view_names().into_iter().next().expect("a DW view");
    let checksum = |sys: &MultistoreSystem| sys.dw.views.get(&victim).map(|v| v.checksum);
    let recorded = checksum(&sys);
    assert!(sys.dw.views.corrupt(&victim));
    assert_eq!(checksum(&sys), recorded, "corruption is silent");
    let report = sys
        .audit_pass(&AuditConfig::counting(ByteSize::from_mib(64)))
        .unwrap();
    assert_eq!(report.quarantined, vec![victim]);
    sys.run_workload(Variant::MsMiso, &stream).unwrap();
    assert!(sys.catalog.quarantined_names().is_empty());
    assert_eq!(
        summary(&sys),
        AFTER_REPAIR,
        "after the repair:\n{}",
        record(&sys).join("\n")
    );
}

/// Every tweet of `lines` with `followers` set to `n`.
fn with_followers(lines: Vec<String>, n: u64) -> Vec<String> {
    let key = "\"followers\":";
    let rewrite = |line: String| {
        let at = line.find(key).expect("a tweet has followers") + key.len();
        let digits = line[at..].find([',', '}']).unwrap();
        format!("{}{n}{}", &line[..at], &line[at + digits..])
    };
    lines.into_iter().map(rewrite).collect()
}

/// A view nothing qualifies for is harvested empty — and with its plan's
/// arity, not none: it is scanned, joined against, migrated HV→DW and
/// refreshed by an append like any other view, and the answers over it are
/// those of a system that never had it.
#[test]
fn an_empty_view_scans_joins_migrates_and_takes_an_append() {
    let logs = LogsConfig::tiny();
    let corpus = Corpus::generate(&logs);
    let budgets = Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_mib(4),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(16));
    let system = |corpus: &Corpus| {
        let config = SystemConfig::paper_default(budgets);
        MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
    };
    let catalog = workload_catalog();
    // No generated tweet has more than 100 000 followers.
    let nobody = "t.followers > 150000";
    let queries: Vec<_> = [
        format!("SELECT t.city AS c, t.followers AS f FROM twitter t WHERE {nobody}"),
        format!(
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
             JOIN foursquare f ON t.user_id = f.user_id WHERE {nobody} GROUP BY t.city"
        ),
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| (format!("q{i}"), compile(sql, &catalog).unwrap()))
    .collect();
    let mut sys = system(&corpus);
    let first = sys.run_workload(Variant::HvOp, &queries).unwrap();
    assert_eq!(first.records[0].result_rows, 0);
    assert_eq!(first.records[1].result_rows, 0);
    let empties: Vec<String> = sys
        .hv
        .view_names()
        .into_iter()
        .filter(|n| sys.hv.views.get(n).unwrap().batch.is_empty())
        .collect();
    assert!(!empties.is_empty(), "nothing qualifies: empty views");
    for name in &empties {
        let view = sys.hv.views.get(name).unwrap();
        assert!(view.schema.arity() > 0, "{name}");
        assert_eq!(view.batch.arity(), view.schema.arity(), "{name}");
        assert_eq!(view.size, ByteSize::ZERO, "{name}");
        assert_eq!(sys.hv.views.verify(name, view.checksum), Some(true));
    }
    // Scanned and joined against, again, now all from views.
    let again = sys.run_workload(Variant::HvOp, &queries).unwrap();
    assert!(again.records.iter().all(|r| r.result_rows == 0));
    assert!(again.records.iter().all(|r| !r.used_views.is_empty()));
    // Migrated HV→DW: the stored view moves as it is.
    for name in &empties {
        let view = sys.hv.views.take(name).unwrap();
        sys.dw.views.put(name, view);
        let moved = sys.dw.views.get(name).unwrap();
        assert_eq!(moved.batch.arity(), moved.schema.arity());
    }
    let split = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert!(split.records.iter().all(|r| r.result_rows == 0));
    assert!(
        split.records.iter().any(|r| r.dw_ops > 0),
        "DW read its copy"
    );

    // An append that qualifies: the refresh folds it into the empty views,
    // in whichever store they now live.
    let famous = with_followers(generate_delta(&logs, LogKind::Twitter, 1, 40), 200_000);
    let report = sys
        .append_log(
            LogKind::Twitter,
            &famous,
            MaintenancePolicy::Refresh,
            &mut SimClock::new(),
        )
        .unwrap();
    assert!(report.invalidated.is_empty(), "{report:?}");
    assert!(!report.delta_refreshed.is_empty(), "{report:?}");
    let grown: Vec<&String> = empties
        .iter()
        .filter(|n| sys.dw.views.get(n).is_some_and(|v| !v.batch.is_empty()))
        .collect();
    assert!(!grown.is_empty(), "an empty view took the append");
    for name in grown {
        let view = sys.dw.views.get(name).unwrap();
        assert_eq!(view.batch.arity(), view.schema.arity(), "{name}");
        assert_eq!(sys.dw.views.verify(name, view.checksum), Some(true));
        assert_eq!(sys.catalog.get(name).unwrap().checksum, Some(view.checksum));
    }
    let after = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    let mut fresh_corpus = corpus.clone();
    std::sync::Arc::make_mut(&mut fresh_corpus.twitter.lines).extend(famous);
    let scratch = system(&fresh_corpus)
        .run_workload(Variant::HvOnly, &queries)
        .unwrap();
    assert_eq!(after.records[0].result_rows, 40);
    for (got, want) in after.records.iter().zip(&scratch.records) {
        assert_eq!(got.result_rows, want.result_rows, "{}", got.label);
    }
}

/// Recorded at PR 21 (`e5d7955`), `MISO_THREADS` 1 and 8 alike.
const AFTER_STREAM: (usize, usize, u64, u64) = (22, 5, 327430, 14970429556119162646);
const AFTER_REPAIR: (usize, usize, u64, u64) = (25, 4, 335066, 17104190234719106343);
