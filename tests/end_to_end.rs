//! Cross-crate integration tests: the full multistore system driven over a
//! real (tiny) corpus and a real workload slice, checking the paper's
//! qualitative claims and the system's internal invariants.

use miso::common::{Budgets, ByteSize};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::lang::compile;
use miso::plan::estimate::StatsSource;
use miso::plan::LogicalPlan;
use miso::workload::{standard_udfs, workload_catalog};

fn tiny_corpus() -> Corpus {
    Corpus::generate(&LogsConfig::tiny())
}

fn budgets() -> Budgets {
    Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_mib(4),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(16))
}

fn system(corpus: &Corpus) -> MultistoreSystem {
    MultistoreSystem::new(
        corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    )
}

/// A small evolving stream exercising joins, UDFs, refinement, and drift.
fn stream() -> Vec<(String, LogicalPlan)> {
    let catalog = workload_catalog();
    [
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city",
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city HAVING COUNT(*) > 2 ORDER BY n DESC",
        "SELECT l.category AS cat, COUNT(*) AS n \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 1 GROUP BY l.category",
        "SELECT b.city AS city, MAX(b.buzz) AS peak FROM APPLY(buzz_score, twitter) b \
         WHERE b.buzz > 0.1 GROUP BY b.city",
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city ORDER BY mood DESC LIMIT 3",
        "SELECT l.category AS cat, COUNT(*) AS n \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 1 GROUP BY l.category ORDER BY n DESC",
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| (format!("q{i}"), compile(sql, &catalog).unwrap()))
    .collect()
}

#[test]
fn all_variants_compute_identical_results() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut reference: Option<Vec<u64>> = None;
    for variant in Variant::ALL {
        let mut sys = system(&corpus);
        let result = sys.run_workload(variant, &queries).unwrap();
        let counts: Vec<u64> = result.records.iter().map(|r| r.result_rows).collect();
        match &reference {
            None => reference = Some(counts),
            Some(expected) => {
                assert_eq!(expected, &counts, "{variant} disagrees on results")
            }
        }
    }
}

#[test]
fn tuned_variants_beat_untuned() {
    let corpus = tiny_corpus();
    let queries = stream();
    let total = |variant: Variant| {
        let mut sys = system(&corpus);
        sys.run_workload(variant, &queries)
            .unwrap()
            .tti_total()
            .as_secs_f64()
    };
    let hv_only = total(Variant::HvOnly);
    let ms_basic = total(Variant::MsBasic);
    let ms_miso = total(Variant::MsMiso);
    assert!(
        ms_basic <= hv_only * 1.01,
        "multistore never loses to HV-only"
    );
    assert!(ms_miso < hv_only, "MISO accelerates the stream");
    assert!(ms_miso < ms_basic, "tuning beats per-query splitting alone");
}

#[test]
fn dw_storage_budget_is_respected_after_every_reorg() {
    let corpus = tiny_corpus();
    let queries = stream();
    // Very small DW budget to force real knapsack pressure.
    let tight = Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_kib(64),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(8));
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(tight),
    );
    sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert!(
        sys.dw.views.total_bytes() <= ByteSize::from_kib(64),
        "DW design exceeds B_d: {}",
        sys.dw.views.total_bytes()
    );
}

#[test]
fn designs_stay_disjoint_and_catalog_consistent() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut sys = system(&corpus);
    sys.run_workload(Variant::MsMiso, &queries).unwrap();
    let hv: Vec<String> = sys.hv.view_names();
    let dw: Vec<String> = sys.dw.view_names();
    for v in &hv {
        assert!(!dw.contains(v), "view {v} duplicated across stores");
    }
    // Every resident view has catalog metadata; every catalog entry is
    // resident somewhere.
    for v in hv.iter().chain(dw.iter()) {
        assert!(
            sys.catalog.contains(v),
            "resident view {v} missing from catalog"
        );
    }
    for name in sys.catalog.names() {
        assert!(sys.resident(&name), "catalog entry {name} resident nowhere");
    }
}

/// The optimizer reads view sizes from the catalog alone: on a played
/// stream every view either store holds has the rows and size its catalog
/// entry records, and the stats carry exactly those.
#[test]
fn resident_view_stats_equal_their_catalog_entries() {
    let corpus = tiny_corpus();
    let queries = stream();
    for variant in [Variant::MsMiso, Variant::MsLru] {
        let mut sys = system(&corpus);
        sys.run_workload(variant, &queries).unwrap();
        let stats = sys.build_stats();
        let mut resident = 0;
        for (store, shelf) in [("HV", &sys.hv.views), ("DW", &sys.dw.views)] {
            for (name, view) in shelf.iter() {
                resident += 1;
                let what = format!("{variant}: {store} view {name}");
                let def = sys
                    .catalog
                    .get(name)
                    .unwrap_or_else(|| panic!("{what}: no entry"));
                assert_eq!(
                    (view.batch.len() as u64, view.size),
                    (def.rows, def.size),
                    "{what}"
                );
                let est = stats
                    .view_stats(name)
                    .unwrap_or_else(|| panic!("{what}: no stats"));
                assert_eq!(
                    (est.rows, est.bytes),
                    (view.batch.len() as f64, view.size.as_bytes() as f64),
                    "{what}"
                );
            }
        }
        assert!(resident > 0, "{variant}: the stream leaves views resident");
    }
}

#[test]
fn zero_transfer_budget_disables_dw_placement() {
    let corpus = tiny_corpus();
    let queries = stream();
    let frozen = Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_mib(4),
        ByteSize::ZERO,
    )
    .with_discretization(ByteSize::from_kib(16));
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(frozen),
    );
    let result = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert!(
        sys.dw.view_names().is_empty(),
        "nothing can move under B_t = 0"
    );
    assert!(result.reorgs.iter().all(|r| r.moved_to_dw.is_empty()));
}

#[test]
fn oracle_never_loses_to_miso() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut miso_sys = system(&corpus);
    let miso = miso_sys.run_workload(Variant::MsMiso, &queries).unwrap();
    let mut ora_sys = system(&corpus);
    let ora = ora_sys.run_workload(Variant::MsOra, &queries).unwrap();
    assert!(
        ora.tti_total().as_secs_f64() <= miso.tti_total().as_secs_f64() * 1.05,
        "oracle {} vs miso {}",
        ora.tti_total(),
        miso.tti_total()
    );
}

#[test]
fn dw_only_etl_dominates_and_queries_are_fast() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut sys = system(&corpus);
    let result = sys.run_workload(Variant::DwOnly, &queries).unwrap();
    assert!(result.tti.etl > result.tti.dw_exe);
    // Every post-ETL query is far faster than its HV-only twin.
    let mut hv_sys = system(&corpus);
    let hv = hv_sys.run_workload(Variant::HvOnly, &queries).unwrap();
    for (dw_rec, hv_rec) in result.records.iter().zip(&hv.records) {
        assert!(
            dw_rec.exec_total().as_secs_f64() < hv_rec.exec_total().as_secs_f64() / 5.0,
            "{}: {} vs {}",
            dw_rec.label,
            dw_rec.exec_total(),
            hv_rec.exec_total()
        );
    }
}

#[test]
fn records_and_clock_are_consistent() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut sys = system(&corpus);
    let result = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert_eq!(result.records.len(), queries.len());
    // finished_at is monotone and the last one equals total TTI.
    let times = result.cumulative_tti();
    for pair in times.windows(2) {
        assert!(pair[0] <= pair[1]);
    }
    assert_eq!(*times.last().unwrap(), result.tti_total());
    // The TTI breakdown equals the sum of per-query components plus
    // tune/etl.
    let per_query_sum: f64 = result
        .records
        .iter()
        .map(|r| r.exec_total().as_secs_f64())
        .sum();
    let breakdown = result.tti.hv_exe + result.tti.dw_exe + result.tti.transfer;
    assert!((per_query_sum - breakdown.as_secs_f64()).abs() < 1.0);
}

#[test]
fn lru_variants_respect_budgets_between_queries() {
    let corpus = tiny_corpus();
    let queries = stream();
    let tight = Budgets::new(
        ByteSize::from_kib(256),
        ByteSize::from_kib(64),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(8));
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(tight),
    );
    sys.run_workload(Variant::MsLru, &queries).unwrap();
    assert!(sys.hv.views.total_bytes() <= ByteSize::from_kib(256));
    assert!(sys.dw.views.total_bytes() <= ByteSize::from_kib(64));
}
