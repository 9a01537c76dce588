//! Result-correctness integration tests: every rewrite, split, and store
//! path must compute exactly the same rows.

use miso::data::logs::{Corpus, LogsConfig};
use miso::data::Row;
use miso::exec::engine::execute;
use miso::exec::MemSource;
use miso::hv::HvStore;
use miso::lang::compile;
use miso::views::rewrite_with_views;
use miso::workload::{authored_queries, standard_udfs, workload_catalog};
use std::collections::HashSet;

fn corpus() -> Corpus {
    Corpus::generate(&LogsConfig::tiny())
}

fn mem_source(corpus: &Corpus) -> MemSource {
    let mut src = MemSource::new();
    src.add_log("twitter", corpus.twitter.lines.to_vec());
    src.add_log("foursquare", corpus.foursquare.lines.to_vec());
    src.add_log("landmarks", corpus.landmarks.lines.to_vec());
    src
}

/// Sorts rows into a canonical bag for order-insensitive comparison.
fn bag(rows: &[Row]) -> Vec<Row> {
    let mut sorted = rows.to_vec();
    sorted.sort();
    sorted
}

#[test]
fn every_workload_query_executes_and_is_deterministic() {
    let corpus = corpus();
    let src = mem_source(&corpus);
    let catalog = workload_catalog();
    let udfs = standard_udfs();
    for spec in authored_queries() {
        let plan = compile(&spec.sql, &catalog)
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", spec.label));
        let a = execute(&plan, &src, &udfs)
            .unwrap_or_else(|e| panic!("{} fails to execute: {e}", spec.label));
        let b = execute(&plan, &src, &udfs).unwrap();
        assert_eq!(
            a.root_rows().unwrap(),
            b.root_rows().unwrap(),
            "{} is nondeterministic",
            spec.label
        );
    }
}

#[test]
fn view_rewrites_preserve_results_for_every_workload_query() {
    // For each query: materialize every internal subtree as a view, rewrite
    // the query over it, and check the rewritten plan computes identical
    // rows. This is the no-corruption guarantee of semantic matching.
    let corpus = corpus();
    let src = mem_source(&corpus);
    let catalog = workload_catalog();
    let udfs = standard_udfs();
    for spec in authored_queries().into_iter().step_by(3) {
        let plan = compile(&spec.sql, &catalog).unwrap();
        let baseline = execute(&plan, &src, &udfs).unwrap();
        for node in plan.nodes() {
            if node.op.is_scan() || node.id == plan.root() {
                continue;
            }
            // Materialize this subtree's output as a view.
            let name = plan.fingerprint(node.id).view_name();
            let mut view_src = mem_source(&corpus);
            view_src.add_batch(
                name.clone(),
                baseline.batch(node.id).unwrap().as_ref().clone(),
            );
            let available: HashSet<String> = [name.clone()].into_iter().collect();
            let rewrite = rewrite_with_views(&plan, &available);
            if rewrite.used.is_empty() {
                continue; // node sits below a larger replaced subtree sibling
            }
            let rewritten = execute(&rewrite.plan(), &view_src, &udfs).unwrap();
            assert_eq!(
                bag(baseline.root_rows().unwrap()),
                bag(rewritten.root_rows().unwrap()),
                "{}: rewrite over {} changed results\nplan:\n{}",
                spec.label,
                name,
                rewrite.plan().render()
            );
        }
    }
}

#[test]
fn hv_store_matches_plain_executor() {
    let corpus = corpus();
    let mut hv = HvStore::new();
    hv.add_log(corpus.twitter.clone());
    hv.add_log(corpus.foursquare.clone());
    hv.add_log(corpus.landmarks.clone());
    let src = mem_source(&corpus);
    let catalog = workload_catalog();
    let udfs = standard_udfs();
    for spec in authored_queries().into_iter().take(8) {
        let plan = compile(&spec.sql, &catalog).unwrap();
        let plain = execute(&plan, &src, &udfs).unwrap();
        let staged = hv.execute(&plan, None, &udfs).unwrap();
        assert_eq!(
            plain.root_rows().unwrap(),
            staged.execution.root_rows().unwrap(),
            "{}: staged HV execution differs",
            spec.label
        );
    }
}

#[test]
fn aggregates_agree_with_manual_computation() {
    // Independent oracle: recompute one workload aggregate by hand from the
    // raw JSON and compare.
    let corpus = corpus();
    let src = mem_source(&corpus);
    let catalog = workload_catalog();
    let plan = compile(
        "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
         WHERE t.followers > 100 GROUP BY t.city",
        &catalog,
    )
    .unwrap();
    let exec = execute(&plan, &src, &standard_udfs()).unwrap();
    let mut expected: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    for line in corpus.twitter.lines.iter() {
        let v = miso::data::json::parse_json(line).unwrap();
        let followers = v
            .get_field("followers")
            .and_then(miso::data::Value::as_i64)
            .unwrap();
        if followers > 100 {
            let city = v
                .get_field("city")
                .and_then(|c| c.as_str().map(str::to_string))
                .unwrap();
            *expected.entry(city).or_insert(0) += 1;
        }
    }
    let got: std::collections::HashMap<String, i64> = exec
        .root_rows()
        .unwrap()
        .iter()
        .map(|row| {
            (
                row.get(0).as_str().unwrap().to_string(),
                row.get(1).as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(expected, got);
}

#[test]
fn join_agrees_with_manual_computation() {
    let corpus = corpus();
    let src = mem_source(&corpus);
    let catalog = workload_catalog();
    let plan = compile(
        "SELECT COUNT(*) AS n \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE l.rating > 3.0",
        &catalog,
    )
    .unwrap();
    let exec = execute(&plan, &src, &standard_udfs()).unwrap();
    let got = exec.root_rows().unwrap()[0].get(0).as_i64().unwrap();

    // Manual: count check-ins whose venue is listed with rating > 3.
    let mut good_venues = std::collections::HashSet::new();
    for line in corpus.landmarks.lines.iter() {
        let v = miso::data::json::parse_json(line).unwrap();
        let rating = v
            .get_field("rating")
            .and_then(miso::data::Value::as_f64)
            .unwrap();
        if rating > 3.0 {
            good_venues.insert(
                v.get_field("venue_id")
                    .and_then(miso::data::Value::as_i64)
                    .unwrap(),
            );
        }
    }
    let expected = corpus
        .foursquare
        .lines
        .iter()
        .filter(|line| {
            let v = miso::data::json::parse_json(line).unwrap();
            let venue = v
                .get_field("venue_id")
                .and_then(miso::data::Value::as_i64)
                .unwrap();
            good_venues.contains(&venue)
        })
        .count() as i64;
    assert_eq!(expected, got);
}
