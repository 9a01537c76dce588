//! The evolutionary analytics workload.
//!
//! The paper evaluates on "32 complex analytical queries given in \[14\] ...
//! for restaurant marketing scenarios. The queries model eight data
//! analysts, each posing and iteratively refining a query multiple times
//! during their data exploration. Each analyst (Ai) evolves a query through
//! four versions Aiv1..Aiv4; an evolved version represents a mutation of the
//! previous, thus there is some overlap between queries."
//!
//! \[14\]'s exact query text is not public, so [`evolutionary_queries`]
//! reconstructs the workload's *structure*: eight marketing analyses over
//! the synthetic Twitter/Foursquare/Landmarks logs, each evolving through
//! four versions whose mutations follow \[14\]'s taxonomy — adding aggregates,
//! adding HAVING/ORDER/LIMIT refinement, adding a join, tightening
//! predicates — so that consecutive versions share subexpressions exactly
//! where opportunistic views can capture them. Two analyses use a UDF
//! (`buzz_score`), pinning part of their plans to HV.
//!
//! [`standard_udfs`]/[`workload_catalog`] supply the matching UDF registry
//! and language catalog; [`compile_workload`] lowers all 32 queries.

pub mod background;

use miso_common::Result;
use miso_data::{DataType, Field, Row, Schema, Value};
use miso_exec::{Udf, UdfRegistry};
use miso_lang::{compile, Catalog};
use miso_plan::LogicalPlan;
use std::sync::Arc;

/// One workload entry: paper-style label (`A1v2`) and its HiveQL text.
#[derive(Debug, Clone)]
pub struct WorkloadQuerySpec {
    /// Label, `A<analyst>v<version>`.
    pub label: String,
    /// HiveQL text.
    pub sql: String,
}

/// The language catalog for the workload: the standard logs plus the
/// workload's UDF signatures.
pub fn workload_catalog() -> Catalog {
    let mut c = Catalog::standard();
    c.add_udf("buzz_score", buzz_schema());
    c
}

fn buzz_schema() -> Schema {
    Schema::new(vec![
        Field::new("user_id", DataType::Int),
        Field::new("buzz", DataType::Float),
        Field::new("city", DataType::Str),
    ])
}

/// The workload's UDFs as executable registrations.
///
/// `buzz_score` models the paper's opaque user code: it reads raw tweet
/// records and emits a per-tweet engagement score — something expressible
/// only as code, not HiveQL (log-scaled retweets damped by follower count,
/// dropped for non-English or malformed records). It declares the five
/// record fields it reads, so a scan under it is served from the log's
/// column image.
pub fn standard_udfs() -> UdfRegistry {
    let mut reg = UdfRegistry::new();
    reg.register(
        Udf::new(
            "buzz_score",
            buzz_schema(),
            Arc::new(|fields: &Row| {
                if fields.get(0).as_str() != Some("en") {
                    return Ok(vec![]);
                }
                let (Some(uid), Some(rts), Some(fol), Some(city)) = (
                    fields.get(1).as_i64(),
                    fields.get(2).as_f64(),
                    fields.get(3).as_f64(),
                    fields.get(4).as_str(),
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
        )
        .reading(&["lang", "user_id", "retweets", "followers", "city"]),
    );
    reg
}

/// The 32 queries (8 analysts × 4 versions).
///
/// Stream order models \[14\]'s *concurrent* analysts: sessions overlap, so
/// successive versions of one analyst's query are separated by other
/// analysts' queries. We interleave in cohorts of three (A1,A2,A3 alternate
/// versions, then A4,A5,A6, then A7,A8) — a version's successor arrives
/// about one reorganization phase later, which is exactly the dynamics the
/// online tuner is designed for.
pub fn evolutionary_queries() -> Vec<WorkloadQuerySpec> {
    let by_analyst = authored_queries();
    let mut out = Vec::with_capacity(32);
    for cohort in [[1usize, 2, 3].as_slice(), &[4, 5, 6], &[7, 8]] {
        for version in 0..4 {
            for &analyst in cohort {
                out.push(by_analyst[(analyst - 1) * 4 + version].clone());
            }
        }
    }
    out
}

/// The queries in authoring order (A1v1..A1v4, A2v1..A2v4, ...).
pub fn authored_queries() -> Vec<WorkloadQuerySpec> {
    let mut out = Vec::with_capacity(32);
    let mut push = |analyst: usize, version: usize, sql: &str| {
        out.push(WorkloadQuerySpec {
            label: format!("A{analyst}v{version}"),
            sql: sql.to_string(),
        });
    };

    // ---- A1: pizza buzz by city (Twitter). v2 refines the aggregate view;
    // v3 changes the aggregate set but reuses the filtered extraction;
    // v4 refines v3's aggregate view.
    push(
        1,
        1,
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS avg_sent \
         FROM twitter t \
         WHERE array_contains(t.hashtags, 'pizza') AND t.followers > 1000 \
         GROUP BY t.city",
    );
    push(
        1,
        2,
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS avg_sent \
         FROM twitter t \
         WHERE array_contains(t.hashtags, 'pizza') AND t.followers > 1000 \
         GROUP BY t.city HAVING COUNT(*) > 5 ORDER BY n DESC",
    );
    push(
        1,
        3,
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS avg_sent, \
                MAX(t.followers) AS top_followers \
         FROM twitter t \
         WHERE array_contains(t.hashtags, 'pizza') AND t.followers > 1000 \
         GROUP BY t.city",
    );
    push(
        1,
        4,
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS avg_sent, \
                MAX(t.followers) AS top_followers \
         FROM twitter t \
         WHERE array_contains(t.hashtags, 'pizza') AND t.followers > 1000 \
         GROUP BY t.city ORDER BY top_followers DESC LIMIT 10",
    );

    // ---- A2: restaurant check-ins (Foursquare ⋈ Landmarks). v2 refines,
    // v3 swaps the aggregate set over the same join, v4 refines v3.
    push(
        2,
        1,
        "SELECT l.city AS city, COUNT(*) AS checkins, AVG(l.rating) AS avg_rating \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 5 AND l.category = 'restaurant' \
         GROUP BY l.city",
    );
    push(
        2,
        2,
        "SELECT l.city AS city, COUNT(*) AS checkins, AVG(l.rating) AS avg_rating \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 5 AND l.category = 'restaurant' \
         GROUP BY l.city HAVING COUNT(*) > 10 ORDER BY checkins DESC",
    );
    push(
        2,
        3,
        "SELECT l.city AS city, COUNT(*) AS checkins, MAX(l.rating) AS best \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 5 AND l.category = 'restaurant' \
         GROUP BY l.city",
    );
    push(
        2,
        4,
        "SELECT l.city AS city, COUNT(*) AS checkins, MAX(l.rating) AS best \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 5 AND l.category = 'restaurant' \
         GROUP BY l.city HAVING MAX(l.rating) > 4.0 ORDER BY best DESC LIMIT 5",
    );

    // ---- A3: engagement scoring via the buzz_score UDF (HV-pinned).
    push(
        3,
        1,
        "SELECT b.user_id AS uid, MAX(b.buzz) AS peak \
         FROM APPLY(buzz_score, twitter) b \
         WHERE b.buzz > 0.5 GROUP BY b.user_id",
    );
    push(
        3,
        2,
        "SELECT b.user_id AS uid, MAX(b.buzz) AS peak \
         FROM APPLY(buzz_score, twitter) b \
         WHERE b.buzz > 0.5 GROUP BY b.user_id \
         HAVING MAX(b.buzz) > 2.0 ORDER BY peak DESC",
    );
    push(
        3,
        3,
        "SELECT b.user_id AS uid, MAX(b.buzz) AS peak, COUNT(*) AS checkins \
         FROM APPLY(buzz_score, twitter) b \
         JOIN foursquare f ON b.user_id = f.user_id \
         WHERE b.buzz > 0.5 AND f.likes > 2 \
         GROUP BY b.user_id",
    );
    push(
        3,
        4,
        "SELECT b.user_id AS uid, MAX(b.buzz) AS peak, COUNT(*) AS checkins \
         FROM APPLY(buzz_score, twitter) b \
         JOIN foursquare f ON b.user_id = f.user_id \
         WHERE b.buzz > 0.5 AND f.likes > 2 \
         GROUP BY b.user_id ORDER BY peak DESC LIMIT 20",
    );

    // ---- A4: influencer activity (Twitter ⋈ Foursquare). v3 tightens the
    // Foursquare branch (drift), v4 refines v3.
    push(
        4,
        1,
        "SELECT t.city AS city, COUNT(*) AS activity \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
         WHERE t.followers > 30000 AND f.likes > 10 \
         GROUP BY t.city",
    );
    push(
        4,
        2,
        "SELECT t.city AS city, COUNT(*) AS activity, COUNT(DISTINCT t.user_id) AS users \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
         WHERE t.followers > 30000 AND f.likes > 10 \
         GROUP BY t.city",
    );
    push(
        4,
        3,
        "SELECT t.city AS city, COUNT(*) AS activity, COUNT(DISTINCT t.user_id) AS users \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
         WHERE t.followers > 30000 AND f.likes > 10 AND f.with_friends = TRUE \
         GROUP BY t.city",
    );
    push(
        4,
        4,
        "SELECT t.city AS city, COUNT(*) AS activity, COUNT(DISTINCT t.user_id) AS users \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
         WHERE t.followers > 30000 AND f.likes > 10 AND f.with_friends = TRUE \
         GROUP BY t.city HAVING COUNT(DISTINCT t.user_id) > 3 ORDER BY activity DESC",
    );

    // ---- A5: coffee-talk sentiment by language (Twitter text search).
    push(
        5,
        1,
        "SELECT t.lang AS lang, COUNT(*) AS n, AVG(t.sentiment) AS mood, \
                SUM(t.retweets) AS reach \
         FROM twitter t WHERE contains(t.text, 'coffee') \
         GROUP BY t.lang",
    );
    push(
        5,
        2,
        "SELECT t.lang AS lang, COUNT(*) AS n, AVG(t.sentiment) AS mood, \
                SUM(t.retweets) AS reach \
         FROM twitter t WHERE contains(t.text, 'coffee') \
         GROUP BY t.lang HAVING COUNT(*) > 5 ORDER BY mood DESC",
    );
    push(
        5,
        3,
        "SELECT t.lang AS lang, COUNT(*) AS n, AVG(t.sentiment) AS mood, \
                SUM(t.retweets) AS reach \
         FROM twitter t WHERE contains(t.text, 'coffee') AND t.retweets > 10 \
         GROUP BY t.lang",
    );
    push(
        5,
        4,
        "SELECT t.lang AS lang, COUNT(*) AS n, AVG(t.sentiment) AS mood, \
                SUM(t.retweets) AS reach \
         FROM twitter t WHERE contains(t.text, 'coffee') AND t.retweets > 10 \
         GROUP BY t.lang ORDER BY reach DESC LIMIT 3",
    );

    // ---- A6: when do friends check in (Foursquare temporal).
    push(
        6,
        1,
        "SELECT day(f.ts) AS d, COUNT(*) AS n \
         FROM foursquare f WHERE f.with_friends = TRUE \
         GROUP BY day(f.ts)",
    );
    push(
        6,
        2,
        "SELECT day(f.ts) AS d, COUNT(*) AS n \
         FROM foursquare f WHERE f.with_friends = TRUE \
         GROUP BY day(f.ts) HAVING COUNT(*) > 3 ORDER BY n DESC",
    );
    push(
        6,
        3,
        "SELECT hour(f.ts) AS h, COUNT(*) AS n \
         FROM foursquare f WHERE f.with_friends = TRUE \
         GROUP BY hour(f.ts)",
    );
    push(
        6,
        4,
        "SELECT hour(f.ts) AS h, COUNT(*) AS n \
         FROM foursquare f WHERE f.with_friends = TRUE \
         GROUP BY hour(f.ts) HAVING COUNT(*) > 10 ORDER BY n DESC",
    );

    // ---- A7: price-tier performance (Foursquare ⋈ Landmarks).
    push(
        7,
        1,
        "SELECT l.price_tier AS tier, COUNT(*) AS visits, AVG(f.likes) AS avg_likes, \
                MIN(l.category) AS sample_cat \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE l.rating > 3.0 AND l.category <> 'mall' \
         GROUP BY l.price_tier",
    );
    push(
        7,
        2,
        "SELECT l.price_tier AS tier, COUNT(*) AS visits, AVG(f.likes) AS avg_likes, \
                MIN(l.category) AS sample_cat \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE l.rating > 3.0 AND l.category <> 'mall' \
         GROUP BY l.price_tier HAVING COUNT(*) > 10",
    );
    push(
        7,
        3,
        "SELECT l.category AS cat, COUNT(*) AS visits, AVG(f.likes) AS avg_likes, \
                MIN(l.price_tier) AS cheapest \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE l.rating > 3.0 AND l.category <> 'mall' \
         GROUP BY l.category",
    );
    push(
        7,
        4,
        "SELECT l.category AS cat, COUNT(*) AS visits, AVG(f.likes) AS avg_likes, \
                MIN(l.price_tier) AS cheapest \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE l.rating > 3.0 AND l.category <> 'mall' \
         GROUP BY l.category ORDER BY visits DESC LIMIT 5",
    );

    // ---- A8: where do influential users go (three-way join).
    push(
        8,
        1,
        "SELECT l.category AS cat, COUNT(*) AS n \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
                        JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE t.followers > 30000 AND f.likes > 10 AND l.rating > 4.0 \
         GROUP BY l.category",
    );
    push(
        8,
        2,
        "SELECT l.category AS cat, COUNT(*) AS n, COUNT(DISTINCT t.user_id) AS users \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
                        JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE t.followers > 30000 AND f.likes > 10 AND l.rating > 4.0 \
         GROUP BY l.category",
    );
    push(
        8,
        3,
        "SELECT l.category AS cat, COUNT(*) AS n, COUNT(DISTINCT t.user_id) AS users \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
                        JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE t.followers > 30000 AND f.likes > 10 AND t.sentiment > 0.0 AND l.rating > 4.0 \
         GROUP BY l.category",
    );
    push(
        8,
        4,
        "SELECT l.category AS cat, COUNT(*) AS n, COUNT(DISTINCT t.user_id) AS users \
         FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
                        JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE t.followers > 30000 AND f.likes > 10 AND t.sentiment > 0.0 AND l.rating > 4.0 \
         GROUP BY l.category HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 10",
    );

    out
}

/// Compiles the whole workload to `(label, plan)` pairs.
pub fn compile_workload(catalog: &Catalog) -> Result<Vec<(String, LogicalPlan)>> {
    evolutionary_queries()
        .into_iter()
        .map(|q| Ok((q.label, compile(&q.sql, catalog)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn thirty_two_queries_eight_analysts() {
        let qs = evolutionary_queries();
        assert_eq!(qs.len(), 32);
        for analyst in 1..=8 {
            for version in 1..=4 {
                assert!(qs
                    .iter()
                    .any(|q| q.label == format!("A{analyst}v{version}")));
            }
        }
    }

    #[test]
    fn all_queries_compile() {
        let catalog = workload_catalog();
        let plans = compile_workload(&catalog).unwrap();
        assert_eq!(plans.len(), 32);
        for (label, plan) in &plans {
            assert!(plan.len() >= 4, "{label} is too trivial: {}", plan.render());
        }
    }

    #[test]
    fn udf_queries_are_hv_pinned() {
        let catalog = workload_catalog();
        let plans = compile_workload(&catalog).unwrap();
        let udf_count = plans.iter().filter(|(_, p)| p.has_udf()).count();
        assert_eq!(udf_count, 4, "all four A3 versions use the UDF");
    }

    #[test]
    fn consecutive_versions_share_subexpressions() {
        // The workload's whole premise: vN+1 shares a materializable subtree
        // with vN for most analysts.
        let catalog = workload_catalog();
        let plans: Vec<(String, LogicalPlan)> = authored_queries()
            .into_iter()
            .map(|q| (q.label, compile(&q.sql, &catalog).unwrap()))
            .collect();
        let mut sharing_pairs = 0;
        let mut total_pairs = 0;
        for analyst in 0..8 {
            for version in 0..3 {
                let (_, a) = &plans[analyst * 4 + version];
                let (_, b) = &plans[analyst * 4 + version + 1];
                total_pairs += 1;
                let fps_a: HashSet<u64> = a.fingerprints().iter().map(|f| f.0).collect();
                let fps_b: HashSet<u64> = b.fingerprints().iter().map(|f| f.0).collect();
                // Shared non-leaf subexpression (leaves trivially collide).
                let shared_nontrivial = fps_a.intersection(&fps_b).count() > 2;
                if shared_nontrivial {
                    sharing_pairs += 1;
                }
            }
        }
        assert!(
            sharing_pairs >= total_pairs * 2 / 3,
            "only {sharing_pairs}/{total_pairs} consecutive pairs overlap"
        );
    }

    #[test]
    fn refinement_versions_reuse_the_aggregate_stage() {
        // A1v2 (v1 + HAVING/ORDER) must be able to consume A1v1's
        // materialized aggregate stage output as a view: v1's aggregate node
        // is an HV stage boundary, so its output is exactly what HV leaves
        // behind.
        let catalog = workload_catalog();
        let plans: Vec<(String, LogicalPlan)> = authored_queries()
            .into_iter()
            .map(|q| (q.label, compile(&q.sql, &catalog).unwrap()))
            .collect();
        let (_, v1) = &plans[0];
        let (_, v2) = &plans[1];
        let agg = v1
            .nodes()
            .iter()
            .find(|n| matches!(n.op, miso_plan::Operator::Aggregate { .. }))
            .unwrap()
            .id;
        let agg_fp = v1.fingerprint(agg);
        let available: HashSet<String> = [agg_fp.view_name()].into_iter().collect();
        let rewrite = miso_views::rewrite_with_views(v2, &available);
        assert_eq!(
            rewrite.used.len(),
            1,
            "A1v2 should scan A1v1's aggregate view:\n{}",
            v2.render()
        );
        // The rewritten v2 has no base-log scans left: with the view in DW
        // the whole query can bypass HV.
        assert!(rewrite.plan().base_logs().is_empty());
    }

    #[test]
    fn udf_executes_over_corpus() {
        use miso_data::logs::{Corpus, LogsConfig};
        use miso_exec::engine::{execute, MemSource};
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let mut src = MemSource::new();
        src.add_log("twitter", corpus.twitter.lines.to_vec());
        let catalog = workload_catalog();
        let plan = compile(
            "SELECT b.city AS city, AVG(b.buzz) AS avg_buzz \
             FROM APPLY(buzz_score, twitter) b GROUP BY b.city",
            &catalog,
        )
        .unwrap();
        let exec = execute(&plan, &src, &standard_udfs()).unwrap();
        assert!(!exec.root_rows().unwrap().is_empty());
    }
}
