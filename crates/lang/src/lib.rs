//! HiveQL-subset front-end.
//!
//! The paper's queries "are declarative and posed directly over the log
//! data, such that the log schema of interest is specified within the query
//! itself and is extracted during query execution", written in HiveQL with
//! UDFs. This crate implements the subset that workload needs:
//!
//! ```sql
//! SELECT t.user_id AS uid, COUNT(*) AS n
//! FROM twitter t JOIN foursquare f ON t.user_id = f.user_id
//! WHERE array_contains(t.hashtags, 'pizza') AND f.likes > 10
//! GROUP BY t.user_id
//! HAVING COUNT(*) > 2
//! ORDER BY n DESC
//! LIMIT 100
//! ```
//!
//! plus derived tables `(SELECT ...) alias` and table-valued UDF application
//! `APPLY(udf_name, table_ref) alias` (our rendering of Hive's
//! `TRANSFORM ... USING`).
//!
//! Field references like `t.user_id` lower to JSON field extraction from the
//! log's `record` column, cast per the [`Catalog`]'s per-log field type hints
//! — exactly the SerDe role in Hive.
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → [`lower`] →
//! [`miso_plan::LogicalPlan`].

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

use miso_common::Result;
use miso_data::{DataType, Schema};
use miso_plan::LogicalPlan;
use std::collections::HashMap;

/// Name-resolution context: which logs exist, what their well-known field
/// types are (the SerDe hints), and which UDFs are declared.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    logs: HashMap<String, HashMap<String, DataType>>,
    udfs: HashMap<String, Schema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a base log and its field type hints. Fields not listed
    /// still resolve, with type `Json`.
    pub fn add_log(
        &mut self,
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (&'static str, DataType)>,
    ) {
        self.logs.insert(
            name.into(),
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
    }

    /// Registers a UDF's declared output schema.
    pub fn add_udf(&mut self, name: impl Into<String>, output: Schema) {
        self.udfs.insert(name.into(), output);
    }

    /// Whether `name` is a known base log.
    pub fn has_log(&self, name: &str) -> bool {
        self.logs.contains_key(name)
    }

    /// The hinted type of `log.field`, if any.
    pub fn field_hint(&self, log: &str, field: &str) -> Option<DataType> {
        self.logs.get(log).and_then(|m| m.get(field)).copied()
    }

    /// The declared output schema of a UDF.
    pub fn udf_output(&self, name: &str) -> Option<&Schema> {
        self.udfs.get(name)
    }

    /// The standard catalog for the three synthetic logs, with SerDe hints
    /// matching `miso_data::logs`.
    pub fn standard() -> Self {
        use DataType::*;
        let mut c = Catalog::new();
        c.add_log(
            "twitter",
            [
                ("tweet_id", Int),
                ("user_id", Int),
                ("ts", Int),
                ("text", Str),
                ("hashtags", Json),
                ("retweets", Int),
                ("followers", Int),
                ("lang", Str),
                ("city", Str),
                ("sentiment", Float),
            ],
        );
        c.add_log(
            "foursquare",
            [
                ("checkin_id", Int),
                ("user_id", Int),
                ("venue_id", Int),
                ("ts", Int),
                ("likes", Int),
                ("with_friends", Bool),
                ("city", Str),
            ],
        );
        c.add_log(
            "landmarks",
            [
                ("venue_id", Int),
                ("name", Str),
                ("category", Str),
                ("city", Str),
                ("lat", Float),
                ("lon", Float),
                ("rating", Float),
                ("price_tier", Int),
            ],
        );
        c
    }
}

/// Parses and lowers a HiveQL query to a logical plan in one call.
pub fn compile(sql: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    let mut obs = miso_obs::span("lang.compile");
    miso_obs::count("lang.queries_compiled", 1);
    let query = parser::parse(sql)?;
    let plan = lower::lower(&query, catalog)?;
    if obs.is_active() {
        obs.push_field("sql_bytes", miso_obs::FieldValue::U64(sql.len() as u64));
        obs.push_field("plan_nodes", miso_obs::FieldValue::U64(plan.len() as u64));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_has_three_logs() {
        let c = Catalog::standard();
        for log in ["twitter", "foursquare", "landmarks"] {
            assert!(c.has_log(log));
        }
        assert_eq!(c.field_hint("twitter", "user_id"), Some(DataType::Int));
        assert_eq!(c.field_hint("twitter", "nope"), None);
        assert!(!c.has_log("instagram"));
    }

    #[test]
    fn compile_end_to_end_smoke() {
        let plan = compile(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city",
            &Catalog::standard(),
        )
        .unwrap();
        assert_eq!(plan.schema().names(), vec!["city", "n"]);
        assert_eq!(plan.base_logs(), vec!["twitter"]);
    }

    /// Queries whose tree is `n` levels deep, in the forms lowering recurses
    /// over.
    fn deep_queries(n: usize) -> Vec<String> {
        vec![
            format!(
                "SELECT {}t.user_id{} AS u FROM twitter t",
                "(".repeat(n),
                ")".repeat(n)
            ),
            format!(
                "SELECT t.user_id FROM twitter t WHERE {}t.followers > 1",
                "NOT ".repeat(n)
            ),
            format!(
                "SELECT t.user_id FROM twitter t WHERE t.followers > 1{}",
                " AND t.followers > 1".repeat(n)
            ),
            format!("SELECT t.user_id{} AS u FROM twitter t", " + 1".repeat(n)),
            format!(
                "SELECT t.u FROM {}(SELECT t.user_id AS u FROM twitter t) t{}",
                "(SELECT t.u AS u FROM ".repeat(n - 1),
                ") t".repeat(n - 1)
            ),
        ]
    }

    #[test]
    fn compiles_at_the_depth_limit_and_refuses_past_it() {
        let catalog = Catalog::standard();
        for sql in deep_queries(parser::MAX_DEPTH) {
            if let Err(e) = compile(&sql, &catalog) {
                panic!("{e} in {}…", &sql[..80]);
            }
        }
        for n in [parser::MAX_DEPTH + 1, 100_000] {
            for sql in deep_queries(n) {
                let err = compile(&sql, &catalog).expect_err("too deep");
                assert!(matches!(err, miso_common::MisoError::Parse(_)), "{err}");
            }
        }
    }
}
