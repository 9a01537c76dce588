//! Up-front ETL for the DW-ONLY variant.
//!
//! DW-ONLY (paper §5.1) loads "the subset of the log data accessed by the
//! queries using HV as an ETL engine" before any query runs; UDFs that DW
//! cannot execute are applied during ETL. The paper measures this one-time
//! phase at ~348,000 s — dominating DW-ONLY's TTI.
//!
//! Mechanically: for every base log the workload touches we extract **all**
//! cataloged fields with an HV job and load the result into DW permanent
//! space as `etl_<log>`; for every `APPLY(udf, log)` in the workload we run
//! the UDF over the full log and load `etl_<udf>_<log>`. Queries are then
//! rewritten to scan these relations ([`rewrite_for_dw`]).
//!
//! The charged time is `(HV extraction + DW load) × overhead`, where the
//! multiplier stands in for the full Extract-Transform pipeline the paper's
//! ETL performs (cleansing, normalization, constraint checks, index builds —
//! "the high cost of an ETL process"; QoX \[21\]) that our two-step
//! extract+load does not otherwise model. See DESIGN.md §5. Retry backoffs
//! after injected failures are waiting, not work: they are charged once, on
//! top.

use miso_common::{DetRng, MisoError, Result, Retry, RetryPolicy, SimDuration, Turn};
use miso_data::DataType;
use miso_dw::DwStore;
use miso_exec::UdfRegistry;
use miso_hv::{HvRun, HvStore};
use miso_lang::Catalog;
use miso_plan::{Expr, LogicalPlan, Operator, PlanBuilder};

/// Default Extract-Transform overhead multiplier (see module docs).
pub const DEFAULT_ETL_OVERHEAD: f64 = 9.0;

/// What ETL produced.
#[derive(Debug, Clone, Default)]
pub struct EtlManifest {
    /// `(log name, DW table name)` for plain extractions.
    pub logs: Vec<(String, String)>,
    /// `((udf, log), DW table name)` for UDF applications.
    pub udfs: Vec<((String, String), String)>,
    /// Total charged ETL time.
    pub cost: SimDuration,
}

/// Runs ETL for `workload` into `dw`, using `hv` as the ETL engine.
pub fn run_etl(
    workload: &[LogicalPlan],
    lang_catalog: &Catalog,
    hv: &HvStore,
    dw: &mut DwStore,
    udfs: &UdfRegistry,
    overhead: f64,
) -> Result<EtlManifest> {
    let mut manifest = EtlManifest::default();
    let mut raw_cost = SimDuration::ZERO;
    // ETL jobs are long-running HV jobs: transient failures restart the
    // failed extraction with backoff charged to ETL time. The RNG is only
    // consulted when a fault actually fires, so fault-free runs are
    // byte-identical.
    let mut retry_rng = DetRng::new(0xE71_0001);
    let mut waited = SimDuration::ZERO;

    // Which logs and (udf, log) pairs does the workload touch?
    let mut logs: Vec<String> = Vec::new();
    let mut udf_pairs: Vec<(String, String)> = Vec::new();
    for plan in workload {
        for log in plan.base_logs() {
            if !logs.contains(&log) {
                logs.push(log);
            }
        }
        for node in plan.nodes() {
            if let Operator::Udf { name, .. } = &node.op {
                let input = plan.node(node.inputs[0]);
                if let Operator::ScanLog { log } = &input.op {
                    let pair = (name.clone(), log.clone());
                    if !udf_pairs.contains(&pair) {
                        udf_pairs.push(pair);
                    }
                }
            }
        }
    }
    logs.sort();
    udf_pairs.sort();

    // Full-field extraction per log.
    for log in &logs {
        let plan = full_extraction_plan(log, lang_catalog)?;
        let run = etl_job(hv, &plan, udfs, &mut retry_rng, &mut waited)?;
        raw_cost += run.cost;
        let root = plan.root();
        let out = run
            .materialized
            .iter()
            .find(|m| m.node == root)
            .ok_or_else(|| MisoError::Execution("ETL produced no output".into()))?;
        let table = format!("etl_{log}");
        let size = dw.views.put(&table, out.stored());
        raw_cost += dw.load_cost(size);
        manifest.logs.push((log.clone(), table));
    }

    // UDF application per (udf, log).
    for (udf, log) in &udf_pairs {
        let mut b = PlanBuilder::new();
        let scan = b.add(Operator::ScanLog { log: log.clone() }, vec![])?;
        let output = lang_catalog
            .udf_output(udf)
            .ok_or_else(|| MisoError::Analysis(format!("unknown UDF `{udf}`")))?
            .clone();
        let u = b.add(
            Operator::Udf {
                name: udf.clone(),
                output,
            },
            vec![scan],
        )?;
        let plan = b.finish(u)?;
        let run = etl_job(hv, &plan, udfs, &mut retry_rng, &mut waited)?;
        raw_cost += run.cost;
        let root = plan.root();
        let out = run
            .materialized
            .iter()
            .find(|m| m.node == root)
            .ok_or_else(|| MisoError::Execution("ETL UDF produced no output".into()))?;
        let table = format!("etl_{udf}_{log}");
        let size = dw.views.put(&table, out.stored());
        raw_cost += dw.load_cost(size);
        manifest.udfs.push(((udf.clone(), log.clone()), table));
    }

    manifest.cost = raw_cost * overhead.max(1.0) + waited;
    Ok(manifest)
}

/// Runs one ETL extraction job in HV, polling the `etl.run` fail point and
/// retrying transient failures (injected there or inside `hv.execute`) with
/// exponential backoff, which is added to `waited`. Crashes propagate so the
/// caller's recovery path runs instead.
fn etl_job(
    hv: &HvStore,
    plan: &LogicalPlan,
    udfs: &UdfRegistry,
    rng: &mut DetRng,
    waited: &mut SimDuration,
) -> Result<HvRun> {
    RetryPolicy::STANDARD.run(rng, |turn| {
        if let Turn::Waited(backoff) = turn {
            *waited += backoff;
            miso_obs::count("store.retries", 1);
        }
        // ETL is an offline bulk load with no per-query deadline or budget:
        // a stall is just an extreme slowdown, a hog a no-op.
        let strike = miso_chaos::strike("etl.run", "etl").map_err(Retry::transient)?;
        if strike.corrupt {
            // ETL re-reads the source log on every run, so a corrupt
            // extraction is indistinguishable from a transient failure.
            let e = MisoError::transient("etl", "injected ETL output corruption");
            return Err(Retry::Backoff(e));
        }
        let mut run = hv.execute(plan, None, udfs).map_err(Retry::transient)?;
        run.cost = strike.slowed(run.cost);
        Ok(run)
    })
}

/// Builds `scan(log) → project(all cataloged fields)`.
fn full_extraction_plan(log: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    let fields = catalog_fields(log, catalog)?;
    let mut b = PlanBuilder::new();
    let scan = b.add(
        Operator::ScanLog {
            log: log.to_string(),
        },
        vec![],
    )?;
    let exprs: Vec<(String, Expr)> = fields
        .iter()
        .map(|(f, ty)| {
            let e = Expr::col(0).get(f.clone());
            let e = if *ty != DataType::Json {
                e.cast(*ty)
            } else {
                e
            };
            (f.clone(), e)
        })
        .collect();
    let proj = b.add(Operator::Project { exprs }, vec![scan])?;
    b.finish(proj)
}

/// The cataloged fields of a log, in the order of its ETL table's columns
/// (the order the table is laid out in, not by name).
fn catalog_fields(log: &str, catalog: &Catalog) -> Result<Vec<(String, DataType)>> {
    // The lang catalog doesn't expose iteration; probe the known field set
    // via the standard schemas. To stay decoupled we reconstruct from the
    // three known logs plus any query-specific hints.
    let known: &[&str] = match log {
        "twitter" => &[
            "tweet_id",
            "user_id",
            "ts",
            "text",
            "hashtags",
            "retweets",
            "followers",
            "lang",
            "city",
            "sentiment",
        ],
        "foursquare" => &[
            "checkin_id",
            "user_id",
            "venue_id",
            "ts",
            "likes",
            "with_friends",
            "city",
        ],
        "landmarks" => &[
            "venue_id",
            "name",
            "category",
            "city",
            "lat",
            "lon",
            "rating",
            "price_tier",
        ],
        other => {
            return Err(MisoError::Analysis(format!(
                "ETL does not know the field set of log `{other}`"
            )))
        }
    };
    Ok(known
        .iter()
        .map(|f| {
            (
                f.to_string(),
                catalog.field_hint(log, f).unwrap_or(DataType::Json),
            )
        })
        .collect())
}

/// The schema of ETL table `table` as DW holds it.
fn etl_schema(dw: &DwStore, table: &str) -> Result<miso_data::Schema> {
    dw.views
        .get(table)
        .map(|v| v.schema.clone())
        .ok_or_else(|| MisoError::Store(format!("ETL table `{table}` missing")))
}

/// Rewrites a query plan to run entirely in DW over the ETL relations:
/// every extraction `Project` over a `ScanLog` becomes a `Project` over the
/// corresponding `etl_<log>` view; every `Udf` over a `ScanLog` becomes a
/// scan of `etl_<udf>_<log>`.
pub fn rewrite_for_dw(
    plan: &LogicalPlan,
    lang_catalog: &Catalog,
    dw: &DwStore,
) -> Result<LogicalPlan> {
    let mut b = PlanBuilder::new();
    let mut mapping = std::collections::HashMap::new();
    for node in plan.nodes() {
        // Skip raw scans: they are folded into their consumers below.
        if matches!(node.op, Operator::ScanLog { .. }) {
            continue;
        }
        let new_id = match &node.op {
            Operator::Udf { name, .. }
                if matches!(plan.node(node.inputs[0]).op, Operator::ScanLog { .. }) =>
            {
                let Operator::ScanLog { log } = &plan.node(node.inputs[0]).op else {
                    unreachable!()
                };
                let table = format!("etl_{name}_{log}");
                let schema = etl_schema(dw, &table)?;
                b.add(
                    Operator::ScanView {
                        view: table,
                        schema,
                    },
                    vec![],
                )?
            }
            Operator::Project { exprs }
                if matches!(plan.node(node.inputs[0]).op, Operator::ScanLog { .. }) =>
            {
                let Operator::ScanLog { log } = &plan.node(node.inputs[0]).op else {
                    unreachable!()
                };
                let table = format!("etl_{log}");
                let schema = etl_schema(dw, &table)?;
                let fields = catalog_fields(log, lang_catalog)?;
                let sv = b.add(
                    Operator::ScanView {
                        view: table,
                        schema,
                    },
                    vec![],
                )?;
                // Rebuild each extraction expression as a column reference
                // into the full-extraction relation.
                let new_exprs: Vec<(String, Expr)> = exprs
                    .iter()
                    .map(|(name, e)| {
                        let col = extraction_field(e)
                            .and_then(|f| fields.iter().position(|(name, _)| *name == f));
                        match col {
                            Some(idx) => Ok((name.clone(), Expr::Column(idx))),
                            None => Err(MisoError::Plan(format!(
                                "extraction expression `{e}` is not a plain field access"
                            ))),
                        }
                    })
                    .collect::<Result<_>>()?;
                b.add(Operator::Project { exprs: new_exprs }, vec![sv])?
            }
            other => {
                let inputs: Vec<_> = node
                    .inputs
                    .iter()
                    .map(|i| {
                        mapping.get(i).copied().ok_or_else(|| {
                            MisoError::Plan(
                                "DW rewrite requires extraction projections over scans".into(),
                            )
                        })
                    })
                    .collect::<Result<_>>()?;
                b.add(other.clone(), inputs)?
            }
        };
        mapping.insert(node.id, new_id);
    }
    b.finish(mapping[&plan.root()])
}

/// Recognizes `CAST($0->'field' AS _)` / `$0->'field'` and returns the field.
fn extraction_field(e: &Expr) -> Option<String> {
    match e {
        Expr::Cast { input, .. } => extraction_field(input),
        Expr::FieldGet { input, key } => match **input {
            Expr::Column(0) => Some(key.clone()),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::logs::{Corpus, LogsConfig};
    use miso_lang::compile;

    fn setup() -> (HvStore, DwStore, Catalog, UdfRegistry) {
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let mut hv = HvStore::new();
        hv.add_log(corpus.twitter);
        hv.add_log(corpus.foursquare);
        hv.add_log(corpus.landmarks);
        (hv, DwStore::new(), Catalog::standard(), UdfRegistry::new())
    }

    #[test]
    fn etl_loads_touched_logs_only() {
        let (hv, mut dw, catalog, udfs) = setup();
        let q = compile(
            "SELECT t.city AS c FROM twitter t WHERE t.followers > 5",
            &catalog,
        )
        .unwrap();
        let manifest = run_etl(&[q], &catalog, &hv, &mut dw, &udfs, 1.0).unwrap();
        assert_eq!(manifest.logs.len(), 1);
        assert!(dw.views.contains("etl_twitter"));
        assert!(!dw.views.contains("etl_foursquare"));
        assert!(manifest.cost > SimDuration::ZERO);
    }

    #[test]
    fn overhead_multiplies_cost() {
        let (hv, mut dw, catalog, udfs) = setup();
        let q = compile("SELECT t.city AS c FROM twitter t", &catalog).unwrap();
        let base = run_etl(std::slice::from_ref(&q), &catalog, &hv, &mut dw, &udfs, 1.0)
            .unwrap()
            .cost;
        let mut dw2 = DwStore::new();
        let heavy = run_etl(&[q], &catalog, &hv, &mut dw2, &udfs, 10.0)
            .unwrap()
            .cost;
        let ratio = heavy.as_secs_f64() / base.as_secs_f64();
        assert!((9.9..10.1).contains(&ratio));
    }

    #[test]
    fn rewritten_query_matches_hv_execution() {
        let (hv, mut dw, catalog, udfs) = setup();
        let q = compile(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city ORDER BY n DESC",
            &catalog,
        )
        .unwrap();
        run_etl(std::slice::from_ref(&q), &catalog, &hv, &mut dw, &udfs, 1.0).unwrap();
        let dw_plan = rewrite_for_dw(&q, &catalog, &dw).unwrap();
        assert!(dw_plan.base_logs().is_empty(), "no raw scans remain");
        let hv_run = hv.execute(&q, None, &udfs).unwrap();
        let dw_run = dw
            .execute(&dw_plan, None, Default::default(), &udfs)
            .unwrap();
        assert_eq!(
            hv_run.execution.root_rows().unwrap(),
            dw_run.execution.root_rows().unwrap(),
            "DW-ONLY must compute identical results"
        );
        assert!(dw_run.cost < hv_run.cost, "post-ETL queries are fast");
    }

    #[test]
    fn join_query_rewrites_and_matches() {
        let (hv, mut dw, catalog, udfs) = setup();
        let q = compile(
            "SELECT l.category AS cat, COUNT(*) AS n \
             FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
             WHERE f.likes > 1 GROUP BY l.category",
            &catalog,
        )
        .unwrap();
        run_etl(std::slice::from_ref(&q), &catalog, &hv, &mut dw, &udfs, 1.0).unwrap();
        let dw_plan = rewrite_for_dw(&q, &catalog, &dw).unwrap();
        let hv_run = hv.execute(&q, None, &udfs).unwrap();
        let dw_run = dw
            .execute(&dw_plan, None, Default::default(), &udfs)
            .unwrap();
        assert_eq!(
            hv_run.execution.root_rows().unwrap(),
            dw_run.execution.root_rows().unwrap()
        );
    }

    #[test]
    fn udf_queries_get_etl_tables() {
        use std::sync::Arc;
        let (hv, mut dw, mut catalog, mut udfs) = setup();
        let out_schema = miso_data::Schema::new(vec![
            miso_data::Field::new("user_id", DataType::Int),
            miso_data::Field::new("buzz", DataType::Float),
        ]);
        catalog.add_udf("buzz_score", out_schema.clone());
        udfs.register(miso_exec::Udf::new(
            "buzz_score",
            out_schema,
            Arc::new(|row: &miso_data::Row| {
                let rec = row.get(0);
                let uid = rec.get_field("user_id").and_then(miso_data::Value::as_i64);
                let rts = rec.get_field("retweets").and_then(miso_data::Value::as_f64);
                match (uid, rts) {
                    (Some(u), Some(r)) => Ok(vec![miso_data::Row::new(vec![
                        miso_data::Value::Int(u),
                        miso_data::Value::Float(r.ln_1p()),
                    ])]),
                    _ => Ok(vec![]),
                }
            }),
        ));
        let q = compile(
            "SELECT b.user_id AS uid, b.buzz AS buzz FROM APPLY(buzz_score, twitter) b \
             WHERE b.buzz > 1.0",
            &catalog,
        )
        .unwrap();
        let manifest =
            run_etl(std::slice::from_ref(&q), &catalog, &hv, &mut dw, &udfs, 1.0).unwrap();
        assert_eq!(manifest.udfs.len(), 1);
        assert!(dw.views.contains("etl_buzz_score_twitter"));
        let dw_plan = rewrite_for_dw(&q, &catalog, &dw).unwrap();
        let hv_run = hv.execute(&q, None, &udfs).unwrap();
        let dw_run = dw
            .execute(&dw_plan, None, Default::default(), &udfs)
            .unwrap();
        assert_eq!(
            hv_run.execution.root_rows().unwrap(),
            dw_run.execution.root_rows().unwrap()
        );
    }
}
