//! The DW store: permanent and temporary table spaces, costed execution.

use crate::cost::DwCostModel;
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::{ByteSize, MisoError, Result, SimDuration};
use miso_data::{ColBatch, Row, Shelf, StoredView};
use miso_exec::engine::{
    execute_subset_guarded, seed_batches, DataSource, Execution, LogLines, Retention,
};
use miso_exec::memo::{node_keys, MemoKey};
use miso_exec::{SubplanMemo, UdfRegistry};
use miso_plan::{LogicalPlan, Operator};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The result of executing a (partial) plan in DW.
#[derive(Debug)]
pub struct DwRun {
    /// Row-level results for every executed node.
    pub execution: Execution,
    /// Simulated execution cost (excludes load costs, which the execution
    /// layer charges when it stages working sets).
    pub cost: SimDuration,
}

/// The simulated parallel data warehouse.
///
/// `Clone` is deliberate: the serving layer snapshots the store into an
/// immutable epoch image (view batches are `Arc`-shared, so clones are cheap).
#[derive(Debug, Default, Clone)]
pub struct DwStore {
    /// Permanent table space: tuner-managed views, the physical design.
    pub views: Shelf,
    /// Temporary table space: a query's working sets and a reorganization's
    /// staging copies, discarded when the query or the reorganization ends.
    pub temp: Shelf,
    /// Cost model (public so experiments can recalibrate).
    pub cost_model: DwCostModel,
}

impl DwStore {
    /// An empty store with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// A permanent view's size. The benchmark adapter calls this; program
    /// code reads [`DwStore::views`].
    pub fn view_size(&self, name: &str) -> Option<ByteSize> {
        self.views.size(name)
    }

    /// A permanent view's rows, pivoted for a caller that speaks rows. The
    /// benchmark adapter calls this.
    pub fn view_rows_arc(&self, name: &str) -> Option<Arc<Vec<Row>>> {
        self.views.get(name).map(StoredView::rows)
    }

    /// Permanent view names (sorted). The benchmark adapter calls this.
    pub fn view_names(&self) -> Vec<String> {
        self.views.names()
    }

    /// Executes `subset` of `plan` in DW with pre-staged working sets.
    ///
    /// `provided` maps cut-node ids to their transferred working sets (already
    /// loaded into temp space by the execution layer; load cost is charged
    /// there) — as rows, which [`seed_batches`] pivots for
    /// [`DwStore::execute_guarded`].
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        provided: HashMap<NodeId, Arc<Vec<Row>>>,
        udfs: &UdfRegistry,
    ) -> Result<DwRun> {
        let provided = seed_batches(plan, provided)?;
        self.execute_guarded(plan, subset, provided, udfs, QueryGuard::inert_ref(), None)
    }

    /// The sub-plan memo keys a [`DwStore::execute_guarded`] of `subset`
    /// resumed from working sets for the `seeds` executes, by node index
    /// ([`miso_exec::memo::node_keys`]): what a batch counts to plan its
    /// memo.
    pub fn memo_keys(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        seeds: &HashSet<NodeId>,
        udfs: &UdfRegistry,
    ) -> Vec<Option<MemoKey>> {
        node_keys(
            plan,
            subset,
            seeds,
            Retention::ROOT_ONLY,
            udfs,
            self.store_name(),
        )
    }

    /// [`DwStore::execute`] over `provided` batches — the working sets as HV
    /// materialized them — under a [`QueryGuard`]: the engine checks the
    /// guard at every morsel-dispatch boundary and charges materializations
    /// and join/aggregate scratch against its memory budget. Injected
    /// `stall` faults inflate the charged cost past any sane deadline;
    /// `hog` faults inflate the query's charged bytes by their factor. With a
    /// `memo`, the run shares the sub-plans its cells hold with the other
    /// runs of its batch ([`miso_exec::memo`]).
    pub fn execute_guarded(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        provided: HashMap<NodeId, Arc<ColBatch>>,
        udfs: &UdfRegistry,
        guard: &QueryGuard,
        memo: Option<&SubplanMemo>,
    ) -> Result<DwRun> {
        let mut obs = miso_obs::span("dw.execute");
        // Fault injection: one relaxed atomic load when chaos is disabled.
        let strike = miso_chaos::strike("dw.execute", "dw")?;
        // DW cannot scan raw logs or run UDFs.
        for node in plan.nodes() {
            let in_subset = subset.is_none_or(|s| s.contains(&node.id));
            if !in_subset || provided.contains_key(&node.id) {
                continue;
            }
            match &node.op {
                Operator::ScanLog { log } => {
                    return Err(MisoError::Store(format!("DW cannot scan raw log `{log}`")));
                }
                Operator::Udf { name, .. } => {
                    return Err(MisoError::Store(format!("DW cannot execute UDF `{name}`")));
                }
                Operator::ScanView { view, .. }
                    if !self.views.contains(view) && !self.temp.contains(view) =>
                {
                    return Err(MisoError::Store(format!("DW has no view `{view}`")));
                }
                _ => {}
            }
        }
        // Bytes of provided working sets are read from temp space.
        let mut bytes_in: ByteSize = provided
            .values()
            .map(|batch| ByteSize::from_bytes(batch.row_bytes()))
            .sum();
        let provided_ids: HashSet<NodeId> = provided.keys().copied().collect();
        // DW only ever reads the root rows and per-node row counts, so let
        // the engine release intermediate outputs eagerly instead of
        // retaining every materialization.
        let execution = execute_subset_guarded(
            plan,
            subset,
            provided,
            self,
            udfs,
            Retention::ROOT_ONLY,
            guard,
            memo,
        )?;
        // An injected memory hog balloons the executed nodes' output bytes.
        strike.spike(guard, || {
            let nodes = execution.executed_nodes();
            nodes.map(|id| execution.output_bytes(id).as_bytes()).sum()
        })?;
        let mut rows_processed = 0u64;
        for node in plan.nodes() {
            let in_subset = subset.is_none_or(|s| s.contains(&node.id));
            if !in_subset || provided_ids.contains(&node.id) {
                continue;
            }
            if let Operator::ScanView { view, .. } = &node.op {
                let size = self.views.size(view).or_else(|| self.temp.size(view));
                bytes_in += size.unwrap_or(ByteSize::ZERO);
            }
            rows_processed += execution.rows_out(node.id).unwrap_or(0);
        }
        // An injected contention spike runs the whole statement slower.
        let cost = strike.slowed(self.cost_model.exec_cost(bytes_in, rows_processed));
        if obs.is_active() {
            obs.push_field("bytes_in", miso_obs::FieldValue::U64(bytes_in.as_bytes()));
            obs.push_field("rows", miso_obs::FieldValue::U64(rows_processed));
            obs.push_field("cost_us", miso_obs::FieldValue::U64(cost.as_micros()));
            miso_obs::count("dw.bytes_scanned", bytes_in.as_bytes());
        }
        Ok(DwRun { execution, cost })
    }

    /// What loading `bytes` into either table space costs; whoever loads
    /// charges it.
    pub fn load_cost(&self, bytes: ByteSize) -> SimDuration {
        self.cost_model.load_cost(bytes)
    }
}

impl DataSource for DwStore {
    fn log_lines(&self, log: &str) -> Result<LogLines<'_>> {
        Err(MisoError::Store(format!(
            "DW cannot scan raw log `{log}` (logs live in HV)"
        )))
    }

    fn view_batch(&self, view: &str) -> Result<Arc<ColBatch>> {
        self.views
            .get(view)
            .or_else(|| self.temp.get(view))
            .map(|v| v.batch.clone())
            .ok_or_else(|| MisoError::Store(format!("DW has no view `{view}`")))
    }

    fn store_name(&self) -> &'static str {
        "dw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::checksum::checksum_rows;
    use miso_data::{DataType, Field, Schema, Value};

    fn rows(n: i64) -> Arc<Vec<Row>> {
        Arc::new(
            (0..n)
                .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .collect(),
        )
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("k", DataType::Int),
        ])
    }

    fn stored(name: &str, n: i64) -> StoredView {
        StoredView::from_rows(name, schema(), &rows(n)).unwrap()
    }

    #[test]
    fn load_and_query_view() {
        let mut dw = DwStore::new();
        let size = dw.views.put("v_a", stored("v_a", 20_000));
        let load_cost = dw.load_cost(size);
        assert!(size.as_bytes() > 0);
        assert!(load_cost > SimDuration::ZERO);

        let mut b = miso_plan::PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "v_a".into(),
                    schema: schema(),
                },
                vec![],
            )
            .unwrap();
        let f = b
            .add(
                Operator::Filter {
                    predicate: miso_plan::Expr::col(1).eq(miso_plan::Expr::lit(3i64)),
                },
                vec![sv],
            )
            .unwrap();
        let plan = b.finish(f).unwrap();
        let run = dw
            .execute(&plan, None, HashMap::new(), &UdfRegistry::new())
            .unwrap();
        assert!(!run.execution.root_rows().unwrap().is_empty());
        assert!(
            run.cost < load_cost,
            "resident queries are cheap; loads are not"
        );
    }

    #[test]
    fn temp_space_is_cleared() {
        let mut dw = DwStore::new();
        dw.temp.put("ws", stored("ws", 10));
        assert!(
            !dw.views.contains("ws"),
            "temp tables are not part of the design"
        );
        assert_eq!(dw.views.total_bytes(), ByteSize::ZERO);
        assert!(dw.view_batch("ws").is_ok());
        dw.temp.clear();
        assert!(dw.view_batch("ws").is_err());
    }

    #[test]
    fn rejects_raw_logs_and_udfs() {
        let dw = DwStore::new();
        let mut b = miso_plan::PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let plan = b.finish(scan).unwrap();
        assert!(dw
            .execute(&plan, None, HashMap::new(), &UdfRegistry::new())
            .is_err());

        let mut b2 = miso_plan::PlanBuilder::new();
        let sv = b2
            .add(
                Operator::ScanView {
                    view: "v".into(),
                    schema: schema(),
                },
                vec![],
            )
            .unwrap();
        let u = b2
            .add(
                Operator::Udf {
                    name: "u".into(),
                    output: schema(),
                },
                vec![sv],
            )
            .unwrap();
        let plan2 = b2.finish(u).unwrap();
        assert!(dw
            .execute(&plan2, None, HashMap::new(), &UdfRegistry::new())
            .is_err());
    }

    #[test]
    fn provided_working_sets_execute_without_views() {
        let dw = DwStore::new();
        // Plan: scan log -> filter; we provide the scan output, DW runs the
        // filter.
        let mut b = miso_plan::PlanBuilder::new();
        let scan = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: miso_plan::Expr::col(0)
                        .get("k")
                        .cast(DataType::Int)
                        .eq(miso_plan::Expr::lit(1i64)),
                },
                vec![scan],
            )
            .unwrap();
        let plan = b.finish(filt).unwrap();
        let ws: Arc<Vec<Row>> = Arc::new(vec![
            Row::new(vec![Value::object(vec![("k".into(), Value::Int(1))])]),
            Row::new(vec![Value::object(vec![("k".into(), Value::Int(2))])]),
        ]);
        let provided: HashMap<NodeId, Arc<Vec<Row>>> = [(NodeId(0), ws)].into_iter().collect();
        let subset: HashSet<NodeId> = [NodeId(1)].into_iter().collect();
        let run = dw
            .execute(&plan, Some(&subset), provided, &UdfRegistry::new())
            .unwrap();
        assert_eq!(run.execution.root_rows().unwrap().len(), 1);
    }

    /// A reorganization stages a view in temp space, then flips it into
    /// the design: taken from `temp`, put on `views` under its own name.
    #[test]
    fn promote_temp_flips_staged_table_into_design() {
        let mut dw = DwStore::new();
        dw.temp.put("reorg_stage_v", stored("reorg_stage_v", 8));
        assert!(dw.view_batch("reorg_stage_v").is_ok());
        assert!(!dw.views.contains("v"));
        let staged = dw.temp.take("reorg_stage_v").unwrap();
        let size = dw.views.put("v", staged);
        assert!(dw.views.contains("v"), "promoted into the permanent design");
        assert!(dw.view_batch("reorg_stage_v").is_err());
        assert!(dw.view_batch("v").is_ok());
        assert_eq!(dw.views.total_bytes(), size);
        // A crash-wiped staging table has nothing to promote.
        dw.temp.clear();
        assert!(dw.temp.take("missing").is_none());
    }

    /// A view's load-time checksum moves with it from temp space into the
    /// design, and silent corruption in either space is caught only by
    /// re-verification.
    #[test]
    fn checksums_survive_promotion_and_catch_corruption() {
        let mut dw = DwStore::new();
        dw.temp.put("reorg_stage_v", stored("reorg_stage_v", 8));
        let expected = checksum_rows(&rows(8));
        assert_eq!(dw.temp.verify("reorg_stage_v", expected), Some(true));
        let staged = dw.temp.take("reorg_stage_v").unwrap();
        dw.views.put("v", staged);
        assert_eq!(dw.views.get("v").unwrap().checksum, expected);
        assert_eq!(dw.views.verify("v", expected), Some(true));

        assert!(dw.views.corrupt("v"));
        assert_eq!(
            dw.views.get("v").unwrap().checksum,
            expected,
            "corruption is silent"
        );
        assert_eq!(dw.views.verify("v", expected), Some(false));
        assert_eq!(dw.views.verify("missing", expected), None);

        dw.temp.put("ws", stored("ws", 3));
        assert_eq!(dw.temp.names(), vec!["ws".to_string()]);
        assert!(dw.temp.corrupt("ws"));
        assert_eq!(dw.temp.verify("ws", checksum_rows(&rows(3))), Some(false));
        assert!(!dw.temp.corrupt("missing"));
        dw.temp.clear();
        assert!(dw.temp.names().is_empty());
    }

    #[test]
    fn eviction_returns_contents() {
        let mut dw = DwStore::new();
        dw.views.put("v_b", stored("v_b", 5));
        let batch = dw.view_batch("v_b").unwrap();
        let evicted = dw.views.take("v_b").unwrap();
        assert_eq!(evicted.schema, schema());
        assert!(
            Arc::ptr_eq(&evicted.batch, &batch),
            "the stored batch moves out"
        );
        assert_eq!(evicted.batch.to_rows(), *rows(5));
        assert!(evicted.size.as_bytes() > 0);
        assert!(!dw.views.contains("v_b"));
        assert!(dw.view_batch("v_b").is_err());
        assert!(dw.views.take("v_b").is_none());
    }

    /// An empty view migrated in from rows has its schema's arity, and a
    /// ragged row set is refused at the load, naming the view.
    #[test]
    fn empty_views_know_their_arity_and_ragged_rows_are_refused() {
        let mut dw = DwStore::new();
        let size = dw.views.put("none", stored("none", 0));
        assert_eq!(size, ByteSize::ZERO);
        let empty = dw.view_batch("none").unwrap();
        assert_eq!((empty.len(), empty.arity()), (0, 2));

        let ragged = Arc::new(vec![
            Row::new(vec![Value::Int(1), Value::Int(2)]),
            Row::new(vec![Value::Int(1)]),
        ]);
        let err = StoredView::from_rows("v_ragged", schema(), &ragged).unwrap_err();
        assert!(matches!(err, MisoError::Store(_)), "{err:?}");
        assert!(err.to_string().contains("`v_ragged`"), "{err}");
        assert!(!dw.views.contains("v_ragged") && !dw.temp.contains("v_ragged"));
        // A working set handed over as rows is refused too, naming its node.
        let mut b = miso_plan::PlanBuilder::new();
        let op = Operator::ScanView {
            view: "none".into(),
            schema: schema(),
        };
        let scan = b.add(op, vec![]).unwrap();
        let top = b.add(Operator::Limit { n: 1 }, vec![scan]).unwrap();
        let plan = b.finish(top).unwrap();
        let above: HashSet<NodeId> = [top].into_iter().collect();
        let seed = [(scan, ragged)].into_iter().collect();
        let err = dw
            .execute(&plan, Some(&above), seed, &UdfRegistry::new())
            .unwrap_err();
        assert!(matches!(err, MisoError::Store(_)), "{err:?}");
        assert!(err.to_string().contains(&format!("node {scan}")), "{err}");
    }
}
