//! The DW store: permanent/temporary table spaces and costed execution.

use crate::cost::DwCostModel;
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::{ByteSize, MisoError, Result, SimDuration};
use miso_data::checksum::Checksum;
use miso_data::{ColBatch, Row, Schema, StoredView};
use miso_exec::engine::{execute_subset_guarded, seed_batches, DataSource, Execution, Retention};
use miso_exec::UdfRegistry;
use miso_plan::estimate::MapStats;
use miso_plan::{LogicalPlan, Operator};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Which table space a relation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableSpace {
    /// Tuner-managed views: part of the physical design, survive queries.
    Permanent,
    /// Query-lifetime working sets: discarded when the query finishes.
    Temporary,
}

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
    permanent: HashMap<String, StoredView>,
    temporary: HashMap<String, StoredView>,
    /// Cost model (public so experiments can recalibrate).
    pub cost_model: DwCostModel,
}

impl DwStore {
    /// An empty store with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a view into the given table space as it stands — the batch
    /// moves in with the size and checksum recorded when it was materialized
    /// (a shipped working set, a migration from HV, a maintenance pass that
    /// re-stamped them incrementally) — returning the load cost. Nothing
    /// here reads a cell.
    pub fn load(&mut self, name: &str, view: StoredView, space: TableSpace) -> SimDuration {
        let cost = self.cost_model.load_cost(view.size);
        match space {
            TableSpace::Permanent => self.permanent.insert(name.to_string(), view),
            TableSpace::Temporary => self.temporary.insert(name.to_string(), view),
        };
        cost
    }

    /// [`DwStore::load`] for a caller that holds rows: pivots them, sizes and
    /// checksums the result, and returns `(size, load cost)`. Rows of
    /// differing arity are refused.
    pub fn load_view(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Arc<Vec<Row>>,
        space: TableSpace,
    ) -> Result<(ByteSize, SimDuration)> {
        let view = StoredView::from_rows(name, schema, &rows)?;
        Ok((view.size, self.load(name, view, space)))
    }

    /// Removes a permanent view, returning it whole for migration.
    pub fn evict_view(&mut self, name: &str) -> Option<StoredView> {
        self.permanent.remove(name)
    }

    /// Drops all temporary tables (end of a multistore query).
    pub fn clear_temp(&mut self) {
        self.temporary.clear();
    }

    /// Promotes a staged temporary table into the permanent space under
    /// `name`, returning its size. Crash-safe reorganization stages incoming
    /// views into temp space and flips them to permanent only at commit; a
    /// crash before the flip loses only the (volatile) staged copy. Returns
    /// `None` when the staged table is missing (e.g. wiped by a crash).
    pub fn promote_temp(&mut self, staged: &str, name: &str) -> Option<ByteSize> {
        let v = self.temporary.remove(staged)?;
        let size = v.size;
        self.permanent.insert(name.to_string(), v);
        Some(size)
    }

    /// Whether a temporary table is present (staged working set or reorg
    /// staging copy).
    pub fn has_temp(&self, name: &str) -> bool {
        self.temporary.contains_key(name)
    }

    /// Whether a *permanent* view is present (the physical design).
    pub fn has_view(&self, name: &str) -> bool {
        self.permanent.contains_key(name)
    }

    /// A permanent view's size.
    pub fn view_size(&self, name: &str) -> Option<ByteSize> {
        self.permanent.get(name).map(|v| v.size)
    }

    /// A permanent view: batch, schema, recorded size and checksum.
    pub fn view(&self, name: &str) -> Option<&StoredView> {
        self.permanent.get(name)
    }

    /// A permanent view's rows, pivoted for a caller that speaks rows.
    pub fn view_rows_arc(&self, name: &str) -> Option<Arc<Vec<Row>>> {
        self.permanent.get(name).map(StoredView::rows)
    }

    /// A permanent view's schema.
    pub fn view_schema(&self, name: &str) -> Option<&Schema> {
        self.permanent.get(name).map(|v| &v.schema)
    }

    /// A permanent view's load-time content checksum.
    pub fn view_checksum(&self, name: &str) -> Option<Checksum> {
        self.permanent.get(name).map(|v| v.checksum)
    }

    /// Recomputes a permanent view's checksum and compares it to
    /// `expected`; `None` when absent. Reads every cell — callers charge
    /// scrub/verify cost accordingly.
    pub fn verify_view(&self, name: &str, expected: Checksum) -> Option<bool> {
        self.permanent.get(name).map(|v| v.verify(expected))
    }

    /// Recomputes a temporary table's checksum (staged working set or
    /// reorg staging copy) and compares it to `expected`; `None` when
    /// absent.
    pub fn verify_temp(&self, name: &str, expected: Checksum) -> Option<bool> {
        self.temporary.get(name).map(|v| v.verify(expected))
    }

    /// Silently flips a permanent view's first cell (chaos corruption); the
    /// recorded checksum is left untouched. Returns whether anything
    /// changed.
    pub fn corrupt_view(&mut self, name: &str) -> bool {
        self.permanent
            .get_mut(name)
            .is_some_and(StoredView::corrupt)
    }

    /// Silently flips a temporary table's first cell (a torn transfer of a
    /// working set or staging copy).
    pub fn corrupt_temp(&mut self, name: &str) -> bool {
        self.temporary
            .get_mut(name)
            .is_some_and(StoredView::corrupt)
    }

    /// Temporary table names (sorted) — must be empty between queries and
    /// outside reorganizations; the auditor checks for dangling entries.
    pub fn temp_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.temporary.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total permanent view bytes (checked against `B_d` by the tuner).
    pub fn total_view_bytes(&self) -> ByteSize {
        self.permanent.values().map(|v| v.size).sum()
    }

    /// Permanent view names (sorted).
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.permanent.keys().cloned().collect();
        names.sort();
        names
    }

    /// Registers permanent view sizes into an estimation stats source.
    pub fn fill_stats(&self, stats: &mut MapStats) {
        for (name, view) in &self.permanent {
            stats.set_view(
                name.clone(),
                view.batch.len() as f64,
                view.size.as_bytes() as f64,
            );
        }
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
        self.execute_guarded(plan, subset, provided, udfs, QueryGuard::inert_ref())
    }

    /// [`DwStore::execute`] over `provided` batches — the working sets as HV
    /// materialized them — under a [`QueryGuard`]: the engine checks the
    /// guard at every morsel-dispatch boundary and charges materializations
    /// and join/aggregate scratch against its memory budget. Injected
    /// `stall` faults inflate the charged cost past any sane deadline;
    /// `hog` faults inflate the query's charged bytes by their factor.
    pub fn execute_guarded(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        provided: HashMap<NodeId, Arc<ColBatch>>,
        udfs: &UdfRegistry,
        guard: &QueryGuard,
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
                    if !self.permanent.contains_key(view) && !self.temporary.contains_key(view) =>
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
                let size = self
                    .permanent
                    .get(view)
                    .or_else(|| self.temporary.get(view))
                    .map(|v| v.size)
                    .unwrap_or(ByteSize::ZERO);
                bytes_in += size;
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

    /// What-if cost probe: estimated DW execution cost of a plan given
    /// hypothetical resident view sizes (no execution). Mirrors the paper's
    /// use of the DW's what-if optimizer interface.
    pub fn what_if_cost(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        estimates: &HashMap<NodeId, miso_plan::estimate::SizeEstimate>,
    ) -> SimDuration {
        let mut bytes_in = 0.0f64;
        let mut rows = 0.0f64;
        for node in plan.nodes() {
            let in_subset = subset.is_none_or(|s| s.contains(&node.id));
            if !in_subset {
                continue;
            }
            if let Some(est) = estimates.get(&node.id) {
                if matches!(node.op, Operator::ScanView { .. }) {
                    bytes_in += est.bytes;
                }
                rows += est.rows;
            }
        }
        self.cost_model
            .exec_cost(ByteSize::from_bytes(bytes_in as u64), rows as u64)
    }

    /// Load cost helper (used by the execution layer for working sets).
    pub fn load_cost(&self, bytes: ByteSize) -> SimDuration {
        self.cost_model.load_cost(bytes)
    }
}

impl DataSource for DwStore {
    fn log_lines(&self, log: &str) -> Result<&[String]> {
        Err(MisoError::Store(format!(
            "DW cannot scan raw log `{log}` (logs live in HV)"
        )))
    }

    fn view_batch(&self, view: &str) -> Result<Arc<ColBatch>> {
        self.permanent
            .get(view)
            .or_else(|| self.temporary.get(view))
            .map(|v| v.batch.clone())
            .ok_or_else(|| MisoError::Store(format!("DW has no view `{view}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::checksum::checksum_rows;
    use miso_data::{DataType, Field, Value};

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

    #[test]
    fn load_and_query_view() {
        let mut dw = DwStore::new();
        let (size, load_cost) = dw
            .load_view("v_a", schema(), rows(20_000), TableSpace::Permanent)
            .unwrap();
        assert!(size.as_bytes() > 0);
        assert!(load_cost > SimDuration::ZERO);
        assert!(dw.has_view("v_a"));

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
        dw.load_view("ws", schema(), rows(10), TableSpace::Temporary)
            .unwrap();
        assert!(!dw.has_view("ws"), "temp tables are not part of the design");
        assert_eq!(dw.total_view_bytes(), ByteSize::ZERO);
        assert!(dw.view_batch("ws").is_ok());
        dw.clear_temp();
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

    #[test]
    fn promote_temp_flips_staged_table_into_design() {
        let mut dw = DwStore::new();
        dw.load_view("reorg_stage_v", schema(), rows(8), TableSpace::Temporary)
            .unwrap();
        assert!(dw.has_temp("reorg_stage_v"));
        assert!(!dw.has_view("v"));
        let size = dw.promote_temp("reorg_stage_v", "v").unwrap();
        assert!(size.as_bytes() > 0);
        assert!(dw.has_view("v"), "promoted into the permanent design");
        assert!(!dw.has_temp("reorg_stage_v"));
        assert_eq!(dw.total_view_bytes(), size);
        // A crash-wiped staging table promotes to nothing.
        dw.clear_temp();
        assert!(dw.promote_temp("missing", "w").is_none());
        assert!(!dw.has_view("w"));
    }

    #[test]
    fn checksums_survive_promotion_and_catch_corruption() {
        let mut dw = DwStore::new();
        dw.load_view("reorg_stage_v", schema(), rows(8), TableSpace::Temporary)
            .unwrap();
        let expected = checksum_rows(&rows(8));
        assert_eq!(dw.verify_temp("reorg_stage_v", expected), Some(true));
        dw.promote_temp("reorg_stage_v", "v").unwrap();
        assert_eq!(dw.view_checksum("v"), Some(expected));
        assert_eq!(dw.verify_view("v", expected), Some(true));

        assert!(dw.corrupt_view("v"));
        assert_eq!(
            dw.view_checksum("v"),
            Some(expected),
            "corruption is silent"
        );
        assert_eq!(dw.verify_view("v", expected), Some(false));
        assert_eq!(dw.verify_view("missing", expected), None);

        dw.load_view("ws", schema(), rows(3), TableSpace::Temporary)
            .unwrap();
        assert_eq!(dw.temp_names(), vec!["ws".to_string()]);
        assert!(dw.corrupt_temp("ws"));
        assert_eq!(dw.verify_temp("ws", checksum_rows(&rows(3))), Some(false));
        assert!(!dw.corrupt_temp("missing"));
        dw.clear_temp();
        assert!(dw.temp_names().is_empty());
    }

    #[test]
    fn eviction_returns_contents() {
        let mut dw = DwStore::new();
        dw.load_view("v_b", schema(), rows(5), TableSpace::Permanent)
            .unwrap();
        let stored = dw.view_batch("v_b").unwrap();
        let evicted = dw.evict_view("v_b").unwrap();
        assert_eq!(evicted.schema, schema());
        assert!(
            Arc::ptr_eq(&evicted.batch, &stored),
            "the stored batch moves out"
        );
        assert_eq!(evicted.batch.to_rows(), *rows(5));
        assert!(evicted.size.as_bytes() > 0);
        assert!(!dw.has_view("v_b"));
        assert!(dw.evict_view("v_b").is_none());
    }

    /// An empty view migrated in from rows has its schema's arity, and a
    /// ragged row set is refused at the load, naming the view.
    #[test]
    fn empty_views_know_their_arity_and_ragged_rows_are_refused() {
        let mut dw = DwStore::new();
        let (size, _) = dw
            .load_view(
                "none",
                schema(),
                Arc::new(Vec::new()),
                TableSpace::Permanent,
            )
            .unwrap();
        assert_eq!(size, ByteSize::ZERO);
        let empty = dw.view_batch("none").unwrap();
        assert_eq!((empty.len(), empty.arity()), (0, 2));
        assert_eq!(dw.verify_view("none", checksum_rows(&[])), Some(true));

        let ragged = Arc::new(vec![
            Row::new(vec![Value::Int(1), Value::Int(2)]),
            Row::new(vec![Value::Int(1)]),
        ]);
        for space in [TableSpace::Permanent, TableSpace::Temporary] {
            let err = dw
                .load_view("v_ragged", schema(), ragged.clone(), space)
                .unwrap_err();
            assert!(matches!(err, MisoError::Store(_)), "{err:?}");
            assert!(err.to_string().contains("`v_ragged`"), "{err}");
        }
        assert!(!dw.has_view("v_ragged") && !dw.has_temp("v_ragged"));
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

    #[test]
    fn what_if_uses_estimates_not_contents() {
        let dw = DwStore::new();
        let mut b = miso_plan::PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "v_hyp".into(),
                    schema: schema(),
                },
                vec![],
            )
            .unwrap();
        let plan = b.finish(sv).unwrap();
        let mut est = HashMap::new();
        est.insert(
            NodeId(0),
            miso_plan::estimate::SizeEstimate {
                rows: 1000.0,
                bytes: 64_000.0,
            },
        );
        let small = dw.what_if_cost(&plan, None, &est);
        est.insert(
            NodeId(0),
            miso_plan::estimate::SizeEstimate {
                rows: 1e6,
                bytes: 64e6,
            },
        );
        let big = dw.what_if_cost(&plan, None, &est);
        assert!(big > small);
    }
}
