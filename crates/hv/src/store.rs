//! The HV store: HDFS-like log storage, view storage, staged execution.

use crate::cost::HvCostModel;
use crate::stages::{compile_stages, Stage};
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::{ByteSize, MisoError, Result, SimDuration};
use miso_data::checksum::{checksum_batch, Checksum};
use miso_data::logs::LogFile;
use miso_data::{ColBatch, Column, DataType, Row, Schema, StoredView};
use miso_exec::col::LogIndex;
use miso_exec::engine::{execute_subset_guarded, DataSource, Execution, LogColumns, Retention};
use miso_exec::{FusedField, UdfRegistry};
use miso_plan::estimate::MapStats;
use miso_plan::{LogicalPlan, Operator};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// One base log as HV holds it: the raw lines, a token index of them, and
/// every column a fused scan has asked for so far, read once and kept.
///
/// Four invariants make a kept column indistinguishable from a fresh parse:
///
/// 1. **Whole-log parse.** A column under `(key, cast)` is exactly what
///    [`miso_exec::col::parse_log_columns`] builds for that field over all
///    of `lines`, and the index's counts are that pass's row and
///    skipped-line counts.
/// 2. **Clones share.** [`HvStore`] holds images behind an `Arc`, so a
///    cloned store (an epoch snapshot, the serving oracle) reads and warms
///    the same index and columns as its original.
/// 3. **Append extends.** [`HvStore::append_log`] copies the image first if
///    another store shares it — and the lines, if whoever registered the
///    log still holds them — then extends the index by the appended
///    [`LogBatch`]'s own and every kept column ([`Column::append`]) by that
///    column of the batch — the batch's own whole-batch parse, (1) at batch
///    scale — which restores (1).
/// 4. **The index describes exactly `lines`.** It is built from them by the
///    first fused scan ([`LogIndex::build`]: the one pass that lexes every
///    line end to end), only ever extended together with them, and charged
///    to no guard, like the columns; every column is read through it, at
///    the offsets it recorded, with the lexer that recorded them.
#[derive(Debug)]
struct LogImage {
    lines: Arc<Vec<String>>,
    size: ByteSize,
    parsed: Mutex<ParsedColumns>,
}

/// The lazily filled half of a [`LogImage`].
#[derive(Debug, Clone, Default)]
struct ParsedColumns {
    /// Where each line's values start, and how many lines are well-formed
    /// and malformed; known once any pass has run.
    index: Option<LogIndex>,
    cols: HashMap<ColumnKey, Arc<Column>>,
}

/// A kept column's identity: the field's key and the cast applied to it.
type ColumnKey = (String, Option<DataType>);

impl Clone for LogImage {
    fn clone(&self) -> Self {
        LogImage {
            lines: self.lines.clone(),
            size: self.size,
            parsed: Mutex::new(lock_parsed(&self.parsed).clone()),
        }
    }
}

fn lock_parsed(parsed: &Mutex<ParsedColumns>) -> MutexGuard<'_, ParsedColumns> {
    parsed
        .lock()
        .expect("no scan panics while it holds the image lock")
}

/// The columns of `fields` over `lines`, taken from `parsed` where an
/// earlier call asked for them and otherwise read through the index —
/// built first if this is the first call — in one pass over the lines, with
/// the lock released, and kept there.
fn cached_columns(
    lines: &[String],
    parsed: &Mutex<ParsedColumns>,
    fields: &[FusedField<'_>],
) -> Result<LogColumns> {
    let key = |f: &FusedField<'_>| (f.key.to_string(), f.ty);
    let keys: Vec<ColumnKey> = fields.iter().map(key).collect();
    let (missing, index) = {
        let parsed = lock_parsed(parsed);
        let mut missing: Vec<FusedField<'_>> = Vec::new();
        for (f, k) in fields.iter().zip(&keys) {
            if !parsed.cols.contains_key(k) && !missing.contains(f) {
                missing.push(*f);
            }
        }
        (missing, parsed.index.clone())
    };
    let fresh = if missing.is_empty() && index.is_some() {
        None
    } else {
        let index = match index {
            Some(index) => index,
            None => {
                let index = LogIndex::build(lines)?;
                miso_obs::count("hv.log_lines_tokenized", lines.len() as u64);
                miso_obs::count("hv.log_index_bytes", index.approx_bytes());
                index
            }
        };
        let batch = index.columns(lines, &missing)?;
        Some((index, batch))
    };
    let mut parsed = lock_parsed(parsed);
    if let Some((index, batch)) = fresh {
        // A racing scan may have filled a slot; both read the same lines,
        // so either index, and either column, will do.
        parsed.index.get_or_insert(index);
        if miso_obs::enabled() {
            let bytes = batch.columns().iter().map(|c| c.approx_bytes()).sum();
            miso_obs::count("hv.log_col_bytes", bytes);
        }
        for (f, col) in missing.iter().zip(batch.into_columns()) {
            parsed.cols.entry(key(f)).or_insert(col);
        }
    }
    let index = parsed.index.as_ref().expect("set by the first pass");
    let (rows, skipped_lines) = index.counts();
    let columns = keys.iter().map(|k| parsed.cols[k].clone()).collect();
    let cols_parsed = fields.iter().filter(|f| missing.contains(f)).count() as u64;
    Ok(LogColumns {
        batch: ColBatch::from_shared(columns, rows),
        skipped_lines,
        cols_hit: fields.len() as u64 - cols_parsed,
        cols_parsed,
    })
}

impl LogImage {
    /// Appends the batch's lines, extending the index by the batch's and
    /// every kept column by the batch's column of the same field.
    fn append(&mut self, batch: &LogBatch<'_>) -> Result<ByteSize> {
        let parsed = self
            .parsed
            .get_mut()
            .expect("no scan panics while it holds the image lock");
        if let Some(index) = &mut parsed.index {
            let keys: Vec<ColumnKey> = parsed.cols.keys().cloned().collect();
            let fields: Vec<FusedField<'_>> = keys
                .iter()
                .map(|(key, ty)| FusedField { key, ty: *ty })
                .collect();
            let delta = batch.columns(&fields)?;
            let tail = lock_parsed(&batch.parsed).index.clone();
            index.append(&tail.expect("the read above indexed the batch"));
            for (key, col) in keys.iter().zip(delta.batch.into_columns()) {
                let kept = parsed.cols.get_mut(key).expect("key listed from the map");
                Arc::make_mut(kept).append(Arc::unwrap_or_clone(col));
            }
        }
        let added = ByteSize::from_bytes(batch.lines.iter().map(|l| l.len() as u64 + 1).sum());
        Arc::make_mut(&mut self.lines).extend_from_slice(batch.lines);
        self.size += added;
        Ok(added)
    }
}

/// One batch of lines on its way into a base log: a batch-sized image with
/// the same lazily filled token index and `(field, cast) → column` cache a
/// `LogImage` has, plus the object rows unfused scans read.
/// [`HvStore::append_log`] extends the log's index and kept columns from it
/// and every view's delta plan scans it, so the batch is tokenized once and
/// each field of it read at most once, whoever asks first. It borrows the
/// lines and dies with the batch.
#[derive(Debug)]
pub struct LogBatch<'a> {
    lines: &'a [String],
    parsed: Mutex<ParsedColumns>,
}

impl<'a> LogBatch<'a> {
    /// An image of `lines` with nothing parsed yet.
    pub fn new(lines: &'a [String]) -> Self {
        LogBatch {
            lines,
            parsed: Mutex::default(),
        }
    }

    /// The batch's raw lines.
    pub fn lines(&self) -> &'a [String] {
        self.lines
    }

    /// The columns of `fields` over the batch's well-formed lines — what
    /// [`DataSource::log_columns`] answers for the whole log, at batch scale.
    pub fn columns(&self, fields: &[FusedField<'_>]) -> Result<LogColumns> {
        let cols = cached_columns(self.lines, &self.parsed, fields)?;
        miso_obs::count("maint.delta_cols_served", cols.cols_hit);
        miso_obs::count("maint.delta_cols_parsed", cols.cols_parsed);
        Ok(cols)
    }
}

/// One stage output captured during execution — an opportunistic view
/// candidate.
#[derive(Debug, Clone)]
pub struct MaterializedOutput {
    /// The plan node whose output this is.
    pub node: NodeId,
    /// The materialized output, shared with the execution that produced it.
    pub batch: Arc<ColBatch>,
    /// Its schema.
    pub schema: Schema,
    /// Serialized size ([`ColBatch::row_bytes`]).
    pub size: ByteSize,
}

impl MaterializedOutput {
    /// The output as a view to store. Checksums the batch — here, once: the
    /// store it goes to and the catalog entry made for it carry this digest.
    pub fn stored(&self) -> StoredView {
        StoredView {
            schema: self.schema.clone(),
            batch: self.batch.clone(),
            size: self.size,
            checksum: checksum_batch(&self.batch),
        }
    }
}

/// The result of executing (part of) a plan in HV.
#[derive(Debug)]
pub struct HvRun {
    /// Row counts for every executed node; outputs only for what HV harvests
    /// (stage outputs, map-side filter spills) and the caller's extra
    /// nodes — see [`HvStore::execute_retaining`].
    pub execution: Execution,
    /// Total simulated cost (sum of stage costs).
    pub cost: SimDuration,
    /// Per-stage costs, in execution order.
    pub stage_costs: Vec<SimDuration>,
    /// Stage outputs (opportunistic view candidates), in execution order.
    pub materialized: Vec<MaterializedOutput>,
}

/// The simulated Hive/Hadoop store.
///
/// `Clone` is deliberate: the serving layer snapshots the whole store into an
/// immutable epoch image, so reorganization can stage changes off to the side
/// and publish atomically. Logs and view batches are `Arc`-shared, so a clone
/// costs one refcount bump per log and per view, whatever their sizes; a log
/// is copied only when one of two stores sharing it appends to it.
#[derive(Debug, Default, Clone)]
pub struct HvStore {
    logs: HashMap<String, Arc<LogImage>>,
    views: HashMap<String, StoredView>,
    /// Cost model (public so experiments can recalibrate).
    pub cost_model: HvCostModel,
}

impl HvStore {
    /// An empty store with the default cost model.
    pub fn new() -> Self {
        HvStore {
            logs: HashMap::new(),
            views: HashMap::new(),
            cost_model: HvCostModel::default(),
        }
    }

    /// Registers a base log, sharing its lines with the caller's
    /// [`LogFile`]. Its image starts with no index and no parsed columns,
    /// whatever other store was built from the same file.
    pub fn add_log(&mut self, log: LogFile) {
        let image = LogImage {
            lines: log.lines,
            size: log.size,
            parsed: Mutex::default(),
        };
        self.logs
            .insert(log.kind.table_name().to_string(), Arc::new(image));
    }

    /// Appends a batch of lines to a base log (HDFS-style append-only
    /// growth), returning the appended byte count. Copy-on-write: stores
    /// cloned from this one, and the [`LogFile`] the log was registered
    /// from, keep the log as it was.
    pub fn append_log(&mut self, name: &str, batch: &LogBatch<'_>) -> Result<ByteSize> {
        let image = self
            .logs
            .get_mut(name)
            .ok_or_else(|| MisoError::Store(format!("HV has no log `{name}`")))?;
        Arc::make_mut(image).append(batch)
    }

    /// How many parsed columns the store keeps of `log` (diagnostic hook).
    pub fn log_columns_kept(&self, log: &str) -> usize {
        self.logs
            .get(log)
            .map_or(0, |image| lock_parsed(&image.parsed).cols.len())
    }

    /// The on-disk size of a base log.
    pub fn log_size(&self, name: &str) -> Option<ByteSize> {
        self.logs.get(name).map(|l| l.size)
    }

    /// Total size of all base logs.
    pub fn total_log_bytes(&self) -> ByteSize {
        self.logs.values().map(|l| l.size).sum()
    }

    /// Installs (or replaces) a materialized view as it stands: the batch
    /// moves in with the size and checksum recorded when it was materialized
    /// (harvest, migration from DW, a maintenance pass that re-stamped them
    /// incrementally). Nothing here reads a cell.
    pub fn install(&mut self, name: &str, view: StoredView) -> ByteSize {
        let size = view.size;
        self.views.insert(name.to_string(), view);
        size
    }

    /// [`HvStore::install`] for a caller that holds rows: pivots them, and
    /// sizes and checksums the result (part of the write cost, like any
    /// storage-level CRC). Rows of differing arity are refused.
    pub fn install_view(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Arc<Vec<Row>>,
    ) -> Result<ByteSize> {
        Ok(self.install(name, StoredView::from_rows(name, schema, &rows)?))
    }

    /// Removes a view, returning its size if it existed.
    pub fn remove_view(&mut self, name: &str) -> Option<ByteSize> {
        self.views.remove(name).map(|v| v.size)
    }

    /// Removes a view and returns it whole. The maintenance layer uses this
    /// to take sole ownership of the batch before a delta apply, so extending
    /// its columns is in place instead of a copy.
    pub fn take_view(&mut self, name: &str) -> Option<StoredView> {
        self.views.remove(name)
    }

    /// Whether a view is present.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// A stored view: batch, schema, recorded size and checksum.
    pub fn view(&self, name: &str) -> Option<&StoredView> {
        self.views.get(name)
    }

    /// A view's stored size.
    pub fn view_size(&self, name: &str) -> Option<ByteSize> {
        self.views.get(name).map(|v| v.size)
    }

    /// A view's rows, pivoted for a caller that speaks rows.
    pub fn view_rows(&self, name: &str) -> Option<Arc<Vec<Row>>> {
        self.views.get(name).map(StoredView::rows)
    }

    /// A view's schema.
    pub fn view_schema(&self, name: &str) -> Option<&Schema> {
        self.views.get(name).map(|v| &v.schema)
    }

    /// A view's install-time content checksum.
    pub fn view_checksum(&self, name: &str) -> Option<Checksum> {
        self.views.get(name).map(|v| v.checksum)
    }

    /// Recomputes the stored cells' checksum and compares it to `expected`.
    /// `None` when the view is absent. This reads every cell — callers
    /// charge scrub/verify cost accordingly.
    pub fn verify_view(&self, name: &str, expected: Checksum) -> Option<bool> {
        self.views.get(name).map(|v| v.verify(expected))
    }

    /// Silently flips the view's first cell (chaos corruption). The recorded
    /// install-time checksum is left untouched — that is the point: only
    /// re-verification can notice. Returns whether anything changed (empty
    /// or absent views cannot be corrupted).
    pub fn corrupt_view(&mut self, name: &str) -> bool {
        self.views.get_mut(name).is_some_and(StoredView::corrupt)
    }

    /// Total bytes of stored views.
    pub fn total_view_bytes(&self) -> ByteSize {
        self.views.values().map(|v| v.size).sum()
    }

    /// Names of stored views (sorted).
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Registers true log/view sizes into an estimation stats source.
    pub fn fill_stats(&self, stats: &mut MapStats) {
        for (name, log) in &self.logs {
            stats.set_log(
                name.clone(),
                log.lines.len() as f64,
                log.size.as_bytes() as f64,
            );
        }
        for (name, view) in &self.views {
            stats.set_view(
                name.clone(),
                view.batch.len() as f64,
                view.size.as_bytes() as f64,
            );
        }
    }

    /// Executes `subset` of `plan` (all nodes when `None`), charging staged
    /// MapReduce costs and capturing each stage output as an opportunistic
    /// view candidate.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        udfs: &UdfRegistry,
    ) -> Result<HvRun> {
        self.execute_guarded(plan, subset, udfs, QueryGuard::inert_ref())
    }

    /// [`HvStore::execute`] under a [`QueryGuard`]: the engine checks the
    /// guard at every morsel-dispatch boundary and charges materializations
    /// against its memory budget. An injected `stall` inflates the charged
    /// cost so far past any sane deadline that the driver's next deadline
    /// check kills the query; an injected `hog` inflates the query's charged
    /// bytes by its factor (a no-op under an inactive guard).
    pub fn execute_guarded(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        udfs: &UdfRegistry,
        guard: &QueryGuard,
    ) -> Result<HvRun> {
        self.execute_retaining(plan, subset, udfs, guard, &[])
    }

    /// [`HvStore::execute_guarded`] that also keeps the outputs of the `extra`
    /// nodes. A Hadoop job writes its output to HDFS and spills its
    /// map-side filter; every other operator's result is pipelined and gone
    /// when the job ends. So the run keeps exactly the stage outputs (every
    /// cut node and the sub-plan result are among them) and the in-subset
    /// `Filter` outputs — what is charged by size and harvested — and a
    /// caller that needs an interior output (view maintenance capturing a
    /// join build side) names it here.
    pub fn execute_retaining(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        udfs: &UdfRegistry,
        guard: &QueryGuard,
        extra: &[NodeId],
    ) -> Result<HvRun> {
        let mut obs = miso_obs::span("hv.execute");
        // Fault injection: one relaxed atomic load when chaos is disabled.
        let strike = miso_chaos::strike("hv.execute", "hv")?;
        // Validate scans up-front for a clean store-level error.
        for node in plan.nodes() {
            let in_subset = subset.is_none_or(|s| s.contains(&node.id));
            if !in_subset {
                continue;
            }
            match &node.op {
                Operator::ScanLog { log } if !self.logs.contains_key(log) => {
                    return Err(MisoError::Store(format!("HV has no log `{log}`")));
                }
                Operator::ScanView { view, .. } if !self.views.contains_key(view) => {
                    return Err(MisoError::Store(format!("HV has no view `{view}`")));
                }
                _ => {}
            }
        }
        let stages = compile_stages(plan, subset, &HashSet::new());
        // What HV harvests, in `materialized` order: the job outputs, then
        // the map-phase by-products — a Filter's output is the map output
        // spilled for the shuffle of its consuming job; Hadoop materializes
        // these too, and [15] harvests them alongside job outputs.
        let stage_outputs: Vec<NodeId> = stages.iter().map(|st| st.output).collect();
        let spills = plan.nodes().iter().filter(|n| {
            matches!(n.op, Operator::Filter { .. })
                && subset.is_none_or(|s| s.contains(&n.id))
                && !stage_outputs.contains(&n.id)
        });
        let harvest: Vec<NodeId> = stage_outputs
            .iter()
            .copied()
            .chain(spills.map(|n| n.id))
            .collect();
        // The retention set is the harvest: stage costs below read sizes of
        // stage outputs only and row counts (which survive release) of
        // everything else, so what is not kept here is never looked at.
        let keep = [harvest.as_slice(), extra].concat();
        let execution = execute_subset_guarded(
            plan,
            subset,
            HashMap::new(),
            self,
            udfs,
            Retention::Only(&keep),
            guard,
        )?;
        let mut cost = SimDuration::ZERO;
        let mut stage_costs = Vec::with_capacity(stages.len());
        let mut materialized = Vec::with_capacity(harvest.len());
        for stage in &stages {
            // An injected straggler runs every stage slower by its factor.
            let c = strike.slowed(self.charge_stage(plan, stage, &execution)?);
            stage_costs.push(c);
            cost += c;
        }
        for &id in &harvest {
            materialized.push(MaterializedOutput {
                node: id,
                batch: execution.retained_batch(id)?.clone(),
                schema: plan.node(id).schema.clone(),
                size: execution.output_bytes(id),
            });
        }
        // An injected memory hog balloons the materialized bytes.
        strike.spike(guard, || {
            materialized.iter().map(|m| m.size.as_bytes()).sum()
        })?;
        if obs.is_active() {
            let bytes: u64 = materialized.iter().map(|m| m.size.as_bytes()).sum();
            obs.push_field("stages", miso_obs::FieldValue::U64(stages.len() as u64));
            obs.push_field("cost_us", miso_obs::FieldValue::U64(cost.as_micros()));
            obs.push_field(
                "materialized",
                miso_obs::FieldValue::U64(materialized.len() as u64),
            );
            obs.push_field("materialized_bytes", miso_obs::FieldValue::U64(bytes));
            miso_obs::count("hv.stages_run", stages.len() as u64);
            miso_obs::count("hv.bytes_materialized", bytes);
        }
        Ok(HvRun {
            execution,
            cost,
            stage_costs,
            materialized,
        })
    }

    /// Stage cost: leaf reads (log file bytes / view bytes) + upstream stage
    /// output reads + per-row processing + materialized output write.
    fn charge_stage(
        &self,
        plan: &LogicalPlan,
        stage: &Stage,
        exec: &Execution,
    ) -> Result<SimDuration> {
        let mut bytes_in = ByteSize::ZERO;
        let mut rows_processed = 0u64;
        for &id in &stage.nodes {
            match &plan.node(id).op {
                Operator::ScanLog { log } => {
                    let f = self
                        .logs
                        .get(log)
                        .ok_or_else(|| MisoError::Store(format!("HV has no log `{log}`")))?;
                    bytes_in += f.size;
                }
                Operator::ScanView { view, .. } => {
                    let v = self
                        .views
                        .get(view)
                        .ok_or_else(|| MisoError::Store(format!("HV has no view `{view}`")))?;
                    bytes_in += v.size;
                }
                _ => {}
            }
            rows_processed += exec.rows_out(id).unwrap_or(0);
        }
        for &up in &stage.upstream {
            bytes_in += exec.output_bytes(up);
        }
        let bytes_out = exec.output_bytes(stage.output);
        Ok(self
            .cost_model
            .stage_cost(bytes_in, bytes_out, rows_processed))
    }

    /// Cost of dumping a working set for transfer to DW.
    pub fn dump_cost(&self, bytes: ByteSize) -> SimDuration {
        self.cost_model.dump_cost(bytes)
    }
}

impl DataSource for HvStore {
    fn log_lines(&self, log: &str) -> Result<&[String]> {
        self.logs
            .get(log)
            .map(|l| l.lines.as_slice())
            .ok_or_else(|| MisoError::Store(format!("HV has no log `{log}`")))
    }

    fn view_batch(&self, view: &str) -> Result<Arc<ColBatch>> {
        self.views
            .get(view)
            .map(|v| v.batch.clone())
            .ok_or_else(|| MisoError::Store(format!("HV has no view `{view}`")))
    }

    fn log_columns(&self, log: &str, fields: &[FusedField<'_>]) -> Result<LogColumns> {
        let image = self
            .logs
            .get(log)
            .ok_or_else(|| MisoError::Store(format!("HV has no log `{log}`")))?;
        let cols = cached_columns(&image.lines, &image.parsed, fields)?;
        miso_obs::count("hv.log_cols_served", cols.cols_hit);
        miso_obs::count("hv.log_cols_parsed", cols.cols_parsed);
        Ok(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::logs::{Corpus, LogsConfig};
    use miso_lang::{compile, Catalog};

    fn store() -> HvStore {
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let mut s = HvStore::new();
        s.add_log(corpus.twitter);
        s.add_log(corpus.foursquare);
        s.add_log(corpus.landmarks);
        s
    }

    fn plan(sql: &str) -> LogicalPlan {
        compile(sql, &Catalog::standard()).unwrap()
    }

    #[test]
    fn execute_simple_aggregate() {
        let s = store();
        let p = plan("SELECT t.city AS city, COUNT(*) AS n FROM twitter t GROUP BY t.city");
        let run = s.execute(&p, None, &UdfRegistry::new()).unwrap();
        let rows = run.execution.root_rows().unwrap();
        assert!(!rows.is_empty());
        assert!(run.cost > SimDuration::ZERO);
        // agg job + final projection job
        assert_eq!(run.stage_costs.len(), run.materialized.len());
        assert!(!run.materialized.is_empty());
    }

    #[test]
    fn missing_log_is_store_error() {
        let s = HvStore::new();
        let p = plan("SELECT t.city FROM twitter t");
        let err = s.execute(&p, None, &UdfRegistry::new()).unwrap_err();
        assert!(matches!(err, MisoError::Store(_)));
    }

    #[test]
    fn view_roundtrip_and_budget_accounting() {
        let mut s = store();
        let rows = Arc::new(vec![Row::new(vec![miso_data::Value::Int(1)])]);
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        let size = s.install_view("v_test", schema, rows).unwrap();
        assert!(size.as_bytes() > 0);
        assert!(s.has_view("v_test"));
        assert_eq!(s.view_size("v_test"), Some(size));
        assert_eq!(s.total_view_bytes(), size);
        assert_eq!(s.remove_view("v_test"), Some(size));
        assert!(!s.has_view("v_test"));
        assert_eq!(s.total_view_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn checksum_recorded_and_corruption_detected() {
        let mut s = store();
        let rows = Arc::new(vec![Row::new(vec![miso_data::Value::Int(1)])]);
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        s.install_view("v_test", schema, rows).unwrap();
        let recorded = s.view_checksum("v_test").unwrap();
        assert_eq!(s.verify_view("v_test", recorded), Some(true));
        assert!(s.corrupt_view("v_test"));
        assert_eq!(
            s.view_checksum("v_test"),
            Some(recorded),
            "corruption is silent: the recorded checksum must not move"
        );
        assert_eq!(s.verify_view("v_test", recorded), Some(false));
        assert_eq!(s.verify_view("v_missing", recorded), None);
        assert!(!s.corrupt_view("v_missing"));
    }

    /// A clone costs refcounts, not lines: it shares each log's storage and
    /// parsed columns with its original until one of them appends, and the
    /// append leaves the other scanning the log as it was.
    #[test]
    fn clone_shares_log_storage_and_append_is_copy_on_write() {
        let mut master = store();
        let p = plan("SELECT t.city AS city, COUNT(*) AS n FROM twitter t GROUP BY t.city");
        let udfs = UdfRegistry::new();
        let rows_of = |s: &HvStore| {
            let run = s.execute(&p, None, &udfs).unwrap();
            run.execution.root_rows().unwrap().to_vec()
        };
        let snapshot = master.clone();
        for log in ["twitter", "foursquare", "landmarks"] {
            assert!(Arc::ptr_eq(&master.logs[log], &snapshot.logs[log]), "{log}");
        }
        // A scan through either warms the one image.
        let before = rows_of(&snapshot);
        let kept = master.log_columns_kept("twitter");
        assert!(kept > 0);
        assert_eq!(snapshot.log_columns_kept("twitter"), kept);

        let lines = snapshot.log_lines("twitter").unwrap().len();
        let extra = vec![
            r#"{"tweet_id": 1, "city": "atlantis"}"#.to_string(),
            "torn line".to_string(),
        ];
        master
            .append_log("twitter", &LogBatch::new(&extra))
            .unwrap();
        assert!(!Arc::ptr_eq(
            &master.logs["twitter"],
            &snapshot.logs["twitter"]
        ));
        assert!(Arc::ptr_eq(
            &master.logs["landmarks"],
            &snapshot.logs["landmarks"]
        ));
        assert_eq!(snapshot.log_lines("twitter").unwrap().len(), lines);
        assert_eq!(master.log_lines("twitter").unwrap().len(), lines + 2);
        assert_eq!(
            rows_of(&snapshot),
            before,
            "the snapshot's log did not grow"
        );
        let grown = rows_of(&master);
        assert_eq!(grown.len(), before.len() + 1, "atlantis is a new group");
        // Sole owner again: the next append extends in place.
        drop(snapshot);
        let image = Arc::as_ptr(&master.logs["twitter"]);
        master
            .append_log(
                "twitter",
                &LogBatch::new(&[r#"{"city": "atlantis"}"#.into()]),
            )
            .unwrap();
        assert_eq!(Arc::as_ptr(&master.logs["twitter"]), image);
        assert_eq!(master.log_columns_kept("twitter"), kept);
        assert_eq!(rows_of(&master).len(), grown.len());
    }

    /// A stored batch is shared — by scans, by clones of the store — until
    /// the view changes, and a change never reaches whoever holds the old one.
    #[test]
    fn a_view_batch_is_shared_until_the_view_changes() {
        let mut s = store();
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        let rows = |x: i64| Arc::new(vec![Row::new(vec![miso_data::Value::Int(x)])]);
        s.install_view("v", schema.clone(), rows(1)).unwrap();
        let first = s.view_batch("v").unwrap();
        assert!(Arc::ptr_eq(&first, &s.view_batch("v").unwrap()));
        let snapshot = s.clone();
        assert!(Arc::ptr_eq(&first, &snapshot.view_batch("v").unwrap()));
        assert_eq!(first.to_rows(), *rows(1));
        // Corruption copies on write: the snapshot keeps the clean cells.
        assert!(s.corrupt_view("v"));
        assert_ne!(s.view_batch("v").unwrap().to_rows(), *rows(1));
        assert_eq!(
            *s.view_rows("v").unwrap(),
            s.view_batch("v").unwrap().to_rows()
        );
        assert_eq!(snapshot.view_batch("v").unwrap().to_rows(), *rows(1));
        s.install_view("v", schema, rows(2)).unwrap();
        assert_eq!(s.view_batch("v").unwrap().to_rows(), *rows(2));
        // Taking a view hands over the stored `Arc`, recorded stamps and all.
        let stored = s.view_batch("v").unwrap();
        let taken = s.take_view("v").unwrap();
        assert!(s.view_batch("v").is_err());
        assert!(Arc::ptr_eq(&taken.batch, &stored));
        assert!(taken.verify(taken.checksum));
        assert_eq!(taken.size.as_bytes(), stored.row_bytes());
        s.install("v", taken);
        assert!(Arc::ptr_eq(&s.view_batch("v").unwrap(), &stored));
    }

    /// An empty view has its schema's arity, not none: it scans, joins,
    /// migrates and takes an append like any other.
    #[test]
    fn an_empty_view_knows_its_arity() {
        let mut s = store();
        let schema = Schema::new(vec![
            miso_data::Field::new("k", miso_data::DataType::Int),
            miso_data::Field::new("v", miso_data::DataType::Str),
        ]);
        s.install_view("none", schema.clone(), Arc::new(Vec::new()))
            .unwrap();
        let empty = s.view_batch("none").unwrap();
        assert_eq!((empty.len(), empty.arity()), (0, 2));
        assert_eq!(s.view_size("none"), Some(ByteSize::ZERO));
        let mut b = miso_plan::PlanBuilder::new();
        let scan = |b: &mut miso_plan::PlanBuilder| {
            let op = Operator::ScanView {
                view: "none".into(),
                schema: schema.clone(),
            };
            b.add(op, vec![]).unwrap()
        };
        let (left, right) = (scan(&mut b), scan(&mut b));
        let join = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![left, right])
            .unwrap();
        let keys = vec![(3, true)];
        let sort = b.add(Operator::Sort { keys }, vec![join]).unwrap();
        let plan = b.finish(sort).unwrap();
        let run = s.execute(&plan, None, &UdfRegistry::new()).unwrap();
        let root = run.execution.root_batch().unwrap();
        assert_eq!((root.len(), root.arity()), (0, 4));
        // An append refresh extends the stored columns in place.
        let mut taken = s.take_view("none").unwrap();
        let delta = vec![Row::new(vec![
            miso_data::Value::Int(1),
            miso_data::Value::str("a"),
        ])];
        Arc::make_mut(&mut taken.batch).append(ColBatch::from_rows(&delta).unwrap());
        assert_eq!(taken.batch.to_rows(), delta);
        assert!(matches!(taken.batch.col(0), Column::Int(..)));
        assert!(matches!(taken.batch.col(1), Column::Str(..)));
    }

    /// Rows of differing arity have no batch: they are refused where they
    /// enter, naming the view, and nothing is stored.
    #[test]
    fn ragged_rows_are_refused_at_install() {
        let mut s = store();
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        let ragged = Arc::new(vec![
            Row::new(vec![miso_data::Value::Int(1)]),
            Row::new(vec![miso_data::Value::Int(1), miso_data::Value::Int(2)]),
        ]);
        let err = s.install_view("v_ragged", schema, ragged).unwrap_err();
        assert!(matches!(err, MisoError::Store(_)), "{err:?}");
        assert!(err.to_string().contains("`v_ragged`"), "{err}");
        assert!(err.to_string().contains("differing arity"), "{err}");
        assert!(!s.has_view("v_ragged"));
    }

    #[test]
    fn scan_from_installed_view() {
        let mut s = store();
        // Materialize a sub-result, install it, and scan it back.
        let p = plan("SELECT t.city AS city, COUNT(*) AS n FROM twitter t GROUP BY t.city");
        let run = s.execute(&p, None, &UdfRegistry::new()).unwrap();
        let m = &run.materialized[0];
        s.install("v_agg", m.stored());

        let mut b = miso_plan::PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "v_agg".into(),
                    schema: m.schema.clone(),
                },
                vec![],
            )
            .unwrap();
        let p2 = b.finish(sv).unwrap();
        let run2 = s.execute(&p2, None, &UdfRegistry::new()).unwrap();
        assert_eq!(run2.execution.root_rows().unwrap().len(), m.batch.len());
        // Scanning a small view is far cheaper than scanning the base log.
        assert!(run2.cost < run.cost);
    }

    #[test]
    fn costs_scale_with_log_size() {
        let s = store();
        let small = plan("SELECT l.city FROM landmarks l");
        let big = plan("SELECT t.city FROM twitter t");
        let c_small = s.execute(&small, None, &UdfRegistry::new()).unwrap().cost;
        let c_big = s.execute(&big, None, &UdfRegistry::new()).unwrap().cost;
        assert!(c_big > c_small);
    }

    #[test]
    fn fill_stats_registers_logs_and_views() {
        let mut s = store();
        let rows = Arc::new(vec![Row::new(vec![miso_data::Value::Int(1)])]);
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        s.install_view("v_x", schema, rows).unwrap();
        let mut stats = MapStats::new();
        s.fill_stats(&mut stats);
        use miso_plan::estimate::StatsSource;
        assert!(stats.log_stats("twitter").unwrap().rows > 0.0);
        assert_eq!(stats.view_stats("v_x").unwrap().rows, 1.0);
    }

    #[test]
    fn partial_execution_materializes_cut() {
        let s = store();
        let p = plan(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city",
        );
        // Execute only the scan+extract+filter prefix (find it structurally:
        // everything below the pre-agg projection).
        let agg_node = p
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Aggregate { .. }))
            .unwrap()
            .id;
        let mut subset: HashSet<NodeId> = p.descendants(agg_node);
        subset.remove(&agg_node);
        // remove the pre-agg projection too, keeping scan/extract/filter
        let pre_agg = p.node(agg_node).inputs[0];
        subset.remove(&pre_agg);
        let run = s.execute(&p, Some(&subset), &UdfRegistry::new()).unwrap();
        assert_eq!(run.materialized.len(), 1, "cut output is materialized");
        assert!(run.execution.try_output(agg_node).is_none());
    }
}
