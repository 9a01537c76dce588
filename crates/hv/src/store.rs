//! The HV store: HDFS-like log storage, view storage, staged execution.

use crate::cost::HvCostModel;
use crate::stages::Stages;
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::{ByteSize, MisoError, Result, SimDuration};
use miso_data::checksum::checksum_batch;
use miso_data::json::RawColumns;
use miso_data::logs::LogFile;
use miso_data::{ColBatch, Row, Schema, Shelf, StoredView};
use miso_exec::col::field_columns;
use miso_exec::engine::{
    execute_subset_guarded, DataSource, Execution, LogColumns, LogLines, Retention, MORSEL_SIZE,
};
use miso_exec::memo::{node_keys, MemoKey};
use miso_exec::{FusedField, SubplanMemo, UdfRegistry};
use miso_obs::FieldValue;
use miso_plan::estimate::MapStats;
use miso_plan::split::mask;
use miso_plan::{LogicalPlan, Operator};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One base log as HV holds it: the raw lines, in segments — the registered
/// file's lines, shared with the [`LogFile`], then one segment per appended
/// batch — and, once a fused scan has read the log, every top-level field
/// of them as a raw column ([`RawColumns`]), lexed once and kept.
///
/// Three invariants make a column served from the image indistinguishable
/// from a fresh parse:
///
/// 1. **One pass.** The raw columns are what [`miso_exec::col::columnize`]
///    builds over all of the lines — the first fused scan builds them,
///    segment by segment, charged to no guard ([`LogLines::columnize`]) —
///    so a scan's columns are [`field_columns`] of them, exactly what
///    [`miso_exec::col::parse_log_columns`] gives over the concatenated
///    lines, with its skip count.
/// 2. **Clones share.** [`HvStore`] holds images behind an `Arc`, so a
///    cloned store (an epoch snapshot, the serving oracle) reads and warms
///    the same columns as its original.
/// 3. **Append adds a segment.** [`HvStore::append_log`] copies the image
///    first if another store shares it — its segment list and a handle on
///    its columns, never a line — then adds the appended [`LogBatch`]'s
///    lines as a new segment and extends every raw column by the batch's
///    own ([`RawColumns::append`]), which restores (1). No segment is ever
///    written again, so the registered file's lines stay shared with
///    whoever registered them.
#[derive(Debug)]
struct LogImage {
    segments: Vec<Arc<Vec<String>>>,
    rows: u64,
    size: ByteSize,
    raw: RawSlot,
}

impl Clone for LogImage {
    fn clone(&self) -> Self {
        LogImage {
            segments: self.segments.clone(),
            rows: self.rows,
            size: self.size,
            raw: RawSlot(Mutex::new(self.raw.get())),
        }
    }
}

/// The raw columns of some lines, built by the first reader that asks.
#[derive(Debug, Default)]
struct RawSlot(Mutex<Option<Arc<RawColumns>>>);

impl RawSlot {
    fn lock(&self) -> MutexGuard<'_, Option<Arc<RawColumns>>> {
        self.0
            .lock()
            .expect("no scan panics while it holds the image lock")
    }

    /// The columns, if any reader has built them.
    fn get(&self) -> Option<Arc<RawColumns>> {
        self.lock().clone()
    }

    /// The raw columns of `lines`, and whether this call lexed them. They
    /// are built with the lock released; a racing reader lexes the same
    /// lines, so either result will do.
    fn read(&self, lines: &LogLines<'_>) -> Result<(Arc<RawColumns>, bool)> {
        if let Some(raw) = self.get() {
            return Ok((raw, false));
        }
        let mut span = miso_obs::span("hv.lex");
        let raw = Arc::new(lines.columnize()?);
        if span.is_active() {
            let segments = lines.segments().iter();
            let bytes = lines.iter().map(|line| line.len() as u64).sum();
            let runs = segments.map(|s| s.len().div_ceil(MORSEL_SIZE) as u64).sum();
            span.push_field("lines", FieldValue::U64(lines.len() as u64));
            span.push_field("bytes", FieldValue::U64(bytes));
            span.push_field("runs", FieldValue::U64(runs));
        }
        drop(span);
        miso_obs::count("hv.log_lines_tokenized", lines.len() as u64);
        if miso_obs::enabled() {
            miso_obs::count("hv.log_col_bytes", raw.approx_bytes());
        }
        Ok((self.lock().get_or_insert(raw).clone(), true))
    }

    /// The columns of `fields` over `lines`: every one counted as parsed
    /// when this call lexed the lines, as served when they were lexed
    /// before.
    fn columns(&self, lines: &LogLines<'_>, fields: &[FusedField<'_>]) -> Result<LogColumns> {
        let (raw, lexed) = self.read(lines)?;
        let n = fields.len() as u64;
        Ok(LogColumns {
            batch: field_columns(&raw, fields),
            skipped_lines: raw.skipped(),
            cols_hit: if lexed { 0 } else { n },
            cols_parsed: if lexed { n } else { 0 },
        })
    }
}

impl LogImage {
    /// The lines, segment by segment.
    fn lines(&self) -> LogLines<'_> {
        self.segments.iter().map(|s| s.as_slice()).collect()
    }

    /// Appends the batch's lines as a segment of their own, extending the
    /// raw columns, if the log has them, by the batch's.
    fn append(&mut self, batch: &LogBatch<'_>) -> Result<ByteSize> {
        if batch.lines.is_empty() {
            return Ok(ByteSize::ZERO);
        }
        let raw = self
            .raw
            .0
            .get_mut()
            .expect("no scan panics while it holds the image lock");
        if let Some(raw) = raw {
            let (tail, _) = batch.raw.read(&batch.image())?;
            Arc::make_mut(raw).append(RawColumns::clone(&tail));
        }
        let added = ByteSize::from_bytes(batch.lines.iter().map(|l| l.len() as u64 + 1).sum());
        self.segments.push(Arc::new(batch.lines.to_vec()));
        self.rows += batch.lines.len() as u64;
        self.size += added;
        Ok(added)
    }
}

/// One batch of lines on its way into a base log: a batch-sized image, with
/// the raw columns a `LogImage` keeps, lexed by whoever asks first.
/// [`HvStore::append_log`] extends the log's columns from them and every
/// view's delta plan scans them, so the batch is lexed once. It borrows the
/// lines and dies with the batch.
#[derive(Debug)]
pub struct LogBatch<'a> {
    lines: &'a [String],
    raw: RawSlot,
}

impl<'a> LogBatch<'a> {
    /// An image of `lines` with nothing lexed yet.
    pub fn new(lines: &'a [String]) -> Self {
        LogBatch {
            lines,
            raw: RawSlot::default(),
        }
    }

    /// The batch's raw lines.
    pub fn lines(&self) -> &'a [String] {
        self.lines
    }

    /// The batch's lines as a source hands them out: one segment.
    pub fn image(&self) -> LogLines<'a> {
        LogLines::one(self.lines)
    }

    /// The columns of `fields` over the batch's well-formed lines — what
    /// [`DataSource::log_columns`] answers for the whole log, at batch scale.
    pub fn columns(&self, fields: &[FusedField<'_>]) -> Result<LogColumns> {
        let cols = self.raw.columns(&self.image(), fields)?;
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
    /// nodes — see [`HvStore::execute_guarded`].
    pub execution: Execution,
    /// Total simulated cost (sum of stage costs).
    pub cost: SimDuration,
    /// Per-stage costs, in execution order.
    pub stage_costs: Vec<SimDuration>,
    /// Stage outputs (opportunistic view candidates), in execution order.
    pub materialized: Vec<MaterializedOutput>,
}

/// What an HV run of the `hv` side of `plan` harvests, in `materialized`
/// order: the job outputs, then the map-phase by-products — a Filter's
/// output is the map output spilled for the shuffle of its consuming job;
/// Hadoop materializes these too, and [15] harvests them alongside job
/// outputs.
fn harvest(plan: &LogicalPlan, stages: &mut Stages, hv: &[u64]) -> Vec<NodeId> {
    let outputs = stages.outputs(hv);
    let spills = plan.nodes().iter().enumerate().filter(|&(i, n)| {
        matches!(n.op, Operator::Filter { .. }) && mask::has(hv, i) && !mask::has(outputs, i)
    });
    mask::ones(outputs)
        .chain(spills.map(|(i, _)| i))
        .map(|i| NodeId(i as u64))
        .collect()
}

/// A process-unique number that a clone does not inherit: every `Stamp`,
/// made by `default` or `clone`, holds a number no other one has held.
#[derive(Debug)]
struct Stamp(u64);

impl Default for Stamp {
    fn default() -> Stamp {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Stamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Stamp {
    fn clone(&self) -> Stamp {
        Stamp::default()
    }
}

/// The simulated Hive/Hadoop store.
///
/// `Clone` is deliberate: the serving layer snapshots the whole store into an
/// immutable epoch image, so reorganization can stage changes off to the side
/// and publish atomically. Logs and view batches are `Arc`-shared, so a clone
/// costs one refcount bump per log and per view, whatever their sizes; a log
/// is copied only when one of two stores sharing it appends to it. Each
/// clone is an image of its own, with its own [`HvStore::image`].
#[derive(Debug, Default, Clone)]
pub struct HvStore {
    logs: HashMap<String, Arc<LogImage>>,
    image: Stamp,
    /// The materialized views HV holds, each as it was materialized.
    pub views: Shelf,
    /// Cost model (public so experiments can recalibrate).
    pub cost_model: HvCostModel,
}

impl HvStore {
    /// An empty store with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// A process-unique number naming this store value: no other store,
    /// and no clone of this one, has it. Mutation keeps the number, so it
    /// names content only for a store nothing mutates, as an epoch
    /// snapshot's.
    pub fn image(&self) -> u64 {
        self.image.0
    }

    /// Registers a base log, sharing its lines with the caller's
    /// [`LogFile`]. Its image starts with no columns, whatever other store
    /// was built from the same file.
    pub fn add_log(&mut self, log: LogFile) {
        let image = LogImage {
            rows: log.lines.len() as u64,
            segments: vec![log.lines],
            size: log.size,
            raw: RawSlot::default(),
        };
        self.logs
            .insert(log.kind.table_name().to_string(), Arc::new(image));
    }

    /// Appends a batch of lines to a base log (HDFS-style append-only
    /// growth), returning the appended byte count. The batch becomes a
    /// segment of its own: no line already in the log is copied. Stores
    /// cloned from this one, and the [`LogFile`] the log was registered
    /// from, keep the log as it was.
    pub fn append_log(&mut self, name: &str, batch: &LogBatch<'_>) -> Result<ByteSize> {
        let image = self
            .logs
            .get_mut(name)
            .ok_or_else(|| MisoError::Store(format!("HV has no log `{name}`")))?;
        Arc::make_mut(image).append(batch)
    }

    /// How many raw columns the store keeps of `log` — its distinct keys
    /// once a fused scan has read it, 0 before (diagnostic hook).
    pub fn log_columns_kept(&self, log: &str) -> usize {
        let raw = self.logs.get(log).and_then(|image| image.raw.get());
        raw.map_or(0, |raw| raw.width())
    }

    /// The on-disk size of a base log.
    pub fn log_size(&self, name: &str) -> Option<ByteSize> {
        self.logs.get(name).map(|l| l.size)
    }

    /// How many lines a base log has.
    pub fn log_rows(&self, name: &str) -> Option<u64> {
        self.logs.get(name).map(|l| l.rows)
    }

    /// A view's stored size. The benchmark adapter calls this; program
    /// code reads [`HvStore::views`].
    pub fn view_size(&self, name: &str) -> Option<ByteSize> {
        self.views.size(name)
    }

    /// A view's rows, pivoted for a caller that speaks rows. The benchmark
    /// adapter calls this.
    pub fn view_rows(&self, name: &str) -> Option<Arc<Vec<Row>>> {
        self.views.get(name).map(StoredView::rows)
    }

    /// Names of stored views (sorted). The benchmark adapter calls this.
    pub fn view_names(&self) -> Vec<String> {
        self.views.names()
    }

    /// Registers true log sizes into an estimation stats source (view
    /// sizes come from the catalog).
    pub fn fill_stats(&self, stats: &mut MapStats) {
        for (name, log) in &self.logs {
            stats.set_log(name.clone(), log.rows as f64, log.size.as_bytes() as f64);
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
        self.execute_guarded(plan, subset, udfs, QueryGuard::inert_ref(), &[])
    }

    /// The sub-plan memo keys an [`HvStore::execute_keeping`] of `subset`
    /// with no extra outputs executes, by node index
    /// ([`miso_exec::memo::node_keys`]): what a batch counts to plan its
    /// memo.
    pub fn memo_keys(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        udfs: &UdfRegistry,
    ) -> Vec<Option<MemoKey>> {
        let mut hv = vec![0; mask::words(plan.len())];
        for node in plan.nodes() {
            if subset.is_none_or(|s| s.contains(&node.id)) {
                mask::insert(&mut hv, node.id.raw() as usize);
            }
        }
        let keep = harvest(plan, &mut Stages::of(plan), &hv);
        node_keys(
            plan,
            subset,
            &HashSet::new(),
            Retention::Only(&keep),
            udfs,
            self.store_name(),
        )
    }

    /// [`HvStore::execute`] under a [`QueryGuard`], also keeping the outputs
    /// of the `extra` nodes. The engine checks the guard at every
    /// morsel-dispatch boundary and charges materializations against its
    /// memory budget. An injected `stall` inflates the charged cost so far
    /// past any sane deadline that the driver's next deadline check kills
    /// the query; an injected `hog` inflates the query's charged bytes by
    /// its factor (a no-op under an inactive guard).
    ///
    /// A Hadoop job writes its output to HDFS and spills its map-side
    /// filter; every other operator's result is pipelined and gone when the
    /// job ends. So the run keeps exactly the stage outputs (every cut node
    /// and the sub-plan result are among them) and the in-subset `Filter`
    /// outputs — what is charged by size and harvested — and a caller that
    /// needs an interior output (view maintenance capturing a join build
    /// side) names it in `extra`.
    pub fn execute_guarded(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        udfs: &UdfRegistry,
        guard: &QueryGuard,
        extra: &[NodeId],
    ) -> Result<HvRun> {
        self.execute_keeping(plan, subset, udfs, guard, |_| extra.to_vec(), None)
    }

    /// [`HvStore::execute_guarded`], the extra outputs chosen from the
    /// harvest: before anything runs, `extra` is told the nodes HV will
    /// harvest, in `materialized` order, and names the interior outputs the
    /// caller reads beside them (a harvested view's fold inputs). With a
    /// `memo`, the run shares the sub-plans its cells hold with the other
    /// runs of its batch ([`miso_exec::memo`]); [`HvStore::memo_keys`] names
    /// the keys such a run (with no extra outputs) will execute.
    pub fn execute_keeping(
        &self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        udfs: &UdfRegistry,
        guard: &QueryGuard,
        extra: impl FnOnce(&[NodeId]) -> Vec<NodeId>,
        memo: Option<&SubplanMemo>,
    ) -> Result<HvRun> {
        let mut obs = miso_obs::span("hv.execute");
        // Fault injection: one relaxed atomic load when chaos is disabled.
        let strike = miso_chaos::strike("hv.execute", "hv")?;
        // The HV side as a mask, and what each of its scans reads from
        // storage — checked up-front for a clean store-level error.
        let mut hv = vec![0; mask::words(plan.len())];
        let mut read = vec![0.0f64; plan.len()];
        for (i, node) in plan.nodes().iter().enumerate() {
            if !subset.is_none_or(|s| s.contains(&node.id)) {
                continue;
            }
            mask::insert(&mut hv, i);
            let size = match &node.op {
                Operator::ScanLog { log } => self
                    .log_size(log)
                    .ok_or_else(|| MisoError::Store(format!("HV has no log `{log}`")))?,
                Operator::ScanView { view, .. } => self
                    .views
                    .size(view)
                    .ok_or_else(|| MisoError::Store(format!("HV has no view `{view}`")))?,
                _ => continue,
            };
            read[i] = size.as_bytes() as f64;
        }
        let mut stages = Stages::of(plan);
        let harvest = harvest(plan, &mut stages, &hv);
        // The retention set is the harvest: stage costs below read sizes of
        // stage outputs only and row counts (which survive release) of
        // everything else, so what is not kept here is never looked at.
        let keep = [harvest.as_slice(), &extra(&harvest)].concat();
        let execution = execute_subset_guarded(
            plan,
            subset,
            HashMap::new(),
            self,
            udfs,
            Retention::Only(&keep),
            guard,
            memo,
        )?;
        let mut cost = SimDuration::ZERO;
        let mut stage_costs = Vec::new();
        let mut materialized = Vec::with_capacity(harvest.len());
        let node = |j: usize| NodeId(j as u64);
        stages.price(
            &hv,
            &self.cost_model,
            |j| execution.rows_out(node(j)).unwrap_or(0) as f64,
            |j| read[j],
            |j| execution.output_bytes(node(j)).as_bytes() as f64,
            |c| {
                // An injected straggler runs every stage slower by its factor.
                let c = strike.slowed(c);
                stage_costs.push(c);
                cost += c;
            },
        );
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
            obs.push_field(
                "stages",
                miso_obs::FieldValue::U64(stage_costs.len() as u64),
            );
            obs.push_field("cost_us", miso_obs::FieldValue::U64(cost.as_micros()));
            obs.push_field(
                "materialized",
                miso_obs::FieldValue::U64(materialized.len() as u64),
            );
            obs.push_field("materialized_bytes", miso_obs::FieldValue::U64(bytes));
            miso_obs::count("hv.stages_run", stage_costs.len() as u64);
            miso_obs::count("hv.bytes_materialized", bytes);
        }
        Ok(HvRun {
            execution,
            cost,
            stage_costs,
            materialized,
        })
    }

    /// Cost of dumping a working set for transfer to DW.
    pub fn dump_cost(&self, bytes: ByteSize) -> SimDuration {
        self.cost_model.dump_cost(bytes)
    }
}

impl DataSource for HvStore {
    fn log_lines(&self, log: &str) -> Result<LogLines<'_>> {
        self.logs
            .get(log)
            .map(|l| l.lines())
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
        let cols = image.raw.columns(&image.lines(), fields)?;
        miso_obs::count("hv.log_cols_served", cols.cols_hit);
        miso_obs::count("hv.log_cols_parsed", cols.cols_parsed);
        Ok(cols)
    }

    fn store_name(&self) -> &'static str {
        "hv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::logs::{Corpus, LogsConfig};
    use miso_data::Column;
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

    /// Puts `rows` on the store's shelf as view `name`.
    fn put_rows(s: &mut HvStore, name: &str, schema: Schema, rows: &[Row]) -> ByteSize {
        s.views
            .put(name, StoredView::from_rows(name, schema, rows).unwrap())
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
        let rows = vec![Row::new(vec![miso_data::Value::Int(1)])];
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        let size = put_rows(&mut s, "v_test", schema, &rows);
        assert!(size.as_bytes() > 0);
        assert!(s.views.contains("v_test"));
        assert_eq!(s.view_size("v_test"), Some(size));
        assert_eq!(s.view_names(), vec!["v_test".to_string()]);
        assert_eq!(s.views.total_bytes(), size);
        assert_eq!(s.views.take("v_test").map(|v| v.size), Some(size));
        assert!(!s.views.contains("v_test"));
        assert!(s.view_batch("v_test").is_err());
        assert_eq!(s.views.total_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn checksum_recorded_and_corruption_detected() {
        let mut s = store();
        let rows = vec![Row::new(vec![miso_data::Value::Int(1)])];
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        put_rows(&mut s, "v_test", schema, &rows);
        let recorded = s.views.get("v_test").unwrap().checksum;
        assert_eq!(s.views.verify("v_test", recorded), Some(true));
        assert!(s.views.corrupt("v_test"));
        assert_eq!(
            s.views.get("v_test").unwrap().checksum,
            recorded,
            "corruption is silent: the recorded checksum must not move"
        );
        assert_eq!(s.views.verify("v_test", recorded), Some(false));
        assert_eq!(s.views.verify("v_missing", recorded), None);
        assert!(!s.views.corrupt("v_missing"));
    }

    /// A clone costs refcounts, not lines: it shares each log's segments
    /// and parsed columns with its original. An append copies the appending
    /// store's image — the segment list, never a line — so the other store
    /// goes on scanning the log as it was, and both keep sharing every
    /// segment they had.
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
            &master.logs["twitter"].segments[0],
            &snapshot.logs["twitter"].segments[0]
        ));
        assert_eq!(master.logs["twitter"].segments.len(), 2);
        assert_eq!(snapshot.logs["twitter"].segments.len(), 1);
        assert!(Arc::ptr_eq(
            &master.logs["landmarks"],
            &snapshot.logs["landmarks"]
        ));
        assert_eq!(snapshot.log_lines("twitter").unwrap().len(), lines);
        assert_eq!(master.log_lines("twitter").unwrap().len(), lines + 2);
        assert_eq!(master.log_rows("twitter"), Some(lines as u64 + 2));
        assert_eq!(
            rows_of(&snapshot),
            before,
            "the snapshot's log did not grow"
        );
        let grown = rows_of(&master);
        assert_eq!(grown.len(), before.len() + 1, "atlantis is a new group");
        // Sole owner again: the next append adds a segment in place.
        drop(snapshot);
        let image = Arc::as_ptr(&master.logs["twitter"]);
        let first = Arc::as_ptr(&master.logs["twitter"].segments[1]);
        master
            .append_log(
                "twitter",
                &LogBatch::new(&[r#"{"city": "atlantis"}"#.into()]),
            )
            .unwrap();
        assert_eq!(Arc::as_ptr(&master.logs["twitter"]), image);
        assert_eq!(master.logs["twitter"].segments.len(), 3);
        assert_eq!(Arc::as_ptr(&master.logs["twitter"].segments[1]), first);
        assert_eq!(master.log_columns_kept("twitter"), kept);
        assert_eq!(rows_of(&master).len(), grown.len());
    }

    /// Appends never write the registered file's lines: they stay the
    /// image's first segment, shared with the [`LogFile`] and unchanged,
    /// and the image's size and row count are the file's plus the batches'.
    #[test]
    fn appends_share_the_registered_lines() {
        let file = Corpus::generate(&LogsConfig::tiny()).twitter;
        let original = file.lines.to_vec();
        let mut s = HvStore::new();
        s.add_log(file.clone());
        let batch = vec![r#"{"tweet_id": 7}"#.to_string(), "torn".to_string()];
        for _ in 0..2 {
            s.append_log("twitter", &LogBatch::new(&batch)).unwrap();
        }
        let image = &s.logs["twitter"];
        assert!(Arc::ptr_eq(&image.segments[0], &file.lines));
        assert_eq!(*file.lines, original);
        assert_eq!(image.segments.len(), 3);
        let rows = original.len() as u64 + 4;
        assert_eq!(s.log_rows("twitter"), Some(rows));
        let added: u64 = batch.iter().map(|l| l.len() as u64 + 1).sum();
        assert_eq!(
            s.log_size("twitter"),
            Some(file.size + ByteSize::from_bytes(2 * added))
        );
        let lines: Vec<&String> = s.log_lines("twitter").unwrap().iter().collect();
        let want: Vec<&String> = original.iter().chain(&batch).chain(&batch).collect();
        assert_eq!(lines, want);
    }

    /// A segmented log scans as the concatenated lines do in a
    /// [`MemSource`] — fused and unfused, skip counts included — whether
    /// its raw columns were built before the first append (and extended by
    /// each batch) or are lexed afterwards, segment by segment.
    #[test]
    fn a_segmented_scan_equals_a_scan_of_the_concatenated_lines() {
        use miso_exec::engine::execute;
        use miso_exec::MemSource;
        let file = Corpus::generate(&LogsConfig::tiny()).twitter;
        let batches = [
            vec![
                r#"{"tweet_id": 1, "city": "atlantis", "followers": 50}"#.to_string(),
                "torn line".to_string(),
            ],
            vec![r#"{"tweet_id": 2, "hashtags": ["x", 3], "lang": "xx"}"#.to_string()],
        ];
        let mut whole = MemSource::new();
        let all = file.lines.iter().chain(batches.iter().flatten());
        whole.add_log("twitter", all.cloned().collect());
        let plans = [
            plan("SELECT t.city AS city, COUNT(*) AS n FROM twitter t GROUP BY t.city"),
            plan("SELECT t.tweet_id AS id, t.city AS c FROM twitter t WHERE t.followers > 10"),
            plan("SELECT t.lang AS lang, t.hashtags AS tags FROM twitter t"),
        ];
        let fields = [
            FusedField {
                key: "city",
                ty: None,
            },
            FusedField {
                key: "hashtags",
                ty: None,
            },
            FusedField {
                key: "followers",
                ty: Some(miso_data::DataType::Int),
            },
        ];
        let udfs = UdfRegistry::new();
        for warm_first in [true, false] {
            let mut s = HvStore::new();
            s.add_log(file.clone());
            if warm_first {
                s.execute(&plans[0], None, &udfs).unwrap();
                assert!(s.log_columns_kept("twitter") > 0);
            }
            for batch in &batches {
                s.append_log("twitter", &LogBatch::new(batch)).unwrap();
            }
            assert_eq!(s.logs["twitter"].segments.len(), 3);
            let got = s.log_columns("twitter", &fields).unwrap();
            let want = whole.log_columns("twitter", &fields).unwrap();
            assert_eq!(got.batch, want.batch, "warm first: {warm_first}");
            assert_eq!(got.skipped_lines, want.skipped_lines);
            // Lexed once: by the warming scan, or by this first read.
            let parsed = if warm_first { 0 } else { fields.len() as u64 };
            assert_eq!(got.cols_parsed, parsed, "warm first: {warm_first}");
            for p in &plans {
                let want = execute(p, &whole, &udfs).unwrap();
                let fused = s.execute(p, None, &udfs).unwrap().execution;
                let unfused = execute(p, &s, &udfs).unwrap();
                for got in [&fused, &unfused] {
                    assert_eq!(got.root_rows().unwrap(), want.root_rows().unwrap());
                    assert_eq!(got.skipped_lines, want.skipped_lines);
                }
                assert!(want.skipped_lines > 0, "the torn line is skipped");
            }
        }
    }

    /// A stored batch is shared — by scans, by clones of the store — until
    /// the view changes, and a change never reaches whoever holds the old one.
    #[test]
    fn a_view_batch_is_shared_until_the_view_changes() {
        let mut s = store();
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        let rows = |x: i64| Arc::new(vec![Row::new(vec![miso_data::Value::Int(x)])]);
        put_rows(&mut s, "v", schema.clone(), &rows(1));
        let first = s.view_batch("v").unwrap();
        assert!(Arc::ptr_eq(&first, &s.view_batch("v").unwrap()));
        let snapshot = s.clone();
        assert!(Arc::ptr_eq(&first, &snapshot.view_batch("v").unwrap()));
        assert_eq!(first.to_rows(), *rows(1));
        // Corruption copies on write: the snapshot keeps the clean cells.
        assert!(s.views.corrupt("v"));
        assert_ne!(s.view_batch("v").unwrap().to_rows(), *rows(1));
        assert_eq!(
            *s.view_rows("v").unwrap(),
            s.view_batch("v").unwrap().to_rows()
        );
        assert_eq!(snapshot.view_batch("v").unwrap().to_rows(), *rows(1));
        put_rows(&mut s, "v", schema, &rows(2));
        assert_eq!(s.view_batch("v").unwrap().to_rows(), *rows(2));
        // Taking a view hands over the stored `Arc`, recorded stamps and all.
        let stored = s.view_batch("v").unwrap();
        let taken = s.views.take("v").unwrap();
        assert!(s.view_batch("v").is_err());
        assert!(Arc::ptr_eq(&taken.batch, &stored));
        assert!(taken.verify(taken.checksum));
        assert_eq!(taken.size.as_bytes(), stored.row_bytes());
        s.views.put("v", taken);
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
        put_rows(&mut s, "none", schema.clone(), &[]);
        let empty = s.view_batch("none").unwrap();
        assert_eq!((empty.len(), empty.arity()), (0, 2));
        assert_eq!(s.views.size("none"), Some(ByteSize::ZERO));
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
        let mut taken = s.views.take("none").unwrap();
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
        let s = store();
        let schema = Schema::new(vec![miso_data::Field::new("x", miso_data::DataType::Int)]);
        let ragged = Arc::new(vec![
            Row::new(vec![miso_data::Value::Int(1)]),
            Row::new(vec![miso_data::Value::Int(1), miso_data::Value::Int(2)]),
        ]);
        let err = StoredView::from_rows("v_ragged", schema, &ragged).unwrap_err();
        assert!(matches!(err, MisoError::Store(_)), "{err:?}");
        assert!(err.to_string().contains("`v_ragged`"), "{err}");
        assert!(err.to_string().contains("differing arity"), "{err}");
        assert!(!s.views.contains("v_ragged"));
    }

    #[test]
    fn scan_from_installed_view() {
        let mut s = store();
        // Materialize a sub-result, install it, and scan it back.
        let p = plan("SELECT t.city AS city, COUNT(*) AS n FROM twitter t GROUP BY t.city");
        let run = s.execute(&p, None, &UdfRegistry::new()).unwrap();
        let m = &run.materialized[0];
        s.views.put("v_agg", m.stored());

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
        let s = store();
        let mut stats = MapStats::new();
        s.fill_stats(&mut stats);
        use miso_plan::estimate::StatsSource;
        assert!(stats.log_stats("twitter").unwrap().rows > 0.0);
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
