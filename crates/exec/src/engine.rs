//! The operator interpreter (miso-vex: morsel-parallel, allocation-lean).
//!
//! Executes a [`LogicalPlan`] bottom-up over a [`DataSource`], one node at a
//! time. By default every node's output is kept as an in-memory row vector
//! ([`Retention::All`]) — what tests and the serial oracle compare. A store
//! names the outputs it will actually read ([`Retention::Only`]): Hadoop
//! materializes stage boundaries for fault tolerance, and those
//! materializations are precisely the opportunistic views MISO tunes with,
//! so the HV store keeps exactly those and everything in between is
//! pipelined — run columnar, fused, and released after its last consumer.
//!
//! [`execute_subset`] supports split execution: the HV side runs the nodes
//! below the cut, the working sets cross the wire, and the DW side resumes
//! with those outputs injected as `provided` inputs.
//!
//! # Parallelism and determinism
//!
//! Row-at-a-time operator bodies run **morsel-parallel** on the
//! `miso_common::pool` scoped worker pool (Leis et al., SIGMOD 2014): inputs
//! are chunked into fixed [`MORSEL_SIZE`] morsels, morsels fan out across
//! `MISO_THREADS` workers, and per-morsel results are reassembled in morsel
//! index order. Morsel boundaries depend only on the constant, never on the
//! worker count, so every operator's output — including `skipped_lines`
//! accounting and the first error surfaced — is byte-identical for any
//! thread count. Aggregations fold per-morsel partial accumulators and merge
//! them serially in morsel order ([`Acc::merge`]), which pins even
//! float-summation grouping to the morsel structure rather than the
//! schedule. Join keys and group keys are hashed once per row to a `u64`
//! (FNV-1a via `miso_plan::fingerprint`, collision-checked by real key
//! equality at every probe), replacing the per-row `Vec` key allocations of
//! the row-at-a-time interpreter preserved in [`crate::serial`].

use crate::col::{self, FusedField};
use crate::eval::{eval, eval_predicate};
use crate::profile::{self, OpProfile};
use crate::udf::{Udf, UdfRegistry};
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::{pool, ByteSize, MisoError, Result};
use miso_data::json::parse_json;
use miso_data::{Cell, ColBatch, Row, Value};
use miso_plan::fingerprint::{fnv1a_hash_one, FnvHasher};
use miso_plan::{AggFunc, LogicalPlan, Operator};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Rows per morsel. Fixed — never derived from the worker count — so the
/// morsel structure (and with it every reassembled output, partial-sum
/// grouping, and error choice) is identical for any `MISO_THREADS` value.
pub const MORSEL_SIZE: usize = 4096;

/// Supplies leaf data: raw log lines and materialized view rows.
pub trait DataSource {
    /// The JSON lines of base log `log`.
    fn log_lines(&self, log: &str) -> Result<&[String]>;
    /// The rows of materialized view `view`.
    fn view_rows(&self, view: &str) -> Result<&[Row]>;
    /// Shared-ownership variant of [`DataSource::view_rows`]: sources that
    /// keep view rows in an `Arc<Vec<Row>>` can hand the engine a zero-copy
    /// handle, turning `ScanView` into a refcount bump instead of a
    /// full-table deep clone. `None` (the default) falls back to copying.
    fn view_rows_shared(&self, _view: &str) -> Option<Arc<Vec<Row>>> {
        None
    }
    /// Columnar companion to [`DataSource::view_rows_shared`]: a shared
    /// [`ColBatch`] pivot of the view, for sources that can serve one.
    /// `None` (the default) keeps downstream operators on the row path.
    fn view_cols_shared(&self, _view: &str) -> Option<Arc<ColBatch>> {
        None
    }
    /// The object rows an unfused scan of base log `log` produces — one
    /// single-column row per well-formed line — with the count of malformed
    /// lines, for sources that parse a log once for several plans. `None`
    /// (the default) has the scan parse [`DataSource::log_lines`] itself.
    fn log_rows_shared(&self, _log: &str) -> Option<(Arc<Vec<Row>>, u64)> {
        None
    }
    /// The columns a fused scan reads of base log `log` for its consumer (a
    /// SerDe projection, a UDF that declared its fields): one per field,
    /// over the log's well-formed lines in line order. The default
    /// parses them out of [`DataSource::log_lines`] on every call; a source
    /// that keeps parsed columns hands those back shared and parses only
    /// what it is missing. Either way the result is the same batch.
    fn log_columns(&self, log: &str, fields: &[FusedField<'_>]) -> Result<LogColumns> {
        let (batch, skipped_lines) = col::parse_log_columns(self.log_lines(log)?, fields)?;
        Ok(LogColumns {
            batch,
            skipped_lines,
            cols_hit: 0,
            cols_parsed: fields.len() as u64,
        })
    }
}

/// What [`DataSource::log_columns`] returns.
#[derive(Debug)]
pub struct LogColumns {
    /// One column per requested field, one row per well-formed line.
    pub batch: ColBatch,
    /// Malformed lines of the log (the scan's `skipped_lines`).
    pub skipped_lines: u64,
    /// Requested columns the source already held.
    pub cols_hit: u64,
    /// Requested columns the source had to parse for this call.
    pub cols_parsed: u64,
}

/// An in-memory [`DataSource`].
#[derive(Debug, Clone, Default)]
pub struct MemSource {
    logs: HashMap<String, Vec<String>>,
    views: HashMap<String, Arc<Vec<Row>>>,
    /// Lazily pivoted columnar twins of `views`, built on first columnar
    /// scan and shared thereafter (`None` caches "not pivotable", i.e. a
    /// ragged-arity view). Re-registering a view resets its slot.
    cols: HashMap<String, OnceLock<Option<Arc<ColBatch>>>>,
}

impl MemSource {
    /// An empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a base log's lines.
    pub fn add_log(&mut self, name: impl Into<String>, lines: Vec<String>) {
        self.logs.insert(name.into(), lines);
    }

    /// Registers a view's rows.
    pub fn add_view(&mut self, name: impl Into<String>, rows: Vec<Row>) {
        let name = name.into();
        self.cols.insert(name.clone(), OnceLock::new());
        self.views.insert(name, Arc::new(rows));
    }
}

impl DataSource for MemSource {
    fn log_lines(&self, log: &str) -> Result<&[String]> {
        self.logs
            .get(log)
            .map(Vec::as_slice)
            .ok_or_else(|| MisoError::Store(format!("unknown log `{log}`")))
    }

    fn view_rows(&self, view: &str) -> Result<&[Row]> {
        self.views
            .get(view)
            .map(|rows| rows.as_slice())
            .ok_or_else(|| MisoError::Store(format!("unknown view `{view}`")))
    }

    fn view_rows_shared(&self, view: &str) -> Option<Arc<Vec<Row>>> {
        self.views.get(view).cloned()
    }

    fn view_cols_shared(&self, view: &str) -> Option<Arc<ColBatch>> {
        let slot = self.cols.get(view)?;
        let rows = self.views.get(view)?;
        slot.get_or_init(|| ColBatch::from_rows(rows).map(Arc::new))
            .clone()
    }
}

/// Which node outputs an [`Execution`] still holds when it returns.
#[derive(Debug, Clone, Copy)]
pub enum Retention<'a> {
    /// Every executed node's rows stay observable. The library default: it
    /// is what tests and the serial oracle compare node by node. Nothing is
    /// released or stolen, and every operator runs its row body.
    All,
    /// Only the listed nodes and the plan root are kept (never-consumed
    /// outputs also survive: nothing ever releases them). Every other
    /// output is released as soon as its last in-subset consumer has run,
    /// which frees memory early, lets single-consumer `Filter`/`Limit`/
    /// `Sort` *steal* uniquely-owned input rows instead of deep-cloning
    /// them, and lets a log scan fuse into a consumer that names the fields
    /// it reads (a SerDe projection, a declaring UDF). A kept node is never
    /// released, stolen from or fused away. Row counts stay
    /// queryable for all executed nodes via [`Execution::rows_out`].
    Only(&'a [NodeId]),
}

impl Retention<'_> {
    /// Keep nothing but the root — what a store that harvests no
    /// intermediates (DW) asks for.
    pub const ROOT_ONLY: Retention<'static> = Retention::Only(&[]);
}

/// The result of executing (part of) a plan.
#[derive(Debug, Clone)]
pub struct Execution {
    outputs: HashMap<NodeId, Arc<Vec<Row>>>,
    /// Output row count of every executed or provided node — recorded even
    /// for outputs released early under [`Retention::Only`].
    rows_out: HashMap<NodeId, u64>,
    /// Malformed log lines skipped by scans (Hive-style lenience).
    pub skipped_lines: u64,
    /// Per-node [`OpProfile`]s — empty unless [`crate::profile::enabled`]
    /// was on when the plan ran (the serial oracle never collects them).
    profiles: HashMap<NodeId, OpProfile>,
    root: NodeId,
}

impl Execution {
    /// Assembles an execution result (shared with [`crate::serial`]).
    pub(crate) fn from_parts(
        outputs: HashMap<NodeId, Arc<Vec<Row>>>,
        rows_out: HashMap<NodeId, u64>,
        skipped_lines: u64,
        root: NodeId,
    ) -> Execution {
        Execution {
            outputs,
            rows_out,
            skipped_lines,
            profiles: HashMap::new(),
            root,
        }
    }

    /// The output of node `id`; panics if that node was not executed (or its
    /// rows were released under [`Retention::Only`]). Callers that cannot
    /// prove the node was kept use [`Execution::retained_output`].
    pub fn output(&self, id: NodeId) -> &Arc<Vec<Row>> {
        &self.outputs[&id]
    }

    /// The output of node `id`, or an execution error naming the node when
    /// its rows are not held (released early, or never executed).
    pub fn retained_output(&self, id: NodeId) -> Result<&Arc<Vec<Row>>> {
        self.outputs
            .get(&id)
            .ok_or_else(|| MisoError::Execution(format!("node {id} output not retained")))
    }

    /// The output of node `id`, if executed and retained.
    pub fn try_output(&self, id: NodeId) -> Option<&Arc<Vec<Row>>> {
        self.outputs.get(&id)
    }

    /// Output row count of node `id`, if executed — survives early release.
    pub fn rows_out(&self, id: NodeId) -> Option<u64> {
        self.rows_out.get(&id).copied()
    }

    /// The root output rows; errors if the root was outside the executed
    /// subset (e.g. an HV-side partial execution).
    pub fn root_rows(&self) -> Result<&[Row]> {
        self.outputs
            .get(&self.root)
            .map(|r| r.as_slice())
            .ok_or_else(|| MisoError::Execution("root was not part of the executed subset".into()))
    }

    /// Approximate serialized size of node `id`'s output.
    pub fn output_bytes(&self, id: NodeId) -> ByteSize {
        ByteSize::from_bytes(
            self.outputs
                .get(&id)
                .map(|rows| rows.iter().map(Row::approx_bytes).sum())
                .unwrap_or(0),
        )
    }

    /// Ids of all executed (or provided) nodes, including any whose rows
    /// were released early.
    pub fn executed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rows_out.keys().copied()
    }

    /// The profile of node `id`, if profiling was enabled when it executed.
    pub fn profile(&self, id: NodeId) -> Option<&OpProfile> {
        self.profiles.get(&id)
    }

    /// All collected per-node profiles (empty when profiling is off).
    pub fn profiles(&self) -> &HashMap<NodeId, OpProfile> {
        &self.profiles
    }
}

/// Executes the whole plan.
pub fn execute(
    plan: &LogicalPlan,
    source: &dyn DataSource,
    udfs: &UdfRegistry,
) -> Result<Execution> {
    execute_subset(plan, None, HashMap::new(), source, udfs)
}

/// Executes a subset of the plan's nodes, retaining every node's output.
///
/// * `subset` — nodes to execute (`None` = all). Each executed node's inputs
///   must be in the subset or in `provided`.
/// * `provided` — pre-computed node outputs (working sets shipped from the
///   other store during split execution).
pub fn execute_subset(
    plan: &LogicalPlan,
    subset: Option<&HashSet<NodeId>>,
    provided: HashMap<NodeId, Arc<Vec<Row>>>,
    source: &dyn DataSource,
    udfs: &UdfRegistry,
) -> Result<Execution> {
    execute_subset_guarded(
        plan,
        subset,
        provided,
        source,
        udfs,
        Retention::All,
        QueryGuard::inert_ref(),
    )
}

/// [`execute_subset`] keeping only what `retain` names, under a
/// [`QueryGuard`]: the guard's cancellation
/// state is checked at every morsel-dispatch boundary (a serial point, so
/// cancellation outcomes are thread-count-invariant), and the query's large
/// allocations — node materialization buffers, join build tables, aggregate
/// accumulator tables — are charged against the guard's memory budget.
/// Charges are released as outputs are freed and fully unwound when the
/// execution ends, success or failure. With the shared inert guard
/// ([`QueryGuard::inert_ref`]) every check is one branch and no bytes are
/// ever charged, so an unguarded caller pays nothing for the parameter.
///
/// Under [`Retention::Only`] eligible operators run column-at-a-time over
/// [`ColBatch`]es (see [`crate::col`]); an operator the columnar path
/// declines — a join, a sort, an unfused scan, an aggregate over an
/// expression, a filter or projection of a ragged row set — runs its row
/// body, and kept nodes that finish columnar are pivoted
/// to rows once, when the execution returns. Under [`Retention::All`] every
/// node must end up as rows, so each would pay a pivot and the row bodies
/// are strictly cheaper: every operator runs its row body. Output is
/// bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub fn execute_subset_guarded(
    plan: &LogicalPlan,
    subset: Option<&HashSet<NodeId>>,
    provided: HashMap<NodeId, Arc<Vec<Row>>>,
    source: &dyn DataSource,
    udfs: &UdfRegistry,
    retain: Retention<'_>,
    guard: &QueryGuard,
) -> Result<Execution> {
    let root = plan.root();
    // Keep-sets are a handful of ids: a slice scan beats building a set.
    let kept = |id: NodeId| match retain {
        Retention::All => true,
        Retention::Only(ids) => id == root || ids.contains(&id),
    };
    // Whether anything may be released at all — and with it, whether the
    // columnar bodies run.
    let lean = !matches!(retain, Retention::All);
    let mut outputs: HashMap<NodeId, Arc<Vec<Row>>> = HashMap::with_capacity(plan.len());
    let mut rows_out: HashMap<NodeId, u64> = HashMap::with_capacity(plan.len());
    for (id, rows) in provided {
        rows_out.insert(id, rows.len() as u64);
        outputs.insert(id, rows);
    }
    // Remaining in-subset consumer edges per node, counted only when some
    // outputs may go. Once a node's count hits zero its output is released
    // unless kept; a count of exactly one at consumption time means the
    // consumer may steal an unkept input's rows.
    let mut pending: HashMap<NodeId, usize> = HashMap::new();
    if lean {
        for node in plan.nodes() {
            let executes =
                subset.is_none_or(|s| s.contains(&node.id)) && !rows_out.contains_key(&node.id);
            if !executes {
                continue;
            }
            for input in &node.inputs {
                *pending.entry(*input).or_insert(0) += 1;
            }
        }
    }
    let mut skipped_lines = 0u64;
    // One relaxed load per plan; everything profile-related below is behind
    // this flag so the off path does no extra work.
    let profiling = profile::enabled();
    let mut profiles: HashMap<NodeId, OpProfile> = HashMap::new();
    if profiling {
        profiles.reserve(plan.len());
        profile::take_dispatch();
    }
    // Columnar node outputs, kept beside `outputs`. A node normally lives
    // in exactly one map (zero-copy view scans may publish both
    // representations); whatever survives to the end is pivoted to rows.
    let mut col_outputs: HashMap<NodeId, Arc<ColBatch>> = HashMap::new();
    // Scan fusion: a log scan whose single consumer names the fields it
    // reads of each line — a SerDe-shaped projection, or a UDF that declared
    // them ([`crate::Udf::reading`]) — takes those columns straight from the
    // source ([`DataSource::log_columns`]), skipping the intermediate JSON
    // object rows entirely. Because the scan's output is never materialized,
    // a kept scan cannot fuse, and fusion stays off under profiling, which
    // reports per-node materializations. An active guard does not stop it:
    // a fused scan materializes nothing of its own, so — like the zero-copy
    // `ScanView` — it charges nothing, and its consumer charges its output.
    // Maps scan → (consumer, the fields it reads).
    let mut fused: HashMap<NodeId, (NodeId, Vec<FusedField<'_>>)> = HashMap::new();
    if lean && !profiling {
        let executes =
            |id: NodeId| subset.is_none_or(|s| s.contains(&id)) && !rows_out.contains_key(&id);
        for node in plan.nodes() {
            if !executes(node.id) || node.inputs.len() != 1 {
                continue;
            }
            let scan = node.inputs[0];
            if kept(scan)
                || !executes(scan)
                || pending.get(&scan).copied() != Some(1)
                || !matches!(plan.node(scan).op, Operator::ScanLog { .. })
            {
                continue;
            }
            let fields = match &node.op {
                Operator::Project { exprs } => col::fused_fields(exprs.iter().map(|(_, e)| e)),
                Operator::Udf { name, .. } => udfs.get(name).and_then(Udf::reads).map(|keys| {
                    keys.iter()
                        .map(|key| FusedField { key, ty: None })
                        .collect()
                }),
                _ => None,
            };
            if let Some(fields) = fields {
                fused.insert(scan, (node.id, fields));
            }
        }
    }
    // Batches read by fused scans, waiting for their consumer node.
    let mut fused_ready: HashMap<NodeId, ColBatch> = HashMap::new();
    // Per-node materialization charges; drops (and releases) on any exit.
    let mut ledger = ChargeLedger::new(guard);
    for node in plan.nodes() {
        if rows_out.contains_key(&node.id) {
            continue; // provided
        }
        if let Some(set) = subset {
            if !set.contains(&node.id) {
                continue;
            }
        }
        guard.check()?;
        let mut op_span = miso_obs::span("exec.op");
        if op_span.is_active() {
            op_span.push_field("op", miso_obs::FieldValue::Str(node.op.label()));
            op_span.push_field("node", miso_obs::FieldValue::U64(node.id.raw()));
        }
        let t0 = Instant::now();
        // Leaves a shared source hands over are special-cased outside the
        // Vec-producing match: the scan costs one refcount bump, no row
        // copies (a view) and no parse (a log the source parsed already).
        let shared_leaf = match &node.op {
            Operator::ScanView { view, .. } => source.view_rows_shared(view).map(|rows| {
                // Publish the columnar twin alongside the zero-copy rows:
                // column-eligible consumers pick up the batch, row-wise
                // ones (joins) keep the free Arc handle.
                let cols = lean.then(|| source.view_cols_shared(view)).flatten();
                (rows, 0, cols)
            }),
            Operator::ScanLog { log } if !fused.contains_key(&node.id) => source
                .log_rows_shared(log)
                .map(|(rows, skipped)| (rows, skipped, None)),
            _ => None,
        };
        if let Some((shared, skipped, cols)) = shared_leaf {
            miso_obs::observe("exec.op_ns", t0.elapsed().as_nanos() as u64);
            if op_span.is_active() {
                op_span.push_field("rows_out", miso_obs::FieldValue::U64(shared.len() as u64));
                miso_obs::observe("exec.op_rows_out", shared.len() as u64);
            }
            miso_obs::count("exec.ops_executed", 1);
            miso_obs::count("exec.zero_copy_scans", 1);
            if profiling {
                profiles.insert(
                    node.id,
                    OpProfile {
                        wall_ns: t0.elapsed().as_nanos() as u64,
                        rows_in: 0,
                        rows_out: shared.len() as u64,
                        bytes_out: shared.iter().map(Row::approx_bytes).sum(),
                        morsels: 0,
                        par_rows: 0,
                    },
                );
            }
            skipped_lines += skipped;
            rows_out.insert(node.id, shared.len() as u64);
            if let Some(cols) = cols {
                col_outputs.insert(node.id, cols);
            }
            outputs.insert(node.id, shared);
            continue;
        }
        // Fused scan: take the consumer's columns from the source and stash
        // the batch for the consumer node. Mirrors the zero-copy scan
        // bookkeeping — the scan's row output never materializes.
        if let Some((consumer, fields)) = fused.get(&node.id) {
            let Operator::ScanLog { log } = &node.op else {
                unreachable!("fusion pre-pass only maps log scans");
            };
            // The dispatch boundary `par_chunks` would have checked.
            guard.check()?;
            let cols = source.log_columns(log, fields)?;
            let batch = cols.batch;
            skipped_lines += cols.skipped_lines;
            let lines = batch.len() as u64 + cols.skipped_lines;
            miso_obs::count("exec.col_batches", lines.div_ceil(MORSEL_SIZE as u64));
            miso_obs::observe("exec.op_ns", t0.elapsed().as_nanos() as u64);
            if op_span.is_active() {
                op_span.push_field("rows_out", miso_obs::FieldValue::U64(batch.len() as u64));
                op_span.push_field("cols_hit", miso_obs::FieldValue::U64(cols.cols_hit));
                op_span.push_field("cols_parsed", miso_obs::FieldValue::U64(cols.cols_parsed));
                miso_obs::observe("exec.op_rows_out", batch.len() as u64);
            }
            miso_obs::count("exec.ops_executed", 1);
            rows_out.insert(node.id, batch.len() as u64);
            fused_ready.insert(*consumer, batch);
            continue;
        }
        let produced: Produced = match &node.op {
            Operator::ScanLog { log } => {
                let lines = source.log_lines(log)?;
                if lean {
                    // A log scan that could not fuse materializes rows.
                    miso_obs::count("exec.col_fallback_rows", lines.len() as u64);
                }
                let parts = par_chunks(guard, lines, |_, chunk| {
                    let mut rows = Vec::with_capacity(chunk.len());
                    let mut skipped = 0u64;
                    for line in chunk {
                        match parse_json(line) {
                            Ok(v) => rows.push(Row::new(vec![v])),
                            Err(_) => skipped += 1,
                        }
                    }
                    (rows, skipped)
                })?;
                let mut rows = Vec::with_capacity(lines.len());
                for (part, skipped) in parts {
                    rows.extend(part);
                    skipped_lines += skipped;
                }
                Produced::Rows(rows)
            }
            Operator::ScanView { view, .. } => {
                let src_rows = source.view_rows(view)?;
                Produced::Rows(concat_rows(
                    src_rows.len(),
                    par_chunks(guard, src_rows, |_, chunk| chunk.to_vec())?,
                ))
            }
            Operator::Filter { predicate } => {
                let input_id = node.inputs[0];
                let col_input = col_input(lean, &outputs, &mut col_outputs, input_id);
                if let Some(batch) = col_input {
                    miso_obs::count("exec.col_batches", batch.len().div_ceil(MORSEL_SIZE) as u64);
                    let parts = par_ranges(guard, batch.len(), |_, start, n| {
                        col::eval_vec(predicate, &batch, start, n, None)
                            .map(|pred| col::select_true(&pred, start, n))
                    })?;
                    let parts = collect_ok(parts)?;
                    let sel = concat_rows(parts.iter().map(Vec::len).sum(), parts);
                    if !pending.contains_key(&node.id) {
                        // An output nobody in the subset reads (the root,
                        // a cut) survives to the end and would be pivoted
                        // to rows there anyway; materializing straight
                        // from the input batch + selection skips the
                        // gathered intermediate.
                        Produced::Rows(batch.rows_at(&sel))
                    } else {
                        Produced::Cols(batch.gather(&sel))
                    }
                } else {
                    note_col_fallback(lean, &rows_out, input_id);
                    ensure_rows(&mut outputs, &mut col_outputs, &pending, input_id, &kept);
                    match take_input(&mut outputs, &pending, node, 0, &kept)? {
                        TakenInput::Owned(mut vec) => {
                            // Uniquely owned: evaluate in parallel, then move
                            // the surviving rows out instead of deep-cloning.
                            let parts =
                                par_chunks(guard, &vec, |i, chunk| -> Result<Vec<usize>> {
                                    let base = i * MORSEL_SIZE;
                                    let mut keep = Vec::new();
                                    for (j, row) in chunk.iter().enumerate() {
                                        if eval_predicate(predicate, row)? {
                                            keep.push(base + j);
                                        }
                                    }
                                    Ok(keep)
                                })?;
                            let keep = collect_ok(parts)?;
                            let mut out = Vec::with_capacity(keep.iter().map(Vec::len).sum());
                            for idx in keep.into_iter().flatten() {
                                out.push(std::mem::take(&mut vec[idx]));
                            }
                            Produced::Rows(out)
                        }
                        TakenInput::Shared(arc) => {
                            let parts = par_chunks(guard, &arc, |_, chunk| -> Result<Vec<Row>> {
                                let mut keep = Vec::new();
                                for row in chunk {
                                    if eval_predicate(predicate, row)? {
                                        keep.push(row.clone());
                                    }
                                }
                                Ok(keep)
                            })?;
                            Produced::Rows(flatten_ok(parts)?)
                        }
                    }
                }
            }
            Operator::Project { exprs } => {
                let input_id = node.inputs[0];
                if let Some(batch) = fused_ready.remove(&node.id) {
                    // The fused scan already produced this projection.
                    Produced::Cols(batch)
                } else if let Some(batch) = col_input(lean, &outputs, &mut col_outputs, input_id) {
                    miso_obs::count("exec.col_batches", batch.len().div_ceil(MORSEL_SIZE) as u64);
                    let parts =
                        par_ranges(guard, batch.len(), |_, start, n| -> Result<ColBatch> {
                            let cols = exprs
                                .iter()
                                .map(|(_, e)| {
                                    col::eval_vec(e, &batch, start, n, None)
                                        .map(|v| v.into_column(n))
                                })
                                .collect::<Result<Vec<_>>>()?;
                            Ok(ColBatch::from_columns(cols, n))
                        })?;
                    Produced::Cols(ColBatch::concat(collect_ok(parts)?))
                } else {
                    note_col_fallback(lean, &rows_out, input_id);
                    ensure_rows(&mut outputs, &mut col_outputs, &pending, input_id, &kept);
                    let input = input_of(&outputs, plan, node.id, 0)?;
                    let parts = par_chunks(guard, input, |_, chunk| -> Result<Vec<Row>> {
                        let mut rows = Vec::with_capacity(chunk.len());
                        for row in chunk {
                            let values: Vec<Value> = exprs
                                .iter()
                                .map(|(_, e)| eval(e, row))
                                .collect::<Result<_>>()?;
                            rows.push(Row::new(values));
                        }
                        Ok(rows)
                    })?;
                    Produced::Rows(flatten_ok(parts)?)
                }
            }
            Operator::Join { on } => {
                // Joins stay row-wise by design (see DESIGN.md §16).
                ensure_rows(
                    &mut outputs,
                    &mut col_outputs,
                    &pending,
                    node.inputs[0],
                    &kept,
                );
                ensure_rows(
                    &mut outputs,
                    &mut col_outputs,
                    &pending,
                    node.inputs[1],
                    &kept,
                );
                let left = input_of(&outputs, plan, node.id, 0)?;
                let right = input_of(&outputs, plan, node.id, 1)?;
                Produced::Rows(hash_join_guarded(left, right, on, guard)?)
            }
            Operator::Aggregate { group_by, aggs } => {
                let input_id = node.inputs[0];
                // Columnar-eligible: every key and aggregate source is an
                // in-range bare column (or COUNT(*)); general expressions
                // keep the row path so error behaviour matches exactly.
                // The shape check comes first so ineligible aggregates
                // (UDF/expression inputs) never pay a speculative pivot.
                let shape_ok = aggs
                    .iter()
                    .all(|a| matches!(&a.input, None | Some(miso_plan::Expr::Column(_))));
                let col_input = if lean && shape_ok {
                    ensure_cols(&outputs, &mut col_outputs, input_id);
                    col_outputs.get(&input_id).cloned().filter(|b| {
                        group_by.iter().all(|&g| g < b.arity())
                            && aggs.iter().all(|a| match &a.input {
                                None => true,
                                Some(miso_plan::Expr::Column(c)) => *c < b.arity(),
                                Some(_) => false,
                            })
                    })
                } else {
                    None
                };
                if let Some(batch) = col_input {
                    miso_obs::count("exec.col_batches", batch.len().div_ceil(MORSEL_SIZE) as u64);
                    let float_sum = col_float_sum_flags(&batch, aggs);
                    let srcs = classify_aggs(aggs);
                    let parts = par_ranges(guard, batch.len(), |_, start, n| {
                        aggregate_morsel_cols(&batch, start, n, group_by, aggs, &srcs, &float_sum)
                    })?;
                    Produced::Rows(finish_aggregate(
                        parts,
                        group_by,
                        aggs,
                        &float_sum,
                        batch.is_empty(),
                        guard,
                    )?)
                } else {
                    note_col_fallback(lean, &rows_out, input_id);
                    ensure_rows(&mut outputs, &mut col_outputs, &pending, input_id, &kept);
                    let input = input_of(&outputs, plan, node.id, 0)?;
                    Produced::Rows(aggregate(input, group_by, aggs, guard)?)
                }
            }
            Operator::Udf { name, .. } => {
                let udf = udfs.require(name)?;
                let parts = if let Some(batch) = fused_ready.remove(&node.id) {
                    // The fused scan read exactly the declared fields.
                    par_ranges(guard, batch.len(), |_, start, n| -> Result<Vec<Row>> {
                        let mut rows = Vec::new();
                        for i in start..start + n {
                            let fields = batch.columns().iter().map(|c| c.value(i)).collect();
                            rows.extend(udf.apply_fields(&Row::new(fields))?);
                        }
                        Ok(rows)
                    })?
                } else {
                    ensure_rows(
                        &mut outputs,
                        &mut col_outputs,
                        &pending,
                        node.inputs[0],
                        &kept,
                    );
                    let input = input_of(&outputs, plan, node.id, 0)?;
                    par_chunks(guard, input, |_, chunk| -> Result<Vec<Row>> {
                        let mut rows = Vec::new();
                        for row in chunk {
                            rows.extend(udf.apply(row)?);
                        }
                        Ok(rows)
                    })?
                };
                Produced::Rows(flatten_ok(parts)?)
            }
            Operator::Sort { keys } => {
                ensure_rows(
                    &mut outputs,
                    &mut col_outputs,
                    &pending,
                    node.inputs[0],
                    &kept,
                );
                let input = take_input(&mut outputs, &pending, node, 0, &kept)?;
                let rows = input.rows();
                // Extract each row's key values exactly once (in parallel),
                // then sort (key, index) pairs; the index tiebreak makes the
                // unstable sort reproduce stable-sort output.
                let keyed: Vec<Vec<Value>> = concat_rows(
                    rows.len(),
                    par_chunks(guard, rows, |_, chunk| {
                        chunk
                            .iter()
                            .map(|row| keys.iter().map(|&(col, _)| row.get(col).clone()).collect())
                            .collect::<Vec<Vec<Value>>>()
                    })?,
                );
                let mut order: Vec<usize> = (0..rows.len()).collect();
                order.sort_unstable_by(|&a, &b| {
                    for (j, &(_, desc)) in keys.iter().enumerate() {
                        let ord = keyed[a][j].cmp(&keyed[b][j]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if !ord.is_eq() {
                            return ord;
                        }
                    }
                    a.cmp(&b)
                });
                match input {
                    TakenInput::Owned(mut vec) => Produced::Rows(
                        order
                            .into_iter()
                            .map(|i| std::mem::take(&mut vec[i]))
                            .collect(),
                    ),
                    TakenInput::Shared(arc) => {
                        Produced::Rows(order.into_iter().map(|i| arc[i].clone()).collect())
                    }
                }
            }
            Operator::Limit { n } => {
                let input_id = node.inputs[0];
                if let Some(batch) = col_outputs.get(&input_id).cloned() {
                    miso_obs::count("exec.col_batches", batch.len().div_ceil(MORSEL_SIZE) as u64);
                    Produced::Cols(batch.head(*n as usize))
                } else {
                    match take_input(&mut outputs, &pending, node, 0, &kept)? {
                        TakenInput::Owned(mut vec) => {
                            vec.truncate(*n as usize);
                            Produced::Rows(vec)
                        }
                        TakenInput::Shared(arc) => {
                            Produced::Rows(arc.iter().take(*n as usize).cloned().collect())
                        }
                    }
                }
            }
        };
        let n_out = produced.len() as u64;
        miso_obs::observe("exec.op_ns", t0.elapsed().as_nanos() as u64);
        if op_span.is_active() {
            op_span.push_field("rows_out", miso_obs::FieldValue::U64(n_out));
            miso_obs::observe("exec.op_rows_out", n_out);
        }
        miso_obs::count("exec.ops_executed", 1);
        if profiling {
            let (morsels, par_rows) = profile::take_dispatch();
            // Inputs ran (or were provided) before this node, so their row
            // counts are already in `rows_out` even if the rows themselves
            // were stolen or released.
            let rows_in = node
                .inputs
                .iter()
                .filter_map(|i| rows_out.get(i))
                .sum::<u64>();
            profiles.insert(
                node.id,
                OpProfile {
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    rows_in,
                    rows_out: n_out,
                    bytes_out: produced.bytes(),
                    morsels,
                    par_rows,
                },
            );
        }
        ledger.charge(node.id, &produced)?;
        rows_out.insert(node.id, n_out);
        match produced {
            Produced::Rows(rows) => {
                outputs.insert(node.id, Arc::new(rows));
            }
            Produced::Cols(batch) => {
                col_outputs.insert(node.id, Arc::new(batch));
            }
        }
        if lean {
            for input in &node.inputs {
                if let Some(p) = pending.get_mut(input) {
                    *p = p.saturating_sub(1);
                    if *p == 0 && !kept(*input) {
                        outputs.remove(input);
                        col_outputs.remove(input);
                        ledger.release(*input);
                    }
                }
            }
        }
    }
    // Whatever is still columnar — a kept node, or a never-consumed output —
    // pivots to rows here: `Execution` speaks rows at every boundary.
    for (id, batch) in col_outputs {
        if outputs.contains_key(&id) {
            continue;
        }
        let rows = Arc::try_unwrap(batch)
            .map(ColBatch::into_rows)
            .unwrap_or_else(|arc| arc.to_rows());
        outputs.insert(id, Arc::new(rows));
    }
    Ok(Execution {
        outputs,
        rows_out,
        skipped_lines,
        profiles,
        root,
    })
}

/// One operator's materialized output, in whichever representation the
/// operator body produced.
enum Produced {
    Rows(Vec<Row>),
    Cols(ColBatch),
}

impl Produced {
    fn len(&self) -> usize {
        match self {
            Produced::Rows(rows) => rows.len(),
            Produced::Cols(batch) => batch.len(),
        }
    }

    /// Guard/profile byte size — identical whichever representation was
    /// produced ([`ColBatch::row_bytes`] matches summed
    /// [`Row::approx_bytes`] by construction).
    fn bytes(&self) -> u64 {
        match self {
            Produced::Rows(rows) => rows.iter().map(Row::approx_bytes).sum(),
            Produced::Cols(batch) => batch.row_bytes(),
        }
    }
}

/// Counts an operator of a lean run that ran its row body, charging the
/// input's row count to the `exec.col_fallback_rows` counter.
fn note_col_fallback(lean: bool, rows_out: &HashMap<NodeId, u64>, input: NodeId) {
    if lean {
        if let Some(&n) = rows_out.get(&input) {
            miso_obs::count("exec.col_fallback_rows", n);
        }
    }
}

/// Guarantees `outputs` holds a row representation of node `id`, pivoting
/// its columnar output when that is the only one present. When this node's
/// consumer is the last one and the node is not kept, the batch is consumed
/// so string payloads move; otherwise it is copied and the batch stays
/// shared for later consumers.
/// Missing nodes are left missing — the caller's input lookup reports them
/// with the usual "neither executed nor provided" error.
fn ensure_rows(
    outputs: &mut HashMap<NodeId, Arc<Vec<Row>>>,
    col_outputs: &mut HashMap<NodeId, Arc<ColBatch>>,
    pending: &HashMap<NodeId, usize>,
    id: NodeId,
    kept: &dyn Fn(NodeId) -> bool,
) {
    if outputs.contains_key(&id) || !col_outputs.contains_key(&id) {
        return;
    }
    let last = !kept(id) && pending.get(&id).copied() == Some(1);
    let rows = if last {
        let arc = col_outputs.remove(&id).expect("checked above");
        Arc::try_unwrap(arc)
            .map(ColBatch::into_rows)
            .unwrap_or_else(|arc| arc.to_rows())
    } else {
        col_outputs[&id].to_rows()
    };
    outputs.insert(id, Arc::new(rows));
}

/// The batch a `Filter` / `Project` of a lean run reads node `id` as: every
/// expression evaluates columnar ([`col::eval_vec`]), so the operator leaves
/// the column path only when its input has no columnar form — a ragged row
/// set.
fn col_input(
    lean: bool,
    outputs: &HashMap<NodeId, Arc<Vec<Row>>>,
    col_outputs: &mut HashMap<NodeId, Arc<ColBatch>>,
    id: NodeId,
) -> Option<Arc<ColBatch>> {
    if !lean {
        return None;
    }
    ensure_cols(outputs, col_outputs, id);
    col_outputs.get(&id).cloned()
}

/// The inverse of [`ensure_rows`]: a columnar consumer wants node `id`
/// as a batch, but only a row representation exists — a provided seed (the
/// shipped working set at the DataSource boundary) or a row-producing
/// upstream operator such as a join. Pivots once and caches the batch
/// beside the rows for any later consumer; ragged row sets stay row-only
/// and the consumer falls back. An aggregate gates on its own shape first,
/// so one over an expression never pays a speculative pivot.
fn ensure_cols(
    outputs: &HashMap<NodeId, Arc<Vec<Row>>>,
    col_outputs: &mut HashMap<NodeId, Arc<ColBatch>>,
    id: NodeId,
) {
    if col_outputs.contains_key(&id) {
        return;
    }
    if let Some(rows) = outputs.get(&id) {
        if let Some(batch) = ColBatch::from_rows(rows) {
            col_outputs.insert(id, Arc::new(batch));
        }
    }
}

/// Columnar twin of [`par_chunks`]: morsel dispatch over index ranges of a
/// batch instead of row slices. `f` receives `(morsel index, start, len)`.
/// Counter and guard behaviour match `par_chunks` exactly so profiles and
/// cancellation outcomes are representation-independent.
fn par_ranges<R, F>(guard: &QueryGuard, len: usize, f: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize, usize) -> R + Sync,
{
    guard.check()?;
    let morsels = len.div_ceil(MORSEL_SIZE);
    miso_obs::count("exec.morsels", morsels as u64);
    miso_obs::count("exec.par_rows", len as u64);
    if profile::enabled() {
        profile::note_dispatch(morsels as u64, len as u64);
    }
    if morsels == 0 {
        return Ok(Vec::new());
    }
    pool::run_batch(morsels, |i| {
        let start = i * MORSEL_SIZE;
        f(i, start, MORSEL_SIZE.min(len - start))
    })
}

/// Tracks the bytes charged against a [`QueryGuard`] for each retained node
/// output. Dropping the ledger releases every outstanding charge, so the
/// guard's usage gauge unwinds no matter how the execution exits. With an
/// inactive guard every method is a single branch and nothing is charged.
struct ChargeLedger<'a> {
    guard: &'a QueryGuard,
    charged: HashMap<NodeId, u64>,
}

impl<'a> ChargeLedger<'a> {
    fn new(guard: &'a QueryGuard) -> ChargeLedger<'a> {
        ChargeLedger {
            guard,
            charged: HashMap::new(),
        }
    }

    /// Charges the output's approximate bytes to the guard on behalf of
    /// node `id`; fails with `ResourceExhausted` when the budget is blown.
    /// [`Produced::bytes`] is representation-independent, so the guard sees
    /// the same charge whichever path an operator ran.
    fn charge(&mut self, id: NodeId, produced: &Produced) -> Result<()> {
        if !self.guard.is_active() {
            return Ok(());
        }
        let bytes = produced.bytes();
        self.guard.try_charge(bytes)?;
        *self.charged.entry(id).or_insert(0) += bytes;
        Ok(())
    }

    /// Releases node `id`'s charge (no-op if it never charged).
    fn release(&mut self, id: NodeId) {
        if let Some(bytes) = self.charged.remove(&id) {
            self.guard.release(bytes);
        }
    }
}

impl Drop for ChargeLedger<'_> {
    fn drop(&mut self) {
        for (_, bytes) in self.charged.drain() {
            self.guard.release(bytes);
        }
    }
}

/// A scoped charge for operator-internal scratch memory (join build tables,
/// aggregate partials): charged on construction, released on drop.
struct TempCharge<'a> {
    guard: &'a QueryGuard,
    bytes: u64,
}

impl<'a> TempCharge<'a> {
    fn new(guard: &'a QueryGuard, bytes: u64) -> Result<TempCharge<'a>> {
        if !guard.is_active() || bytes == 0 {
            return Ok(TempCharge { guard, bytes: 0 });
        }
        guard.try_charge(bytes)?;
        Ok(TempCharge { guard, bytes })
    }
}

impl Drop for TempCharge<'_> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            self.guard.release(self.bytes);
        }
    }
}

/// A single-consumer operator's input: owned when the rows could be stolen,
/// shared otherwise.
enum TakenInput {
    Owned(Vec<Row>),
    Shared(Arc<Vec<Row>>),
}

impl TakenInput {
    fn rows(&self) -> &[Row] {
        match self {
            TakenInput::Owned(v) => v,
            TakenInput::Shared(a) => a,
        }
    }
}

/// Fetches input `idx` of `node` for row-consuming operators. When the
/// input is not kept and this node is its last consumer, the entry leaves
/// the output map here — and if the `Arc` is uniquely owned (nobody
/// `provided` it and holds a copy), the rows themselves are taken,
/// enabling clone-free `Filter`/`Sort`/`Limit`.
fn take_input(
    outputs: &mut HashMap<NodeId, Arc<Vec<Row>>>,
    pending: &HashMap<NodeId, usize>,
    node: &miso_plan::PlanNode,
    idx: usize,
    kept: &dyn Fn(NodeId) -> bool,
) -> Result<TakenInput> {
    let id = node.inputs[idx];
    let missing = || {
        MisoError::Execution(format!(
            "node {} input {} neither executed nor provided",
            node.id, id
        ))
    };
    let consumable = !kept(id) && pending.get(&id).copied() == Some(1);
    if consumable {
        let arc = outputs.remove(&id).ok_or_else(missing)?;
        Ok(match Arc::try_unwrap(arc) {
            Ok(vec) => TakenInput::Owned(vec),
            Err(arc) => TakenInput::Shared(arc),
        })
    } else {
        outputs
            .get(&id)
            .cloned()
            .map(TakenInput::Shared)
            .ok_or_else(missing)
    }
}

/// Borrows input `idx` of the node owning `id` from the output map.
fn input_of<'a>(
    outputs: &'a HashMap<NodeId, Arc<Vec<Row>>>,
    plan: &LogicalPlan,
    id: NodeId,
    idx: usize,
) -> Result<&'a Arc<Vec<Row>>> {
    let input = plan.node(id).inputs[idx];
    outputs.get(&input).ok_or_else(|| {
        MisoError::Execution(format!(
            "node {id} input {input} neither executed nor provided"
        ))
    })
}

/// Morsel dispatch: runs `f` over fixed-size chunks of `items` on the worker
/// pool and returns per-morsel results in morsel order.
///
/// The guard is checked once, serially, before the fan-out — the engine's
/// cancellation boundary. Checking here (never inside workers) keeps the
/// observed cancellation point, and thus the query's outcome, identical for
/// every `MISO_THREADS` value. A panicking morsel surfaces as
/// `MisoError::Execution` (see [`pool::run_batch`]).
pub(crate) fn par_chunks<T, R, F>(guard: &QueryGuard, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    guard.check()?;
    miso_obs::count("exec.morsels", items.len().div_ceil(MORSEL_SIZE) as u64);
    miso_obs::count("exec.par_rows", items.len() as u64);
    if profile::enabled() {
        profile::note_dispatch(items.len().div_ceil(MORSEL_SIZE) as u64, items.len() as u64);
    }
    pool::run_chunks(items, MORSEL_SIZE, f)
}

/// Sequences per-morsel results, surfacing the error of the lowest-indexed
/// failing morsel — the same error a serial left-to-right pass would hit.
fn collect_ok<R>(parts: Vec<Result<R>>) -> Result<Vec<R>> {
    let mut ok = Vec::with_capacity(parts.len());
    for part in parts {
        ok.push(part?);
    }
    Ok(ok)
}

/// [`collect_ok`] + concatenation in morsel order.
fn flatten_ok(parts: Vec<Result<Vec<Row>>>) -> Result<Vec<Row>> {
    let parts = collect_ok(parts)?;
    Ok(concat_rows(parts.iter().map(Vec::len).sum(), parts))
}

fn concat_rows<T>(capacity: usize, parts: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(capacity);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Pass-through hasher for keys that are already well-mixed u64 hashes; a
/// splitmix64 finalizer spreads FNV's weaker low bits across the table.
#[derive(Clone, Copy, Default)]
struct PrehashedU64(u64);

impl Hasher for PrehashedU64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("prehashed maps are keyed by u64 only");
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<PrehashedU64>>;

fn prehashed_map<V>(capacity: usize) -> PrehashedMap<V> {
    HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// FNV-1a hash of a row's join-key columns; `None` if any key is NULL (NULL
/// never joins). `right` selects which side of each `on` pair to read. The
/// single-column fast path skips the hasher-state plumbing entirely.
#[inline]
fn join_key_hash(row: &Row, on: &[(usize, usize)], right: bool) -> Option<u64> {
    if let [(l, r)] = on {
        let v = row.get(if right { *r } else { *l });
        if v.is_null() {
            return None;
        }
        return Some(fnv1a_hash_one(v));
    }
    let mut h = FnvHasher::default();
    for &(l, r) in on {
        let v = row.get(if right { r } else { l });
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Inner hash equijoin; NULL keys never match (SQL semantics).
///
/// Keys are hashed once per row to a `u64` (no per-row key `Vec`); the build
/// side is partitioned by hash so partitions build in parallel, and probes
/// run morsel-parallel over the left side, emitting matches in left-row ×
/// right-insertion order — exactly the serial interpreter's output order.
/// Hash collisions are disambiguated by comparing the actual key columns.
pub fn hash_join(left: &[Row], right: &[Row], on: &[(usize, usize)]) -> Result<Vec<Row>> {
    hash_join_guarded(left, right, on, QueryGuard::inert_ref())
}

/// Bytes the build side costs per right row: the prehashed key vector
/// (`Option<u64>`) plus a `u32` slot in the partitioned index, with map
/// overhead rounded up. A coarse model — the guard meters pressure, it is
/// not an allocator.
const JOIN_BUILD_BYTES_PER_ROW: u64 = 28;

/// [`hash_join`] under a [`QueryGuard`]: the build-side hash table is
/// charged against the memory budget for the duration of the join.
pub(crate) fn hash_join_guarded(
    left: &[Row],
    right: &[Row],
    on: &[(usize, usize)],
    guard: &QueryGuard,
) -> Result<Vec<Row>> {
    assert!(
        right.len() <= u32::MAX as usize,
        "build side exceeds u32 rows"
    );
    let _build = TempCharge::new(guard, right.len() as u64 * JOIN_BUILD_BYTES_PER_ROW)?;
    let rhash: Vec<Option<u64>> = concat_rows(
        right.len(),
        par_chunks(guard, right, |_, chunk| {
            chunk
                .iter()
                .map(|row| join_key_hash(row, on, true))
                .collect::<Vec<_>>()
        })?,
    );
    // Partitioned build: table layout is internal, so the partition count
    // may track the worker count without affecting any output.
    let partitions = pool::threads().next_power_of_two().min(64);
    let mask = (partitions - 1) as u64;
    let tables: Vec<PrehashedMap<Vec<u32>>> = pool::run_batch(partitions, |p| {
        let mut table: PrehashedMap<Vec<u32>> = prehashed_map(rhash.len() / partitions + 1);
        for (i, h) in rhash.iter().enumerate() {
            if let Some(h) = h {
                if (h & mask) as usize == p {
                    table.entry(*h).or_default().push(i as u32);
                }
            }
        }
        table
    })?;
    let parts = par_chunks(guard, left, |_, chunk| {
        let mut out = Vec::new();
        for lrow in chunk {
            let Some(h) = join_key_hash(lrow, on, false) else {
                continue;
            };
            if let Some(candidates) = tables[(h & mask) as usize].get(&h) {
                for &ri in candidates {
                    let rrow = &right[ri as usize];
                    if on.iter().all(|&(l, r)| lrow.get(l) == rrow.get(r)) {
                        out.push(lrow.concat(rrow));
                    }
                }
            }
        }
        out
    })?;
    Ok(concat_rows(parts.iter().map(Vec::len).sum(), parts))
}

/// Streaming accumulator per aggregate function.
#[derive(Clone)]
pub(crate) enum Acc {
    Count(i64),
    CountDistinct(HashSet<Value>),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl Acc {
    pub(crate) fn new(func: AggFunc, float_sum: bool) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountDistinct => Acc::CountDistinct(HashSet::new()),
            AggFunc::Sum if float_sum => Acc::SumFloat(0.0, false),
            AggFunc::Sum => Acc::SumInt(0, false),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(n) => {
                // COUNT(*) gets None (count all); COUNT(expr) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            Acc::CountDistinct(set) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        set.insert(val.clone());
                    }
                }
            }
            Acc::SumInt(acc, seen) => {
                if let Some(val) = v {
                    if let Some(i) = val.as_i64() {
                        *acc += i;
                        *seen = true;
                    } else if let Some(f) = val.as_f64() {
                        // Mixed input: fall back via float path; keep integer
                        // accumulation best-effort.
                        *acc += f as i64;
                        *seen = true;
                    }
                }
            }
            Acc::SumFloat(acc, seen) => {
                if let Some(f) = v.and_then(|val| val.as_f64()) {
                    *acc += f;
                    *seen = true;
                }
            }
            Acc::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().is_none_or(|c| val < c) {
                        *cur = Some(val.clone());
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().is_none_or(|c| val > c) {
                        *cur = Some(val.clone());
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(f) = v.and_then(|val| val.as_f64()) {
                    *sum += f;
                    *n += 1;
                }
            }
        }
    }

    /// [`Acc::update`] on a borrowed columnar cell — branch-for-branch the
    /// same semantics ([`Cell`]'s accessors mirror [`Value`]'s), cloning a
    /// value only when an accumulator actually retains it.
    pub(crate) fn update_cell(&mut self, c: &Cell<'_>) {
        match self {
            Acc::Count(n) => {
                if !c.is_null() {
                    *n += 1;
                }
            }
            Acc::CountDistinct(set) => {
                if !c.is_null() {
                    set.insert(c.to_value());
                }
            }
            Acc::SumInt(acc, seen) => {
                if let Some(i) = c.as_i64() {
                    *acc += i;
                    *seen = true;
                } else if let Some(f) = c.as_f64() {
                    *acc += f as i64;
                    *seen = true;
                }
            }
            Acc::SumFloat(acc, seen) => {
                if let Some(f) = c.as_f64() {
                    *acc += f;
                    *seen = true;
                }
            }
            Acc::Min(cur) => {
                if !c.is_null() && cur.as_ref().is_none_or(|m| c.cmp_value(m).is_lt()) {
                    *cur = Some(c.to_value());
                }
            }
            Acc::Max(cur) => {
                if !c.is_null() && cur.as_ref().is_none_or(|m| c.cmp_value(m).is_gt()) {
                    *cur = Some(c.to_value());
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(f) = c.as_f64() {
                    *sum += f;
                    *n += 1;
                }
            }
        }
    }

    /// Folds another accumulator of the *same variant* into this one — the
    /// morsel-partial merge. Merging happens serially in morsel index order,
    /// so the result (float summation grouping included) depends only on the
    /// fixed morsel structure, never on scheduling.
    pub(crate) fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::CountDistinct(a), Acc::CountDistinct(b)) => a.extend(b),
            (Acc::SumInt(a, sa), Acc::SumInt(b, sb)) => {
                *a += b;
                *sa |= sb;
            }
            (Acc::SumFloat(a, sa), Acc::SumFloat(b, sb)) => {
                // Only fold seen partials so an all-NULL morsel cannot turn
                // a -0.0 sum into +0.0.
                if sb {
                    *a += b;
                    *sa = true;
                }
            }
            (Acc::Min(a), Acc::Min(b)) => {
                if let Some(v) = b {
                    // Strict `<` keeps the earlier morsel's value on ties,
                    // matching serial first-seen semantics.
                    if a.as_ref().is_none_or(|c| v < *c) {
                        *a = Some(v);
                    }
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|c| v > *c) {
                        *a = Some(v);
                    }
                }
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                if n2 > 0 {
                    *sum += s2;
                    *n += n2;
                }
            }
            _ => unreachable!("merging mismatched accumulator variants"),
        }
    }

    pub(crate) fn finish(self) -> Value {
        self.finish_ref()
    }

    /// [`Acc::finish`] without consuming the accumulator — the incremental
    /// maintainer emits a group's current output row while keeping the
    /// accumulator alive for the next delta.
    pub(crate) fn finish_ref(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::CountDistinct(set) => Value::Int(set.len() as i64),
            Acc::SumInt(acc, seen) => {
                if *seen {
                    Value::Int(*acc)
                } else {
                    Value::Null
                }
            }
            Acc::SumFloat(acc, seen) => {
                if *seen {
                    Value::Float(*acc)
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        }
    }
}

/// Decides int-vs-float SUM from the first non-null input per aggregate —
/// shared with the serial reference interpreter so both agree.
pub(crate) fn float_sum_flags(input: &[Row], aggs: &[miso_plan::AggExpr]) -> Vec<bool> {
    aggs.iter()
        .map(|agg| {
            if agg.func != AggFunc::Sum {
                return false;
            }
            let Some(e) = &agg.input else { return false };
            for row in input {
                if let Ok(v) = eval(e, row) {
                    match v {
                        Value::Float(_) => return true,
                        Value::Int(_) => return false,
                        _ => continue,
                    }
                }
            }
            false
        })
        .collect()
}

/// [`float_sum_flags`] over a columnar batch. Only consulted when every SUM
/// source is an in-range bare column — where scalar evaluation cannot fail —
/// so scanning cells in row order reproduces the row-path scan exactly.
fn col_float_sum_flags(batch: &ColBatch, aggs: &[miso_plan::AggExpr]) -> Vec<bool> {
    aggs.iter()
        .map(|agg| {
            if agg.func != AggFunc::Sum {
                return false;
            }
            let Some(miso_plan::Expr::Column(c)) = &agg.input else {
                return false;
            };
            let col = batch.col(*c);
            for i in 0..col.len() {
                match col.cell(i) {
                    Cell::Float(_) => return true,
                    Cell::Int(_) => return false,
                    _ => {}
                }
            }
            false
        })
        .collect()
}

/// FNV-1a hash of a row's group-by columns (equal key tuples collide by the
/// `Hash`/`Eq` contract; unequal tuples are verified at the slot).
#[inline]
pub(crate) fn group_hash(row: &Row, group_by: &[usize]) -> u64 {
    if let [g] = group_by {
        return fnv1a_hash_one(row.get(*g));
    }
    let mut h = FnvHasher::default();
    for &g in group_by {
        row.get(g).hash(&mut h);
    }
    h.finish()
}

/// Group slots in first-seen order plus a prehashed index over them. Keys
/// are only cloned when a *new* group is created; existing groups are found
/// by hash + in-place column comparison, so steady-state rows allocate
/// nothing for keying.
pub(crate) struct GroupTable {
    /// `(key hash, key values, accumulators)` in first-seen order.
    pub(crate) slots: Vec<(u64, Vec<Value>, Vec<Acc>)>,
    index: PrehashedMap<Vec<u32>>,
}

impl GroupTable {
    pub(crate) fn with_capacity(capacity: usize) -> GroupTable {
        GroupTable {
            slots: Vec::with_capacity(capacity),
            index: prehashed_map(capacity),
        }
    }

    /// Finds the slot whose key satisfies `eq`, if any.
    pub(crate) fn find(&self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> Option<usize> {
        self.index
            .get(&hash)?
            .iter()
            .map(|&s| s as usize)
            .find(|&s| eq(&self.slots[s].1))
    }

    pub(crate) fn insert(&mut self, hash: u64, key: Vec<Value>, accs: Vec<Acc>) -> usize {
        let slot = self.slots.len();
        assert!(slot <= u32::MAX as usize, "group count exceeds u32 slots");
        self.slots.push((hash, key, accs));
        self.index.entry(hash).or_default().push(slot as u32);
        slot
    }

    /// Merges `later` — the partial table of rows that come after every row
    /// folded in so far — into this table: a group both know merges its
    /// accumulators ([`Acc::merge`]), a new group is appended as it stands.
    pub(crate) fn absorb(&mut self, later: GroupTable) {
        for (hash, key, accs) in later.slots {
            match self.find(hash, |k| k == key.as_slice()) {
                Some(slot) => {
                    for (acc, partial) in self.slots[slot].2.iter_mut().zip(accs) {
                        acc.merge(partial);
                    }
                }
                None => {
                    self.insert(hash, key, accs);
                }
            }
        }
    }
}

/// An aggregate's input, pre-classified so the per-row hot loop can borrow
/// plain column references instead of paying an owned `eval` clone.
pub(crate) enum AggSrc<'a> {
    /// `COUNT(*)` — no input expression.
    CountAll,
    /// A bare column reference: borrow the value in place.
    Col(usize),
    /// A general expression: evaluate per row.
    Expr(&'a miso_plan::Expr),
}

pub(crate) fn classify_aggs(aggs: &[miso_plan::AggExpr]) -> Vec<AggSrc<'_>> {
    aggs.iter()
        .map(|a| match &a.input {
            None => AggSrc::CountAll,
            Some(miso_plan::Expr::Column(c)) => AggSrc::Col(*c),
            Some(e) => AggSrc::Expr(e),
        })
        .collect()
}

/// Accumulates one morsel into a fresh partial [`GroupTable`].
pub(crate) fn aggregate_morsel(
    chunk: &[Row],
    group_by: &[usize],
    aggs: &[miso_plan::AggExpr],
    srcs: &[AggSrc<'_>],
    float_sum: &[bool],
) -> Result<GroupTable> {
    let mut table = GroupTable::with_capacity(chunk.len().min(1024));
    for row in chunk {
        table.fold_row(row, group_by, aggs, srcs, float_sum)?;
    }
    Ok(table)
}

impl GroupTable {
    /// Folds one input row into its group's accumulators, creating the
    /// group on first sight; returns the group's slot.
    #[inline]
    pub(crate) fn fold_row(
        &mut self,
        row: &Row,
        group_by: &[usize],
        aggs: &[miso_plan::AggExpr],
        srcs: &[AggSrc<'_>],
        float_sum: &[bool],
    ) -> Result<usize> {
        let hash = group_hash(row, group_by);
        let slot = match self.find(hash, |key| {
            group_by.iter().zip(key).all(|(&g, k)| row.get(g) == k)
        }) {
            Some(slot) => slot,
            None => {
                let key: Vec<Value> = group_by.iter().map(|&g| row.get(g).clone()).collect();
                let accs: Vec<Acc> = aggs
                    .iter()
                    .zip(float_sum)
                    .map(|(a, &fs)| Acc::new(a.func, fs))
                    .collect();
                self.insert(hash, key, accs)
            }
        };
        let accs = &mut self.slots[slot].2;
        for (acc, src) in accs.iter_mut().zip(srcs) {
            match src {
                AggSrc::CountAll => acc.update(None),
                AggSrc::Col(c) if *c < row.arity() => acc.update(Some(row.get(*c))),
                // Out-of-range column: route through eval so the error text
                // matches the serial interpreter exactly.
                AggSrc::Col(c) => {
                    let v = eval(&miso_plan::Expr::Column(*c), row)?;
                    acc.update(Some(&v));
                }
                AggSrc::Expr(e) => {
                    let v = eval(e, row)?;
                    acc.update(Some(&v));
                }
            }
        }
        Ok(slot)
    }
}

/// Accumulates one columnar morsel `[start, start + n)` into a fresh partial
/// [`GroupTable`]. Only reached for batch-eligible aggregates (every source
/// is `COUNT(*)` or an in-range bare column), so unlike [`aggregate_morsel`]
/// nothing here can fail. Group hashes go through [`Cell`]'s `Hash`, which
/// streams identically to [`Value`]'s, so partial tables merge with row-path
/// partials' semantics bit-for-bit.
fn aggregate_morsel_cols(
    batch: &ColBatch,
    start: usize,
    n: usize,
    group_by: &[usize],
    aggs: &[miso_plan::AggExpr],
    srcs: &[AggSrc<'_>],
    float_sum: &[bool],
) -> GroupTable {
    let mut table = GroupTable::with_capacity(n.min(1024));
    for i in start..start + n {
        let hash = if let [g] = group_by {
            fnv1a_hash_one(&batch.cell(i, *g))
        } else {
            let mut h = FnvHasher::default();
            for &g in group_by {
                batch.cell(i, g).hash(&mut h);
            }
            h.finish()
        };
        let slot = match table.find(hash, |key| {
            group_by
                .iter()
                .zip(key)
                .all(|(&g, k)| batch.cell(i, g).eq_value(k))
        }) {
            Some(slot) => slot,
            None => {
                let key: Vec<Value> = group_by
                    .iter()
                    .map(|&g| batch.cell(i, g).to_value())
                    .collect();
                let accs: Vec<Acc> = aggs
                    .iter()
                    .zip(float_sum)
                    .map(|(a, &fs)| Acc::new(a.func, fs))
                    .collect();
                table.insert(hash, key, accs)
            }
        };
        let accs = &mut table.slots[slot].2;
        for (acc, src) in accs.iter_mut().zip(srcs) {
            match src {
                AggSrc::CountAll => acc.update(None),
                AggSrc::Col(c) => acc.update_cell(&batch.cell(i, *c)),
                AggSrc::Expr(_) => unreachable!("columnar aggregate requires column sources"),
            }
        }
    }
    table
}

/// Per-group-slot byte estimate for accumulator charging: slot bookkeeping
/// plus one accumulator's state per aggregate. Depends only on the data and
/// the fixed morsel structure, so the charge is thread-count-invariant.
const AGG_SLOT_BYTES: u64 = 48;
const AGG_ACC_BYTES: u64 = 16;

/// Morsel-parallel grouped aggregation: each morsel folds into a partial
/// table, partials merge serially in morsel order. The global first-seen
/// group order equals the serial row-order first-seen order because earlier
/// morsels cover earlier rows. The partial accumulator tables are charged
/// against `guard`'s memory budget while they are alive.
fn aggregate(
    input: &[Row],
    group_by: &[usize],
    aggs: &[miso_plan::AggExpr],
    guard: &QueryGuard,
) -> Result<Vec<Row>> {
    let float_sum = float_sum_flags(input, aggs);
    let srcs = classify_aggs(aggs);
    let parts = par_chunks(guard, input, |_, chunk| {
        aggregate_morsel(chunk, group_by, aggs, &srcs, &float_sum)
    })?;
    let parts = collect_ok(parts)?;
    finish_aggregate(parts, group_by, aggs, &float_sum, input.is_empty(), guard)
}

/// Shared tail of row and columnar aggregation: charges the partial tables,
/// merges them serially in morsel order, and emits the grouped output rows.
fn finish_aggregate(
    parts: Vec<GroupTable>,
    group_by: &[usize],
    aggs: &[miso_plan::AggExpr],
    float_sum: &[bool],
    input_empty: bool,
    guard: &QueryGuard,
) -> Result<Vec<Row>> {
    let slot_count: u64 = parts.iter().map(|t| t.slots.len() as u64).sum();
    let _accs = TempCharge::new(
        guard,
        slot_count * (AGG_SLOT_BYTES + aggs.len() as u64 * AGG_ACC_BYTES),
    )?;
    // Global aggregate over empty input still yields one row.
    if group_by.is_empty() && input_empty {
        let accs: Vec<Acc> = aggs
            .iter()
            .zip(float_sum)
            .map(|(a, &fs)| Acc::new(a.func, fs))
            .collect();
        let values: Vec<Value> = accs.into_iter().map(Acc::finish).collect();
        return Ok(vec![Row::new(values)]);
    }
    let total: usize = parts.iter().map(|t| t.slots.len()).sum();
    let mut global = GroupTable::with_capacity(total);
    for part in parts {
        global.absorb(part);
    }
    let mut out = Vec::with_capacity(global.slots.len());
    for (_, key, accs) in global.slots {
        let mut values = key;
        values.extend(accs.into_iter().map(Acc::finish));
        out.push(Row::new(values));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::{DataType, Field, Schema};
    use miso_plan::{AggExpr, Expr, PlanBuilder};

    fn source() -> MemSource {
        let mut src = MemSource::new();
        src.add_log(
            "events",
            vec![
                r#"{"uid": 1, "city": "sf", "score": 10}"#.to_string(),
                r#"{"uid": 2, "city": "ny", "score": 20}"#.to_string(),
                r#"{"uid": 1, "city": "sf", "score": 30}"#.to_string(),
                "not json at all".to_string(),
                r#"{"uid": 3, "city": "sf"}"#.to_string(),
            ],
        );
        src
    }

    fn extract_plan() -> LogicalPlan {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "events".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                        ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                        (
                            "score".into(),
                            Expr::col(0).get("score").cast(DataType::Int),
                        ),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        b.finish(proj).unwrap()
    }

    #[test]
    fn scan_skips_malformed_lines() {
        let exec = execute(&extract_plan(), &source(), &UdfRegistry::new()).unwrap();
        assert_eq!(exec.skipped_lines, 1);
        assert_eq!(exec.root_rows().unwrap().len(), 4);
    }

    #[test]
    fn missing_fields_become_null() {
        let exec = execute(&extract_plan(), &source(), &UdfRegistry::new()).unwrap();
        let last = &exec.root_rows().unwrap()[3];
        assert_eq!(last.get(0), &Value::Int(3));
        assert_eq!(last.get(2), &Value::Null);
    }

    #[test]
    fn filter_and_aggregate() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "events".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                        (
                            "score".into(),
                            Expr::col(0).get("score").cast(DataType::Int),
                        ),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit("sf")),
                },
                vec![proj],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![0],
                    aggs: vec![
                        AggExpr::new(AggFunc::Count, None, "n"),
                        AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                        AggExpr::new(AggFunc::Avg, Some(Expr::col(1)), "avg"),
                        AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
                        AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
                    ],
                },
                vec![filt],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let exec = execute(&plan, &source(), &UdfRegistry::new()).unwrap();
        let rows = exec.root_rows().unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.get(0), &Value::str("sf"));
        assert_eq!(row.get(1), &Value::Int(3), "COUNT(*) counts null-score row");
        assert_eq!(row.get(2), &Value::Int(40), "SUM skips NULL");
        assert_eq!(row.get(3), &Value::Float(20.0), "AVG over non-null only");
        assert_eq!(row.get(4), &Value::Int(10));
        assert_eq!(row.get(5), &Value::Int(30));
    }

    #[test]
    fn count_distinct() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "events".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![("uid".into(), Expr::col(0).get("uid").cast(DataType::Int))],
                },
                vec![scan],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(
                        AggFunc::CountDistinct,
                        Some(Expr::col(0)),
                        "users",
                    )],
                },
                vec![proj],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let exec = execute(&plan, &source(), &UdfRegistry::new()).unwrap();
        assert_eq!(exec.root_rows().unwrap()[0].get(0), &Value::Int(3));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let mut src = MemSource::new();
        src.add_log("empty", vec![]);
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "empty".into(),
                },
                vec![],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![],
                    aggs: vec![
                        AggExpr::new(AggFunc::Count, None, "n"),
                        AggExpr::new(AggFunc::Sum, Some(Expr::col(0)), "s"),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let exec = execute(&plan, &src, &UdfRegistry::new()).unwrap();
        let rows = exec.root_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[0].get(1), &Value::Null);
    }

    #[test]
    fn hash_join_matches_and_skips_nulls() {
        let left = vec![
            Row::new(vec![Value::Int(1), Value::str("a")]),
            Row::new(vec![Value::Int(2), Value::str("b")]),
            Row::new(vec![Value::Null, Value::str("n")]),
        ];
        let right = vec![
            Row::new(vec![Value::Int(1), Value::str("x")]),
            Row::new(vec![Value::Int(1), Value::str("y")]),
            Row::new(vec![Value::Null, Value::str("z")]),
        ];
        let out = hash_join(&left, &right, &[(0, 0)]).unwrap();
        assert_eq!(out.len(), 2, "uid 1 matches twice; NULLs never join");
        assert!(out.iter().all(|r| r.get(0) == &Value::Int(1)));
        assert_eq!(out[0].arity(), 4);
    }

    #[test]
    fn hash_join_multi_column_and_cross_type_keys() {
        // Int/Float keys that compare equal must join (hash consistency).
        let left = vec![
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Int(7)]),
            Row::new(vec![Value::Float(1.0), Value::str("a"), Value::Int(8)]),
            Row::new(vec![Value::Int(1), Value::str("b"), Value::Int(9)]),
        ];
        let right = vec![Row::new(vec![Value::Int(1), Value::str("a")])];
        let out = hash_join(&left, &right, &[(0, 0), (1, 1)]).unwrap();
        assert_eq!(out.len(), 2, "both (1,a) variants match; (1,b) does not");
        assert_eq!(out[0].get(2), &Value::Int(7));
        assert_eq!(out[1].get(2), &Value::Int(8));
    }

    #[test]
    fn sort_and_limit() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "events".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                        (
                            "score".into(),
                            Expr::col(0).get("score").cast(DataType::Int),
                        ),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let sort = b
            .add(
                Operator::Sort {
                    keys: vec![(1, true)],
                },
                vec![proj],
            )
            .unwrap();
        let limit = b.add(Operator::Limit { n: 2 }, vec![sort]).unwrap();
        let plan = b.finish(limit).unwrap();
        let exec = execute(&plan, &source(), &UdfRegistry::new()).unwrap();
        let rows = exec.root_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1), &Value::Int(30));
        assert_eq!(rows[1].get(1), &Value::Int(20));
    }

    #[test]
    fn sort_ties_keep_input_order() {
        // The (key, index) unstable sort must reproduce stable-sort output.
        let mut src = MemSource::new();
        src.add_view(
            "v",
            (0..3000)
                .map(|i| Row::new(vec![Value::Int(i % 7), Value::Int(i)]))
                .collect(),
        );
        let mut b = PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "v".into(),
                    schema: Schema::new(vec![
                        Field::new("k", DataType::Int),
                        Field::new("seq", DataType::Int),
                    ]),
                },
                vec![],
            )
            .unwrap();
        let sort = b
            .add(
                Operator::Sort {
                    keys: vec![(0, false)],
                },
                vec![sv],
            )
            .unwrap();
        let plan = b.finish(sort).unwrap();
        let exec = execute(&plan, &src, &UdfRegistry::new()).unwrap();
        let rows = exec.root_rows().unwrap();
        let mut last = (i64::MIN, i64::MIN);
        for row in rows {
            let k = row.get(0).as_i64().unwrap();
            let seq = row.get(1).as_i64().unwrap();
            assert!((k, seq) > last, "equal keys must keep input order");
            last = (k, seq);
        }
    }

    #[test]
    fn udf_execution() {
        use std::sync::Arc as StdArc;
        let mut reg = UdfRegistry::new();
        reg.register(crate::udf::Udf::new(
            "uid_only_positive",
            Schema::new(vec![Field::new("uid", DataType::Int)]),
            StdArc::new(
                |row: &Row| match row.get(0).get_field("uid").and_then(Value::as_i64) {
                    Some(uid) if uid > 1 => Ok(vec![Row::new(vec![Value::Int(uid)])]),
                    _ => Ok(vec![]),
                },
            ),
        ));
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "events".into(),
                },
                vec![],
            )
            .unwrap();
        let udf = b
            .add(
                Operator::Udf {
                    name: "uid_only_positive".into(),
                    output: Schema::new(vec![Field::new("uid", DataType::Int)]),
                },
                vec![scan],
            )
            .unwrap();
        let plan = b.finish(udf).unwrap();
        let exec = execute(&plan, &source(), &UdfRegistry::new().clone()).unwrap_err();
        assert!(exec.to_string().contains("unknown UDF"));
        let exec = execute(&plan, &source(), &reg).unwrap();
        assert_eq!(exec.root_rows().unwrap().len(), 2); // uids 2 and 3
    }

    #[test]
    fn split_execution_equals_full_execution() {
        let plan = extract_plan();
        let src = source();
        let udfs = UdfRegistry::new();
        let full = execute(&plan, &src, &udfs).unwrap();
        // HV side: scan only.
        let hv_set: HashSet<NodeId> = [NodeId(0)].into_iter().collect();
        let hv = execute_subset(&plan, Some(&hv_set), HashMap::new(), &src, &udfs).unwrap();
        // DW side: project, with scan's output provided.
        let provided: HashMap<NodeId, Arc<Vec<Row>>> = [(NodeId(0), hv.output(NodeId(0)).clone())]
            .into_iter()
            .collect();
        let dw_set: HashSet<NodeId> = [NodeId(1)].into_iter().collect();
        let dw = execute_subset(&plan, Some(&dw_set), provided, &src, &udfs).unwrap();
        assert_eq!(dw.root_rows().unwrap(), full.root_rows().unwrap());
    }

    #[test]
    fn missing_provided_input_is_an_error() {
        let plan = extract_plan();
        let dw_set: HashSet<NodeId> = [NodeId(1)].into_iter().collect();
        let err = execute_subset(
            &plan,
            Some(&dw_set),
            HashMap::new(),
            &source(),
            &UdfRegistry::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("neither executed nor provided"));
    }

    #[test]
    fn output_bytes_reflect_content() {
        let exec = execute(&extract_plan(), &source(), &UdfRegistry::new()).unwrap();
        assert!(exec.output_bytes(NodeId(1)).as_bytes() > 0);
        assert!(exec.output_bytes(NodeId(0)) > exec.output_bytes(NodeId(1)));
        assert_eq!(exec.output_bytes(NodeId(42)), ByteSize::ZERO);
    }

    /// A scan → filter → sort → limit pipeline over enough rows to span
    /// several morsels, used by the retention/steal and threading tests.
    fn steal_pipeline() -> (LogicalPlan, MemSource) {
        let mut src = MemSource::new();
        src.add_view(
            "big",
            (0..10_000)
                .map(|i| Row::new(vec![Value::Int(i), Value::Int((i * 37) % 1000)]))
                .collect(),
        );
        let mut b = PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "big".into(),
                    schema: Schema::new(vec![
                        Field::new("id", DataType::Int),
                        Field::new("x", DataType::Int),
                    ]),
                },
                vec![],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::Binary {
                        op: miso_plan::BinOp::Lt,
                        left: Box::new(Expr::col(1)),
                        right: Box::new(Expr::lit(500i64)),
                    },
                },
                vec![sv],
            )
            .unwrap();
        let sort = b
            .add(
                Operator::Sort {
                    keys: vec![(1, false)],
                },
                vec![filt],
            )
            .unwrap();
        let limit = b.add(Operator::Limit { n: 100 }, vec![sort]).unwrap();
        (b.finish(limit).unwrap(), src)
    }

    #[test]
    fn root_only_retention_matches_full_retention_at_the_root() {
        let (plan, src) = steal_pipeline();
        let udfs = UdfRegistry::new();
        let full = execute(&plan, &src, &udfs).unwrap();
        let lean = run_lean(&plan, &src, &[]);
        assert_eq!(lean.root_rows().unwrap(), full.root_rows().unwrap());
        // Intermediates were released but their row counts survive.
        assert!(lean.try_output(NodeId(0)).is_none());
        assert!(lean.try_output(NodeId(1)).is_none());
        assert_eq!(lean.rows_out(NodeId(0)), full.rows_out(NodeId(0)));
        assert_eq!(lean.rows_out(NodeId(1)), full.rows_out(NodeId(1)));
        assert_eq!(lean.executed_nodes().count(), full.executed_nodes().count());
        // Full retention keeps everything observable (harvest contract).
        assert!(full.try_output(NodeId(0)).is_some());
    }

    #[test]
    fn retained_output_errors_on_a_released_node() {
        let (plan, src) = steal_pipeline();
        let lean = run_lean(&plan, &src, &[]);
        assert_eq!(
            lean.retained_output(plan.root()).unwrap().as_slice(),
            lean.root_rows().unwrap()
        );
        let err = lean.retained_output(NodeId(1)).unwrap_err();
        assert!(matches!(err, MisoError::Execution(_)), "{err:?}");
        assert!(err.to_string().contains("node n1"), "{err}");
        assert!(err.to_string().contains("output not retained"), "{err}");
    }

    #[test]
    fn outputs_are_thread_count_invariant() {
        let (plan, src) = steal_pipeline();
        let udfs = UdfRegistry::new();
        let before = pool::threads();
        let mut reference: Option<Vec<Row>> = None;
        for t in [1, 2, 8] {
            pool::set_threads(t);
            let exec = execute(&plan, &src, &udfs).unwrap();
            let rows = exec.root_rows().unwrap().to_vec();
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(&rows, want, "threads={t}"),
            }
        }
        pool::set_threads(before);
    }

    /// The whole plan keeping only `keep` and the root: the columnar bodies
    /// run wherever they accept the operator.
    fn run_lean(plan: &LogicalPlan, src: &MemSource, keep: &[NodeId]) -> Execution {
        execute_subset_guarded(
            plan,
            None,
            HashMap::new(),
            src,
            &UdfRegistry::new(),
            Retention::Only(keep),
            QueryGuard::inert_ref(),
        )
        .unwrap()
    }

    /// A multi-morsel log pipeline that hits every columnar operator body:
    /// fused scan+project, vectorized filter, columnar grouped aggregation.
    fn columnar_pipeline() -> (LogicalPlan, MemSource) {
        let mut src = MemSource::new();
        let lines: Vec<String> = (0..12_000)
            .map(|i| {
                if i % 97 == 13 {
                    "oops not json".to_string()
                } else if i % 53 == 0 {
                    // Missing score: NULL after projection.
                    format!(r#"{{"uid": {}, "city": "c{}"}}"#, i % 50, i % 7)
                } else {
                    format!(
                        r#"{{"uid": {}, "city": "c{}", "score": {}}}"#,
                        i % 50,
                        i % 7,
                        (i * 31) % 1000
                    )
                }
            })
            .collect();
        src.add_log("events", lines);
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "events".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                        ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                        (
                            "score".into(),
                            Expr::col(0).get("score").cast(DataType::Int),
                        ),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::Binary {
                        op: miso_plan::BinOp::Lt,
                        left: Box::new(Expr::col(2)),
                        right: Box::new(Expr::lit(700i64)),
                    },
                },
                vec![proj],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![1],
                    aggs: vec![
                        AggExpr::new(AggFunc::Count, None, "n"),
                        AggExpr::new(AggFunc::Sum, Some(Expr::col(2)), "total"),
                        AggExpr::new(AggFunc::Min, Some(Expr::col(0)), "lo"),
                        AggExpr::new(AggFunc::Max, Some(Expr::col(2)), "hi"),
                        AggExpr::new(AggFunc::Avg, Some(Expr::col(2)), "avg"),
                    ],
                },
                vec![filt],
            )
            .unwrap();
        (b.finish(agg).unwrap(), src)
    }

    #[test]
    fn columnar_lean_matches_row_path_and_serial_oracle() {
        let (plan, src) = columnar_pipeline();
        let udfs = UdfRegistry::new();
        let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
        let before = pool::threads();
        for t in [1, 8] {
            pool::set_threads(t);
            let col = run_lean(&plan, &src, &[]);
            let row = execute(&plan, &src, &udfs).unwrap();
            assert_eq!(
                col.root_rows().unwrap(),
                serial.root_rows().unwrap(),
                "columnar vs serial, threads={t}"
            );
            assert_eq!(
                row.root_rows().unwrap(),
                serial.root_rows().unwrap(),
                "row vs serial, threads={t}"
            );
            assert_eq!(col.skipped_lines, serial.skipped_lines);
            // The fused scan still reports per-node row counts.
            for id in serial.executed_nodes() {
                assert_eq!(
                    col.rows_out(id),
                    serial.rows_out(id),
                    "node {id} threads={t}"
                );
            }
        }
        pool::set_threads(before);
    }

    #[test]
    fn columnar_outputs_are_thread_count_invariant() {
        let (plan, src) = columnar_pipeline();
        let before = pool::threads();
        let mut reference: Option<Vec<Row>> = None;
        for t in [1, 2, 8] {
            pool::set_threads(t);
            let exec = run_lean(&plan, &src, &[]);
            let rows = exec.root_rows().unwrap().to_vec();
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(&rows, want, "threads={t}"),
            }
        }
        pool::set_threads(before);
    }

    /// Joins stay row-wise: in a lean run the join's view inputs use the
    /// zero-copy row handles; the downstream aggregate pivots the joined
    /// rows to a batch on demand (`ensure_cols`) and must still agree with
    /// the row path.
    #[test]
    fn columnar_join_pipeline_matches_row_path() {
        let mut src = MemSource::new();
        src.add_view(
            "facts",
            (0..5_000)
                .map(|i| Row::new(vec![Value::Int(i % 400), Value::Int(i)]))
                .collect(),
        );
        src.add_view(
            "dims",
            (0..400)
                .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("seg-{}", i % 13))]))
                .collect(),
        );
        let schema = |fields: Vec<Field>| Schema::new(fields);
        let mut b = PlanBuilder::new();
        let facts = b
            .add(
                Operator::ScanView {
                    view: "facts".into(),
                    schema: schema(vec![
                        Field::new("k", DataType::Int),
                        Field::new("v", DataType::Int),
                    ]),
                },
                vec![],
            )
            .unwrap();
        let dims = b
            .add(
                Operator::ScanView {
                    view: "dims".into(),
                    schema: schema(vec![
                        Field::new("k", DataType::Int),
                        Field::new("seg", DataType::Str),
                    ]),
                },
                vec![],
            )
            .unwrap();
        let join = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dims])
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![3],
                    aggs: vec![
                        AggExpr::new(AggFunc::Count, None, "n"),
                        AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                    ],
                },
                vec![join],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let col = run_lean(&plan, &src, &[]);
        let row = execute(&plan, &src, &UdfRegistry::new()).unwrap();
        assert_eq!(col.root_rows().unwrap(), row.root_rows().unwrap());
    }

    /// The production DW shape: a working set shipped from HV arrives as a
    /// *provided* row seed (not a view scan), and the columnar consumers
    /// above it — filter, project, aggregate — must pivot it on demand
    /// (`ensure_cols`) and agree with the row path and the full execution.
    #[test]
    fn columnar_provided_seed_matches_row_path() {
        let mut src = MemSource::new();
        src.add_view(
            "ws",
            (0..9_000)
                .map(|i| {
                    Row::new(vec![
                        Value::str(format!("city-{}", i % 23)),
                        Value::Int(i % 500),
                        Value::Float(i as f64 / 7.0),
                    ])
                })
                .collect(),
        );
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanView {
                    view: "ws".into(),
                    schema: Schema::new(vec![
                        Field::new("city", DataType::Str),
                        Field::new("n", DataType::Int),
                        Field::new("score", DataType::Float),
                    ]),
                },
                vec![],
            )
            .unwrap();
        let filter = b
            .add(
                Operator::Filter {
                    predicate: Expr::Binary {
                        op: miso_plan::BinOp::Gt,
                        left: Box::new(Expr::col(1)),
                        right: Box::new(Expr::lit(100i64)),
                    },
                },
                vec![scan],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("city".into(), Expr::col(0)),
                        ("score".into(), Expr::col(2)),
                    ],
                },
                vec![filter],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![0],
                    aggs: vec![
                        AggExpr::new(AggFunc::Count, None, "n"),
                        AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                    ],
                },
                vec![proj],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let udfs = UdfRegistry::new();
        let full = execute(&plan, &src, &udfs).unwrap();
        // Ship the scan's output as a provided seed, DW-style: the consumer
        // subset never sees the view, only the pre-staged rows.
        let provided: HashMap<NodeId, Arc<Vec<Row>>> =
            [(scan, full.output(scan).clone())].into_iter().collect();
        let dw_set: HashSet<NodeId> = [filter, proj, agg].into_iter().collect();
        let dw = execute_subset_guarded(
            &plan,
            Some(&dw_set),
            provided,
            &src,
            &udfs,
            Retention::ROOT_ONLY,
            QueryGuard::inert_ref(),
        )
        .unwrap();
        assert_eq!(dw.root_rows().unwrap(), full.root_rows().unwrap());
    }
    /// Every row body a lean run can still reach: an unfused scan (kept, so
    /// it may not fuse), an aggregate over an expression, a UDF that
    /// declares no fields, a join, sort → limit — and a filter (shared
    /// input, then stolen input) and a projection whose input is ragged,
    /// the one thing that takes those two off the column path. The
    /// `FieldGet` filters and the `Func` projection over the unfused scans
    /// run columnar. Each node agrees with the serial oracle at 1 and 8
    /// threads.
    #[test]
    fn lean_runs_reach_every_row_body_the_columnar_path_declines() {
        let (_, mut src) = columnar_pipeline();
        src.add_view(
            "ragged",
            (0..70i64)
                .map(|i| {
                    let mut vals = vec![Value::Int(i), Value::str(format!("c{}", i % 7))];
                    if i % 10 == 0 {
                        vals.push(Value::Bool(true));
                    }
                    Row::new(vals)
                })
                .collect(),
        );
        assert!(src.view_cols_shared("ragged").is_none());
        let mut udfs = UdfRegistry::new();
        udfs.register(Udf::new(
            "city_of",
            Schema::new(vec![Field::new("city", DataType::Str)]),
            Arc::new(|row: &Row| {
                let city = row.get(0).get_field("city").and_then(Value::as_str);
                Ok(vec![Row::new(vec![Value::str(
                    city.unwrap_or_default().to_uppercase(),
                )])])
            }),
        ));
        let by_city = Expr::col(0)
            .get("city")
            .cast(DataType::Str)
            .eq(Expr::lit("c3"));
        let upper = |city: Expr| Expr::Func {
            name: "upper".into(),
            args: vec![city],
        };
        let plus_one = Expr::Binary {
            op: miso_plan::BinOp::Add,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::lit(1i64)),
        };

        let mut b = PlanBuilder::new();
        let mut add = |op, inputs| b.add(op, inputs).unwrap();
        let scan_log = || Operator::ScanLog {
            log: "events".into(),
        };
        let filter = |predicate| Operator::Filter { predicate };
        let kept_scan = add(scan_log(), vec![]);
        let shared_filter = add(filter(by_city.clone()), vec![kept_scan]);
        let proj = add(
            Operator::Project {
                exprs: vec![
                    (
                        "city".into(),
                        upper(Expr::col(0).get("city").cast(DataType::Str)),
                    ),
                    ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                ],
            },
            vec![shared_filter],
        );
        let agg = add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(plus_one), "s")],
            },
            vec![proj],
        );
        let free_scan = add(scan_log(), vec![]);
        let stolen_filter = add(filter(by_city), vec![free_scan]);
        let udf = add(
            Operator::Udf {
                name: "city_of".into(),
                output: Schema::new(vec![Field::new("city", DataType::Str)]),
            },
            vec![stolen_filter],
        );
        let join = add(Operator::Join { on: vec![(0, 0)] }, vec![udf, agg]);
        let ragged = add(
            Operator::ScanView {
                view: "ragged".into(),
                schema: Schema::new(vec![
                    Field::new("i", DataType::Int),
                    Field::new("city", DataType::Str),
                ]),
            },
            vec![],
        );
        let ragged_shared = add(filter(Expr::col(1).eq(Expr::lit("c3"))), vec![ragged]);
        let non_negative = Expr::Binary {
            op: miso_plan::BinOp::Ge,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::lit(0i64)),
        };
        let ragged_stolen = add(filter(non_negative), vec![ragged_shared]);
        let ragged_proj = add(
            Operator::Project {
                exprs: vec![
                    ("place".into(), upper(Expr::col(1))),
                    ("i".into(), Expr::col(0)),
                ],
            },
            vec![ragged_stolen],
        );
        let both = add(Operator::Join { on: vec![(0, 0)] }, vec![join, ragged_proj]);
        let keys = vec![(4, true), (2, true)];
        let sort = add(Operator::Sort { keys }, vec![both]);
        let limit = add(Operator::Limit { n: 50 }, vec![sort]);
        let plan = b.finish(limit).unwrap();

        let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
        assert!(!serial.root_rows().unwrap().is_empty());
        let still_ragged = serial.output(ragged_stolen);
        assert!(still_ragged.iter().any(|r| r.arity() == 3));
        assert!(still_ragged.iter().any(|r| r.arity() == 2));
        let keep = [kept_scan, proj];
        let before = pool::threads();
        for t in [1, 8] {
            pool::set_threads(t);
            let lean = execute_subset_guarded(
                &plan,
                None,
                HashMap::new(),
                &src,
                &udfs,
                Retention::Only(&keep),
                QueryGuard::inert_ref(),
            )
            .unwrap();
            assert_eq!(lean.root_rows().unwrap(), serial.root_rows().unwrap());
            assert_eq!(lean.skipped_lines, serial.skipped_lines);
            for id in keep {
                assert_eq!(lean.output(id), serial.output(id), "kept node {id}");
            }
            for id in serial.executed_nodes() {
                assert_eq!(lean.rows_out(id), serial.rows_out(id), "node {id}");
            }
            // What was not kept went to its last consumer.
            assert!(lean.try_output(free_scan).is_none());
            assert!(lean.try_output(ragged_shared).is_none());
            assert!(lean.try_output(sort).is_none());
        }
        pool::set_threads(before);
    }
}
