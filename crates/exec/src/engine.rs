//! The operator interpreter (miso-vex: morsel-parallel, column-at-a-time).
//!
//! Executes a [`LogicalPlan`] bottom-up over a [`DataSource`], one node at a
//! time. A node's output is a shared [`ColBatch`] — inside the engine, in the
//! [`Execution`] a run returns, in the `provided` working sets it is resumed
//! with and in the views a source hands it ([`DataSource::view_batch`]) — and
//! each operator has one body, a function over batches whose expressions
//! [`crate::col`] evaluates. Rows are built for callers that speak them, on
//! request and from the batch ([`Execution::output`] and its siblings,
//! [`execute_subset`]'s row seeds), and for a UDF, whose function takes a
//! row and answers in rows; nothing between operators, or between an
//! operator and a store, is pivoted.
//!
//! What is still held is the caller's choice ([`Retention`]). By default it
//! is every node — what tests and the serial oracle compare. A store names
//! the outputs it will read: Hadoop materializes stage boundaries for fault
//! tolerance, and those materializations are precisely the opportunistic
//! views MISO tunes with, so the HV store keeps exactly those and everything
//! in between is released after its last consumer.
//!
//! [`execute_subset`] supports split execution: the HV side runs the nodes
//! below the cut, the working sets cross the wire, and the DW side resumes
//! with those outputs injected as `provided` inputs.
//!
//! # Parallelism and determinism
//!
//! Operator bodies run **morsel-parallel** on the `miso_common::pool` scoped
//! worker pool (Leis et al., SIGMOD 2014): a batch is cut into fixed
//! [`MORSEL_SIZE`] index ranges, morsels fan out across `MISO_THREADS`
//! workers, and per-morsel results are reassembled in morsel index order.
//! Morsel boundaries depend only on the constant, never on the worker count,
//! so every operator's output — including `skipped_lines` accounting and the
//! first error surfaced — is byte-identical for any thread count.
//! Aggregations fold per-morsel partial accumulators and merge them serially
//! in morsel order (`Acc::merge`), which pins even float-summation
//! grouping to the morsel structure rather than the schedule. Join keys and
//! group keys are hashed once per row to a `u64` (FNV-1a via
//! `miso_plan::fingerprint`, a typed join key on its payload; collision-checked
//! by real key equality at every probe). A kernel reads a typed column on its
//! payload and anything else cell by cell ([`crate::col`]'s typed-arm rule).
//! The row-at-a-time interpreter all of this must agree with is preserved in
//! [`crate::serial`].

use crate::col::{self, FusedField, Scalar, VCol};
use crate::profile::{self, OpProfile};
use crate::udf::{Udf, UdfRegistry};
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::prehash::PrehashedMap;
use miso_common::{pool, ByteSize, MisoError, Result};
use miso_data::json::parse_json;
use miso_data::{Cell, ColBatch, ColBuilder, Column, Nulls, Row, Slots, Value};
use miso_plan::fingerprint::{fnv1a_hash_one, FnvHasher};
use miso_plan::{AggExpr, AggFunc, Expr, LogicalPlan, Operator, PlanNode};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
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
    /// Materialized view `view` in the form the source holds it. A scan
    /// shares the batch: it costs a refcount bump, copies nothing, and is
    /// charged to no guard (`exec.zero_copy_scans`).
    fn view_batch(&self, view: &str) -> Result<Arc<ColBatch>>;
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
    /// A registered view, or why the rows it was registered from have no
    /// batch.
    views: HashMap<String, std::result::Result<Arc<ColBatch>, &'static str>>,
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

    /// Registers a view from rows. A row set carries no schema, so it must
    /// say its arity itself: the first scan of a view registered from no
    /// rows (use [`MemSource::add_batch`]), or from rows of differing arity,
    /// is refused.
    pub fn add_view(&mut self, name: impl Into<String>, rows: Vec<Row>) {
        let batch = if rows.is_empty() {
            Err("no rows have no arity")
        } else {
            ColBatch::from_rows(&rows)
                .map(Arc::new)
                .ok_or(ColBatch::RAGGED)
        };
        self.views.insert(name.into(), batch);
    }

    /// Registers a view.
    pub fn add_batch(&mut self, name: impl Into<String>, batch: ColBatch) {
        self.views.insert(name.into(), Ok(Arc::new(batch)));
    }
}

impl DataSource for MemSource {
    fn log_lines(&self, log: &str) -> Result<&[String]> {
        self.logs
            .get(log)
            .map(Vec::as_slice)
            .ok_or_else(|| MisoError::Store(format!("unknown log `{log}`")))
    }

    fn view_batch(&self, view: &str) -> Result<Arc<ColBatch>> {
        match self.views.get(view) {
            Some(Ok(batch)) => Ok(batch.clone()),
            Some(Err(why)) => Err(MisoError::Store(format!("view `{view}`: {why}"))),
            None => Err(MisoError::Store(format!("unknown view `{view}`"))),
        }
    }
}

/// Which node outputs an [`Execution`] still holds when it returns.
#[derive(Debug, Clone, Copy)]
pub enum Retention<'a> {
    /// Every executed node's rows stay observable. The library default: it
    /// is what tests and the serial oracle compare node by node. Nothing is
    /// released.
    All,
    /// Only the listed nodes and the plan root are kept (never-consumed
    /// outputs also survive: nothing ever releases them). Every other
    /// output is released as soon as its last in-subset consumer has run,
    /// which frees memory early and lets a log scan fuse into a consumer
    /// that names the fields it reads (a SerDe projection, a declaring UDF).
    /// A kept node is never released or fused away. Row counts stay
    /// queryable for all executed nodes via [`Execution::rows_out`].
    Only(&'a [NodeId]),
}

impl Retention<'_> {
    /// Keep nothing but the root — what a store that harvests no
    /// intermediates (DW) asks for.
    pub const ROOT_ONLY: Retention<'static> = Retention::Only(&[]);
}

/// A node output a run still holds: the batch, and what callers that asked
/// for its rows or its size were given.
#[derive(Debug, Clone)]
struct Held {
    batch: Arc<ColBatch>,
    rows: OnceLock<Arc<Vec<Row>>>,
    bytes: OnceLock<u64>,
}

impl Held {
    fn of(batch: Arc<ColBatch>) -> Held {
        Held {
            batch,
            rows: OnceLock::new(),
            bytes: OnceLock::new(),
        }
    }

    /// The batch pivoted to rows, once, for a caller that speaks rows.
    fn rows(&self) -> &Arc<Vec<Row>> {
        self.rows.get_or_init(|| Arc::new(self.batch.to_rows()))
    }
}

/// The result of executing (part of) a plan.
#[derive(Debug, Clone)]
pub struct Execution {
    outputs: HashMap<NodeId, Held>,
    /// What every executed node did, whether or not its output is still
    /// held. A provided node's record carries its row count alone.
    profiles: HashMap<NodeId, OpProfile>,
    /// Malformed log lines skipped by scans (Hive-style lenience).
    pub skipped_lines: u64,
    root: NodeId,
}

impl Execution {
    /// The result of the row-at-a-time reference interpreter
    /// ([`crate::serial`]): each output's batch is pivoted from the rows it
    /// computed, and those rows are what [`Execution::output`] hands back.
    /// It measures nothing: its records carry row counts alone.
    pub(crate) fn from_parts(
        plan: &LogicalPlan,
        outputs: HashMap<NodeId, Arc<Vec<Row>>>,
        skipped_lines: u64,
    ) -> Result<Execution> {
        let counted =
            |(id, rows): (&NodeId, &Arc<Vec<Row>>)| (*id, OpProfile::rows_only(rows.len()));
        let profiles = outputs.iter().map(counted).collect();
        let held = |(id, rows): (NodeId, Arc<Vec<Row>>)| {
            let batch = Arc::new(pivot(plan.node(id), &rows)?);
            let rows = OnceLock::from(rows);
            Ok((
                id,
                Held {
                    rows,
                    ..Held::of(batch)
                },
            ))
        };
        Ok(Execution {
            outputs: outputs.into_iter().map(held).collect::<Result<_>>()?,
            profiles,
            skipped_lines,
            root: plan.root(),
        })
    }

    /// The output of node `id`, if executed and retained.
    pub fn batch(&self, id: NodeId) -> Option<&Arc<ColBatch>> {
        self.outputs.get(&id).map(|held| &held.batch)
    }

    /// The output of node `id`, or an execution error naming the node when
    /// it is not held (released under [`Retention::Only`], or never
    /// executed).
    pub fn retained_batch(&self, id: NodeId) -> Result<&Arc<ColBatch>> {
        self.batch(id)
            .ok_or_else(|| MisoError::Execution(format!("node {id} output not retained")))
    }

    /// The root output; errors if the root was outside the executed subset
    /// (e.g. an HV-side partial execution).
    pub fn root_batch(&self) -> Result<&Arc<ColBatch>> {
        self.batch(self.root)
            .ok_or_else(|| MisoError::Execution("root was not part of the executed subset".into()))
    }

    /// [`Execution::batch`] as rows; panics if node `id` is not held.
    pub fn output(&self, id: NodeId) -> &Arc<Vec<Row>> {
        self.outputs[&id].rows()
    }

    /// [`Execution::retained_batch`] as rows.
    pub fn retained_output(&self, id: NodeId) -> Result<&Arc<Vec<Row>>> {
        self.retained_batch(id).map(|_| self.output(id))
    }

    /// [`Execution::batch`] as rows.
    pub fn try_output(&self, id: NodeId) -> Option<&Arc<Vec<Row>>> {
        self.outputs.get(&id).map(Held::rows)
    }

    /// Output row count of node `id`, if executed — survives early release.
    pub fn rows_out(&self, id: NodeId) -> Option<u64> {
        self.profiles.get(&id).map(|p| p.rows_out)
    }

    /// [`Execution::root_batch`] as rows.
    pub fn root_rows(&self) -> Result<&[Row]> {
        self.root_batch().map(|_| self.output(self.root).as_slice())
    }

    /// Approximate serialized size of node `id`'s output
    /// ([`ColBatch::row_bytes`], read from its cells once); zero when it is
    /// not held.
    pub fn output_bytes(&self, id: NodeId) -> ByteSize {
        let bytes = |held: &Held| *held.bytes.get_or_init(|| held.batch.row_bytes());
        ByteSize::from_bytes(self.outputs.get(&id).map_or(0, bytes))
    }

    /// Ids of all executed (or provided) nodes, including any whose outputs
    /// were released early.
    pub fn executed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.profiles.keys().copied()
    }

    /// What node `id` did, if it executed (or was provided).
    pub fn profile(&self, id: NodeId) -> Option<&OpProfile> {
        self.profiles.get(&id)
    }

    /// The record of every executed (or provided) node.
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
///   other store during split execution), as rows: [`seed_batches`] pivots
///   them for [`execute_subset_guarded`].
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
        seed_batches(plan, provided)?,
        source,
        udfs,
        Retention::All,
        QueryGuard::inert_ref(),
    )
}

/// Working sets handed over as rows, as the batches the engine resumes with.
/// Rows of differing arity are refused here, naming the node they stand for.
pub fn seed_batches(
    plan: &LogicalPlan,
    provided: HashMap<NodeId, Arc<Vec<Row>>>,
) -> Result<HashMap<NodeId, Arc<ColBatch>>> {
    let seed =
        |(id, rows): (NodeId, Arc<Vec<Row>>)| Ok((id, Arc::new(pivot(plan.node(id), &rows)?)));
    provided.into_iter().map(seed).collect()
}

/// [`execute_subset`] over `provided` batches, keeping only what `retain`
/// names, under a [`QueryGuard`]: the guard's cancellation
/// state is checked at every morsel-dispatch boundary (a serial point, so
/// cancellation outcomes are thread-count-invariant), and the query's large
/// allocations — node materialization buffers, join build tables, aggregate
/// accumulator tables — are charged against the guard's memory budget.
/// Charges are released as outputs are freed and fully unwound when the
/// execution ends, success or failure. With the shared inert guard
/// ([`QueryGuard::inert_ref`]) every check is one branch and no bytes are
/// ever charged, so an unguarded caller pays nothing for the parameter.
///
/// This is the driver loop: per node of the subset a guard check, the
/// operator's one body, its [`OpProfile`] — which the `exec.op` span and the
/// `exec.*` counters are read off — the ledger charge for its output, and the
/// release of each input this node was the last to read. `retain` decides
/// that release, whether a log scan may fuse, and what survives to the end.
pub fn execute_subset_guarded(
    plan: &LogicalPlan,
    subset: Option<&HashSet<NodeId>>,
    provided: HashMap<NodeId, Arc<ColBatch>>,
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
    let seeds: HashSet<NodeId> = provided.keys().copied().collect();
    let executes = |id: NodeId| subset.is_none_or(|s| s.contains(&id)) && !seeds.contains(&id);
    let mut profiles: HashMap<NodeId, OpProfile> = HashMap::with_capacity(plan.len());
    profiles.extend(
        provided
            .iter()
            .map(|(id, b)| (*id, OpProfile::rows_only(b.len()))),
    );
    // Every node's output; the working sets shipped in enter here.
    let mut batches = provided;
    batches.reserve(plan.len());
    // Remaining in-subset consumer edges per node. Once a node's count hits
    // zero its output is released unless kept.
    let mut pending: HashMap<NodeId, usize> = HashMap::new();
    for node in plan.nodes().iter().filter(|n| executes(n.id)) {
        for input in &node.inputs {
            *pending.entry(*input).or_insert(0) += 1;
        }
    }
    let mut skipped_lines = 0u64;
    // Dispatches made outside a run (a store indexing an append) are no
    // node's.
    profile::take_dispatch();
    // Per-node materialization charges; drops (and releases) on any exit.
    let mut ledger = ChargeLedger::new(guard);
    for node in plan.nodes().iter().filter(|n| executes(n.id)) {
        guard.check()?;
        let mut op_span = miso_obs::span("exec.op");
        if op_span.is_active() {
            op_span.push_field("op", miso_obs::FieldValue::Str(node.op.label()));
            op_span.push_field("node", miso_obs::FieldValue::U64(node.id.raw()));
        }
        let t0 = Instant::now();
        let input = |i: usize| input_of(&batches, node, i);
        // Whether input 0 is a log scan whose batch holds the columns this
        // node reads.
        let reads_fused = || {
            let scan = profiles.get(&node.inputs[0]);
            scan.is_some_and(|scan| scan.fused.is_some())
        };
        let mut fused = None;
        let batch = match &node.op {
            Operator::ScanLog { log } => {
                // A kept scan's own output is wanted: it may not fuse.
                let fields = (!kept(node.id))
                    .then(|| fused_reader(plan, node.id, executes, udfs))
                    .flatten();
                let (batch, skipped) = scan_log(source, guard, log, fields.as_deref(), &mut fused)?;
                skipped_lines += skipped;
                Arc::new(batch)
            }
            Operator::ScanView { view, .. } => {
                miso_obs::count("exec.zero_copy_scans", 1);
                source.view_batch(view)?
            }
            Operator::Filter { predicate } => filter(guard, input(0)?, predicate)?,
            // A fused scan already read this projection.
            Operator::Project { .. } if reads_fused() => Arc::clone(input(0)?),
            Operator::Project { exprs } => Arc::new(project(guard, input(0)?, exprs)?),
            Operator::Join { on } => Arc::new(join(guard, input(0)?, input(1)?, on)?),
            Operator::Aggregate { group_by, aggs } => {
                Arc::new(aggregate(guard, input(0)?, group_by, aggs)?)
            }
            Operator::Udf { name, .. } => {
                Arc::new(udf(guard, udfs.require(name)?, input(0)?, reads_fused())?)
            }
            Operator::Sort { keys } => Arc::new(sort(input(0)?, keys)),
            Operator::Limit { n } => limit(input(0)?, *n as usize),
        };
        let (morsels, par_rows) = profile::take_dispatch();
        // Inputs ran (or were provided) before this node, so their records
        // are in even if the batches themselves were released.
        let inputs = node.inputs.iter().filter_map(|i| profiles.get(i));
        let mut op = OpProfile {
            wall_ns: t0.elapsed().as_nanos() as u64,
            rows_in: inputs.map(|input| input.rows_out).sum(),
            rows_out: batch.len() as u64,
            morsels,
            par_rows,
            fused,
            bytes_out: None,
        };
        miso_obs::observe("exec.op_ns", op.wall_ns);
        if op_span.is_active() {
            if let Some((hit, parsed)) = op.fused {
                op_span.push_field("cols_hit", miso_obs::FieldValue::U64(hit));
                op_span.push_field("cols_parsed", miso_obs::FieldValue::U64(parsed));
            }
            op_span.push_field("rows_out", miso_obs::FieldValue::U64(op.rows_out));
            miso_obs::observe("exec.op_rows_out", op.rows_out);
        }
        miso_obs::count("exec.ops_executed", 1);
        miso_obs::count("exec.col_batches", op.rows_in.div_ceil(MORSEL_SIZE as u64));
        // Columns that are the source's own — a log's column image, a view
        // it shares — are not the query's to charge.
        if op.fused.is_none() && !matches!(node.op, Operator::ScanView { .. }) {
            op.bytes_out = ledger.charge(node.id, &batch)?;
        }
        profiles.insert(node.id, op);
        batches.insert(node.id, batch);
        for input in &node.inputs {
            if let Some(p) = pending.get_mut(input) {
                *p = p.saturating_sub(1);
                if *p == 0 && !kept(*input) {
                    batches.remove(input);
                    ledger.release(*input);
                }
            }
        }
    }
    let outputs = batches.into_iter().map(|(id, b)| (id, Held::of(b)));
    Ok(Execution {
        outputs: outputs.collect(),
        profiles,
        skipped_lines,
        root,
    })
}

/// Input `i` of `node`: an output of this run, or a working set shipped in.
fn input_of<'a>(
    batches: &'a HashMap<NodeId, Arc<ColBatch>>,
    node: &PlanNode,
    i: usize,
) -> Result<&'a Arc<ColBatch>> {
    batches.get(&node.inputs[i]).ok_or_else(|| {
        MisoError::Execution(format!(
            "node {} input {} neither executed nor provided",
            node.id, node.inputs[i]
        ))
    })
}

/// Scan fusion: a log scan whose single consumer names the fields it reads of
/// each line — a SerDe-shaped projection, a UDF that declared them — takes
/// those columns straight from the source ([`DataSource::log_columns`]) and
/// never builds the JSON records. Returns the fields that consumer reads. An
/// active guard does not stop it: a fused scan materializes nothing of its
/// own, so — like the zero-copy `ScanView` — it charges nothing, and its
/// consumer charges its output.
fn fused_reader<'a>(
    plan: &'a LogicalPlan,
    scan: NodeId,
    executes: impl Fn(NodeId) -> bool,
    udfs: &'a UdfRegistry,
) -> Option<Vec<FusedField<'a>>> {
    let mut readers = plan
        .nodes()
        .iter()
        .filter(|n| executes(n.id) && n.inputs.contains(&scan));
    match (readers.next(), readers.next()) {
        (Some(reader), None) if reader.inputs.len() == 1 => col::fused_fields(&reader.op, udfs),
        _ => None,
    }
}

/// Rows handed to the engine — a working set, the reference interpreter's
/// outputs — as a batch of `node`'s arity. No plan produces rows of differing
/// arity (`PlanBuilder` derives every schema, [`Udf::apply`] checks its
/// output); a row set built by hand that has them has no batch and is
/// refused here.
fn pivot(node: &PlanNode, rows: &[Row]) -> Result<ColBatch> {
    ColBatch::of_rows(node.schema.arity(), rows).ok_or_else(|| {
        let what = format!("node {} ({})", node.id, node.op.label());
        MisoError::Store(format!("{what}: {}", ColBatch::RAGGED))
    })
}

/// A log scan's batch and the count of malformed lines it skipped (Hive-style
/// lenience). With `fields` — what the scan's one consumer reads of each line
/// — the batch is those columns, from [`DataSource::log_columns`], and `fused`
/// is set ([`OpProfile::fused`]); without, one column of parsed JSON records.
fn scan_log(
    source: &dyn DataSource,
    guard: &QueryGuard,
    log: &str,
    fields: Option<&[FusedField<'_>]>,
    fused: &mut Option<(u64, u64)>,
) -> Result<(ColBatch, u64)> {
    if let Some(fields) = fields {
        // The dispatch boundary `par_chunks` would have checked.
        guard.check()?;
        let cols = source.log_columns(log, fields)?;
        *fused = Some((cols.cols_hit, cols.cols_parsed));
        return Ok((cols.batch, cols.skipped_lines));
    }
    let lines = source.log_lines(log)?;
    miso_obs::count("exec.col_fallback_rows", lines.len() as u64);
    let parts = par_chunks(guard, lines, |_, chunk| {
        let mut records = ColBuilder::new();
        let mut skipped = 0u64;
        for line in chunk {
            match parse_json(line) {
                Ok(record) => records.push_value(record),
                Err(_) => skipped += 1,
            }
        }
        (records.finish(), skipped)
    })?;
    let skipped = parts.iter().map(|(_, skipped)| skipped).sum();
    let records = Column::concat(parts.into_iter().map(|(records, _)| records).collect());
    let len = records.len();
    Ok((ColBatch::from_columns(vec![records], len), skipped))
}

/// The rows `predicate` is `TRUE` on (SQL `WHERE`: NULL does not select).
fn filter(guard: &QueryGuard, batch: &Arc<ColBatch>, predicate: &Expr) -> Result<Arc<ColBatch>> {
    let parts = par_ranges(guard, batch.len(), |_, start, n| {
        col::eval_vec(predicate, batch, start, n, None)
            .map(|pred| col::select_true(&pred, start, n))
    })?;
    let selected = concat(collect_ok(parts)?);
    Ok(if selected.len() == batch.len() {
        Arc::clone(batch)
    } else {
        Arc::new(batch.gather(&selected))
    })
}

/// One output column per expression. A bare column reference is the input's
/// own column, shared — when it is the column rebuilding it would give
/// ([`Column::is_canonical`]) — so only computed expressions are evaluated,
/// morsel by morsel. A projection that computes nothing dispatches nothing,
/// but checks the guard where its dispatch would have.
fn project(guard: &QueryGuard, batch: &ColBatch, exprs: &[(String, Expr)]) -> Result<ColBatch> {
    let shared = |e: &Expr| match e {
        Expr::Column(i) => batch.columns().get(*i).filter(|c| c.is_canonical()),
        _ => None,
    };
    let computed: Vec<&Expr> = exprs
        .iter()
        .map(|(_, e)| e)
        .filter(|e| shared(e).is_none())
        .collect();
    let mut per_expr: Vec<Vec<Column>> = vec![Vec::new(); computed.len()];
    if computed.is_empty() {
        guard.check()?;
    } else {
        let parts = par_ranges(guard, batch.len(), |_, start, n| {
            let eval =
                |e: &&Expr| col::eval_vec(e, batch, start, n, None).map(|v| v.into_column(n));
            computed.iter().map(eval).collect::<Result<Vec<_>>>()
        })?;
        for part in collect_ok(parts)? {
            for (cols, col) in per_expr.iter_mut().zip(part) {
                cols.push(col);
            }
        }
    }
    let mut computed = per_expr.into_iter().map(Column::concat);
    let columns = exprs.iter().map(|(_, e)| match shared(e) {
        Some(col) => Arc::clone(col),
        None => Arc::new(computed.next().expect("one column per computed expression")),
    });
    Ok(ColBatch::from_shared(columns.collect(), batch.len()))
}

/// The first `n` rows.
fn limit(batch: &Arc<ColBatch>, n: usize) -> Arc<ColBatch> {
    if n >= batch.len() {
        Arc::clone(batch)
    } else {
        Arc::new(batch.head(n))
    }
}

/// A permutation of the rows by `keys` (`(column, descending)`), ties in
/// input order: the index tiebreak makes the unstable sort reproduce the
/// serial interpreter's stable one.
fn sort(batch: &ColBatch, keys: &[(usize, bool)]) -> ColBatch {
    let keys: Vec<(&Column, bool)> = keys.iter().map(|&(c, desc)| (batch.col(c), desc)).collect();
    let mut order: Vec<u32> = (0..batch.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        for &(col, desc) in &keys {
            let ord = col.cell(a as usize).cmp_cell(&col.cell(b as usize));
            let ord = if desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        a.cmp(&b)
    });
    batch.gather(&order)
}

/// Calls `udf` once per row — the one place an operator builds rows, because
/// a UDF's function takes one and answers in them. A UDF that declared the
/// fields it reads gets them as `batch` holds them (a fused scan read exactly
/// those); any other gets its input row. Each morsel refills one input row
/// in place ([`ColBatch::fill_row`]), so reading a row allocates nothing
/// once its strings have grown to fit. The answers' values go straight into
/// the output columns.
fn udf(guard: &QueryGuard, udf: &Udf, batch: &ColBatch, declared: bool) -> Result<ColBatch> {
    let arity = udf.output.arity();
    let parts = par_ranges(guard, batch.len(), |_, start, n| -> Result<ColBatch> {
        let mut cols: Vec<ColBuilder> = (0..arity).map(|_| ColBuilder::new()).collect();
        let mut len = 0;
        let mut row = Row::new(vec![Value::Null; batch.arity()]);
        for i in start..start + n {
            batch.fill_row(i, &mut row);
            let out = if declared {
                udf.apply_fields(&row)?
            } else {
                udf.apply(&row)?
            };
            len += out.len();
            for row in out {
                for (col, value) in cols.iter_mut().zip(row.into_values()) {
                    col.push_value(value);
                }
            }
        }
        let cols = cols.into_iter().map(ColBuilder::finish).collect();
        Ok(ColBatch::from_columns(cols, len))
    })?;
    let parts = collect_ok(parts)?;
    Ok(if parts.is_empty() {
        ColBatch::empty(arity)
    } else {
        ColBatch::concat(parts)
    })
}

/// Morsel dispatch over index ranges of a batch: runs `f(morsel index,
/// start, len)` on the worker pool and returns per-morsel results in morsel
/// order.
///
/// The guard is checked once, serially, before the fan-out — the engine's
/// cancellation boundary. Checking here (never inside workers) keeps the
/// observed cancellation point, and thus the query's outcome, identical for
/// every `MISO_THREADS` value. A panicking morsel surfaces as
/// `MisoError::Execution` (see [`pool::run_batch`]).
fn par_ranges<R, F>(guard: &QueryGuard, len: usize, f: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize, usize) -> R + Sync,
{
    guard.check()?;
    let morsels = len.div_ceil(MORSEL_SIZE);
    profile::note_dispatch(morsels as u64, len as u64);
    pool::run_batch(morsels, |i| {
        let start = i * MORSEL_SIZE;
        f(i, start, MORSEL_SIZE.min(len - start))
    })
}

/// [`par_ranges`] over fixed-size chunks of a slice (log lines).
pub(crate) fn par_chunks<T, R, F>(guard: &QueryGuard, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_ranges(guard, items.len(), |i, start, n| {
        f(i, &items[start..start + n])
    })
}

/// Sequences per-morsel results, surfacing the error of the lowest-indexed
/// failing morsel — the same error a serial left-to-right pass would hit.
fn collect_ok<R>(parts: Vec<Result<R>>) -> Result<Vec<R>> {
    parts.into_iter().collect()
}

/// Concatenation in morsel order.
fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
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

    /// Charges the output's approximate bytes — [`ColBatch::row_bytes`], what
    /// its rows would sum to — to the guard on behalf of node `id` and
    /// returns them; fails with `ResourceExhausted` when the budget is blown.
    fn charge(&mut self, id: NodeId, output: &ColBatch) -> Result<Option<u64>> {
        if !self.guard.is_active() {
            return Ok(None);
        }
        let bytes = output.row_bytes();
        self.guard.try_charge(bytes)?;
        *self.charged.entry(id).or_insert(0) += bytes;
        Ok(Some(bytes))
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

fn prehashed_map<V>(capacity: usize) -> PrehashedMap<u64, V> {
    PrehashedMap::with_capacity_and_hasher(capacity, Default::default())
}

/// A join key, read to hash and to match rows: `hash` is `None` for a row
/// whose key holds a NULL (it joins nothing).
trait JoinKey: Sync {
    fn hash(&self, i: usize) -> Option<u64>;
    /// Whether row `i`'s key equals row `j`'s of `other`.
    fn eq(&self, i: usize, other: &Self, j: usize) -> bool;
}

/// The typed arm: one key column of a typed variant, on both sides, read on
/// its payload as the cell it stands for ([`Scalar::cell`]) — hashed as the
/// cell hashes, equal as cells are, so as `Value`s: NaN matches NaN, −0.0
/// matches 0.0.
struct PayloadKey<'a, P>(&'a P, &'a Nulls);

impl<P: Slots + Sync> JoinKey for PayloadKey<'_, P>
where
    P::Slot: Scalar,
{
    #[inline]
    fn hash(&self, i: usize) -> Option<u64> {
        (!self.1.is_null(i)).then(|| fnv1a_hash_one(&self.0.slot(i).cell()))
    }
    #[inline]
    fn eq(&self, i: usize, other: &Self, j: usize) -> bool {
        self.0.slot(i).cell() == other.0.slot(j).cell()
    }
}

/// The per-cell arm: the key columns `cols` of `batch`, hashed as `Value`s
/// hash, so Int and Float keys that compare equal meet.
struct CellKey<'a> {
    batch: &'a ColBatch,
    cols: Vec<usize>,
}

impl JoinKey for CellKey<'_> {
    fn hash(&self, i: usize) -> Option<u64> {
        if let [c] = self.cols[..] {
            let key = self.batch.cell(i, c);
            return (!key.is_null()).then(|| fnv1a_hash_one(&key));
        }
        let mut h = FnvHasher::default();
        for &c in &self.cols {
            let key = self.batch.cell(i, c);
            if key.is_null() {
                return None;
            }
            key.hash(&mut h);
        }
        Some(h.finish())
    }
    fn eq(&self, i: usize, other: &Self, j: usize) -> bool {
        let mut pairs = self.cols.iter().zip(&other.cols);
        pairs.all(|(&a, &b)| self.batch.cell(i, a) == other.batch.cell(j, b))
    }
}

/// Bytes the build side costs per right row: the prehashed key vector
/// (`Option<u64>`) plus a `u32` slot in the partitioned index, with map
/// overhead rounded up. A coarse model — the guard meters pressure, it is
/// not an allocator.
const JOIN_BUILD_BYTES_PER_ROW: u64 = 28;

/// Inner hash equijoin; NULL keys never match (SQL semantics).
///
/// Keys are hashed once per row to a `u64`; the build side is partitioned by
/// hash so partitions build in parallel, and probes run morsel-parallel over
/// the left side, emitting `(left, right)` index pairs in left-row ×
/// right-insertion order — exactly the serial interpreter's output order —
/// from which each side is gathered once. Hash collisions are disambiguated
/// by comparing the actual keys. One key column of the same typed variant on
/// both sides is hashed and compared on its payload ([`PayloadKey`]); any
/// other key, cell by cell ([`CellKey`]). The build-side hash table is
/// charged against the guard's memory budget for the duration of the join.
fn join(
    guard: &QueryGuard,
    left: &ColBatch,
    right: &ColBatch,
    on: &[(usize, usize)],
) -> Result<ColBatch> {
    assert!(
        left.len().max(right.len()) <= u32::MAX as usize,
        "join side exceeds u32 rows"
    );
    let _build = TempCharge::new(guard, right.len() as u64 * JOIN_BUILD_BYTES_PER_ROW)?;
    let sizes = (left.len(), right.len());
    let typed = match on {
        [(l, r)] => Some((left.col(*l), right.col(*r))),
        _ => None,
    };
    let (ls, rs) = match typed {
        Some((Column::Int(a, an), Column::Int(b, bn))) => {
            join_pairs(guard, &PayloadKey(a, an), &PayloadKey(b, bn), sizes)?
        }
        Some((Column::Float(a, an), Column::Float(b, bn))) => {
            join_pairs(guard, &PayloadKey(a, an), &PayloadKey(b, bn), sizes)?
        }
        Some((Column::Bool(a, an), Column::Bool(b, bn))) => {
            join_pairs(guard, &PayloadKey(a, an), &PayloadKey(b, bn), sizes)?
        }
        Some((Column::Str(a, an), Column::Str(b, bn))) => {
            join_pairs(guard, &PayloadKey(a, an), &PayloadKey(b, bn), sizes)?
        }
        _ => {
            let side = |batch, right: bool| CellKey {
                batch,
                cols: on.iter().map(|&(l, r)| if right { r } else { l }).collect(),
            };
            join_pairs(guard, &side(left, false), &side(right, true), sizes)?
        }
    };
    let mut columns = left.gather(&ls).into_columns();
    columns.extend(right.gather(&rs).into_columns());
    Ok(ColBatch::from_shared(columns, ls.len()))
}

/// The `(left, right)` row pairs whose keys match, in left-row ×
/// right-row order, for sides of `sizes` rows.
fn join_pairs<K: JoinKey>(
    guard: &QueryGuard,
    left: &K,
    right: &K,
    sizes: (usize, usize),
) -> Result<(Vec<u32>, Vec<u32>)> {
    let rhash: Vec<Option<u64>> = concat(par_ranges(guard, sizes.1, |_, start, n| {
        (start..start + n).map(|i| right.hash(i)).collect()
    })?);
    // Partitioned build: table layout is internal, so the partition count
    // may track the worker count without affecting any output.
    let partitions = pool::threads().next_power_of_two().min(64);
    let mask = (partitions - 1) as u64;
    let parts: Vec<BuildPart> = pool::run_batch(partitions, |p| {
        BuildPart::new(
            &rhash,
            |h| (h & mask) as usize == p,
            rhash.len() / partitions + 1,
        )
    })?;
    let pairs = par_ranges(guard, sizes.0, |_, start, n| {
        // Room for a match per left row, the common case of a key join.
        let (mut ls, mut rs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for li in start..start + n {
            let Some(h) = left.hash(li) else {
                continue;
            };
            for ri in parts[(h & mask) as usize].rows(h) {
                if left.eq(li, right, ri as usize) {
                    ls.push(li as u32);
                    rs.push(ri);
                }
            }
        }
        (ls, rs)
    })?;
    let (ls, rs): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    Ok((concat(ls), concat(rs)))
}

/// One partition of a join's build side: for each key hash, its right rows
/// as a chain through one entry vector — no allocation per key.
struct BuildPart {
    /// The first entry of each hash's chain.
    heads: PrehashedMap<u64, u32>,
    /// `(right row, next entry or NO_SLOT)`.
    entries: Vec<(u32, u32)>,
}

impl BuildPart {
    /// The rows whose hash `mine` claims. They are linked last to first, so
    /// a chain walked from its head meets them in row order.
    fn new(rhash: &[Option<u64>], mine: impl Fn(u64) -> bool, capacity: usize) -> BuildPart {
        let mut part = BuildPart {
            heads: prehashed_map(capacity),
            entries: Vec::with_capacity(capacity),
        };
        for (i, h) in rhash.iter().enumerate().rev() {
            if let Some(h) = h.filter(|&h| mine(h)) {
                let entry = part.entries.len() as u32;
                let next = part.heads.insert(h, entry).unwrap_or(NO_SLOT);
                part.entries.push((i as u32, next));
            }
        }
        part
    }

    /// The right rows of hash `h`, in row order.
    fn rows(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let mut entry = self.heads.get(&h).copied().unwrap_or(NO_SLOT);
        std::iter::from_fn(move || {
            let (row, next) = *self.entries.get(entry as usize)?;
            entry = next;
            Some(row)
        })
    }
}

/// Streaming accumulator per aggregate function.
#[derive(Clone)]
pub(crate) enum Acc {
    Count(i64),
    CountDistinct(HashSet<Value>),
    /// The exact total: `i64` inputs cannot overflow it, so every order of
    /// adding and merging agrees.
    SumInt(i128, bool),
    SumFloat(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        n: i64,
    },
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
                        *acc += i128::from(i);
                        *seen = true;
                    } else if let Some(f) = val.as_f64() {
                        // Mixed input: fall back via float path; keep integer
                        // accumulation best-effort.
                        *acc += i128::from(f as i64);
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
                    *acc += i128::from(i);
                    *seen = true;
                } else if let Some(f) = c.as_f64() {
                    *acc += i128::from(f as i64);
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
            // A total outside `i64` is NULL, as scalar `a + b` is.
            Acc::SumInt(acc, true) => i64::try_from(*acc).map_or(Value::Null, Value::Int),
            Acc::SumInt(_, false) => Value::Null,
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

/// How the serial interpreter types a `SUM` of `e`: from the first `Int` or
/// `Float` the expression yields over `batch`, in row order — `Some(true)`
/// float, `Some(false)` int, `None` when no row yields a number. The
/// expression's errors are static ([`col::eval_vec`]), so one that fails
/// fails on every row and decides nothing.
pub(crate) fn first_numeric_is_float(batch: &ColBatch, e: &Expr) -> Option<bool> {
    for start in (0..batch.len()).step_by(MORSEL_SIZE) {
        let n = MORSEL_SIZE.min(batch.len() - start);
        let values = col::eval_vec(e, batch, start, n, None).ok()?;
        for j in 0..n {
            match values.cell(j) {
                Cell::Float(_) => return Some(true),
                Cell::Int(_) => return Some(false),
                _ => {}
            }
        }
    }
    None
}

/// Decides int-vs-float `SUM` as the serial interpreter does
/// ([`first_numeric_is_float`]); no number at all sums as int.
fn float_sum_flags(batch: &ColBatch, aggs: &[AggExpr]) -> Vec<bool> {
    aggs.iter()
        .map(|agg| match (&agg.func, &agg.input) {
            (AggFunc::Sum, Some(e)) => first_numeric_is_float(batch, e) == Some(true),
            _ => false,
        })
        .collect()
}

/// Folds the rows `[start, start + n)` of `batch` into `table` and returns
/// each row's group slot. Each aggregate's input expression is evaluated over
/// the morsel first; then every row finds or creates its group
/// ([`group_slots`]), and then each input folds into the groups'
/// accumulators a column at a time ([`fold_input`]) — per accumulator in row
/// order, so the result is that of folding row by row. Key hashes stream the
/// cells as [`Value`]'s `Hash` does, so tables built from columns of any
/// variant — morsel partials, the incremental maintainer's — merge with one
/// another bit for bit.
pub(crate) fn fold_morsel(
    table: &mut GroupTable,
    batch: &ColBatch,
    (start, n): (usize, usize),
    group_by: &[usize],
    aggs: &[AggExpr],
    float_sum: &[bool],
) -> Result<Vec<u32>> {
    // `None` is `COUNT(*)`.
    let inputs = aggs
        .iter()
        .map(|agg| match &agg.input {
            Some(e) => col::eval_vec(e, batch, start, n, None).map(Some),
            None => Ok(None),
        })
        .collect::<Result<Vec<_>>>()?;
    let fresh = new_accs(aggs, float_sum);
    let slots = group_slots(table, batch, (start, n), group_by, &fresh);
    for (a, input) in inputs.iter().enumerate() {
        fold_input(&mut table.accs, aggs.len(), a, &slots, input.as_ref());
    }
    Ok(slots)
}

/// Each row's group slot, a group created — with `fresh` accumulators — the
/// first time its key is seen. A single key column is hashed as one cell;
/// several stream their cells into one hash.
fn group_slots(
    table: &mut GroupTable,
    batch: &ColBatch,
    (start, n): (usize, usize),
    group_by: &[usize],
    fresh: &[Acc],
) -> Vec<u32> {
    if let [g] = group_by {
        let col = batch.col(*g);
        return (start..start + n)
            .map(|i| {
                let key = col.cell(i);
                let hash = fnv1a_hash_one(&key);
                let slot = match table.find(hash, |k| key.eq_value(&k[0])) {
                    Some(slot) => slot,
                    None => table.insert(hash, [key.to_value()], fresh.iter().cloned()),
                };
                slot as u32
            })
            .collect();
    }
    (start..start + n)
        .map(|i| {
            let mut h = FnvHasher::default();
            for &g in group_by {
                batch.cell(i, g).hash(&mut h);
            }
            let hash = h.finish();
            let same = |key: &[Value]| {
                let mut pairs = group_by.iter().zip(key);
                pairs.all(|(&g, k)| batch.cell(i, g).eq_value(k))
            };
            let slot = match table.find(hash, same) {
                Some(slot) => slot,
                None => {
                    let key = group_by.iter().map(|&g| batch.cell(i, g).to_value());
                    table.insert(hash, key, fresh.iter().cloned())
                }
            };
            slot as u32
        })
        .collect()
}

/// Folds aggregate `a`'s input over a morsel into the accumulator of each
/// row's group (`accs` holds `width` per slot), a cell at a time; NULL folds
/// into nothing, and `None` is `COUNT(*)`.
fn fold_input(accs: &mut [Acc], width: usize, a: usize, slots: &[u32], input: Option<&VCol>) {
    for (j, &s) in slots.iter().enumerate() {
        let acc = &mut accs[s as usize * width + a];
        match input {
            Some(input) => acc.update_cell(&input.cell(j)),
            None => acc.update(None),
        }
    }
}

/// A new group's accumulators, one per aggregate.
fn new_accs(aggs: &[AggExpr], float_sum: &[bool]) -> Vec<Acc> {
    aggs.iter()
        .zip(float_sum)
        .map(|(a, &fs)| Acc::new(a.func, fs))
        .collect()
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
    guard: &QueryGuard,
    batch: &ColBatch,
    group_by: &[usize],
    aggs: &[AggExpr],
) -> Result<ColBatch> {
    let float_sum = float_sum_flags(batch, aggs);
    let parts = par_ranges(guard, batch.len(), |_, start, n| {
        let mut table = GroupTable::new(group_by.len(), aggs.len(), n.min(1024));
        fold_morsel(&mut table, batch, (start, n), group_by, aggs, &float_sum)?;
        Ok(table)
    })?;
    let parts = collect_ok(parts)?;
    let slot_count: usize = parts.iter().map(GroupTable::len).sum();
    let _accs = TempCharge::new(
        guard,
        slot_count as u64 * (AGG_SLOT_BYTES + aggs.len() as u64 * AGG_ACC_BYTES),
    )?;
    let mut global = GroupTable::new(group_by.len(), aggs.len(), slot_count);
    for part in parts {
        global.absorb(part);
    }
    if group_by.is_empty() && batch.is_empty() {
        // Global aggregate over empty input still yields one row.
        global.insert(key_hash(&[]), [], new_accs(aggs, &float_sum));
    }
    let groups = global.len();
    Ok(ColBatch::from_columns(global.into_columns(), groups))
}

/// The hash a group key's cells stream to (FNV-1a over `Value`'s `Hash`):
/// what [`group_slots`] computes from the columns it reads.
pub(crate) fn key_hash(key: &[Value]) -> u64 {
    let mut h = FnvHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// No slot: the end of a collision chain.
const NO_SLOT: u32 = u32::MAX;

/// Group slots in first-seen order, stored flat: slot `s` owns `hashes[s]`,
/// the key values `keys[s * arity..][..arity]` and the accumulators
/// `accs[s * width..][..width]`. A bucket array over the hashes heads a `u32`
/// collision chain through the slots, so a lookup compares hashes before
/// keys, and a new group whose key is a scalar allocates nothing of its own.
pub(crate) struct GroupTable {
    arity: usize,
    width: usize,
    hashes: Vec<u64>,
    keys: Vec<Value>,
    accs: Vec<Acc>,
    /// The next slot of the same bucket, or [`NO_SLOT`].
    chain: Vec<u32>,
    /// The latest slot of each bucket, or [`NO_SLOT`]; a power of two long,
    /// and at least as long as there are slots.
    buckets: Vec<u32>,
}

impl GroupTable {
    /// A table for keys of `arity` values and `width` accumulators, sized for
    /// `capacity` groups.
    pub(crate) fn new(arity: usize, width: usize, capacity: usize) -> GroupTable {
        GroupTable {
            arity,
            width,
            hashes: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity * arity),
            accs: Vec::with_capacity(capacity * width),
            chain: Vec::with_capacity(capacity),
            buckets: vec![NO_SLOT; capacity.max(8).next_power_of_two()],
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    pub(crate) fn hash(&self, slot: usize) -> u64 {
        self.hashes[slot]
    }

    pub(crate) fn key(&self, slot: usize) -> &[Value] {
        &self.keys[slot * self.arity..][..self.arity]
    }

    pub(crate) fn accs(&self, slot: usize) -> &[Acc] {
        &self.accs[slot * self.width..][..self.width]
    }

    /// Replaces aggregate `a`'s accumulator in every group with `acc`.
    pub(crate) fn reset_acc(&mut self, a: usize, acc: &Acc) {
        for s in 0..self.len() {
            self.accs[s * self.width + a] = acc.clone();
        }
    }

    fn bucket(&self, hash: u64) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// Finds the slot whose key satisfies `eq`, if any.
    pub(crate) fn find(&self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> Option<usize> {
        let mut slot = self.buckets[self.bucket(hash)];
        while slot != NO_SLOT {
            let s = slot as usize;
            if self.hashes[s] == hash && eq(self.key(s)) {
                return Some(s);
            }
            slot = self.chain[s];
        }
        None
    }

    /// Appends a group; returns its slot.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        key: impl IntoIterator<Item = Value>,
        accs: impl IntoIterator<Item = Acc>,
    ) -> usize {
        let slot = self.len();
        assert!(slot < NO_SLOT as usize, "group count exceeds u32 slots");
        if slot == self.buckets.len() {
            self.relink(2 * slot);
        }
        self.hashes.push(hash);
        self.keys.extend(key);
        self.accs.extend(accs);
        debug_assert_eq!(self.keys.len(), (slot + 1) * self.arity);
        debug_assert_eq!(self.accs.len(), (slot + 1) * self.width);
        let bucket = self.bucket(hash);
        self.chain.push(self.buckets[bucket]);
        self.buckets[bucket] = slot as u32;
        slot
    }

    /// Rebuilds the chains over `buckets` buckets.
    fn relink(&mut self, buckets: usize) {
        self.buckets = vec![NO_SLOT; buckets];
        for s in 0..self.len() {
            let bucket = self.bucket(self.hashes[s]);
            self.chain[s] = self.buckets[bucket];
            self.buckets[bucket] = s as u32;
        }
    }

    /// Merges `later` — the partial table of rows that come after every row
    /// folded in so far — into this table: a group both know merges its
    /// accumulators ([`Acc::merge`]), a new group is appended as it stands.
    pub(crate) fn absorb(&mut self, later: GroupTable) {
        let (arity, width) = (later.arity, later.width);
        let mut keys = later.keys;
        let mut accs = later.accs.into_iter();
        for (s, &hash) in later.hashes.iter().enumerate() {
            let key = &mut keys[s * arity..][..arity];
            let partial = accs.by_ref().take(width);
            match self.find(hash, |k| k == &*key) {
                Some(slot) => {
                    let mine = &mut self.accs[slot * width..][..width];
                    for (acc, partial) in mine.iter_mut().zip(partial) {
                        acc.merge(partial);
                    }
                }
                None => {
                    let key = key.iter_mut().map(|v| std::mem::replace(v, Value::Null));
                    self.insert(hash, key, partial);
                }
            }
        }
    }

    /// The output columns — each key column, then each aggregate's results —
    /// with the groups in slot order.
    pub(crate) fn into_columns(self) -> Vec<Column> {
        fn column<T>(
            items: &mut [T],
            stride: usize,
            at: usize,
            push: impl Fn(&mut ColBuilder, &mut T),
        ) -> Column {
            let mut b = ColBuilder::new();
            for item in items.iter_mut().skip(at).step_by(stride) {
                push(&mut b, item);
            }
            b.finish()
        }
        let (mut keys, mut accs) = (self.keys, self.accs);
        let take_key =
            |b: &mut ColBuilder, v: &mut Value| b.push_value(std::mem::replace(v, Value::Null));
        let finish = |b: &mut ColBuilder, acc: &mut Acc| {
            b.push_value(std::mem::replace(acc, Acc::Count(0)).finish())
        };
        let key_cols = (0..self.arity).map(|c| column(&mut keys, self.arity, c, take_key));
        let mut columns: Vec<Column> = key_cols.collect();
        columns.extend((0..self.width).map(|a| column(&mut accs, self.width, a, finish)));
        columns
    }
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

    fn batch_of(rows: &[Row]) -> ColBatch {
        ColBatch::from_rows(rows).unwrap()
    }

    #[test]
    fn join_matches_and_skips_nulls() {
        let left = batch_of(&[
            Row::new(vec![Value::Int(1), Value::str("a")]),
            Row::new(vec![Value::Int(2), Value::str("b")]),
            Row::new(vec![Value::Null, Value::str("n")]),
        ]);
        let right = batch_of(&[
            Row::new(vec![Value::Int(1), Value::str("x")]),
            Row::new(vec![Value::Int(1), Value::str("y")]),
            Row::new(vec![Value::Null, Value::str("z")]),
        ]);
        let out = join(QueryGuard::inert_ref(), &left, &right, &[(0, 0)]).unwrap();
        assert_eq!(out.len(), 2, "uid 1 matches twice; NULLs never join");
        assert_eq!(out.arity(), 4);
        let tags: Vec<Value> = out.to_rows().iter().map(|r| r.get(3).clone()).collect();
        assert_eq!(tags, [Value::str("x"), Value::str("y")], "build order");
    }

    #[test]
    fn join_multi_column_and_cross_type_keys() {
        // Int/Float keys that compare equal must join (hash consistency).
        let left = batch_of(&[
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Int(7)]),
            Row::new(vec![Value::Float(1.0), Value::str("a"), Value::Int(8)]),
            Row::new(vec![Value::Int(1), Value::str("b"), Value::Int(9)]),
        ]);
        let right = batch_of(&[Row::new(vec![Value::Int(1), Value::str("a")])]);
        let out = join(QueryGuard::inert_ref(), &left, &right, &[(0, 0), (1, 1)]).unwrap();
        let out = out.to_rows();
        assert_eq!(out.len(), 2, "both (1,a) variants match; (1,b) does not");
        assert_eq!(out[0].get(2), &Value::Int(7));
        assert_eq!(out[1].get(2), &Value::Int(8));
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
    /// several morsels, used by the retention and threading tests.
    fn filter_sort_limit_pipeline() -> (LogicalPlan, MemSource) {
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
        let (plan, src) = filter_sort_limit_pipeline();
        let udfs = UdfRegistry::new();
        let full = execute(&plan, &src, &udfs).unwrap();
        let run = run_keeping(&plan, &src, &UdfRegistry::new(), &[]);
        assert_eq!(run.root_rows().unwrap(), full.root_rows().unwrap());
        // Intermediates were released but their row counts survive.
        assert!(run.try_output(NodeId(0)).is_none());
        assert!(run.try_output(NodeId(1)).is_none());
        assert_eq!(run.rows_out(NodeId(0)), full.rows_out(NodeId(0)));
        assert_eq!(run.rows_out(NodeId(1)), full.rows_out(NodeId(1)));
        assert_eq!(run.executed_nodes().count(), full.executed_nodes().count());
        // Full retention keeps everything observable (harvest contract).
        assert!(full.try_output(NodeId(0)).is_some());
    }

    #[test]
    fn retained_output_errors_on_a_released_node() {
        let (plan, src) = filter_sort_limit_pipeline();
        let run = run_keeping(&plan, &src, &UdfRegistry::new(), &[]);
        assert_eq!(
            run.retained_output(plan.root()).unwrap().as_slice(),
            run.root_rows().unwrap()
        );
        let err = run.retained_output(NodeId(1)).unwrap_err();
        assert!(matches!(err, MisoError::Execution(_)), "{err:?}");
        assert!(err.to_string().contains("node n1"), "{err}");
        assert!(err.to_string().contains("output not retained"), "{err}");
    }

    #[test]
    fn outputs_are_thread_count_invariant() {
        let (plan, src) = filter_sort_limit_pipeline();
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

    /// The whole plan keeping only `keep` and the root.
    fn run_keeping(
        plan: &LogicalPlan,
        src: &MemSource,
        udfs: &UdfRegistry,
        keep: &[NodeId],
    ) -> Execution {
        execute_subset_guarded(
            plan,
            None,
            HashMap::new(),
            src,
            udfs,
            Retention::Only(keep),
            QueryGuard::inert_ref(),
        )
        .unwrap()
    }

    /// Every subset of the plan's nodes when it has at most five, else
    /// none of them and each alone.
    fn keep_sets(plan: &LogicalPlan) -> Vec<Vec<NodeId>> {
        let ids: Vec<NodeId> = plan.nodes().iter().map(|n| n.id).collect();
        if ids.len() > 5 {
            return std::iter::once(Vec::new())
                .chain(ids.iter().map(|&id| vec![id]))
                .collect();
        }
        (0u32..1 << ids.len())
            .map(|mask| {
                let picked = ids.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0);
                picked.map(|(_, &id)| id).collect()
            })
            .collect()
    }

    /// The engine is the serial interpreter, node by node: at 1, 2 and 8
    /// threads, keeping everything and keeping each of [`keep_sets`], every
    /// output a run still holds, every row count and the skip count are the
    /// oracle's — and a run holds at least what it was asked to keep.
    fn assert_engine_is_serial(plan: &LogicalPlan, src: &MemSource, udfs: &UdfRegistry) {
        let serial = crate::serial::execute_serial(plan, src, udfs).unwrap();
        let check = |run: &Execution, keep: &[NodeId], what: &str| {
            assert_eq!(run.skipped_lines, serial.skipped_lines, "{what}");
            for node in plan.nodes() {
                let id = node.id;
                assert_eq!(run.rows_out(id), serial.rows_out(id), "{what}: node {id}");
                if keep.contains(&id) || id == plan.root() {
                    assert!(run.try_output(id).is_some(), "{what}: node {id} kept");
                }
                if let Some(rows) = run.try_output(id) {
                    assert_eq!(rows, serial.output(id), "{what}: node {id}");
                }
            }
        };
        let all: Vec<NodeId> = plan.nodes().iter().map(|n| n.id).collect();
        let before = pool::threads();
        for t in [1, 2, 8] {
            pool::set_threads(t);
            let run = execute(plan, src, udfs).unwrap();
            check(&run, &all, &format!("keep-all, {t} threads"));
            for keep in keep_sets(plan) {
                let run = run_keeping(plan, src, udfs, &keep);
                check(&run, &keep, &format!("keep {keep:?}, {t} threads"));
            }
        }
        pool::set_threads(before);
    }

    /// A multi-morsel log pipeline: scan (fused into its projection when
    /// neither is kept) → project → filter → grouped aggregation. Line `i`
    /// is in city `CITIES[i % 7]`; most of those are not ASCII.
    fn log_pipeline() -> (LogicalPlan, MemSource) {
        const CITIES: [&str; 7] = ["c0", "Zürich", "東京", "c3", "São Paulo", "🦀ville", ""];
        let mut src = MemSource::new();
        let lines: Vec<String> = (0..9_000)
            .map(|i| {
                let city = CITIES[i % 7];
                if i % 97 == 13 {
                    "oops not json".to_string()
                } else if i % 53 == 0 {
                    // Missing score: NULL after projection.
                    format!(r#"{{"uid": {}, "city": "{city}"}}"#, i % 50)
                } else {
                    format!(
                        r#"{{"uid": {}, "city": "{city}", "score": {}}}"#,
                        i % 50,
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
    fn log_pipeline_is_serial_under_every_keep_set() {
        let (plan, src) = log_pipeline();
        assert_engine_is_serial(&plan, &src, &UdfRegistry::new());
    }

    fn view_scan(b: &mut PlanBuilder, view: &str, fields: Vec<Field>) -> NodeId {
        let op = Operator::ScanView {
            view: view.into(),
            schema: Schema::new(fields),
        };
        b.add(op, vec![]).unwrap()
    }

    /// Two view scans → join → aggregate: the join's output is gathered
    /// from the two views' batches and the aggregate groups by a string
    /// that came from the build side.
    #[test]
    fn join_pipeline_is_serial_under_every_keep_set() {
        let mut src = MemSource::new();
        src.add_view(
            "facts",
            (0..5_000)
                .map(|i| {
                    let key = if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 400)
                    };
                    Row::new(vec![key, Value::Int(i)])
                })
                .collect(),
        );
        src.add_view(
            "dims",
            (0..420)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i % 410),
                        Value::str(format!("seg-{}", i % 13)),
                    ])
                })
                .collect(),
        );
        let int = |name| Field::new(name, DataType::Int);
        let mut b = PlanBuilder::new();
        let facts = view_scan(&mut b, "facts", vec![int("k"), int("v")]);
        let dims = view_scan(
            &mut b,
            "dims",
            vec![int("k"), Field::new("seg", DataType::Str)],
        );
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
        assert_engine_is_serial(&plan, &src, &UdfRegistry::new());
    }

    /// The production DW shape: a working set shipped from HV arrives as a
    /// *provided* seed (not a view scan); the operators above it read it as
    /// they would the scan, and a kept seed leaves as it came.
    #[test]
    fn a_provided_seed_is_read_like_the_scan_it_replaces() {
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
        let scan = view_scan(
            &mut b,
            "ws",
            vec![
                Field::new("city", DataType::Str),
                Field::new("n", DataType::Int),
                Field::new("score", DataType::Float),
            ],
        );
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
        // The float sums span morsels: the whole-plan run is the reference.
        let full = execute(&plan, &src, &udfs).unwrap();
        // Ship the scan's output as a provided seed, DW-style: the consumer
        // subset never sees the view, only the pre-staged batch.
        let seed = full.batch(scan).unwrap().clone();
        let dw_set: HashSet<NodeId> = [filter, proj, agg].into_iter().collect();
        for keep in [vec![], vec![scan]] {
            let dw = execute_subset_guarded(
                &plan,
                Some(&dw_set),
                [(scan, seed.clone())].into_iter().collect(),
                &src,
                &udfs,
                Retention::Only(&keep),
                QueryGuard::inert_ref(),
            )
            .unwrap();
            assert_eq!(dw.root_rows().unwrap(), full.root_rows().unwrap());
            assert_eq!(dw.rows_out(scan), full.rows_out(scan));
            match dw.batch(scan) {
                Some(held) => assert!(Arc::ptr_eq(held, &seed), "the seed itself"),
                None => assert!(keep.is_empty(), "a kept seed is held"),
            }
        }
    }

    /// One plan through every operator body, each shape it takes: a kept
    /// scan (which may not fuse) read twice, `FieldGet` filters and a
    /// builtin projection over its records, an aggregate over an
    /// expression, a UDF that declares no fields and one that declares
    /// them (fused), joins, sort → limit. Two cities pass the filters, one
    /// of them not ASCII, so string join keys, group keys, sort keys and
    /// `contains` all read multi-byte text.
    #[test]
    fn every_operator_body_is_serial() {
        let (_, src) = log_pipeline();
        let mut udfs = UdfRegistry::new();
        let city = Schema::new(vec![Field::new("city", DataType::Str)]);
        let upper_city = |city: Option<&str>| {
            Ok(vec![Row::new(vec![Value::str(
                city.unwrap_or_default().to_uppercase(),
            )])])
        };
        udfs.register(Udf::new(
            "city_of",
            city.clone(),
            Arc::new(move |row: &Row| {
                upper_city(row.get(0).get_field("city").and_then(Value::as_str))
            }),
        ));
        udfs.register(
            Udf::new(
                "city_field",
                city.clone(),
                Arc::new(move |row: &Row| upper_city(row.get(0).as_str())),
            )
            .reading(&["city"]),
        );
        let city_of = || Expr::col(0).get("city").cast(DataType::Str);
        let by_city = Expr::Binary {
            op: miso_plan::BinOp::Or,
            left: Box::new(city_of().eq(Expr::lit("c3"))),
            right: Box::new(Expr::Func {
                name: "contains".into(),
                args: vec![city_of(), Expr::lit("京")],
            }),
        };
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
        let udf = |name: &str| Operator::Udf {
            name: name.into(),
            output: city.clone(),
        };
        let kept_scan = add(scan_log(), vec![]);
        let filtered = add(filter(by_city.clone()), vec![kept_scan]);
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
            vec![filtered],
        );
        let agg = add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(plus_one), "s")],
            },
            vec![proj],
        );
        let free_scan = add(scan_log(), vec![]);
        let refiltered = add(filter(by_city), vec![free_scan]);
        let undeclared = add(udf("city_of"), vec![refiltered]);
        let join = add(Operator::Join { on: vec![(0, 0)] }, vec![undeclared, agg]);
        let fused_scan = add(scan_log(), vec![]);
        let declared = add(udf("city_field"), vec![fused_scan]);
        let place = add(
            Operator::Project {
                exprs: vec![("place".into(), Expr::col(0))],
            },
            vec![declared],
        );
        // Lines 2, 3, 9 and 10 are the four of the first twelve in the two
        // cities.
        let few = add(Operator::Limit { n: 12 }, vec![place]);
        let both = add(Operator::Join { on: vec![(0, 0)] }, vec![join, few]);
        let keys = vec![(2, true), (0, false)];
        let sort = add(Operator::Sort { keys }, vec![both]);
        let limit = add(Operator::Limit { n: 50 }, vec![sort]);
        let plan = b.finish(limit).unwrap();
        assert_engine_is_serial(&plan, &src, &udfs);

        let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
        assert_eq!(serial.root_rows().unwrap().len(), 50);
        // What was not kept went with its last consumer.
        let run = run_keeping(&plan, &src, &udfs, &[kept_scan, proj]);
        for id in [free_scan, fused_scan, undeclared, sort] {
            assert!(run.try_output(id).is_none(), "node {id}");
        }
    }

    /// The UDF operator refills one input row per morsel. An echoing UDF
    /// still sees each row as the serial interpreter builds it, over three
    /// morsels of strings that grow and shrink from row to row with NULLs
    /// between them, beside a `Mixed` column whose type changes every row:
    /// reading a view's columns, a log's records, and a log's declared
    /// fields (fused, or from the records of a kept scan).
    #[test]
    fn a_refilled_udf_row_is_the_row_serial_builds() {
        let text = |i: usize| match i % 4 {
            0 => Value::Null,
            1 => Value::str("漢é".repeat(i % 29)),
            2 => Value::str(""),
            _ => Value::str(format!("{i}🦀")),
        };
        let mixed = |i: usize| match i % 5 {
            0 => Value::Int(i as i64),
            1 => Value::str(format!("m{i}")),
            2 => Value::Null,
            3 => Value::Array(vec![Value::str("ü"), Value::Int(3)]),
            _ => Value::Float(i as f64 / 2.0),
        };
        let n = 2 * MORSEL_SIZE + 123;
        let rows: Vec<Row> = (0..n).map(|i| Row::new(vec![text(i), mixed(i)])).collect();
        let lines = rows.iter().map(|r| {
            let fields = vec![
                ("s".into(), r.get(0).clone()),
                ("m".into(), r.get(1).clone()),
            ];
            miso_data::json::to_json(&Value::object(fields))
        });
        let mut src = MemSource::new();
        src.add_log("l", lines.collect());
        src.add_view("v", rows.clone());
        let view = src.view_batch("v").unwrap();
        assert!(matches!(view.col(0), Column::Str(..)));
        assert!(matches!(view.col(1), Column::Mixed(..)));

        let json = |name| Field::new(name, DataType::Json);
        let out = Schema::new(vec![json("s"), json("m")]);
        let record = Schema::new(vec![json("record")]);
        let echo: crate::udf::UdfFn = Arc::new(|row: &Row| Ok(vec![row.clone()]));
        let mut udfs = UdfRegistry::new();
        udfs.register(Udf::new("echo", out.clone(), echo.clone()));
        udfs.register(Udf::new("echo_record", record.clone(), echo.clone()));
        udfs.register(Udf::new("echo_fields", out.clone(), echo).reading(&["s", "m"]));
        let scan_log = Operator::ScanLog { log: "l".into() };
        let scan_view = Operator::ScanView {
            view: "v".into(),
            schema: out.clone(),
        };
        for (scan, name, output) in [
            (scan_view, "echo", &out),
            (scan_log.clone(), "echo_record", &record),
            (scan_log, "echo_fields", &out),
        ] {
            let mut b = PlanBuilder::new();
            let leaf = b.add(scan, vec![]).unwrap();
            let op = Operator::Udf {
                name: name.into(),
                output: output.clone(),
            };
            let udf = b.add(op, vec![leaf]).unwrap();
            let plan = b.finish(udf).unwrap();
            assert_engine_is_serial(&plan, &src, &udfs);
            if name == "echo_fields" {
                let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
                assert_eq!(serial.root_rows().unwrap(), rows, "the echo");
            }
        }
    }

    /// A kept view scan — and a plan that is nothing but one — hands out
    /// the source's own batch: no copy, no pivot. Rows are built from it
    /// only for a caller that asks for them.
    #[test]
    fn a_kept_view_scan_hands_out_the_sources_rows() {
        let (plan, src) = filter_sort_limit_pipeline();
        let scan = NodeId(0);
        let theirs = src.view_batch("big").unwrap();
        let all = execute(&plan, &src, &UdfRegistry::new()).unwrap();
        assert!(Arc::ptr_eq(all.batch(scan).unwrap(), &theirs));
        let kept = run_keeping(&plan, &src, &UdfRegistry::new(), &[scan]);
        assert!(Arc::ptr_eq(kept.batch(scan).unwrap(), &theirs));
        let mut b = PlanBuilder::new();
        let int = |name| Field::new(name, DataType::Int);
        let only = view_scan(&mut b, "big", vec![int("id"), int("x")]);
        let scan_plan = b.finish(only).unwrap();
        let root = run_keeping(&scan_plan, &src, &UdfRegistry::new(), &[]);
        assert!(Arc::ptr_eq(root.root_batch().unwrap(), &theirs));
        assert_eq!(root.root_rows().unwrap(), theirs.to_rows());
        assert!(
            Arc::ptr_eq(root.output(only), root.output(only)),
            "pivoted once"
        );
    }

    /// Rows of differing arity have no batch. No plan produces them; they
    /// can only be handed over by hand, as a view or a `provided` seed, and
    /// are refused there — before anything runs — with a store error that
    /// names the view or the node. (The stores refuse them at `install_view`
    /// / `load_view`, naming the view: see their tests.)
    #[test]
    fn ragged_rows_fail_at_the_boundary_naming_the_node() {
        let ragged: Vec<Row> = (0..70i64)
            .map(|i| {
                let mut vals = vec![Value::Int(i), Value::str(format!("c{}", i % 7))];
                if i % 10 == 0 {
                    vals.push(Value::Bool(true));
                }
                Row::new(vals)
            })
            .collect();
        let mut src = MemSource::new();
        src.add_view("ragged", ragged.clone());
        let mut b = PlanBuilder::new();
        let fields = vec![
            Field::new("i", DataType::Int),
            Field::new("city", DataType::Str),
        ];
        let scan = view_scan(&mut b, "ragged", fields);
        let top = b.add(Operator::Limit { n: 5 }, vec![scan]).unwrap();
        let plan = b.finish(top).unwrap();
        let udfs = UdfRegistry::new();
        let as_view = execute(&plan, &src, &udfs).unwrap_err();
        assert!(as_view.to_string().contains("view `ragged`"), "{as_view}");
        // The reference interpreter reads the same stored form.
        let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap_err();
        assert_eq!(serial.to_string(), as_view.to_string());
        let seed = [(scan, Arc::new(ragged))].into_iter().collect();
        let above: HashSet<NodeId> = [top].into_iter().collect();
        let as_seed = execute_subset(&plan, Some(&above), seed, &src, &udfs).unwrap_err();
        assert!(
            as_seed.to_string().contains(&format!("node {scan}")),
            "{as_seed}"
        );
        for err in [as_view, as_seed] {
            assert!(matches!(err, MisoError::Store(_)), "{err:?}");
            assert!(err.to_string().contains("differing arity"), "{err}");
        }
    }

    /// Aggregates over nothing — an empty view, an empty filtered input, an
    /// empty `provided` seed, an empty UDF output — grouped (no rows) and
    /// global (one row), over bare columns and over an expression.
    #[test]
    fn aggregates_over_empty_inputs_are_serial() {
        let mut src = MemSource::new();
        src.add_batch("none", ColBatch::empty(2));
        src.add_view(
            "some",
            (0..10)
                .map(|i| Row::new(vec![Value::str("k"), Value::Int(i)]))
                .collect(),
        );
        let mut udfs = UdfRegistry::new();
        let kv = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ]);
        udfs.register(Udf::new(
            "nothing",
            kv.clone(),
            Arc::new(|_| Ok(Vec::new())),
        ));
        let never = Expr::Binary {
            op: miso_plan::BinOp::Lt,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::lit(0i64)),
        };
        let doubled = Expr::Binary {
            op: miso_plan::BinOp::Mul,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::lit(2i64)),
        };
        for group_by in [vec![0], vec![]] {
            for view in ["none", "some"] {
                let mut b = PlanBuilder::new();
                let scan = view_scan(&mut b, view, kv.fields().to_vec());
                let filt = b
                    .add(
                        Operator::Filter {
                            predicate: never.clone(),
                        },
                        vec![scan],
                    )
                    .unwrap();
                let udf = b
                    .add(
                        Operator::Udf {
                            name: "nothing".into(),
                            output: kv.clone(),
                        },
                        vec![scan],
                    )
                    .unwrap();
                let mut agg = |input| {
                    let op = Operator::Aggregate {
                        group_by: group_by.clone(),
                        aggs: vec![
                            AggExpr::new(AggFunc::Count, None, "n"),
                            AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s"),
                            AggExpr::new(AggFunc::Max, Some(doubled.clone()), "m"),
                        ],
                    };
                    b.add(op, vec![input]).unwrap()
                };
                let (over_filter, over_udf) = (agg(filt), agg(udf));
                let both = b
                    .add(
                        Operator::Join { on: vec![(0, 0)] },
                        vec![over_filter, over_udf],
                    )
                    .unwrap();
                let plan = b.finish(both).unwrap();
                assert_engine_is_serial(&plan, &src, &udfs);
                // The same aggregates over an empty seed in the scan's place.
                let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
                let above: HashSet<NodeId> = plan.nodes()[1..].iter().map(|n| n.id).collect();
                let seed = [(scan, Arc::new(Vec::new()))].into_iter().collect();
                let run = execute_subset(&plan, Some(&above), seed, &src, &udfs).unwrap();
                assert_eq!(run.root_rows().unwrap(), serial.root_rows().unwrap());
                assert_eq!(run.output(over_filter), serial.output(over_filter));
            }
        }
    }

    /// An integer `SUM` whose total leaves `i64` is NULL — as scalar `a + b`
    /// is — from the serial interpreter and from the engine at any thread
    /// count, whichever morsel the overflow happens in or between; one that
    /// overflows on the way and comes back is exact.
    #[test]
    fn integer_sum_overflow_is_null_everywhere() {
        let mut src = MemSource::new();
        let mut rows: Vec<Row> = (0..2 * MORSEL_SIZE as i64)
            .map(|i| Row::new(vec![Value::str("back"), Value::Int(i % 3 - 1)]))
            .collect();
        rows[1] = Row::new(vec![Value::str("back"), Value::Int(i64::MAX)]);
        rows[2] = Row::new(vec![Value::str("back"), Value::Int(i64::MAX)]);
        rows[MORSEL_SIZE + 5] = Row::new(vec![Value::str("back"), Value::Int(-i64::MAX)]);
        rows.push(Row::new(vec![Value::str("over"), Value::Int(i64::MAX)]));
        rows.push(Row::new(vec![Value::str("over"), Value::Int(1)]));
        rows.push(Row::new(vec![Value::str("under"), Value::Int(i64::MIN)]));
        rows.push(Row::new(vec![Value::str("under"), Value::Int(-1)]));
        let back: i128 = rows[..2 * MORSEL_SIZE]
            .iter()
            .map(|r| i128::from(r.get(1).as_i64().unwrap()))
            .sum();
        src.add_view("v", rows);
        let mut b = PlanBuilder::new();
        let scan = view_scan(
            &mut b,
            "v",
            vec![
                Field::new("k", DataType::Str),
                Field::new("v", DataType::Int),
            ],
        );
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s")],
                },
                vec![scan],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let udfs = UdfRegistry::new();
        let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
        let sums: Vec<&Value> = serial
            .root_rows()
            .unwrap()
            .iter()
            .map(|r| r.get(1))
            .collect();
        let back = Value::Int(i64::try_from(back).expect("comes back into range"));
        assert_eq!(sums, [&back, &Value::Null, &Value::Null]);
        assert_engine_is_serial(&plan, &src, &udfs);
    }

    /// Group keys that are equal without being identical — NaN and −NaN,
    /// −0.0 and +0.0, and beside them Int 0 in a `Mixed` column — and NULL
    /// keys group as the serial interpreter groups them, bit for bit: a
    /// group's key is its first-seen one, and `MIN` / `MAX` keep the first of
    /// tied values, across morsels whose first-seen variants differ, read
    /// on a `Float` column's payload, cell by cell from a `Mixed` one, and
    /// over two key columns, at 1, 2 and 8 threads.
    #[test]
    fn nan_signed_zero_and_null_group_keys_are_serial_bit_for_bit() {
        let f = Value::Float;
        let keys = [
            f(-0.0),
            f(f64::NAN),
            Value::Null,
            f(0.0),
            f(-f64::NAN),
            f(1.5),
        ];
        let values = [f(0.0), f(-0.0), f(-f64::NAN), Value::Null, f(f64::NAN)];
        let rows: Vec<Row> = (0..3 * MORSEL_SIZE + 17)
            .map(|i| {
                // Each morsel meets the keys in another order.
                let key = keys[(i * 7 + i / MORSEL_SIZE) % keys.len()].clone();
                let mixed = if i % 5 == 0 {
                    Value::Int(0)
                } else {
                    key.clone()
                };
                let value = values[(i * 3 + i / 100) % values.len()].clone();
                Row::new(vec![key, mixed, value])
            })
            .collect();
        let mut src = MemSource::new();
        src.add_view("v", rows);
        assert!(matches!(
            src.view_batch("v").unwrap().col(0),
            Column::Float(..)
        ));
        assert!(matches!(
            src.view_batch("v").unwrap().col(1),
            Column::Mixed(..)
        ));
        let udfs = UdfRegistry::new();
        for group_by in [vec![0], vec![1], vec![0, 1]] {
            let mut b = PlanBuilder::new();
            let float = |name| Field::new(name, DataType::Float);
            let scan = view_scan(&mut b, "v", vec![float("k"), float("m"), float("v")]);
            let aggs = vec![
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Min, Some(Expr::col(2)), "lo"),
                AggExpr::new(AggFunc::Max, Some(Expr::col(2)), "hi"),
                AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(2)), "d"),
            ];
            let agg = Operator::Aggregate {
                group_by: group_by.clone(),
                aggs,
            };
            let agg = b.add(agg, vec![scan]).unwrap();
            let plan = b.finish(agg).unwrap();
            assert_engine_is_serial(&plan, &src, &udfs);
            let serial = crate::serial::execute_serial(&plan, &src, &udfs).unwrap();
            let bits = crate::ivm::tests::bits;
            let want = bits(serial.root_rows().unwrap());
            let before = pool::threads();
            for t in [1, 2, 8] {
                pool::set_threads(t);
                let run = execute(&plan, &src, &udfs).unwrap();
                assert_eq!(
                    bits(run.root_rows().unwrap()),
                    want,
                    "{group_by:?}, {t} threads"
                );
            }
            pool::set_threads(before);
        }
    }
}
