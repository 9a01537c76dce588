//! Compute-once sub-plan outputs for a batch of runs (miso-share).
//!
//! Analytic queries over the same logs repeat each other's sub-plans, and so
//! do the delta plans of views one query harvested. A [`SubplanMemo`] lets
//! the runs of one batch — a serving wave's base runs, a growth batch's
//! view folds — compute each repeated sub-plan once: it maps a node's
//! [`MemoKey`] to a compute-once cell, and the engine's driver loop
//! ([`crate::execute_subset_guarded`]) runs the operator body of a keyed node
//! inside its cell the first time and *replays* the cell every later time.
//!
//! A replay is charged as if the node had run: the reader takes the batch and
//! the node's deterministic [`OpProfile`], charges its guard the bytes the
//! output charged, and makes a transient charge of the scratch high-water the
//! body reached. The reader's own release order is its own, so its guard's
//! peak, its stage costs, cuts, bytes and harvest all equal an unshared
//! run's. The runs sharing one memo must therefore agree on whether they are
//! guarded (the wave meters every run, a growth batch none).
//!
//! A key is a node's subtree fingerprint plus what its run decides about it
//! from outside the subtree: the store whose source the leaves read, whether
//! the node reads a fused log scan, and how each input came to be — computed
//! here, shipped in as a seed, or read from a view. A view scan fingerprints
//! as its view's defining expression, so without the last part a node over a
//! view and the same node over the computed subtree would share a cell.
//! Leaves are never keyed: a fused scan reads the source's own columns and a
//! view scan shares the view's batch, so there is nothing to share.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use miso_common::ids::NodeId;
use miso_common::prehash::{fnv1a_str, fnv1a_words};
use miso_data::ColBatch;
use miso_plan::{LogicalPlan, Operator};

use crate::engine::{fused_scan, Retention};
use crate::{OpProfile, UdfRegistry};

/// A node's memo key: see the module doc for what it covers.
pub type MemoKey = u64;

/// Provenance tags of a node's input, mixed into its consumer's key.
const LOG: u64 = 1;
const VIEW: u64 = 2;
const SEED: u64 = 3;

/// The memo key of every node a run executes, by node index; `None` for
/// leaves and for nodes the run does not execute. `subset`, `seeds` and
/// `retain` are the run's own ([`crate::execute_subset_guarded`]'s
/// `subset`, `provided` ids and `retain`); `store` names the source the run
/// reads ([`crate::DataSource::store_name`]). The driver computes a run's
/// keys with this function, and a batch that plans a memo calls it with the
/// same arguments, so the two cannot disagree.
pub fn node_keys(
    plan: &LogicalPlan,
    subset: Option<&HashSet<NodeId>>,
    seeds: &HashSet<NodeId>,
    retain: Retention<'_>,
    udfs: &UdfRegistry,
    store: &str,
) -> Vec<Option<MemoKey>> {
    let executes = |id: NodeId| subset.is_none_or(|s| s.contains(&id)) && !seeds.contains(&id);
    let fps = plan.fingerprints();
    let store = fnv1a_str(store);
    // How each node's output comes to be: its key, or a leaf's tag.
    let mut origin = vec![0u64; plan.len()];
    let mut keys = vec![None; plan.len()];
    for node in plan.nodes() {
        let i = node.id.raw() as usize;
        let fp = fps[i].0;
        if seeds.contains(&node.id) {
            origin[i] = fnv1a_words([SEED, fp]);
            continue;
        }
        if !executes(node.id) {
            continue;
        }
        let leaf = match node.op {
            Operator::ScanLog { .. } => Some(LOG),
            Operator::ScanView { .. } => Some(VIEW),
            _ => None,
        };
        if let Some(tag) = leaf {
            origin[i] = fnv1a_words([tag, fp]);
            continue;
        }
        let reads_fused = fused_scan(plan, node.inputs[0], executes, retain, udfs).is_some();
        let inputs = node.inputs.iter().map(|j| origin[j.raw() as usize]);
        let key = fnv1a_words([fp, store, reads_fused as u64].into_iter().chain(inputs));
        origin[i] = key;
        keys[i] = Some(key);
    }
    keys
}

/// Compute-once cells for the sub-plans a batch of runs repeats. `Sync`:
/// the runs of a pool batch share one memo, and a run that reaches a cell
/// another run is filling waits for it (a body never waits on a cell, so
/// the waits cannot form a cycle).
#[derive(Debug)]
pub struct SubplanMemo {
    cells: HashMap<MemoKey, Mutex<Slot>>,
    hits: AtomicU64,
}

/// One cell: the planned reads not yet made and, between the first and the
/// last of them, what the first left.
#[derive(Debug)]
pub(crate) struct Slot {
    left: usize,
    record: Option<Record>,
}

/// What running a keyed node left for its later readers.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    /// The node's output.
    pub(crate) batch: Arc<ColBatch>,
    /// Its record, `bytes_out` the ledger charge its output made.
    pub(crate) profile: OpProfile,
    /// The high-water of its body's scratch charges over the charge at its
    /// start.
    pub(crate) scratch: u64,
}

impl SubplanMemo {
    /// A memo for the runs whose keys `planned` lists, every key once per
    /// run that will execute it: a key listed twice or more gets a cell,
    /// which keeps its output until its last planned reader has read it.
    pub fn planned(planned: impl IntoIterator<Item = MemoKey>) -> SubplanMemo {
        let mut counts: HashMap<MemoKey, usize> = HashMap::new();
        for key in planned {
            *counts.entry(key).or_insert(0) += 1;
        }
        let cell = |(key, left)| (key, Mutex::new(Slot { left, record: None }));
        SubplanMemo {
            cells: counts
                .into_iter()
                .filter(|&(_, n)| n > 1)
                .map(cell)
                .collect(),
            hits: AtomicU64::new(0),
        }
    }

    /// How many keys have a cell.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether `key` has a cell: more than one run will execute it.
    pub fn shares(&self, key: MemoKey) -> bool {
        self.cells.contains_key(&key)
    }

    /// How many times a run replayed a cell instead of running its node.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The cell of `key`, locked, if it has one. A run that panicked in a
    /// body left the cell as a read without a record, which the next
    /// reader takes for a cell to fill: every step leaves a slot valid.
    pub(crate) fn cell(&self, key: MemoKey) -> Option<MutexGuard<'_, Slot>> {
        let cell = self.cells.get(&key)?;
        Some(cell.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Counts one replay.
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

impl Slot {
    /// Makes one planned read: the record to replay, if an earlier reader
    /// left one. The last planned read takes it out of the cell.
    pub(crate) fn read(&mut self) -> Option<Record> {
        self.left = self.left.saturating_sub(1);
        if self.left == 0 {
            self.record.take()
        } else {
            self.record.clone()
        }
    }

    /// Leaves `record` for the readers still to come.
    pub(crate) fn fill(&mut self, record: Record) {
        if self.left > 0 {
            self.record = Some(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_subset_guarded, DataSource, Execution, MemSource};
    use miso_common::{pool, QueryGuard};
    use miso_data::checksum::checksum_batch;
    use miso_data::{DataType, Field, Row, Schema, Value};
    use miso_plan::{AggExpr, AggFunc, BinOp, Expr, PlanBuilder};

    #[test]
    fn only_repeated_keys_get_cells_and_the_last_reader_empties_one() {
        let memo = SubplanMemo::planned([7, 7, 7, 9]);
        assert_eq!(memo.cells(), 1);
        assert!(
            memo.cell(9).is_none(),
            "a key one run executes is not shared"
        );
        let record = Record {
            batch: Arc::new(ColBatch::empty(1)),
            profile: OpProfile::default(),
            scratch: 3,
        };
        let mut slot = memo.cell(7).unwrap();
        assert!(slot.read().is_none(), "the first reader runs the node");
        slot.fill(record);
        assert_eq!(slot.read().map(|r| r.scratch), Some(3));
        assert_eq!(slot.read().map(|r| r.scratch), Some(3));
        assert!(
            slot.record.is_none(),
            "the last planned reader took the batch"
        );
        assert!(slot.read().is_none(), "an unplanned reader runs the node");
    }

    /// One run of a batch: a plan, the nodes it executes, the working sets
    /// it resumes from and the outputs it keeps.
    struct Run {
        plan: LogicalPlan,
        subset: Option<HashSet<NodeId>>,
        provided: HashMap<NodeId, Arc<ColBatch>>,
        keep: Vec<NodeId>,
    }

    impl Run {
        fn keys(&self) -> Vec<Option<MemoKey>> {
            let seeds = self.provided.keys().copied().collect();
            let retain = Retention::Only(&self.keep);
            let udfs = UdfRegistry::new();
            node_keys(
                &self.plan,
                self.subset.as_ref(),
                &seeds,
                retain,
                &udfs,
                "mem",
            )
        }

        /// The run under a fresh metering guard, and the guard's peak.
        fn metered(&self, src: &MemSource, memo: Option<&SubplanMemo>) -> (Execution, u64) {
            let guard = QueryGuard::new(None, 0);
            let run = execute_subset_guarded(
                &self.plan,
                self.subset.as_ref(),
                self.provided.clone(),
                src,
                &UdfRegistry::new(),
                Retention::Only(&self.keep),
                &guard,
                memo,
            )
            .unwrap();
            (run, guard.peak())
        }
    }

    /// Runs `runs` in order over one memo planned from their keys, at widths
    /// 1 and 8, and checks each against the same run alone: every node's
    /// deterministic record, every output it holds, the root checksum and
    /// the guard's peak. Returns the memo's hits.
    fn assert_replays_are_runs(runs: &[Run], src: &MemSource) -> u64 {
        let before = pool::threads();
        let mut hits = Vec::new();
        for threads in [1, 8] {
            pool::set_threads(threads);
            let memo =
                SubplanMemo::planned(runs.iter().flat_map(|r| r.keys().into_iter().flatten()));
            for (i, run) in runs.iter().enumerate() {
                let what = format!("run {i}, width {threads}");
                let (shared, shared_peak) = run.metered(src, Some(&memo));
                let (alone, alone_peak) = run.metered(src, None);
                assert_eq!(shared_peak, alone_peak, "{what}: peak");
                for node in run.plan.nodes() {
                    let id = node.id;
                    let (a, b) = (shared.profile(id), alone.profile(id));
                    let deterministic = |p: Option<&OpProfile>| p.map(OpProfile::deterministic);
                    assert_eq!(deterministic(a), deterministic(b), "{what}: node {id}");
                    assert_eq!(
                        shared.try_output(id),
                        alone.try_output(id),
                        "{what}: node {id}"
                    );
                }
                let root = |run: &Execution| checksum_batch(run.root_batch().unwrap());
                assert_eq!(root(&shared), root(&alone), "{what}: root checksum");
            }
            hits.push(memo.hits());
        }
        pool::set_threads(before);
        assert_eq!(hits[0], hits[1], "the same replays at every width");
        hits[0]
    }

    fn filter(b: &mut PlanBuilder, input: NodeId, op: BinOp, col: usize, lit: i64) -> NodeId {
        let predicate = Expr::Binary {
            op,
            left: Box::new(Expr::col(col)),
            right: Box::new(Expr::lit(lit)),
        };
        b.add(Operator::Filter { predicate }, vec![input]).unwrap()
    }

    fn view_scan(b: &mut PlanBuilder, view: &str, fields: Vec<Field>) -> NodeId {
        let op = Operator::ScanView {
            view: view.into(),
            schema: Schema::new(fields),
        };
        b.add(op, vec![]).unwrap()
    }

    /// HV's shape: a join with a build side under an aggregate with partial
    /// accumulators, over two views, the join kept as a stage output. Two
    /// plans share the join and the aggregate; the second sorts it.
    #[test]
    fn a_shared_join_and_aggregate_replay_as_they_ran() {
        let mut src = MemSource::new();
        let fact = |i: i64| Row::new(vec![Value::Int(i % 400), Value::Int(i)]);
        src.add_view("facts", (0..9_000).map(fact).collect());
        let dim = |i: i64| Row::new(vec![Value::Int(i), Value::str(format!("seg-{}", i % 13))]);
        src.add_view("dims", (0..410).map(dim).collect());
        let int = |name| Field::new(name, DataType::Int);
        let plan = |sorted: bool| {
            let mut b = PlanBuilder::new();
            let facts = view_scan(&mut b, "facts", vec![int("k"), int("v")]);
            let seg = Field::new("seg", DataType::Str);
            let dims = view_scan(&mut b, "dims", vec![int("k"), seg]);
            let join = b
                .add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dims])
                .unwrap();
            let aggs = vec![
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
            ];
            let group_by = vec![3];
            let agg = b.add(Operator::Aggregate { group_by, aggs }, vec![join]);
            let mut root = agg.unwrap();
            if sorted {
                let keys = vec![(1, true)];
                root = b.add(Operator::Sort { keys }, vec![root]).unwrap();
            }
            (b.finish(root).unwrap(), join)
        };
        let runs: Vec<Run> = [false, true]
            .into_iter()
            .map(|sorted| {
                let (plan, join) = plan(sorted);
                let (subset, provided) = (None, HashMap::new());
                let keep = vec![join];
                Run {
                    plan,
                    subset,
                    provided,
                    keep,
                }
            })
            .collect();
        assert_eq!(
            assert_replays_are_runs(&runs, &src),
            2,
            "the join and the aggregate"
        );
    }

    /// DW's shape: a working set shipped in as a provided seed, filtered,
    /// projected and aggregated; two plans share all three, the second
    /// limits the result.
    #[test]
    fn a_shared_node_over_a_provided_seed_replays_as_it_ran() {
        let mut src = MemSource::new();
        let ws = |i: i64| {
            let city = Value::str(format!("city-{}", i % 23));
            Row::new(vec![
                city,
                Value::Int(i % 500),
                Value::Float(i as f64 / 7.0),
            ])
        };
        src.add_view("ws", (0..9_000).map(ws).collect());
        let fields = || {
            vec![
                Field::new("city", DataType::Str),
                Field::new("n", DataType::Int),
                Field::new("score", DataType::Float),
            ]
        };
        let seed = src.view_batch("ws").unwrap();
        let runs: Vec<Run> = [false, true]
            .into_iter()
            .map(|limited| {
                let mut b = PlanBuilder::new();
                let scan = view_scan(&mut b, "ws", fields());
                let filt = filter(&mut b, scan, BinOp::Gt, 1, 100);
                let exprs = vec![
                    ("city".into(), Expr::col(0)),
                    ("score".into(), Expr::col(2)),
                ];
                let proj = b.add(Operator::Project { exprs }, vec![filt]).unwrap();
                let aggs = vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                ];
                let agg = b.add(
                    Operator::Aggregate {
                        group_by: vec![0],
                        aggs,
                    },
                    vec![proj],
                );
                let mut root = agg.unwrap();
                if limited {
                    root = b.add(Operator::Limit { n: 5 }, vec![root]).unwrap();
                }
                let plan = b.finish(root).unwrap();
                let above = plan.nodes().iter().map(|n| n.id).filter(|&id| id != scan);
                Run {
                    subset: Some(above.collect()),
                    provided: [(scan, seed.clone())].into_iter().collect(),
                    keep: Vec::new(),
                    plan,
                }
            })
            .collect();
        assert_eq!(
            assert_replays_are_runs(&runs, &src),
            3,
            "filter, project, aggregate"
        );
    }

    /// A projection that reads a fused log scan, and the filter above it,
    /// shared by two plans; the scan itself runs in each.
    #[test]
    fn a_shared_projection_over_a_fused_scan_replays_as_it_ran() {
        let mut src = MemSource::new();
        let line = |i: usize| {
            format!(
                r#"{{"uid": {}, "city": "c{}", "score": {}}}"#,
                i % 50,
                i % 7,
                i * 31 % 1000
            )
        };
        src.add_log("events", (0..9_000).map(line).collect());
        let runs: Vec<Run> = [false, true]
            .into_iter()
            .map(|sorted| {
                let mut b = PlanBuilder::new();
                let scan = b.add(
                    Operator::ScanLog {
                        log: "events".into(),
                    },
                    vec![],
                );
                let exprs = vec![
                    ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                    (
                        "score".into(),
                        Expr::col(0).get("score").cast(DataType::Int),
                    ),
                ];
                let proj = b
                    .add(Operator::Project { exprs }, vec![scan.unwrap()])
                    .unwrap();
                let filt = filter(&mut b, proj, BinOp::Lt, 1, 700);
                let root = if sorted {
                    b.add(
                        Operator::Sort {
                            keys: vec![(1, false)],
                        },
                        vec![filt],
                    )
                } else {
                    let aggs = vec![AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi")];
                    b.add(
                        Operator::Aggregate {
                            group_by: vec![0],
                            aggs,
                        },
                        vec![filt],
                    )
                };
                let plan = b.finish(root.unwrap()).unwrap();
                Run {
                    plan,
                    subset: None,
                    provided: HashMap::new(),
                    keep: Vec::new(),
                }
            })
            .collect();
        let (run, _) = runs[0].metered(&src, None);
        let scan = run.profile(NodeId(0)).unwrap();
        assert!(scan.fused.is_some(), "the scan fuses into the projection");
        assert_eq!(
            assert_replays_are_runs(&runs, &src),
            2,
            "the projection and the filter"
        );
    }
}
