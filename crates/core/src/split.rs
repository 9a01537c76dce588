//! The split pipeline's decisions, each written once.
//!
//! The multistore has one execution path (paper §3): place the query against
//! the current design `⟨V_h, V_d⟩`, run the HV side, ship each cut working
//! set, finish in DW, harvest the HV by-products as opportunistic views. The
//! serial driver ([`crate::system`]) and the serving layer's snapshot
//! executor both walk it. What they do *between* the steps differs — the
//! driver retries, advances a clock, loads temp tables and feeds a breaker;
//! the server memoizes and meters — but what each step *decides* must not,
//! so the decisions are plain functions over borrowed [`Stores`]: [`place`]
//! and [`node_sets`] (which store runs what, and the one HV-only
//! degradation), [`cuts`] (what crosses to DW, at what ship cost),
//! [`harvestable`] and [`HarvestCandidate::of`] (which by-products are
//! views), [`root_batch`] and [`answer`] (where the result is). What moves
//! between the steps is the batch an operator produced, shared: a cut, a
//! harvest candidate and a stored view hold the same `Arc`.

use std::collections::HashSet;
use std::sync::Arc;

use miso_common::ids::{NodeId, QueryId};
use miso_common::{ByteSize, MisoError, Result, SimDuration};
use miso_data::{checksum_batch, Checksum, ColBatch, StoredView};
use miso_dw::{DwRun, DwStore};
use miso_hv::{HvRun, HvStore, MaterializedOutput};
use miso_optimizer::optimize::{optimize, Design, OptimizerEnv, PlannedQuery};
use miso_optimizer::{CostBreakdown, TransferModel};
use miso_plan::estimate::MapStats;
use miso_plan::{LogicalPlan, Split};
use miso_views::{rewrite_with_catalog, ViewCatalog, ViewDef};

/// What a split plan is planned and costed against, borrowed: a live
/// [`crate::MultistoreSystem`]'s stores or an immutable snapshot of them.
#[derive(Clone, Copy)]
pub struct Stores<'a> {
    /// The Hive-like store.
    pub hv: &'a HvStore,
    /// The warehouse store.
    pub dw: &'a DwStore,
    /// View metadata.
    pub catalog: &'a ViewCatalog,
    /// The inter-store transfer model.
    pub transfer: &'a TransferModel,
}

impl Stores<'_> {
    /// The optimizer's stats source: true log sizes plus every catalog
    /// view's size (views not resident anywhere have been dropped from the
    /// catalog).
    pub fn stats(&self) -> MapStats {
        let mut stats = MapStats::new();
        self.hv.fill_stats(&mut stats);
        self.dw.fill_stats(&mut stats);
        for def in self.catalog.defs() {
            stats.set_view(
                def.name.clone(),
                def.rows as f64,
                def.size.as_bytes() as f64,
            );
        }
        stats
    }

    /// The design implied by what the stores hold, restricted to the views
    /// `usable` admits.
    pub fn design(&self, usable: impl Fn(&String) -> bool) -> Design {
        Design {
            hv_views: self.hv.view_names().into_iter().filter(&usable).collect(),
            dw_views: self.dw.view_names().into_iter().filter(&usable).collect(),
        }
    }

    /// Cost of moving `bytes` from HV into DW under these stores' models.
    pub fn ship_cost(&self, bytes: ByteSize) -> SimDuration {
        self.transfer
            .ship_cost(&self.hv.cost_model, &self.dw.cost_model, bytes)
    }
}

/// Places `raw` across the stores, reading only the views `usable` admits.
/// Normally the optimizer chooses, against the design of the usable views,
/// and the stats it saw come back too (EXPLAIN ANALYZE estimates the plan's
/// node sizes over them). With `hv_only` — DW is unhealthy, or the variant
/// never uses it — `raw` is rewritten over the usable HV-resident views and
/// every node placed in HV, nothing estimated. That cannot fail: HV holds
/// the base logs, so even the un-rewritten plan is feasible.
pub fn place(
    stores: Stores<'_>,
    raw: &LogicalPlan,
    usable: impl Fn(&String) -> bool,
    hv_only: bool,
) -> Result<(PlannedQuery, Option<MapStats>)> {
    if hv_only {
        let available = stores.hv.view_names().into_iter().filter(usable).collect();
        let rewrite = rewrite_with_catalog(raw, &available, stores.catalog);
        let plan = rewrite.plan();
        let planned = PlannedQuery {
            split: Split::all_hv(&plan),
            plan,
            used_views: rewrite.used,
            est: CostBreakdown::default(),
        };
        return Ok((planned, None));
    }
    let design = stores.design(usable);
    let stats = stores.stats();
    let env = OptimizerEnv {
        stats: &stats,
        hv: &stores.hv.cost_model,
        dw: &stores.dw.cost_model,
        transfer: stores.transfer,
        catalog: Some(stores.catalog),
    };
    Ok((optimize(raw, &design, &env)?, Some(stats)))
}

/// The nodes of a placed plan that HV runs, and the rest, which DW runs.
pub fn node_sets(planned: &PlannedQuery) -> (HashSet<NodeId>, HashSet<NodeId>) {
    let hv: HashSet<NodeId> = planned.split.hv_nodes().iter().copied().collect();
    let all = planned.plan.nodes().iter().map(|n| n.id);
    let dw = all.filter(|id| !hv.contains(id)).collect();
    (hv, dw)
}

/// One working set crossing from HV to DW.
#[derive(Debug, Clone)]
pub struct Cut {
    /// The HV node whose output crosses.
    pub node: NodeId,
    /// Its output, as HV materialized it.
    pub batch: Arc<ColBatch>,
    /// Its serialized size.
    pub bytes: ByteSize,
    /// Fault-free dump + wire + load time.
    pub ship_cost: SimDuration,
}

/// The working sets `run` (the HV side of `planned`) hands to DW, in cut
/// order.
pub fn cuts(stores: Stores<'_>, planned: &PlannedQuery, run: &HvRun) -> Result<Vec<Cut>> {
    let nodes = planned.split.cut_nodes(&planned.plan);
    nodes
        .into_iter()
        .map(|node| {
            let bytes = run.execution.output_bytes(node);
            Ok(Cut {
                node,
                batch: run.execution.retained_batch(node)?.clone(),
                bytes,
                ship_cost: stores.ship_cost(bytes),
            })
        })
        .collect()
}

/// A materialized HV by-product ready to become an opportunistic view.
#[derive(Debug, Clone)]
pub struct HarvestCandidate {
    /// Catalog definition (fingerprint name, size, rows, checksum).
    pub def: ViewDef,
    /// The view as HV will store it: the batch shared with the execution
    /// that produced it, its size and its checksum.
    pub view: StoredView,
}

impl HarvestCandidate {
    /// The candidate for `out`, a stage output of `plan` that
    /// [`harvestable`] named. Checksums the batch
    /// ([`MaterializedOutput::stored`]) — callers filter on the name first.
    pub fn of(plan: &LogicalPlan, out: &MaterializedOutput, qid: QueryId) -> Self {
        let view = out.stored();
        let rows = out.batch.len() as u64;
        HarvestCandidate {
            def: ViewDef::from_plan(plan.subplan(out.node), out.size, rows, qid)
                .with_checksum(view.checksum),
            view,
        }
    }
}

/// The stage outputs of `run` over `plan` that are views, each under its
/// fingerprint name, in materialization order. A bare scan is just the base
/// log (or a view that already exists) and is skipped; so is an output whose
/// node the fingerprint map does not know — impossible for a well-formed
/// plan, and a poisoned plan must cost one harvest, never the process.
pub fn harvestable<'a>(
    plan: &'a LogicalPlan,
    run: &'a HvRun,
) -> impl Iterator<Item = (String, &'a MaterializedOutput)> + 'a {
    let fps = plan.fingerprints();
    run.materialized
        .iter()
        .filter(|out| !plan.node(out.node).op.is_scan())
        .filter_map(move |out| Some((fps.get(out.node.raw() as usize)?.view_name(), out)))
}

/// The root output of a split run: DW runs downstream of HV, so it holds the
/// root whenever it ran.
pub fn root_batch<'a>(hv: Option<&'a HvRun>, dw: Option<&'a DwRun>) -> Result<&'a Arc<ColBatch>> {
    match (dw, hv) {
        (Some(run), _) => run.execution.root_batch(),
        (None, Some(run)) => run.execution.root_batch(),
        (None, None) => Err(MisoError::Plan("no store ran the plan".to_string())),
    }
}

/// A split run's answer: root row count and order-insensitive multiset
/// checksum, read from the root batch.
pub fn answer(hv: Option<&HvRun>, dw: Option<&DwRun>) -> Result<(u64, Checksum)> {
    let root = root_batch(hv, dw)?;
    Ok((root.len() as u64, checksum_batch(root)))
}
