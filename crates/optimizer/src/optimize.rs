//! Plan selection: rewrite variants × split enumeration → cheapest feasible.

use crate::cost::{CostBreakdown, SplitCoster, TransferModel};
use miso_common::{MisoError, Result, SimDuration};
use miso_dw::DwCostModel;
use miso_hv::HvCostModel;
use miso_plan::estimate::{estimate_plan, StatsSource};
use miso_plan::split::mask;
use miso_plan::{LogicalPlan, Operator, Split};
use miso_views::{rewrite_with_catalog, rewrite_with_views, ViewCatalog};
use std::collections::HashSet;

/// A (possibly hypothetical) multistore physical design: which views reside
/// in which store. `M = ⟨V_h, V_d⟩` in the paper's notation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Design {
    /// Views resident in HV.
    pub hv_views: HashSet<String>,
    /// Views resident in DW.
    pub dw_views: HashSet<String>,
}

impl Design {
    /// An empty design.
    pub fn new() -> Self {
        Self::default()
    }

    /// All views available anywhere.
    pub fn all_views(&self) -> HashSet<String> {
        self.hv_views.union(&self.dw_views).cloned().collect()
    }
}

/// The optimizer's chosen multistore execution plan for one query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The (possibly view-rewritten) plan.
    pub plan: LogicalPlan,
    /// The chosen split.
    pub split: Split,
    /// Views the rewrite consumed.
    pub used_views: Vec<String>,
    /// Estimated cost breakdown.
    pub est: CostBreakdown,
}

/// Shared optimizer inputs.
pub struct OptimizerEnv<'a> {
    /// True log/view size source.
    pub stats: &'a dyn StatsSource,
    /// HV cost model.
    pub hv: &'a HvCostModel,
    /// DW cost model.
    pub dw: &'a DwCostModel,
    /// Transfer model.
    pub transfer: &'a TransferModel,
    /// View structure for containment rewriting; `None` = exact-match only.
    pub catalog: Option<&'a ViewCatalog>,
}

/// Optimizes `raw_plan` against `design`: tries several rewrite variants
/// (no views / HV-resident views / DW-resident views / all views), enumerates
/// feasible splits for each, and returns the cheapest.
pub fn optimize(
    raw_plan: &LogicalPlan,
    design: &Design,
    env: &OptimizerEnv<'_>,
) -> Result<PlannedQuery> {
    let mut obs = miso_obs::span("optimizer.optimize");
    miso_obs::count("optimizer.calls", 1);
    let variants: Vec<HashSet<String>> = {
        let mut v: Vec<HashSet<String>> = vec![HashSet::new()];
        for candidate in [
            design.hv_views.clone(),
            design.dw_views.clone(),
            design.all_views(),
        ] {
            if !candidate.is_empty() && !v.contains(&candidate) {
                v.push(candidate);
            }
        }
        v
    };

    let n_variants = variants.len() as u64;
    let mut cost_evals = 0u64;
    let mut splits_seen = 0u64;
    let mut best: Option<PlannedQuery> = None;
    for available in variants {
        let rewrite = match env.catalog {
            Some(catalog) => rewrite_with_catalog(raw_plan, &available, catalog),
            None => rewrite_with_views(raw_plan, &available),
        };
        let plan = rewrite.plan();
        let costed = cheapest_split(&plan, design, env);
        splits_seen += costed.splits_seen;
        cost_evals += costed.cost_evals;
        let Some((split, est)) = costed.best else {
            continue;
        };
        // Strict `<`: on a tie the earlier variant (fewer views) wins.
        if best.as_ref().is_none_or(|b| est.total() < b.est.total()) {
            best = Some(PlannedQuery {
                plan,
                split,
                used_views: rewrite.used,
                est,
            });
        }
    }
    if obs.is_active() {
        obs.push_field("variants", miso_obs::FieldValue::U64(n_variants));
        obs.push_field("splits", miso_obs::FieldValue::U64(splits_seen));
        obs.push_field("cost_evals", miso_obs::FieldValue::U64(cost_evals));
        if let Some(b) = &best {
            obs.push_field(
                "best_us",
                miso_obs::FieldValue::U64(b.est.total().as_micros()),
            );
            obs.push_field(
                "used_views",
                miso_obs::FieldValue::U64(b.used_views.len() as u64),
            );
        }
        miso_obs::observe("optimizer.splits_considered", splits_seen);
    }
    best.ok_or_else(|| {
        MisoError::Optimize(
            "no feasible multistore plan (is a DW-only view scanned below a UDF?)".into(),
        )
    })
}

/// A split is feasible under a design iff every view scan runs in a store
/// that actually holds the view.
pub fn split_feasible(plan: &LogicalPlan, split: &Split, design: &Design) -> bool {
    Placement::of(plan, design).admits(&split.mask(plan.len()))
}

/// A plan's view scans, and the ones each store of a design holds the view
/// of, as node masks.
struct Placement {
    views: Vec<u64>,
    in_hv: Vec<u64>,
    in_dw: Vec<u64>,
}

impl Placement {
    fn of(plan: &LogicalPlan, design: &Design) -> Self {
        let words = mask::words(plan.len());
        let mut placement = Placement {
            views: vec![0; words],
            in_hv: vec![0; words],
            in_dw: vec![0; words],
        };
        for (i, node) in plan.nodes().iter().enumerate() {
            if let Operator::ScanView { view, .. } = &node.op {
                mask::insert(&mut placement.views, i);
                if design.hv_views.contains(view) {
                    mask::insert(&mut placement.in_hv, i);
                }
                if design.dw_views.contains(view) {
                    mask::insert(&mut placement.in_dw, i);
                }
            }
        }
        placement
    }

    /// Whether the split whose HV side is `hv` scans every view in a store
    /// that holds it.
    fn admits(&self, hv: &[u64]) -> bool {
        (0..self.views.len()).all(|w| {
            let (views, hv) = (self.views[w], hv[w]);
            views & hv & !self.in_hv[w] == 0 && views & !hv & !self.in_dw[w] == 0
        })
    }
}

/// The outcome of costing every split of one plan.
pub struct CostedSplits {
    /// The cheapest feasible split and its estimate (the first one on a
    /// tie); `None` when no split is feasible under the design.
    pub best: Option<(Split, CostBreakdown)>,
    /// Splits enumerated.
    pub splits_seen: u64,
    /// Feasible splits costed.
    pub cost_evals: u64,
}

/// Costs one plan as it stands (no rewriting): estimates its node sizes,
/// enumerates its splits as node masks and keeps the cheapest one that is
/// feasible under `design`, built as a [`Split`] once. This is the body of
/// [`optimize`]'s variant loop, and (through [`what_if_plan_cost`]) what
/// the tuner's delta probe runs on a plan it has already rewritten.
pub fn cheapest_split(plan: &LogicalPlan, design: &Design, env: &OptimizerEnv<'_>) -> CostedSplits {
    let estimates = estimate_plan(plan, env.stats);
    let mut coster = SplitCoster::new(plan, &estimates, env.hv, env.dw, env.transfer);
    let placement = Placement::of(plan, design);
    let (mut splits_seen, mut cost_evals) = (0u64, 0u64);
    let mut best: Option<(Vec<u64>, CostBreakdown)> = None;
    coster.masks().splits().visit(|hv| {
        splits_seen += 1;
        if !placement.admits(hv) {
            return;
        }
        cost_evals += 1;
        let est = coster.cost(hv);
        if best.as_ref().is_none_or(|(_, b)| est.total() < b.total()) {
            best = Some((hv.to_vec(), est));
        }
    });
    miso_obs::count("optimizer.cost_evals", cost_evals);
    CostedSplits {
        best: best.map(|(hv, est)| (Split::from_mask(&hv), est)),
        splits_seen,
        cost_evals,
    }
}

/// The cost reported for a plan no split of which is feasible.
fn infeasible_cost() -> SimDuration {
    SimDuration::from_secs(u64::MAX / 2_000_000)
}

/// What-if mode: estimated total cost of `raw_plan` under a hypothetical
/// design. This is the probe the MISO tuner calls while packing knapsacks
/// ("we have added a what-if mode to the optimizer, which can evaluate the
/// cost of a multistore plan given a hypothetical physical design").
pub fn what_if_cost(
    raw_plan: &LogicalPlan,
    design: &Design,
    env: &OptimizerEnv<'_>,
) -> SimDuration {
    miso_obs::count("optimizer.what_if_calls", 1);
    optimize(raw_plan, design, env)
        .map(|p| p.est.total())
        .unwrap_or_else(|_| infeasible_cost())
}

/// What-if cost of one plan taken as it stands: its cheapest feasible split
/// under `design`. For a design holding the same views in both stores,
/// `what_if_cost(q, design)` is the smaller of this for `q` itself and for
/// `q` rewritten over the design's views.
pub fn what_if_plan_cost(
    plan: &LogicalPlan,
    design: &Design,
    env: &OptimizerEnv<'_>,
) -> SimDuration {
    cheapest_split(plan, design, env)
        .best
        .map_or_else(infeasible_cost, |(_, est)| est.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_common::ids::NodeId;
    use miso_lang::{compile, Catalog};
    use miso_plan::estimate::MapStats;
    use std::collections::BTreeSet;

    fn stats() -> MapStats {
        let mut s = MapStats::new();
        s.set_log("twitter", 40_000.0, 40_000.0 * 280.0);
        s.set_log("foursquare", 24_000.0, 24_000.0 * 160.0);
        s.set_log("landmarks", 900.0, 900.0 * 190.0);
        s
    }

    fn plan(sql: &str) -> LogicalPlan {
        compile(sql, &Catalog::standard()).unwrap()
    }

    fn env<'a>(
        stats: &'a MapStats,
        hv: &'a HvCostModel,
        dw: &'a DwCostModel,
        tm: &'a TransferModel,
    ) -> OptimizerEnv<'a> {
        OptimizerEnv {
            stats,
            hv,
            dw,
            transfer: tm,
            catalog: None,
        }
    }

    #[test]
    fn cold_design_picks_late_split_or_hv_only() {
        let s = stats();
        let hv = HvCostModel::paper_default();
        let dw = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();
        let p = plan(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 1000 GROUP BY t.city",
        );
        let chosen = optimize(&p, &Design::new(), &env(&s, &hv, &dw, &tm)).unwrap();
        assert!(chosen.used_views.is_empty());
        // The HV side must include the scan (only HV holds logs).
        assert!(chosen.split.in_hv(NodeId(0)));
        // Cold multistore gain is modest: HV dominates the plan.
        let hv_frac = chosen.est.hv.as_secs_f64() / chosen.est.total().as_secs_f64();
        assert!(hv_frac > 0.5, "HV-heavy when no views exist, got {hv_frac}");
    }

    #[test]
    fn dw_resident_view_enables_dw_execution() {
        let s = stats();
        let hv = HvCostModel::paper_default();
        let dw = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();
        let p = plan(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 1000 GROUP BY t.city",
        );
        // Materialize the filtered extraction (node below the pre-agg
        // projection) as a view resident in DW.
        let filt = p
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap()
            .id;
        let vname = p.fingerprint(filt).view_name();
        let mut s2 = stats();
        s2.set_view(vname.clone(), 3_000.0, 3_000.0 * 40.0);
        let design = Design {
            hv_views: HashSet::new(),
            dw_views: [vname.clone()].into_iter().collect(),
        };
        let chosen = optimize(&p, &design, &env(&s2, &hv, &dw, &tm)).unwrap();
        assert_eq!(chosen.used_views, vec![vname]);
        assert!(chosen.split.is_dw_only(), "query bypasses HV entirely");
        let cold = optimize(&p, &Design::new(), &env(&s, &hv, &dw, &tm)).unwrap();
        assert!(
            chosen.est.total().as_secs_f64() < cold.est.total().as_secs_f64() / 10.0,
            "DW-resident view should be dramatically faster"
        );
    }

    #[test]
    fn hv_only_view_cannot_serve_dw_side() {
        let p = plan("SELECT t.city AS c FROM twitter t WHERE t.followers > 1000");
        let filt = p
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap()
            .id;
        let vname = p.fingerprint(filt).view_name();
        let rewrite =
            miso_views::rewrite_with_views(&p, &[vname.clone()].into_iter().collect()).plan();
        let design_hv = Design {
            hv_views: [vname.clone()].into_iter().collect(),
            dw_views: HashSet::new(),
        };
        // A DW-only split over the rewritten plan is infeasible when the view
        // lives only in HV.
        let dw_split = Split::new(BTreeSet::new());
        assert!(!split_feasible(&rewrite, &dw_split, &design_hv));
        let design_dw = Design {
            hv_views: HashSet::new(),
            dw_views: [vname].into_iter().collect(),
        };
        assert!(split_feasible(&rewrite, &dw_split, &design_dw));
    }

    #[test]
    fn udf_query_still_optimizes() {
        let mut catalog = Catalog::standard();
        catalog.add_udf(
            "extract_mentions",
            miso_data::Schema::new(vec![
                miso_data::Field::new("user_id", miso_data::DataType::Int),
                miso_data::Field::new("mention", miso_data::DataType::Str),
            ]),
        );
        let p = compile(
            "SELECT m.mention AS mention, COUNT(*) AS n \
             FROM APPLY(extract_mentions, twitter) m GROUP BY m.mention",
            &catalog,
        )
        .unwrap();
        let s = stats();
        let hv = HvCostModel::paper_default();
        let dw = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();
        let chosen = optimize(&p, &Design::new(), &env(&s, &hv, &dw, &tm)).unwrap();
        // The UDF must stay in HV.
        let udf = p
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Udf { .. }))
            .unwrap()
            .id;
        assert!(chosen.split.in_hv(udf));
    }

    #[test]
    fn what_if_cost_monotone_in_views() {
        let s = stats();
        let hv = HvCostModel::paper_default();
        let dw = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();
        let p = plan(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 1000 GROUP BY t.city",
        );
        let filt = p
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap()
            .id;
        let vname = p.fingerprint(filt).view_name();
        let mut s2 = s.clone();
        s2.set_view(vname.clone(), 3_000.0, 3_000.0 * 40.0);

        let cold = what_if_cost(&p, &Design::new(), &env(&s, &hv, &dw, &tm));
        let with_view = what_if_cost(
            &p,
            &Design {
                hv_views: [vname.clone()].into_iter().collect(),
                dw_views: [vname].into_iter().collect(),
            },
            &env(&s2, &hv, &dw, &tm),
        );
        assert!(with_view < cold);
    }
}
