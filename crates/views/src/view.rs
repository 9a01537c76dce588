//! View metadata and the view catalog.
//!
//! A [`ViewDef`] records everything the tuner needs to know about a view
//! *without* its contents (contents live in whichever store holds the view):
//! the defining sub-plan, semantic fingerprint, schema, size, and
//! provenance. The [`ViewCatalog`] is the tuner's registry of every view
//! that currently exists anywhere in the multistore system.

use crate::containment::FilterView;
use miso_common::ids::{NodeId, QueryId};
use miso_common::ByteSize;
use miso_data::{Checksum, Schema};
use miso_plan::{Fingerprint, LogicalPlan, Operator, PlanBuilder};
use std::collections::{BTreeSet, HashMap};

/// Metadata for one opportunistic view.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// Canonical name (`v_<fingerprint>`).
    pub name: String,
    /// Semantic fingerprint of the defining sub-plan.
    pub fingerprint: Fingerprint,
    /// The defining sub-plan (over base logs and/or other views).
    pub plan: LogicalPlan,
    /// Output schema.
    pub schema: Schema,
    /// Materialized size.
    pub size: ByteSize,
    /// Materialized row count.
    pub rows: u64,
    /// The query whose execution produced this view.
    pub created_by: QueryId,
    /// Content checksum of the materialized rows at creation time (the
    /// authoritative value every stored copy must verify against). `None`
    /// for definitions built before materialization finished.
    pub checksum: Option<Checksum>,
    /// The view in filter-over-base normal form, when its defining plan is
    /// rooted at a filter: what containment rewriting matches against.
    pub filter_form: Option<FilterView>,
    /// The base logs the view's content derives from: those its plan scans
    /// and, once [`ViewCatalog::register`] has looked them up, those of
    /// every view it scans. Kept here so that the lineage outlives a parent.
    pub lineage: BTreeSet<String>,
}

impl ViewDef {
    /// Builds a definition from a defining plan, deriving name/fingerprint.
    pub fn from_plan(plan: LogicalPlan, size: ByteSize, rows: u64, created_by: QueryId) -> Self {
        let fingerprint = plan.fingerprint(plan.root());
        let schema = plan.schema().clone();
        let name = fingerprint.view_name();
        ViewDef {
            filter_form: FilterView::of(&name, &plan),
            lineage: plan.base_logs().into_iter().collect(),
            name,
            fingerprint,
            plan,
            schema,
            size,
            rows,
            created_by,
            checksum: None,
        }
    }

    /// Attaches the materialization-time content checksum (builder style).
    pub fn with_checksum(mut self, checksum: Checksum) -> Self {
        self.checksum = Some(checksum);
        self
    }
}

/// All views known to the tuner, keyed by canonical name.
///
/// Views whose stored content failed checksum verification are
/// **quarantined**: they stay registered (so the tuner can weigh
/// recomputing them) but must never be served to a query until repaired.
#[derive(Debug, Clone, Default)]
pub struct ViewCatalog {
    views: HashMap<String, ViewDef>,
    quarantined: BTreeSet<String>,
}

impl ViewCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a view; a semantically identical view (same name) keeps the
    /// existing entry and returns `false` (dedup under semantic identity).
    pub fn register(&mut self, mut def: ViewDef) -> bool {
        if self.views.contains_key(&def.name) {
            return false;
        }
        for parent in def.plan.scanned_views() {
            if let Some(parent) = self.views.get(&parent) {
                def.lineage.extend(parent.lineage.iter().cloned());
            }
        }
        self.views.insert(def.name.clone(), def);
        true
    }

    /// The views whose content derives from base log `log`, a view after
    /// every registered view it scans — the order in which maintenance must
    /// refresh them when the log grows.
    pub fn derived_from(&self, log: &str) -> Vec<&ViewDef> {
        let mut waiting: Vec<&ViewDef> = self.defs();
        waiting.retain(|def| def.lineage.contains(log));
        let mut ordered = Vec::with_capacity(waiting.len());
        while !waiting.is_empty() {
            let blocked = |def: &ViewDef| {
                let scanned = def.plan.scanned_views();
                waiting.iter().any(|w| scanned.contains(&w.name))
            };
            let (rest, ready): (Vec<_>, Vec<_>) = waiting.iter().partition(|def| blocked(def));
            // Views only ever scan views registered before them, so some
            // view is always ready; were it not so, take the rest as is.
            if ready.is_empty() {
                ordered.extend(rest);
                break;
            }
            ordered.extend(ready);
            waiting = rest;
        }
        ordered
    }

    /// Removes a view (it no longer exists in any store).
    pub fn remove(&mut self, name: &str) -> Option<ViewDef> {
        self.quarantined.remove(name);
        self.views.remove(name)
    }

    /// Marks a registered view as quarantined: its stored content failed
    /// verification and it must not be served until repaired. Returns
    /// whether the view was known (unknown names are not tracked).
    pub fn quarantine(&mut self, name: &str) -> bool {
        if self.views.contains_key(name) {
            self.quarantined.insert(name.to_string());
            true
        } else {
            false
        }
    }

    /// Whether `name` is quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.quarantined.contains(name)
    }

    /// Lifts a quarantine after the view was repaired (recomputed and
    /// re-verified). Returns whether the view had been quarantined.
    pub fn clear_quarantine(&mut self, name: &str) -> bool {
        self.quarantined.remove(name)
    }

    /// All quarantined names, sorted.
    pub fn quarantined_names(&self) -> Vec<String> {
        self.quarantined.iter().cloned().collect()
    }

    /// Records the authoritative content checksum for a view; no-op when
    /// the view is unknown.
    pub fn set_checksum(&mut self, name: &str, checksum: Checksum) {
        if let Some(def) = self.views.get_mut(name) {
            def.checksum = Some(checksum);
        }
    }

    /// Look up a view by name.
    pub fn get(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(name)
    }

    /// `plan` over base logs only: every `ScanView` replaced by the scanned
    /// view's own defining plan, all the way down — what a from-scratch
    /// recompute runs. `None` when a scanned view is not in the catalog.
    pub fn inlined(&self, plan: &LogicalPlan) -> Option<LogicalPlan> {
        fn copy(plan: &LogicalPlan, catalog: &ViewCatalog, b: &mut PlanBuilder) -> Option<NodeId> {
            let mut copied: HashMap<NodeId, NodeId> = HashMap::new();
            for node in plan.nodes() {
                let id = match &node.op {
                    Operator::ScanView { view, .. } => copy(&catalog.get(view)?.plan, catalog, b)?,
                    op => {
                        let inputs = node.inputs.iter().map(|i| copied[i]).collect();
                        b.add(op.clone(), inputs).ok()?
                    }
                };
                copied.insert(node.id, id);
            }
            Some(copied[&plan.root()])
        }
        let mut b = PlanBuilder::new();
        let root = copy(plan, self, &mut b)?;
        b.finish(root).ok()
    }

    /// Whether the catalog knows `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True iff no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// All view names, sorted (deterministic iteration for the tuner).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// All definitions, sorted by name.
    pub fn defs(&self) -> Vec<&ViewDef> {
        let mut defs: Vec<&ViewDef> = self.views.values().collect();
        defs.sort_by(|a, b| a.name.cmp(&b.name));
        defs
    }

    /// Updates a view's size/rowcount metadata after a refresh; no-op when
    /// the view is unknown.
    pub fn update_stats(&mut self, name: &str, size: ByteSize, rows: u64) {
        if let Some(def) = self.views.get_mut(name) {
            def.size = size;
            def.rows = rows;
        }
    }

    /// Total size of a set of views (absent names contribute zero).
    pub fn total_size(&self, names: &[String]) -> ByteSize {
        names
            .iter()
            .filter_map(|n| self.views.get(n).map(|v| v.size))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::DataType;
    use miso_plan::{Expr, Operator, PlanBuilder};

    fn sample_plan(filter_value: i64) -> LogicalPlan {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![(
                        "uid".into(),
                        Expr::col(0).get("user_id").cast(DataType::Int),
                    )],
                },
                vec![scan],
            )
            .unwrap();
        let f = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit(filter_value)),
                },
                vec![proj],
            )
            .unwrap();
        b.finish(f).unwrap()
    }

    fn def(filter_value: i64) -> ViewDef {
        ViewDef::from_plan(
            sample_plan(filter_value),
            ByteSize::from_kib(10),
            100,
            QueryId(1),
        )
    }

    #[test]
    fn from_plan_derives_identity() {
        let d = def(5);
        assert!(d.name.starts_with("v_"));
        assert_eq!(d.name, d.fingerprint.view_name());
        assert_eq!(d.schema.names(), vec!["uid"]);
    }

    #[test]
    fn semantic_dedup() {
        let mut cat = ViewCatalog::new();
        assert!(cat.register(def(5)));
        assert!(!cat.register(def(5)), "same semantics, same name");
        assert!(cat.register(def(6)), "different predicate, new view");
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn names_are_sorted_and_total_size_sums() {
        let mut cat = ViewCatalog::new();
        cat.register(def(1));
        cat.register(def(2));
        let names = cat.names();
        assert_eq!(names.len(), 2);
        assert!(names[0] < names[1]);
        assert_eq!(cat.total_size(&names), ByteSize::from_kib(20));
        assert_eq!(cat.total_size(&["missing".to_string()]), ByteSize::ZERO);
    }

    /// A view over a view scans no log, yet derives from its parent's: the
    /// lineage is fixed at registration, survives the parent, and orders
    /// maintenance parents-first.
    #[test]
    fn lineage_follows_scanned_views_and_orders_maintenance() {
        let over = |plan: &LogicalPlan, view: &str| {
            let child = plan.replace_with_view(plan.node(plan.root()).inputs[0], view);
            ViewDef::from_plan(child.unwrap(), ByteSize::from_kib(1), 1, QueryId(2))
        };
        let mut cat = ViewCatalog::new();
        let parent = def(5);
        // The child's name sorts wherever it likes; build a grandchild too.
        let child = over(&parent.plan, &parent.name);
        assert!(child.plan.base_logs().is_empty() && child.lineage.is_empty());
        let grandchild = over(&sample_plan(6), &child.name);
        cat.register(parent.clone());
        cat.register(child.clone());
        cat.register(grandchild.clone());
        cat.register(def(7));
        for name in [&child.name, &grandchild.name] {
            assert!(cat.get(name).unwrap().lineage.contains("twitter"), "{name}");
        }
        let order: Vec<&str> = cat
            .derived_from("twitter")
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(order.len(), 4);
        let at = |name: &str| order.iter().position(|n| *n == name).unwrap();
        assert!(at(&parent.name) < at(&child.name) && at(&child.name) < at(&grandchild.name));
        assert!(cat.derived_from("foursquare").is_empty());
        cat.remove(&parent.name);
        assert_eq!(
            cat.derived_from("twitter").len(),
            3,
            "lineage outlives the parent"
        );
    }

    #[test]
    fn quarantine_lifecycle() {
        let mut cat = ViewCatalog::new();
        let d = def(3);
        let name = d.name.clone();
        cat.register(d);
        assert!(!cat.is_quarantined(&name));
        assert!(!cat.quarantine("unknown"), "unknown views are not tracked");
        assert!(cat.quarantine(&name));
        assert!(cat.is_quarantined(&name));
        assert_eq!(cat.quarantined_names(), vec![name.clone()]);
        assert!(cat.clear_quarantine(&name));
        assert!(!cat.is_quarantined(&name));
        cat.quarantine(&name);
        cat.remove(&name);
        assert!(
            cat.quarantined_names().is_empty(),
            "removal clears quarantine"
        );
    }

    #[test]
    fn checksum_attach_and_update() {
        use miso_data::checksum::checksum_rows;
        let mut cat = ViewCatalog::new();
        let d = def(4);
        let name = d.name.clone();
        assert!(d.checksum.is_none());
        cat.register(d);
        let c = checksum_rows(&[]);
        cat.set_checksum(&name, c);
        assert_eq!(cat.get(&name).unwrap().checksum, Some(c));
        let d2 = def(5).with_checksum(c);
        assert_eq!(d2.checksum, Some(c));
    }

    #[test]
    fn remove_roundtrip() {
        let mut cat = ViewCatalog::new();
        let d = def(7);
        let name = d.name.clone();
        cat.register(d);
        assert!(cat.contains(&name));
        let removed = cat.remove(&name).unwrap();
        assert_eq!(removed.name, name);
        assert!(cat.is_empty());
    }
}
