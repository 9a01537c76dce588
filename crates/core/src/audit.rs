//! Integrity: read-time verification, quarantine and repair, and the
//! between-epoch auditor (invariants plus checksum scrubbing).
//!
//! The auditor runs after each reorganization phase (when enabled via
//! [`crate::SystemConfig::audit`]) and does two things:
//!
//! 1. **Invariant audit** — cheap catalog↔store consistency checks: every
//!    non-quarantined catalog view is resident in at least one store,
//!    quarantined views are resident in none, every permanent store view
//!    is registered in the catalog, both storage budgets hold, no DW temp
//!    tables leak across epochs, and the last reorganization journal
//!    drained (done, or never committed — i.e. rolled back).
//! 2. **Checksum scrub** — a budget-bounded background sweep that
//!    recomputes stored content checksums against each view's
//!    materialization-time checksum, rotating a cursor through the
//!    catalog so successive epochs eventually cover everything. Mismatches
//!    are quarantined exactly like read-time failures and repaired by the
//!    next tuner phase.
//!
//! Invariant breaches are *bugs* (or operator interference), so
//! [`AuditMode::Strict`] turns them into an error — tests unwrap and
//! panic. Production-shaped runs use [`AuditMode::Count`], which ticks
//! `audit.violations` and keeps serving queries. Checksum mismatches are
//! *expected* faults with a recovery path; they never trip strict mode.

use crate::reorg::stage_name;
use crate::split::Site;
use crate::system::MultistoreSystem;
use miso_common::{ByteSize, MisoError, Result, SimClock, SimDuration};
use miso_data::{Checksum, StoredView};
use miso_dw::DwActivity;

/// What to do when an invariant is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Return an error (tests unwrap → panic): invariants are bugs.
    Strict,
    /// Count `audit.violations` and keep going: production keeps serving.
    Count,
}

/// Configuration for the between-epoch auditor.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Maximum bytes of view content re-checksummed per audit pass. The
    /// scrub cursor rotates, so a small budget still covers the whole
    /// catalog over enough epochs. Zero disables scrubbing (invariants
    /// only).
    pub scrub_budget: ByteSize,
    /// Invariant violation handling.
    pub mode: AuditMode,
}

impl AuditConfig {
    /// Strict invariants (error out) with the given scrub budget.
    pub fn strict(scrub_budget: ByteSize) -> Self {
        AuditConfig {
            scrub_budget,
            mode: AuditMode::Strict,
        }
    }

    /// Counting invariants (tick `audit.violations`) with the given budget.
    pub fn counting(scrub_budget: ByteSize) -> Self {
        AuditConfig {
            scrub_budget,
            mode: AuditMode::Count,
        }
    }
}

/// What one audit pass found and cost.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Human-readable invariant violations (empty on a healthy system).
    pub violations: Vec<String>,
    /// Views whose checksums were re-verified this pass.
    pub scrubbed_views: u64,
    /// Bytes of view content re-checksummed this pass.
    pub scrubbed_bytes: ByteSize,
    /// Views quarantined by this pass's scrub.
    pub quarantined: Vec<String>,
    /// Simulated time the scrub cost (charged like tuner work).
    pub cost: SimDuration,
}

impl MultistoreSystem {
    /// Runs one audit pass: invariant checks, then a budget-bounded
    /// checksum scrub resuming from where the previous pass stopped.
    ///
    /// In [`AuditMode::Strict`] any invariant violation comes back as
    /// [`MisoError::Integrity`]; in [`AuditMode::Count`] violations are
    /// counted and returned in the report.
    pub fn audit_pass(&mut self, cfg: &AuditConfig) -> Result<AuditReport> {
        miso_obs::count("audit.passes", 1);
        let mut report = AuditReport::default();
        self.check_invariants(&mut report.violations);
        self.scrub(cfg.scrub_budget, &mut report);
        if !report.violations.is_empty() {
            miso_obs::count("audit.violations", report.violations.len() as u64);
            if cfg.mode == AuditMode::Strict {
                return Err(MisoError::integrity(
                    "<audit>",
                    report.violations.join("; "),
                ));
            }
        }
        Ok(report)
    }

    /// Catalog↔store consistency invariants. Cheap: name/size lookups
    /// only, no row content is touched.
    fn check_invariants(&self, violations: &mut Vec<String>) {
        for name in self.catalog.names() {
            let resident = self.resident(&name);
            if self.catalog.is_quarantined(&name) {
                if resident {
                    violations.push(format!(
                        "quarantined view `{name}` is still resident in a store"
                    ));
                }
            } else if !resident {
                violations.push(format!("catalog view `{name}` is resident in no store"));
            }
        }
        for site in Site::ALL {
            for name in self.shelf(site).names() {
                if !self.catalog.contains(&name) {
                    violations.push(format!("{site} holds unregistered view `{name}`"));
                }
            }
        }
        for site in Site::ALL {
            let (total, budget) = (self.shelf(site).total_bytes(), self.storage_budget(site));
            if total > budget {
                let bound = match site {
                    Site::Hv => "B_h",
                    Site::Dw => "B_d",
                };
                violations.push(format!("{site} views exceed {bound}: {total} > {budget}"));
            }
        }
        for name in self.dw.temp.names() {
            violations.push(format!(
                "DW temp table `{name}` leaked across an epoch boundary"
            ));
        }
        if let Some(journal) = &self.last_reorg_journal {
            // Drained = the reorg ran to Done, or never committed (it was
            // rolled back and the old design stands).
            if !journal.done() && journal.committed() {
                violations.push("last reorg journal committed but never drained".into());
            }
            for view in journal.staged_views(true) {
                if !journal.done() && self.dw.temp.contains(&stage_name(view)) {
                    violations.push(format!(
                        "reorg staging copy `{}` left behind",
                        stage_name(view)
                    ));
                }
            }
        }
    }

    /// Budget-bounded checksum scrub over the catalog, resuming from the
    /// rotating cursor. Corrupt copies are quarantined exactly like
    /// read-time verification failures; the cost of re-reading the
    /// scrubbed bytes is modeled with HV's dump cost (the scrubber's I/O
    /// is sequential re-reads).
    fn scrub(&mut self, budget: ByteSize, report: &mut AuditReport) {
        if budget == ByteSize::ZERO {
            return;
        }
        let names = self.catalog.names();
        if names.is_empty() {
            return;
        }
        let mut inspected = 0usize;
        while inspected < names.len() && report.scrubbed_bytes < budget {
            let name = &names[self.scrub_cursor % names.len()];
            self.scrub_cursor = (self.scrub_cursor + 1) % names.len();
            inspected += 1;
            if self.catalog.is_quarantined(name) {
                continue;
            }
            let Some(expected) = self.catalog.get(name).and_then(|d| d.checksum) else {
                continue;
            };
            let size = Site::ALL
                .iter()
                .find_map(|&site| self.shelf(site).size(name));
            let size = size.unwrap_or(ByteSize::ZERO);
            report.scrubbed_views += 1;
            report.scrubbed_bytes += size;
            miso_obs::count("audit.views_scrubbed", 1);
            if self.fails_verify(name, expected) {
                self.quarantine_view(name);
                report.quarantined.push(name.clone());
            }
        }
        report.cost = self.hv.dump_cost(report.scrubbed_bytes);
    }

    // ---- Read-time verification and repair -------------------------------

    /// Polls the per-store `*.view_read` fail points for every view a plan
    /// is about to serve — `corrupt` is the one kind a read honours — and,
    /// when verify-on-read is enabled, checks each stored copy against its
    /// materialization-time checksum. Corrupt copies are dropped from their
    /// store and the view is quarantined in the catalog, never to be served
    /// again until repaired. Returns the quarantined names; an empty list
    /// means the plan is safe to run.
    ///
    /// With chaos disabled and verify-on-read off this is a store probe
    /// per view — no checksum is recomputed on the query path.
    pub(crate) fn verify_used_views(&mut self, used: &[String]) -> Vec<String> {
        let mut quarantined = Vec::new();
        for name in used {
            let site = self.holder(name);
            let read = match site {
                Site::Hv => miso_chaos::strike("hv.view_read", "hv"),
                Site::Dw => miso_chaos::strike("dw.view_read", "dw"),
            };
            if read.is_ok_and(|strike| strike.corrupt) {
                self.shelf_mut(site).corrupt(name);
            }
            if !self.config.verify_on_read {
                continue;
            }
            let Some(expected) = self.catalog.get(name).and_then(|d| d.checksum) else {
                continue;
            };
            if self.fails_verify(name, expected) {
                self.quarantine_view(name);
                quarantined.push(name.clone());
            }
        }
        quarantined
    }

    /// Drops every stored copy of a corrupt view and quarantines it in the
    /// catalog (shared by read-time verification and the scrubber).
    pub(crate) fn quarantine_view(&mut self, name: &str) {
        miso_obs::count("integrity.checksum_failures", 1);
        for site in Site::ALL {
            self.shelf_mut(site).take(name);
        }
        if self.catalog.quarantine(name) {
            miso_obs::count("integrity.quarantined", 1);
        }
    }

    /// Verifies a view copy that just crossed a store boundary against its
    /// materialization-time checksum. On mismatch the torn copy is dropped
    /// (the counter ticks) and `false` comes back so the caller keeps the
    /// surviving source in place. Views without a recorded checksum pass.
    pub(crate) fn verify_moved_copy(&mut self, name: &str, site: Site) -> bool {
        let Some(expected) = self.catalog.get(name).and_then(|d| d.checksum) else {
            return true;
        };
        if self.shelf(site).verify(name, expected) == Some(false) {
            miso_obs::count("integrity.checksum_failures", 1);
            self.shelf_mut(site).take(name);
            return false;
        }
        true
    }

    /// Whether a stored copy of `name`, in either store, no longer matches
    /// `expected`. Reads every cell of each copy it checks.
    pub(crate) fn fails_verify(&self, name: &str, expected: Checksum) -> bool {
        Site::ALL
            .iter()
            .any(|&site| self.shelf(site).verify(name, expected) == Some(false))
    }

    /// Recomputes a quarantined view from its defining plan in HV
    /// ([`Self::recompute`]) and restores the fresh copy there
    /// ([`Self::restore`]). The HV compute cost is charged to the
    /// reorganization phase (`duration`) and the simulated clock.
    pub(crate) fn recompute_quarantined(
        &mut self,
        name: &str,
        clock: &mut SimClock,
        duration: &mut SimDuration,
    ) -> Result<()> {
        let def =
            self.catalog.get(name).cloned().ok_or_else(|| {
                MisoError::integrity(name, "quarantined view missing from catalog")
            })?;
        let (view, _, cost) = self.recompute(&def, None)?;
        self.record_bg(DwActivity::Idle, cost, clock);
        *duration += cost;
        clock.advance(cost);
        self.restore(Site::Hv, name, view);
        Ok(())
    }

    /// Puts a fresh copy of a catalog view that no store held back on
    /// `site`'s shelf: the catalog takes its checksum and stats, a
    /// quarantine on it is lifted (counted as a repair), and it counts as
    /// just used.
    pub(crate) fn restore(&mut self, site: Site, name: &str, view: StoredView) {
        self.catalog.set_checksum(name, view.checksum);
        self.catalog
            .update_stats(name, view.size, view.batch.len() as u64);
        self.shelf_mut(site).put(name, view);
        if self.catalog.clear_quarantine(name) {
            miso_obs::count("integrity.repaired", 1);
        }
        self.lru_touch(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemConfig, Variant};
    use miso_common::Budgets;
    use miso_data::logs::{Corpus, LogsConfig};
    use miso_exec::UdfRegistry;

    fn audited_system(mode: AuditMode) -> MultistoreSystem {
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let kib = ByteSize::from_kib(100_000);
        let budgets = Budgets::new(kib, kib, kib).with_discretization(ByteSize::from_kib(16));
        let mut config = SystemConfig::paper_default(budgets);
        config.audit = Some(AuditConfig {
            scrub_budget: ByteSize::from_kib(1_000_000),
            mode,
        });
        MultistoreSystem::new(
            &corpus,
            miso_lang::Catalog::standard(),
            UdfRegistry::new(),
            config,
        )
    }

    fn queries() -> Vec<(String, miso_plan::LogicalPlan)> {
        let c = miso_lang::Catalog::standard();
        [
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city",
            "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS s FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city",
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city ORDER BY n DESC LIMIT 5",
            "SELECT f.city AS city, COUNT(*) AS n FROM foursquare f \
             WHERE f.likes > 2 GROUP BY f.city",
        ]
        .iter()
        .enumerate()
        .map(|(i, sql)| (format!("q{i}"), miso_lang::compile(sql, &c).unwrap()))
        .collect()
    }

    #[test]
    fn clean_run_passes_strict_audit() {
        let mut sys = audited_system(AuditMode::Strict);
        // Strict audit runs inside the stream after each reorg; a clean
        // run must not trip it.
        sys.run_workload(Variant::MsMiso, &queries()).unwrap();
        let report = sys
            .audit_pass(&AuditConfig::strict(ByteSize::from_kib(1_000_000)))
            .unwrap();
        assert!(report.violations.is_empty());
        assert!(report.scrubbed_views > 0, "scrub must cover the catalog");
        assert!(report.quarantined.is_empty());
        assert!(report.cost > SimDuration::ZERO);
    }

    #[test]
    fn scrub_detects_corruption_and_quarantines() {
        let mut sys = audited_system(AuditMode::Strict);
        sys.run_workload(Variant::HvOp, &queries()).unwrap();
        let victim = sys.hv.views.names().pop().expect("HV-OP retains views");
        assert!(sys.hv.views.corrupt(&victim));
        let report = sys
            .audit_pass(&AuditConfig::strict(ByteSize::from_kib(1_000_000)))
            .unwrap();
        assert_eq!(report.quarantined, vec![victim.clone()]);
        assert!(sys.catalog.is_quarantined(&victim));
        assert!(
            !sys.hv.views.contains(&victim),
            "corrupt copy must be dropped"
        );
        // A second pass sees a consistent (quarantined) state.
        let again = sys
            .audit_pass(&AuditConfig::strict(ByteSize::from_kib(1_000_000)))
            .unwrap();
        assert!(again.violations.is_empty());
        assert!(again.quarantined.is_empty());
    }

    #[test]
    fn dangling_catalog_entry_trips_strict_and_counts_in_prod() {
        let mut sys = audited_system(AuditMode::Strict);
        sys.run_workload(Variant::HvOp, &queries()).unwrap();
        let victim = sys.hv.views.names().pop().expect("HV-OP retains views");
        // Simulate an operator dropping the store copy behind the
        // catalog's back (not a modeled fault — an invariant breach).
        sys.hv.views.take(&victim);
        let err = sys
            .audit_pass(&AuditConfig::strict(ByteSize::ZERO))
            .unwrap_err();
        assert_eq!(err.layer(), "integrity");
        assert!(err.message().contains(&victim));
        let report = sys
            .audit_pass(&AuditConfig::counting(ByteSize::ZERO))
            .unwrap();
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn scrub_budget_bounds_work_and_cursor_rotates() {
        let mut sys = audited_system(AuditMode::Strict);
        sys.run_workload(Variant::HvOp, &queries()).unwrap();
        let total = sys.catalog.len() as u64;
        assert!(total > 1, "need several views to rotate over");
        // A tiny budget scrubs at least one view per pass but not all.
        let cfg = AuditConfig::strict(ByteSize::from_bytes(1));
        let first = sys.audit_pass(&cfg).unwrap();
        assert!(first.scrubbed_views >= 1);
        assert!(first.scrubbed_views < total);
        // Enough passes cover every view despite the tiny budget.
        let mut covered = first.scrubbed_views;
        for _ in 0..total {
            covered += sys.audit_pass(&cfg).unwrap().scrubbed_views;
        }
        assert!(covered >= total, "rotation must reach the whole catalog");
    }
}
