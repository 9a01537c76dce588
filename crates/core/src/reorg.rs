//! Crash-safe two-phase reorganization: [`MultistoreSystem::reorg_now`]
//! tunes a new design and applies it through the journal here.
//!
//! The tuner's view movements are applied through a write-ahead journal:
//!
//! 1. **Intent** — the full movement plan is logged before anything moves.
//! 2. **Stage** — each view is *copied* to its destination store. HV→DW
//!    copies land in DW temp space (volatile); DW→HV copies are installed
//!    in HV under the final name (durable). Sources stay in place, so a
//!    crash during staging loses no view.
//! 3. **Commit** — one record makes the new design authoritative.
//! 4. **Apply** — staged copies are flipped into the design (DW temp
//!    promoted to permanent, sources dropped), one atomic step per view.
//! 5. **Done** — budget enforcement ran; the journal can be truncated.
//!
//! Recovery after a simulated crash (the `reorg.step` fail point): before
//! the commit record the reorganization **rolls back** — staging copies are
//! discarded and the old design is intact. At or after the commit record it
//! **replays** — staging is re-done where volatile copies were lost, and
//! the flip completes. Either way no view is lost and the stores converge
//! to a design consistent with the budgets.
//!
//! Crash points sit *between* steps (each step is atomic at simulation
//! granularity), which matches a process that can die between any two
//! journaled operations but whose individual store calls are atomic.

use crate::metrics::ReorgRecord;
use crate::split::Site;
use crate::system::{charge_wait, MultistoreSystem};
use crate::tuner::NewDesign;
use miso_chaos::Strike;
use miso_common::{ByteSize, MisoError, Result, Retry, RetryPolicy, SimClock, SimDuration};
use miso_dw::DwActivity;
use miso_plan::LogicalPlan;
use std::collections::BTreeSet;

/// Upper bound on crash-replay rounds before the driver finishes the
/// reorganization with fault injection suppressed. This is a liveness
/// backstop for pathological plans (e.g. crash probability 1.0 after
/// commit), far above anything a realistic fault plan produces.
pub const MAX_REORG_RECOVERIES: u64 = 64;

/// The staging-copy name for a view being moved into DW temp space.
pub fn stage_name(view: &str) -> String {
    format!("reorg_stage_{view}")
}

/// One durable journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// The movement plan, logged before any data moves.
    Intent {
        /// Views to move HV → DW.
        to_dw: Vec<String>,
        /// Views to move DW → HV.
        to_hv: Vec<String>,
    },
    /// `view` has a staged copy at its destination.
    Staged {
        /// The view with a staged copy.
        view: String,
        /// Direction: `true` = HV → DW.
        to_dw: bool,
    },
    /// The point of no return: the new design is now authoritative.
    Commit,
    /// `view`'s flip completed (source dropped, copy in the design).
    Applied {
        /// The flipped view.
        view: String,
        /// Direction: `true` = HV → DW.
        to_dw: bool,
    },
    /// The reorganization finished (enforcement ran).
    Done,
}

/// An in-memory stand-in for the durable write-ahead log a real deployment
/// would keep on shared storage. It survives simulated crashes (which only
/// wipe DW temp space) and answers the recovery-time questions: committed?
/// staged? applied?
#[derive(Debug, Clone, Default)]
pub struct ReorgJournal {
    entries: Vec<JournalEntry>,
}

impl ReorgJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record (durable immediately, like an fsync'd WAL write).
    pub fn append(&mut self, entry: JournalEntry) {
        self.entries.push(entry);
    }

    /// All records, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Whether any record exists (the intent was logged).
    pub fn started(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Whether the commit record was written.
    pub fn committed(&self) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, JournalEntry::Commit))
    }

    /// Whether the reorganization completed.
    pub fn done(&self) -> bool {
        self.entries.iter().any(|e| matches!(e, JournalEntry::Done))
    }

    /// Whether `view` has a staged-copy record.
    pub fn staged(&self, view: &str) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, JournalEntry::Staged { view: v, .. } if v == view))
    }

    /// Whether `view`'s flip was applied.
    pub fn applied(&self, view: &str) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, JournalEntry::Applied { view: v, .. } if v == view))
    }

    /// Views with a `Staged` record in the given direction.
    pub fn staged_views(&self, to_dw: bool) -> Vec<&str> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                JournalEntry::Staged { view, to_dw: d } if *d == to_dw => Some(view.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// The movement plan derived from the design diff. Orders follow the
/// tuner's sorted (`BTreeSet`) iteration so charged costs are reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorgPlan {
    /// Views to copy HV → DW (new in the DW design).
    pub to_dw: Vec<String>,
    /// Views to copy DW → HV (new in the HV design, currently DW-resident).
    pub to_hv: Vec<String>,
}

impl ReorgPlan {
    /// Diffs the current placement against the tuner's new design.
    pub fn diff(
        current_hv: &BTreeSet<String>,
        current_dw: &BTreeSet<String>,
        new_hv: &BTreeSet<String>,
        new_dw: &BTreeSet<String>,
    ) -> Self {
        ReorgPlan {
            to_dw: new_dw
                .iter()
                .filter(|n| !current_dw.contains(*n))
                .cloned()
                .collect(),
            to_hv: new_hv
                .iter()
                .filter(|n| !current_hv.contains(*n) && current_dw.contains(*n))
                .cloned()
                .collect(),
        }
    }

    /// Whether nothing moves.
    pub fn is_empty(&self) -> bool {
        self.to_dw.is_empty() && self.to_hv.is_empty()
    }
}

/// Fixed simulated time to compute a new design during a reorg phase.
const TUNE_COMPUTE: SimDuration = SimDuration::from_secs(5);

impl MultistoreSystem {
    /// Runs one reorganization phase right now against the given history
    /// window — M-KNAPSACK tune, journaled two-phase migration, quarantine
    /// repair — charging TUNE time. The stream driver runs it at every epoch
    /// boundary; miso-serve stages one on its master copy while queries keep
    /// reading a published snapshot, then publishes the result atomically.
    pub fn reorg_now(
        &mut self,
        window: &[LogicalPlan],
        clock: &mut SimClock,
    ) -> Result<ReorgRecord> {
        let mut obs = miso_obs::span("tuner.reorg");
        miso_obs::count("tuner.reorgs", 1);
        let start = clock.now();
        let mut current_hv: BTreeSet<String> = self.hv.views.names().into_iter().collect();
        let current_dw: BTreeSet<String> = self.dw.views.names().into_iter().collect();
        // Self-healing: quarantined views are offered to the tuner as if
        // they were still HV-resident, so M-KNAPSACK decides whether each
        // one earns its recompute cost in the new design.
        let quarantined = self.catalog.quarantined_names();
        let mut tune_hv = current_hv.clone();
        tune_hv.extend(quarantined.iter().cloned());
        let stats = self.build_stats();
        // Under a growth schedule, keeping a view costs upkeep too: charge
        // each candidate its estimated per-window maintenance cost so
        // delta-maintainable views out-compete equal-benefit views that
        // need full recomputation. Without growth the map is empty and the
        // tuner's arithmetic is untouched.
        let maint_cost = self.maintenance_costs();
        let mut new_design = self.tuner.tune_with_maintenance(
            &tune_hv,
            &current_dw,
            &self.catalog,
            window,
            &stats,
            &self.hv.cost_model,
            &self.dw.cost_model,
            &self.transfer,
            &maint_cost,
        );
        let mut duration = TUNE_COMPUTE;
        let mut repaired = Vec::new();
        let mut dropped_pre = Vec::new();
        for name in &quarantined {
            if new_design.hv.contains(name) || new_design.dw.contains(name) {
                // Worth keeping: recompute from base data in HV, charged
                // to this phase like any other tuner work.
                match self.recompute_quarantined(name, clock, &mut duration) {
                    Ok(()) => {
                        current_hv.insert(name.clone());
                        repaired.push(name.clone());
                    }
                    Err(_) => {
                        // Recompute failed (e.g. HV unhealthy or the
                        // defining plan reads a view that is gone): give
                        // the view up rather than fail the reorg.
                        new_design.hv.remove(name);
                        new_design.dw.remove(name);
                        self.catalog.remove(name);
                        dropped_pre.push(name.clone());
                    }
                }
            } else {
                // Not worth its recompute cost: drop it from the catalog.
                self.catalog.remove(name);
                dropped_pre.push(name.clone());
            }
        }
        // Apply the design through the crash-safe two-phase journal (see
        // the [`crate::reorg`] module docs). Fault-free runs take the same
        // steps, in the same order, with the same charges as a direct
        // apply would.
        let plan = ReorgPlan::diff(&current_hv, &current_dw, &new_design.hv, &new_design.dw);
        let mut bytes_moved = ByteSize::ZERO;
        let mut journal = ReorgJournal::new();
        let mut recoveries = 0u64;
        let mut rolled_back = false;
        let (moved_to_dw, moved_to_hv, mut dropped) = loop {
            let poll_chaos = recoveries <= MAX_REORG_RECOVERIES;
            match self.reorg_pass(
                &plan,
                &new_design,
                &mut journal,
                clock,
                &mut duration,
                &mut bytes_moved,
                poll_chaos,
            ) {
                Ok(lists) => break lists,
                Err(e) if e.is_crash() => {
                    // The reorg "process" died: volatile DW temp space is
                    // gone; the journal, HV, and DW permanent space
                    // survive.
                    self.dw.temp.clear();
                    recoveries += 1;
                    miso_obs::count("tuner.reorg_recovered", 1);
                    if !journal.committed() {
                        // Pre-commit: roll back. Staging copies are
                        // discarded and the old design stands.
                        self.reorg_rollback(&journal);
                        rolled_back = true;
                        break (Vec::new(), Vec::new(), Vec::new());
                    }
                    // Post-commit: replay. The next pass resumes from the
                    // journal; past the recovery cap it runs with fault
                    // injection suppressed (liveness backstop).
                }
                Err(e) => return Err(e),
            }
        };
        // The design-computation time itself.
        self.record_bg(DwActivity::Idle, TUNE_COMPUTE, clock);
        clock.advance(TUNE_COMPUTE);
        dropped.extend(dropped_pre);
        miso_obs::count(
            "tuner.views_moved",
            (moved_to_dw.len() + moved_to_hv.len()) as u64,
        );
        miso_obs::count("tuner.views_dropped", dropped.len() as u64);
        if obs.is_active() {
            obs.set_sim_us(clock.now().elapsed_since_epoch().as_micros());
            for (name, value) in [
                ("moved_to_dw", moved_to_dw.len() as u64),
                ("moved_to_hv", moved_to_hv.len() as u64),
                ("dropped", dropped.len() as u64),
                ("bytes_moved", bytes_moved.as_bytes()),
                ("duration_us", duration.as_micros()),
                ("repaired", repaired.len() as u64),
            ] {
                obs.push_field(name, miso_obs::FieldValue::U64(value));
            }
        }
        self.last_reorg_journal = Some(journal);
        Ok(ReorgRecord {
            at: start,
            duration,
            moved_to_dw,
            moved_to_hv,
            dropped,
            repaired,
            bytes_moved,
            recoveries,
            rolled_back,
        })
    }

    /// One resumable pass over the journaled reorganization. Steps already
    /// recorded in the journal are skipped; volatile staging copies lost to
    /// a crash are re-staged (and re-charged — recovery work is real work).
    /// An injected crash escapes as [`MisoError::Crash`] for the recovery
    /// loop in [`Self::reorg_now`].
    #[allow(clippy::too_many_arguments)]
    fn reorg_pass(
        &mut self,
        plan: &ReorgPlan,
        design: &NewDesign,
        journal: &mut ReorgJournal,
        clock: &mut SimClock,
        duration: &mut SimDuration,
        bytes_moved: &mut ByteSize,
        poll_chaos: bool,
    ) -> Result<(Vec<String>, Vec<String>, Vec<String>)> {
        // Intent: log the full plan before anything moves.
        if !journal.started() {
            self.reorg_step_poll(poll_chaos, clock, duration)?;
            journal.append(JournalEntry::Intent {
                to_dw: plan.to_dw.clone(),
                to_hv: plan.to_hv.clone(),
            });
        }

        // Stage HV → DW: copy into DW temp space; the HV source stays.
        for name in &plan.to_dw {
            if journal.applied(name)
                || (journal.staged(name) && self.dw.temp.contains(&stage_name(name)))
            {
                continue;
            }
            let strike = self.reorg_step_poll(poll_chaos, clock, duration)?;
            // The staged copy is the HV view itself, shared: the batch, with
            // the size and checksum recorded when it was materialized.
            let Some(view) = self.hv.views.get(name).cloned() else {
                return Err(MisoError::Tuning(format!(
                    "tuner placed `{name}` in DW but no store holds it"
                )));
            };
            let size = view.size;
            let raw_cost = strike.slowed(self.stores().ship_cost(size));
            let stretched = self.stretch(raw_cost, DwActivity::ViewTransfer, clock);
            *duration += stretched;
            clock.advance(stretched);
            *bytes_moved += size;
            self.dw.temp.put(&stage_name(name), view);
            if strike.corrupt {
                self.dw.temp.corrupt(&stage_name(name));
            }
            if !journal.staged(name) {
                journal.append(JournalEntry::Staged {
                    view: name.clone(),
                    to_dw: true,
                });
            }
        }

        // Stage DW → HV: install under the final name in (durable) HV; the
        // DW source stays until the flip.
        for name in &plan.to_hv {
            if journal.applied(name) || (journal.staged(name) && self.hv.views.contains(name)) {
                continue;
            }
            let strike = self.reorg_step_poll(poll_chaos, clock, duration)?;
            let Some(view) = self.dw.views.get(name).cloned() else {
                // The DW source vanished (dropped by an earlier design):
                // nothing to migrate.
                continue;
            };
            let size = view.size;
            let raw_cost =
                strike.slowed(self.transfer.transfer_cost(size) + self.hv.dump_cost(size));
            let stretched = self.stretch(raw_cost, DwActivity::ViewTransfer, clock);
            *duration += stretched;
            clock.advance(stretched);
            *bytes_moved += size;
            self.hv.views.put(name, view);
            if strike.corrupt {
                self.hv.views.corrupt(name);
            }
            journal.append(JournalEntry::Staged {
                view: name.clone(),
                to_dw: false,
            });
        }

        // Commit: the new design becomes authoritative.
        if !journal.committed() {
            self.reorg_step_poll(poll_chaos, clock, duration)?;
            journal.append(JournalEntry::Commit);
        }

        // Apply: flip each staged copy into the design (atomic per view).
        let mut moved_to_dw = Vec::new();
        let mut moved_to_hv = Vec::new();
        for name in &plan.to_dw {
            if !journal.applied(name) {
                self.reorg_step_poll(poll_chaos, clock, duration)?;
                let Some(staged) = self.dw.temp.take(&stage_name(name)) else {
                    return Err(MisoError::integrity(
                        name.as_str(),
                        "reorg staging copy vanished before apply",
                    ));
                };
                self.dw.views.put(name, staged);
                // Verify the promoted copy against its materialization-time
                // checksum before dropping the HV source; a torn copy is
                // evicted and the view simply does not move this phase.
                if self.verify_moved_copy(name, Site::Dw) {
                    self.hv.views.take(name);
                }
                journal.append(JournalEntry::Applied {
                    view: name.clone(),
                    to_dw: true,
                });
            }
            if self.dw.views.contains(name) {
                moved_to_dw.push(name.clone());
            }
        }
        for name in &plan.to_hv {
            if !journal.applied(name) {
                self.reorg_step_poll(poll_chaos, clock, duration)?;
                // The copy already sits in HV under the final name; verify
                // it survived the wire before dropping the DW source (a
                // no-op when there was nothing to stage).
                if self.verify_moved_copy(name, Site::Hv) {
                    self.dw.views.take(name);
                }
                journal.append(JournalEntry::Applied {
                    view: name.clone(),
                    to_dw: false,
                });
            }
            if self.hv.views.contains(name) {
                moved_to_hv.push(name.clone());
            }
        }

        // Enforce the new design. DW is tightly managed: exactly the packed
        // set. HV "may have more spare capacity" (paper §3.1): non-design
        // views survive as long as the HV storage budget holds, oldest
        // evicted first beyond it.
        let mut dropped = Vec::new();
        if !journal.done() {
            self.reorg_step_poll(poll_chaos, clock, duration)?;
            let hv_budget = self.storage_budget(Site::Hv);
            let mut extras: Vec<String> = self
                .hv
                .views
                .names()
                .into_iter()
                .filter(|n| !design.hv.contains(n) && !design.dw.contains(n))
                .collect();
            // LRU order: least-recently-used extras go first.
            extras.sort_by_key(|n| self.lru.iter().position(|x| x == n).unwrap_or(0));
            let mut i = 0;
            while self.hv.views.total_bytes() > hv_budget && i < extras.len() {
                let name = &extras[i];
                if self.drop_copy(Site::Hv, name) {
                    dropped.push(name.clone());
                }
                i += 1;
            }
            // No budget test: an off-design view leaves however small it is.
            for name in self.dw.views.names() {
                if !design.dw.contains(&name) && self.drop_copy(Site::Dw, &name) {
                    dropped.push(name);
                }
            }
            journal.append(JournalEntry::Done);
        }
        Ok((moved_to_dw, moved_to_hv, dropped))
    }

    /// Polls the `reorg.step` fail point between journal steps. An injected
    /// failure is retried with backoff (charged to the phase duration) and a
    /// crash escapes to the recovery loop; whatever else fired comes back
    /// for the step to apply. Reorg work has no per-query deadline, so a
    /// stall is just a very slow movement, a hog a no-op.
    fn reorg_step_poll(
        &mut self,
        poll: bool,
        clock: &mut SimClock,
        duration: &mut SimDuration,
    ) -> Result<Strike> {
        if !poll {
            return Ok(Strike::NONE);
        }
        RetryPolicy::STANDARD.run(&mut self.retry_rng, |turn| {
            charge_wait(turn, clock, duration);
            miso_chaos::strike("reorg.step", "tuner").map_err(Retry::transient)
        })
    }

    /// Undoes a pre-commit reorganization: staged DW→HV copies are removed
    /// from HV (their DW sources are intact); staged HV→DW copies lived in
    /// volatile DW temp space and died with the crash. No view is lost —
    /// every source is still in place.
    fn reorg_rollback(&mut self, journal: &ReorgJournal) {
        for view in journal.staged_views(false) {
            if self.dw.views.contains(view) {
                self.hv.views.take(view);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn diff_orders_moves_and_skips_resident_views() {
        let plan = ReorgPlan::diff(
            &set(&["a", "b", "c"]),
            &set(&["d"]),
            &set(&["a", "d"]),
            &set(&["b", "c"]),
        );
        assert_eq!(plan.to_dw, vec!["b".to_string(), "c".to_string()]);
        assert_eq!(plan.to_hv, vec!["d".to_string()]);
        assert!(!plan.is_empty());

        let noop = ReorgPlan::diff(&set(&["a"]), &set(&["b"]), &set(&["a"]), &set(&["b"]));
        assert!(noop.is_empty());
    }

    #[test]
    fn to_hv_requires_a_dw_source() {
        // A view the new design wants in HV but no store holds cannot be
        // migrated; the diff ignores it (the tuner only packs known views).
        let plan = ReorgPlan::diff(&set(&[]), &set(&[]), &set(&["ghost"]), &set(&[]));
        assert!(plan.to_hv.is_empty());
    }

    #[test]
    fn journal_answers_recovery_questions() {
        let mut j = ReorgJournal::new();
        assert!(!j.started());
        j.append(JournalEntry::Intent {
            to_dw: vec!["v1".into()],
            to_hv: vec![],
        });
        assert!(j.started());
        assert!(!j.committed());
        j.append(JournalEntry::Staged {
            view: "v1".into(),
            to_dw: true,
        });
        assert!(j.staged("v1"));
        assert!(!j.staged("v2"));
        assert_eq!(j.staged_views(true), vec!["v1"]);
        assert!(j.staged_views(false).is_empty());
        j.append(JournalEntry::Commit);
        assert!(j.committed());
        assert!(!j.applied("v1"));
        j.append(JournalEntry::Applied {
            view: "v1".into(),
            to_dw: true,
        });
        assert!(j.applied("v1"));
        assert!(!j.done());
        j.append(JournalEntry::Done);
        assert!(j.done());
    }

    #[test]
    fn stage_names_are_prefixed() {
        assert_eq!(stage_name("v_abc"), "reorg_stage_v_abc");
    }
}
