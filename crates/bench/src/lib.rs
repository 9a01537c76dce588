//! Shared harness for the evaluation reproductions.
//!
//! Every figure in [`figures`] builds its systems through this module so
//! that all experiments run against the same corpus, workload, budgets, and
//! cost models; wall-clock time is `benchmark/`'s to measure. Budgets follow
//! the paper's convention: `B_h`/`B_d` are multiples
//! of each store's "base data" size (§5.1) — all logs for HV, the queries'
//! relevant subset (we use 10%, matching the paper's 200 GB of 2 TB) for DW.

use miso_common::{Budgets, ByteSize, SimDuration};
use miso_core::{ExperimentResult, MultistoreSystem, SystemConfig, Variant};
use miso_data::logs::{Corpus, LogsConfig};
use miso_data::Value;
use miso_dw::BackgroundSim;
use miso_plan::LogicalPlan;
use miso_workload::{compile_workload, standard_udfs, workload_catalog};

pub mod figures;

/// One prepared experiment context (corpus + workload).
pub struct Harness {
    /// The generated corpus.
    pub corpus: Corpus,
    /// The 32 compiled queries.
    pub workload: Vec<(String, LogicalPlan)>,
}

impl Harness {
    /// Builds the standard experiment harness.
    pub fn standard() -> Harness {
        let corpus = Corpus::generate(&LogsConfig::experiment());
        let catalog = workload_catalog();
        let workload = compile_workload(&catalog).expect("workload compiles");
        Harness { corpus, workload }
    }

    /// Base-data size used for HV budget multiples (all logs).
    pub fn hv_base(&self) -> ByteSize {
        self.corpus.total_size()
    }

    /// Base-data size used for DW budget multiples: the relevant subset of
    /// the logs (the paper's 200 GB ≈ 10% of 2 TB).
    pub fn dw_base(&self) -> ByteSize {
        self.hv_base().scale(0.1)
    }

    /// Budgets for storage multiple `x` (e.g. 2.0 = the paper's `2×`) and a
    /// transfer budget sized so that a handful of opportunistic views can
    /// move per reorganization phase — the same *role* the paper's 10 GB
    /// plays against its view working set (our synthetic predicates are
    /// milder than \[14\]'s, so views are a larger fraction of base data;
    /// see DESIGN.md §5).
    pub fn budgets(&self, storage_multiple: f64) -> Budgets {
        let bt = self.hv_base().scale(0.02);
        Budgets::new(
            self.hv_base().scale(storage_multiple),
            self.dw_base().scale(storage_multiple),
            bt,
        )
        .with_discretization(ByteSize::from_kib(8))
    }

    /// A fresh system with the given budgets and optional background load.
    pub fn system(&self, budgets: Budgets, background: Option<BackgroundSim>) -> MultistoreSystem {
        let mut config = SystemConfig::paper_default(budgets);
        config.background = background;
        self.system_with(config)
    }

    /// A fresh system from a fully custom [`SystemConfig`] (budgets
    /// included) — for benches that need non-default robustness or
    /// integrity settings.
    pub fn system_with(&self, config: SystemConfig) -> MultistoreSystem {
        MultistoreSystem::new(&self.corpus, workload_catalog(), standard_udfs(), config)
    }

    /// Runs one variant at the given storage multiple, no background load.
    pub fn run(&self, variant: Variant, storage_multiple: f64) -> ExperimentResult {
        let mut sys = self.system(self.budgets(storage_multiple), None);
        sys.run_workload(variant, &self.workload)
            .expect("experiment runs")
    }
}

/// A report object from `(key, value)` pairs.
pub(crate) fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Encodes one experiment's TTI breakdown as a JSON object for run reports.
pub fn tti_value(result: &ExperimentResult) -> Value {
    let secs = |d: SimDuration| Value::Float(d.as_secs_f64());
    let tti = &result.tti;
    obj([
        ("variant", Value::str(result.variant.as_str())),
        ("queries", Value::Int(result.records.len() as i64)),
        ("hv_exe_s", secs(tti.hv_exe)),
        ("dw_exe_s", secs(tti.dw_exe)),
        ("transfer_s", secs(tti.transfer)),
        ("tune_s", secs(tti.tune)),
        ("etl_s", secs(tti.etl)),
        ("total_s", secs(result.tti_total())),
        ("reorgs", Value::Int(result.reorgs.len() as i64)),
    ])
}

/// Writes the versioned run report for `name` under `results/` (metrics
/// snapshot + benchmark-specific `extra`) and flushes the trace sink.
/// Failures warn on stderr rather than failing the benchmark.
pub fn write_report(name: &str, extra: Value) {
    miso_obs::flush();
    if let Err(e) = miso_obs::write_report("results", name, extra) {
        eprintln!("warning: cannot write results/{name}.report.json: {e}");
    }
}

/// Formats a simulated-seconds quantity the way the paper's axes do (10³ s).
pub fn ks(d: SimDuration) -> f64 {
    d.as_secs_f64() / 1000.0
}

/// Renders a simple fixed-width table row.
pub fn row(cells: &[impl AsRef<str>], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>w$}", c.as_ref()))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds() {
        let h = Harness::standard();
        assert_eq!(h.workload.len(), 32);
        assert!(h.hv_base().as_bytes() > 1_000_000);
        assert!(h.dw_base() < h.hv_base());
        let b = h.budgets(2.0);
        assert!(b.hv_storage > h.hv_base());
    }
}
