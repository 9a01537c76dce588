//! The metric names this benchmark reports. BENCHMARK.json lists the same
//! names; `report.py` fails a run whose names differ from that file.

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("sim_s", "sim_s"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`). A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.corpus_gen_s", "s"),
    ("data.corpus_mb", "MB"),
    ("data.json_parse_mb_per_s", "MB/s"),
    ("data.checksum_mb_per_s", "MB/s"),
    ("lang.compile_ms", "ms"),
    ("plan.enumerate_splits_us_p50", "us"),
    ("plan.splits_per_plan", "count"),
    ("plan.split_enumerations", "count"),
    ("optimizer.optimize_s", "s"),
    ("optimizer.optimize_ms_p50", "ms"),
    ("optimizer.optimize_ms_max", "ms"),
    ("optimizer.calls", "count"),
    ("optimizer.cost_evals", "count"),
    ("views.rewrite_s", "s"),
    ("views.hit_frac", "frac"),
    ("views.stale_answers", "count"),
    ("views.catalog_size", "count"),
    ("views.cost_probes", "count"),
    ("hv.execute_s", "s"),
    ("hv.execute_ms_p50", "ms"),
    ("hv.execute_ms_max", "ms"),
    ("hv.stages_run", "count"),
    ("hv.bytes_materialized", "bytes"),
    ("exec.ops_executed", "count"),
    ("exec.morsels", "count"),
    ("exec.col_batches", "count"),
    ("exec.col_fallback_rows", "count"),
    ("exec.zero_copy_scans", "count"),
    ("dw.execute_s", "s"),
    ("dw.bytes_scanned", "bytes"),
    ("dw.transferred_mb", "MB"),
    ("core.query_s", "s"),
    ("core.query_ms_p50", "ms"),
    ("core.query_ms_p90", "ms"),
    ("core.query_ms_max", "ms"),
    ("core.driver_self_s", "s"),
    ("core.build_stats_s", "s"),
    ("core.reorg_s", "s"),
    ("core.reorg_ms_p50", "ms"),
    ("core.reorg_ms_max", "ms"),
    ("core.reorgs", "count"),
    ("core.tune_s", "s"),
    ("core.migrate_s", "s"),
    ("core.whatif_calls", "count"),
    ("core.whatif_cache_hit_frac", "frac"),
    ("core.knapsack_dp_cells", "count"),
    ("core.views_moved", "count"),
    ("core.views_dropped", "count"),
    ("core.maint_s", "s"),
    ("core.maint_ms_p50", "ms"),
    ("core.maint_ms_max", "ms"),
    ("core.maint_rows_per_s", "1/s"),
    ("core.maint_delta_frac", "frac"),
    ("core.maint_fallbacks", "count"),
    ("serve.base_run_s", "s"),
    ("serve.oracle_s", "s"),
    ("serve.loop_self_s", "s"),
    ("serve.epochs", "count"),
    ("serve.delivered", "count"),
    ("serve.sim_qps", "1/sim_s"),
    ("serve.sim_makespan_s", "sim_s"),
    ("serve.sim_p99_s", "sim_s"),
    ("obs.overhead_frac", "frac"),
    ("obs.events", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.stepped_wall_s", "s"),
    ("trace.attributed_frac", "frac"),
    ("proc.cores", "count"),
    ("proc.miso_threads", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "frac"),
    ("proc.peak_rss_mb", "MB"),
    ("proc.alloc_mb_per_query", "MB"),
    ("proc.allocs_per_query", "count"),
];

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The readings `value` summarises; empty for a single reading.
    samples: Vec<f64>,
}

/// One run's metrics, in table order, all starting at 0.
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn new(table: &[(&'static str, &'static str)]) -> Self {
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: Vec::new(),
                })
                .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_samples(name, value, Vec::new());
    }

    pub fn set_samples(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        assert!(value.is_finite(), "metric {name} is not a number");
        let metric = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's table"));
        // An empty sum is -0.0; report plain 0.
        metric.value = value + 0.0;
        metric.samples = samples;
    }

    /// One line per metric: name, unit, sample count, median, quartiles.
    pub fn print_table(&self) {
        println!(
            "{:<30} {:>8} {:>3} {:>16} {:>14} {:>14}",
            "metric", "unit", "n", "median", "q1", "q3"
        );
        for m in &self.0 {
            let single = [m.value];
            let xs = if m.samples.is_empty() {
                &single[..]
            } else {
                &m.samples
            };
            println!(
                "{:<30} {:>8} {:>3} {:>16.6} {:>14.6} {:>14.6}",
                m.name,
                m.unit,
                xs.len(),
                m.value,
                crate::util::quantile(xs, 0.25),
                crate::util::quantile(xs, 0.75),
            );
            if !m.samples.is_empty() {
                println!("#   {} samples: {:?}", m.name, m.samples);
            }
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit measured.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
