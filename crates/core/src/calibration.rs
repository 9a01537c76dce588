//! Predicted-vs-actual cost drift tracking (the feedback half of miso-xray).
//!
//! Every split execution compares the optimizer's [`CostBreakdown`]
//! prediction with the cost the stores actually charged. Both sides are
//! *simulated* durations — the "actual" is computed by the same cost models
//! over the **real executed sizes** instead of the optimizer's estimates —
//! so drift measures exactly the component the tuner can get wrong:
//! cardinality and size estimation error. That also keeps every number here
//! deterministic: no wall clocks, no thread-count sensitivity.
//!
//! The accumulator aggregates per store (HV / transfer / DW) and per
//! operator class (estimated vs actual output rows) across an epoch;
//! [`CalibrationAccumulator::epoch_report`] drains it into a
//! [`CalibrationReport`] at each reorganization boundary. The live ratios
//! are exported as `xray.cost_drift_{hv,dw,transfer}` gauges.
//!
//! Drift is observed only: the cost models are never touched, so planning,
//! tuning, and every design decision are byte-identical to a build without
//! this module — the design-identity tests in `tests/xray.rs` pin that.

use miso_common::SimDuration;
use miso_data::Value;
use miso_optimizer::CostBreakdown;
use miso_plan::Operator;
use std::collections::BTreeMap;

/// Stable class name for an operator (drift is aggregated per class, not
/// per instance).
pub fn op_class(op: &Operator) -> &'static str {
    match op {
        Operator::ScanLog { .. } => "scan_log",
        Operator::ScanView { .. } => "scan_view",
        Operator::Filter { .. } => "filter",
        Operator::Project { .. } => "project",
        Operator::Join { .. } => "join",
        Operator::Aggregate { .. } => "aggregate",
        Operator::Udf { .. } => "udf",
        Operator::Sort { .. } => "sort",
        Operator::Limit { .. } => "limit",
    }
}

/// Accumulated (predicted, actual) mass for one store component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreDrift {
    /// Summed predicted seconds.
    pub pred_s: f64,
    /// Summed actual (simulated) seconds.
    pub act_s: f64,
    /// Number of queries that contributed.
    pub samples: u64,
}

impl StoreDrift {
    fn record(&mut self, pred: SimDuration, act: SimDuration) {
        self.pred_s += pred.as_secs_f64();
        self.act_s += act.as_secs_f64();
        self.samples += 1;
    }

    /// actual/predicted ratio; `1.0` (perfectly calibrated) when there is
    /// no predicted mass to compare against.
    pub fn ratio(&self) -> f64 {
        if self.pred_s > 0.0 {
            self.act_s / self.pred_s
        } else {
            1.0
        }
    }
}

/// Accumulated cardinality drift for one operator class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassDrift {
    /// Summed estimated output rows.
    pub est_rows: f64,
    /// Summed actual output rows.
    pub act_rows: u64,
    /// Operator instances that contributed.
    pub samples: u64,
}

impl ClassDrift {
    /// actual/estimated row ratio; `1.0` when nothing was estimated.
    pub fn ratio(&self) -> f64 {
        if self.est_rows > 0.0 {
            self.act_rows as f64 / self.est_rows
        } else {
            1.0
        }
    }
}

/// Per-epoch drift accumulator (lives on the system, drained each reorg).
#[derive(Debug, Clone, Default)]
pub struct CalibrationAccumulator {
    hv: StoreDrift,
    transfer: StoreDrift,
    dw: StoreDrift,
    classes: BTreeMap<&'static str, ClassDrift>,
}

impl CalibrationAccumulator {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed query's store-level (predicted, actual) pair
    /// and refreshes the `xray.cost_drift_*` gauges.
    pub fn record_query(&mut self, predicted: &CostBreakdown, actual: &CostBreakdown) {
        self.hv.record(predicted.hv, actual.hv);
        self.transfer.record(predicted.transfer, actual.transfer);
        self.dw.record(predicted.dw, actual.dw);
        miso_obs::gauge("xray.cost_drift_hv", self.hv.ratio());
        miso_obs::gauge("xray.cost_drift_transfer", self.transfer.ratio());
        miso_obs::gauge("xray.cost_drift_dw", self.dw.ratio());
    }

    /// Records one operator instance's estimated vs actual output rows.
    pub fn record_rows(&mut self, class: &'static str, est_rows: f64, act_rows: u64) {
        let c = self.classes.entry(class).or_default();
        c.est_rows += est_rows;
        c.act_rows += act_rows;
        c.samples += 1;
    }

    /// Current store-level drift (hv, transfer, dw) without draining.
    pub fn store_drift(&self) -> (StoreDrift, StoreDrift, StoreDrift) {
        (self.hv, self.transfer, self.dw)
    }

    /// Drains the epoch's accumulation into a report.
    pub fn epoch_report(&mut self, epoch: usize) -> CalibrationReport {
        let report = CalibrationReport {
            epoch,
            hv: self.hv,
            transfer: self.transfer,
            dw: self.dw,
            classes: self
                .classes
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
        };
        *self = CalibrationAccumulator::new();
        report
    }
}

/// One epoch's calibration summary.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// Reorganization epoch index (queries-so-far / reorg_every).
    pub epoch: usize,
    /// HV execution drift.
    pub hv: StoreDrift,
    /// Dump+wire+load drift.
    pub transfer: StoreDrift,
    /// DW execution drift.
    pub dw: StoreDrift,
    /// Cardinality drift per operator class, sorted by class name.
    pub classes: Vec<(String, ClassDrift)>,
}

impl CalibrationReport {
    /// JSON form for bench reports.
    pub fn to_value(&self) -> Value {
        let store = |d: &StoreDrift| {
            Value::object(vec![
                ("pred_s".into(), Value::Float(d.pred_s)),
                ("act_s".into(), Value::Float(d.act_s)),
                ("samples".into(), Value::Int(d.samples as i64)),
                ("ratio".into(), Value::Float(d.ratio())),
            ])
        };
        let classes = self
            .classes
            .iter()
            .map(|(name, c)| {
                Value::object(vec![
                    ("class".into(), Value::str(name)),
                    ("est_rows".into(), Value::Float(c.est_rows)),
                    ("act_rows".into(), Value::Int(c.act_rows as i64)),
                    ("samples".into(), Value::Int(c.samples as i64)),
                    ("ratio".into(), Value::Float(c.ratio())),
                ])
            })
            .collect();
        Value::object(vec![
            ("epoch".into(), Value::Int(self.epoch as i64)),
            ("hv".into(), store(&self.hv)),
            ("transfer".into(), store(&self.transfer)),
            ("dw".into(), store(&self.dw)),
            ("classes".into(), Value::Array(classes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(hv: f64, transfer: f64, dw: f64) -> CostBreakdown {
        CostBreakdown {
            hv: SimDuration::from_secs_f64(hv),
            transfer: SimDuration::from_secs_f64(transfer),
            dw: SimDuration::from_secs_f64(dw),
        }
    }

    #[test]
    fn ratios_track_accumulated_mass() {
        let mut acc = CalibrationAccumulator::new();
        acc.record_query(&bd(100.0, 10.0, 1.0), &bd(150.0, 10.0, 2.0));
        acc.record_query(&bd(100.0, 0.0, 1.0), &bd(150.0, 0.0, 2.0));
        let (hv, tr, dw) = acc.store_drift();
        assert!((hv.ratio() - 1.5).abs() < 1e-9);
        assert!((tr.ratio() - 1.0).abs() < 1e-9);
        assert!((dw.ratio() - 2.0).abs() < 1e-9);
        assert_eq!(hv.samples, 2);
    }

    #[test]
    fn empty_components_report_unit_ratio() {
        let d = StoreDrift::default();
        assert_eq!(d.ratio(), 1.0);
        let report = CalibrationAccumulator::new().epoch_report(0);
        assert_eq!(report.hv.ratio(), 1.0);
    }

    #[test]
    fn epoch_report_drains() {
        let mut acc = CalibrationAccumulator::new();
        acc.record_query(&bd(1.0, 1.0, 1.0), &bd(2.0, 2.0, 2.0));
        acc.record_rows("filter", 10.0, 5);
        let report = acc.epoch_report(3);
        assert_eq!(report.epoch, 3);
        assert_eq!(report.hv.samples, 1);
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].0, "filter");
        assert!((report.classes[0].1.ratio() - 0.5).abs() < 1e-9);
        let (hv, _, _) = acc.store_drift();
        assert_eq!(hv.samples, 0, "drained");
    }

    #[test]
    fn report_json_round_trips() {
        let mut acc = CalibrationAccumulator::new();
        acc.record_query(&bd(10.0, 1.0, 0.5), &bd(12.0, 1.0, 0.5));
        acc.record_rows("join", 100.0, 80);
        let v = acc.epoch_report(1).to_value();
        let text = miso_data::json::to_json(&v);
        let back = miso_data::json::parse_json(&text).unwrap();
        assert_eq!(back.get_field("epoch"), Some(&Value::Int(1)));
        assert!(back.get_field("hv").unwrap().get_field("ratio").is_some());
    }
}
