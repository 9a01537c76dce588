//! Cardinality and byte-size estimation.
//!
//! The multistore optimizer costs candidate splits *before* execution, so it
//! needs per-node estimates of row counts and working-set bytes. Estimates
//! use the classic textbook heuristics (constant selectivities, fanout-capped
//! joins, sub-linear group counts); **actual** sizes recorded at
//! materialization time always take precedence — base logs and existing views
//! report their true statistics through the [`StatsSource`].
//!
//! This imprecision is faithful to the paper's setting: its optimizer also
//! estimates working-set sizes and only discovers true costs at execution.

use crate::expr::{BinOp, Expr, UnaryOp};
use crate::op::Operator;
use crate::plan::LogicalPlan;
use miso_common::ids::NodeId;
use miso_data::DataType;
use std::collections::HashMap;

/// Row/byte estimate for one node's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output bytes.
    pub bytes: f64,
}

impl SizeEstimate {
    /// Average row width implied by the estimate.
    pub fn avg_row_bytes(&self) -> f64 {
        if self.rows <= 0.0 {
            0.0
        } else {
            self.bytes / self.rows
        }
    }
}

/// Supplies true statistics for leaves: base logs and materialized views.
///
/// `Sync` is part of the contract: the tuner's what-if probes fan out
/// across the miso-par worker pool, and every probe reads stats through a
/// shared reference.
pub trait StatsSource: Sync {
    /// Rows and bytes for base log `log`, if known.
    fn log_stats(&self, log: &str) -> Option<SizeEstimate>;
    /// Rows and bytes for view `view`, if known.
    fn view_stats(&self, view: &str) -> Option<SizeEstimate>;
}

/// A [`StatsSource`] backed by hash maps — used by tests and by the stores,
/// which register sizes as data is ingested/materialized.
#[derive(Debug, Clone, Default)]
pub struct MapStats {
    logs: HashMap<String, SizeEstimate>,
    views: HashMap<String, SizeEstimate>,
}

impl MapStats {
    /// An empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a base log's true size.
    pub fn set_log(&mut self, log: impl Into<String>, rows: f64, bytes: f64) {
        self.logs.insert(log.into(), SizeEstimate { rows, bytes });
    }

    /// Registers a view's true size.
    pub fn set_view(&mut self, view: impl Into<String>, rows: f64, bytes: f64) {
        self.views.insert(view.into(), SizeEstimate { rows, bytes });
    }
}

impl StatsSource for MapStats {
    fn log_stats(&self, log: &str) -> Option<SizeEstimate> {
        self.logs.get(log).copied()
    }

    fn view_stats(&self, view: &str) -> Option<SizeEstimate> {
        self.views.get(view).copied()
    }
}

/// Default selectivities (see module docs).
mod sel {
    pub const EQ: f64 = 0.08;
    pub const RANGE: f64 = 1.0 / 3.0;
    pub const LIKE: f64 = 0.25;
    pub const MEMBER: f64 = 0.15;
    pub const NULLNESS: f64 = 0.9;
    pub const UNKNOWN: f64 = 0.5;
    pub const FLOOR: f64 = 1e-4;
    /// Join fanout multiplier over the FK-style `min(|L|,|R|)` base.
    pub const JOIN_FANOUT: f64 = 1.2;
    /// Grouped-aggregate output exponent: `rows^GROUP_EXP` per group column.
    pub const GROUP_EXP: f64 = 0.75;
}

/// Estimated serialized width of a value of the given static type.
fn type_width(ty: DataType) -> f64 {
    match ty {
        DataType::Bool => 1.0,
        DataType::Int | DataType::Float => 8.0,
        DataType::Str => 24.0,
        DataType::Json => 64.0,
    }
}

/// Estimates sizes for every node of `plan`, bottom-up.
pub fn estimate_plan(plan: &LogicalPlan, stats: &dyn StatsSource) -> HashMap<NodeId, SizeEstimate> {
    let mut out: HashMap<NodeId, SizeEstimate> = HashMap::with_capacity(plan.len());
    for node in plan.nodes() {
        let est = match &node.op {
            Operator::ScanLog { log } => stats.log_stats(log).unwrap_or(SizeEstimate {
                rows: 1_000_000.0,
                bytes: 1_000_000.0 * 200.0,
            }),
            Operator::ScanView { view, schema } => stats.view_stats(view).unwrap_or_else(|| {
                let width: f64 = schema.fields().iter().map(|f| type_width(f.ty)).sum();
                SizeEstimate {
                    rows: 10_000.0,
                    bytes: 10_000.0 * width.max(8.0),
                }
            }),
            Operator::Filter { predicate } => {
                let input = out[&node.inputs[0]];
                let s = predicate_selectivity(predicate);
                SizeEstimate {
                    rows: (input.rows * s).max(1.0),
                    bytes: (input.bytes * s).max(8.0),
                }
            }
            Operator::Project { exprs } => {
                let input = out[&node.inputs[0]];
                let in_schema = &plan.node(node.inputs[0]).schema;
                let out_width: f64 = exprs
                    .iter()
                    .map(|(_, e)| type_width(e.infer_type(in_schema)))
                    .sum::<f64>()
                    .max(1.0);
                SizeEstimate {
                    rows: input.rows,
                    bytes: input.rows * out_width,
                }
            }
            Operator::Join { .. } => {
                let l = out[&node.inputs[0]];
                let r = out[&node.inputs[1]];
                let rows = (l.rows.min(r.rows) * sel::JOIN_FANOUT).max(1.0);
                let width = l.avg_row_bytes() + r.avg_row_bytes();
                SizeEstimate {
                    rows,
                    bytes: rows * width.max(8.0),
                }
            }
            Operator::Aggregate { group_by, aggs } => {
                let input = out[&node.inputs[0]];
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    // More group columns → more groups, capped at input rows.
                    let exp =
                        sel::GROUP_EXP.powi(1i32.max(group_by.len() as i32) - 1) * sel::GROUP_EXP;
                    input.rows.powf(exp.min(1.0)).min(input.rows).max(1.0)
                };
                let in_schema = &plan.node(node.inputs[0]).schema;
                let width: f64 = group_by
                    .iter()
                    .map(|&g| type_width(in_schema.field_at(g).ty))
                    .sum::<f64>()
                    + aggs.len() as f64 * 8.0;
                SizeEstimate {
                    rows,
                    bytes: rows * width.max(8.0),
                }
            }
            Operator::Udf { output, .. } => {
                // UDFs are opaque; assume row-preserving with declared width.
                let input = out[&node.inputs[0]];
                let width: f64 = output.fields().iter().map(|f| type_width(f.ty)).sum();
                SizeEstimate {
                    rows: input.rows,
                    bytes: input.rows * width.max(8.0),
                }
            }
            Operator::Sort { .. } => out[&node.inputs[0]],
            Operator::Limit { n } => {
                let input = out[&node.inputs[0]];
                let rows = input.rows.min(*n as f64);
                SizeEstimate {
                    rows,
                    bytes: rows * input.avg_row_bytes().max(8.0),
                }
            }
        };
        out.insert(node.id, est);
    }
    out
}

/// Combined selectivity of a (possibly conjunctive) predicate.
pub fn predicate_selectivity(predicate: &Expr) -> f64 {
    predicate
        .conjuncts()
        .iter()
        .map(|c| factor_selectivity(c))
        .product::<f64>()
        .max(sel::FLOOR)
}

fn factor_selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Binary { op, left, right } => match op {
            BinOp::Eq => sel::EQ,
            BinOp::Ne => 1.0 - sel::EQ,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => sel::RANGE,
            BinOp::Or => {
                // Union bound, capped.
                let l = factor_selectivity(left);
                let r = factor_selectivity(right);
                (l + r - l * r).min(1.0)
            }
            BinOp::And => factor_selectivity(left) * factor_selectivity(right),
            _ => sel::UNKNOWN,
        },
        Expr::Unary { op, input } => match op {
            UnaryOp::Not => (1.0 - factor_selectivity(input)).max(sel::FLOOR),
            UnaryOp::IsNull => 1.0 - sel::NULLNESS,
            UnaryOp::IsNotNull => sel::NULLNESS,
            UnaryOp::Neg => sel::UNKNOWN,
        },
        Expr::Func { name, .. } => match name.as_str() {
            "contains" | "like" => sel::LIKE,
            "array_contains" => sel::MEMBER,
            _ => sel::UNKNOWN,
        },
        Expr::Literal(v) if v.is_true() => 1.0,
        Expr::Literal(_) => sel::FLOOR,
        _ => sel::UNKNOWN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, AggFunc};
    use crate::plan::PlanBuilder;

    fn stats() -> MapStats {
        let mut s = MapStats::new();
        s.set_log("twitter", 100_000.0, 100_000.0 * 300.0);
        s.set_log("foursquare", 50_000.0, 50_000.0 * 150.0);
        s
    }

    fn linear() -> LogicalPlan {
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
                    exprs: vec![
                        (
                            "uid".into(),
                            Expr::col(0).get("user_id").cast(DataType::Int),
                        ),
                        ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
                },
                vec![proj],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![1],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![filt],
            )
            .unwrap();
        b.finish(agg).unwrap()
    }

    #[test]
    fn leaf_uses_registered_stats() {
        let p = linear();
        let est = estimate_plan(&p, &stats());
        assert_eq!(est[&NodeId(0)].rows, 100_000.0);
        assert_eq!(est[&NodeId(0)].bytes, 100_000.0 * 300.0);
    }

    #[test]
    fn working_set_shrinks_down_the_plan() {
        // The "little data" effect: bytes drop at projection, filter, agg.
        let p = linear();
        let est = estimate_plan(&p, &stats());
        let scan = est[&NodeId(0)].bytes;
        let proj = est[&NodeId(1)].bytes;
        let filt = est[&NodeId(2)].bytes;
        let agg = est[&NodeId(3)].bytes;
        assert!(proj < scan);
        assert!(filt < proj);
        assert!(agg < filt);
    }

    #[test]
    fn filter_applies_eq_selectivity() {
        let p = linear();
        let est = estimate_plan(&p, &stats());
        let ratio = est[&NodeId(2)].rows / est[&NodeId(1)].rows;
        assert!((ratio - 0.08).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_is_fk_style() {
        let mut b = PlanBuilder::new();
        let t = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let f = b
            .add(
                Operator::ScanLog {
                    log: "foursquare".into(),
                },
                vec![],
            )
            .unwrap();
        let j = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![t, f])
            .unwrap();
        let p = b.finish(j).unwrap();
        let est = estimate_plan(&p, &stats());
        assert!((est[&NodeId(2)].rows - 50_000.0 * 1.2).abs() < 1e-6);
    }

    #[test]
    fn global_aggregate_is_one_row() {
        let mut b = PlanBuilder::new();
        let t = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let a = b
            .add(
                Operator::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![t],
            )
            .unwrap();
        let p = b.finish(a).unwrap();
        let est = estimate_plan(&p, &stats());
        assert_eq!(est[&NodeId(1)].rows, 1.0);
    }

    #[test]
    fn limit_caps_rows() {
        let mut b = PlanBuilder::new();
        let t = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let l = b.add(Operator::Limit { n: 10 }, vec![t]).unwrap();
        let p = b.finish(l).unwrap();
        let est = estimate_plan(&p, &stats());
        assert_eq!(est[&NodeId(1)].rows, 10.0);
    }

    #[test]
    fn view_stats_override_defaults() {
        let mut s = stats();
        s.set_view("v_x", 42.0, 4200.0);
        let mut b = PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "v_x".into(),
                    schema: miso_data::Schema::new(vec![miso_data::Field::new("a", DataType::Int)]),
                },
                vec![],
            )
            .unwrap();
        let p = b.finish(sv).unwrap();
        let est = estimate_plan(&p, &s);
        assert_eq!(est[&NodeId(0)].rows, 42.0);
        assert_eq!(est[&NodeId(0)].bytes, 4200.0);
    }

    #[test]
    fn selectivity_combinators() {
        let eq = Expr::col(0).eq(Expr::lit(1i64));
        assert!((predicate_selectivity(&eq) - 0.08).abs() < 1e-12);
        let both = eq.clone().and(eq.clone());
        assert!((predicate_selectivity(&both) - 0.08 * 0.08).abs() < 1e-12);
        let or = Expr::Binary {
            op: BinOp::Or,
            left: Box::new(eq.clone()),
            right: Box::new(eq.clone()),
        };
        let expect = 0.08 + 0.08 - 0.08 * 0.08;
        assert!((predicate_selectivity(&or) - expect).abs() < 1e-12);
        let not = Expr::Unary {
            op: UnaryOp::Not,
            input: Box::new(eq),
        };
        assert!((predicate_selectivity(&not) - 0.92).abs() < 1e-12);
    }

    #[test]
    fn selectivity_never_hits_zero() {
        let mut pred = Expr::col(0).eq(Expr::lit(1i64));
        for _ in 0..10 {
            pred = pred.and(Expr::col(0).eq(Expr::lit(1i64)));
        }
        assert!(predicate_selectivity(&pred) >= 1e-4);
    }
}
