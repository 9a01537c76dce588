//! The original row-at-a-time interpreter, preserved verbatim as a
//! reference implementation.
//!
//! [`execute_serial`] is the semantic oracle for the morsel-parallel engine
//! in [`crate::engine`]: differential tests run both over the same plans and
//! assert row-for-row identical output. It intentionally keeps the seed
//! implementation's operator bodies (per-probe key `Vec`s in the join,
//! per-row group-key clones in the aggregate, full-input stable sorts)
//! rather than sharing the reworked ones, so a bug in those cannot hide in
//! both.

use crate::engine::{Acc, DataSource, Execution};
use crate::eval::{eval, eval_predicate};
use crate::udf::UdfRegistry;
use miso_common::ids::NodeId;
use miso_common::{MisoError, Result};
use miso_data::json::parse_json;
use miso_data::{Cell, Row, Value};
use miso_plan::{AggFunc, Expr, LogicalPlan, Operator};
use std::collections::HashMap;
use std::sync::Arc;

/// Executes the whole plan with the seed row-at-a-time operator bodies,
/// single-threaded regardless of the pool's worker count.
pub fn execute_serial(
    plan: &LogicalPlan,
    source: &dyn DataSource,
    udfs: &UdfRegistry,
) -> Result<Execution> {
    let mut outputs: HashMap<NodeId, Arc<Vec<Row>>> = HashMap::new();
    let mut skipped_lines = 0u64;
    for node in plan.nodes() {
        let get_input = |idx: usize| -> Result<&Arc<Vec<Row>>> {
            outputs.get(&node.inputs[idx]).ok_or_else(|| {
                MisoError::Execution(format!(
                    "node {} input {} neither executed nor provided",
                    node.id, node.inputs[idx]
                ))
            })
        };
        let rows: Vec<Row> = match &node.op {
            Operator::ScanLog { log } => {
                let mut rows = Vec::new();
                for line in source.log_lines(log)?.iter() {
                    match parse_json(line) {
                        Ok(v) => rows.push(Row::new(vec![v])),
                        Err(_) => skipped_lines += 1,
                    }
                }
                rows
            }
            Operator::ScanView { view, .. } => source.view_batch(view)?.to_rows(),
            Operator::Filter { predicate } => {
                let input = get_input(0)?;
                let mut rows = Vec::new();
                for row in input.iter() {
                    if eval_predicate(predicate, row)? {
                        rows.push(row.clone());
                    }
                }
                rows
            }
            Operator::Project { exprs } => {
                let input = get_input(0)?;
                let mut rows = Vec::with_capacity(input.len());
                for row in input.iter() {
                    let values: Vec<Value> = exprs
                        .iter()
                        .map(|(_, e)| eval(e, row))
                        .collect::<Result<_>>()?;
                    rows.push(Row::new(values));
                }
                rows
            }
            Operator::Join { on } => {
                let left = get_input(0)?.clone();
                let right = get_input(1)?;
                hash_join_serial(&left, right, on)
            }
            Operator::Aggregate { group_by, aggs } => {
                let input = get_input(0)?;
                aggregate_serial(input, group_by, aggs)?
            }
            Operator::Udf { name, .. } => {
                let udf = udfs.require(name)?;
                let input = get_input(0)?;
                let mut rows = Vec::new();
                for row in input.iter() {
                    rows.extend(udf.apply(row)?);
                }
                rows
            }
            Operator::Sort { keys } => {
                let input = get_input(0)?;
                let mut rows = input.as_ref().clone();
                rows.sort_by(|a, b| {
                    for &(col, desc) in keys {
                        let ord = a.get(col).cmp(b.get(col));
                        let ord = if desc { ord.reverse() } else { ord };
                        if !ord.is_eq() {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows
            }
            Operator::Limit { n } => {
                let input = get_input(0)?;
                input.iter().take(*n as usize).cloned().collect()
            }
        };
        outputs.insert(node.id, Arc::new(rows));
    }
    Execution::from_parts(plan, outputs, skipped_lines)
}

/// Inner hash equijoin, seed edition: `Vec<&Value>` key per row, SipHash.
pub fn hash_join_serial(left: &[Row], right: &[Row], on: &[(usize, usize)]) -> Vec<Row> {
    // Build on the right side.
    let mut table: HashMap<Vec<&Value>, Vec<&Row>> = HashMap::new();
    'right: for row in right {
        let mut key = Vec::with_capacity(on.len());
        for &(_, r) in on {
            let v = row.get(r);
            if v.is_null() {
                continue 'right;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(row);
    }
    let mut out = Vec::new();
    'left: for row in left {
        let mut key = Vec::with_capacity(on.len());
        for &(l, _) in on {
            let v = row.get(l);
            if v.is_null() {
                continue 'left;
            }
            key.push(v);
        }
        if let Some(matches) = table.get(&key) {
            for m in matches {
                out.push(row.concat(m));
            }
        }
    }
    out
}

/// Grouped aggregation, seed edition: clone the full group key per row.
fn aggregate_serial(
    input: &[Row],
    group_by: &[usize],
    aggs: &[miso_plan::AggExpr],
) -> Result<Vec<Row>> {
    // Int-vs-float SUM is decided by the first numeric value of its input.
    let float_sum: Vec<bool> = aggs
        .iter()
        .map(|agg| match (&agg.func, &agg.input) {
            (AggFunc::Sum, Some(e)) => first_numeric(input, e) == Some(true),
            _ => false,
        })
        .collect();
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    // Deterministic output: remember first-seen order of groups.
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in input {
        let key: Vec<Value> = group_by.iter().map(|&g| row.get(g).clone()).collect();
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                order.push(key.clone());
                groups.entry(key.clone()).or_insert_with(|| {
                    aggs.iter()
                        .zip(&float_sum)
                        .map(|(a, &fs)| Acc::new(a.func, fs))
                        .collect()
                })
            }
        };
        for (acc, agg) in accs.iter_mut().zip(aggs) {
            match &agg.input {
                Some(e) => acc.update(Some(&Cell::of(&eval(e, row)?))),
                None => acc.update(None),
            }
        }
    }
    // Global aggregate over empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        let accs: Vec<Acc> = aggs
            .iter()
            .zip(&float_sum)
            .map(|(a, &fs)| Acc::new(a.func, fs))
            .collect();
        let values: Vec<Value> = accs.into_iter().map(Acc::finish).collect();
        return Ok(vec![Row::new(values)]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group exists");
        let mut values = key;
        values.extend(accs.into_iter().map(Acc::finish));
        out.push(Row::new(values));
    }
    Ok(out)
}

/// First-value SUM typing scan over rows, which the engine replays over
/// columns (`engine::first_numeric_is_float`): `Some(true)` = float,
/// `Some(false)` = int, `None` = no numeric value in `input`.
fn first_numeric(input: &[Row], e: &Expr) -> Option<bool> {
    for row in input {
        if let Ok(v) = eval(e, row) {
            match v {
                Value::Float(_) => return Some(true),
                Value::Int(_) => return Some(false),
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute, MemSource};
    use miso_data::{DataType, Field, Schema};
    use miso_plan::{AggExpr, Expr, PlanBuilder};

    /// Serial and morsel-parallel engines agree on a join + aggregate plan
    /// big enough to span several morsels.
    #[test]
    fn serial_is_the_oracle_for_the_parallel_engine() {
        let mut src = MemSource::new();
        src.add_view(
            "facts",
            (0..9000)
                .map(|i| Row::new(vec![Value::Int(i % 700), Value::Int(i)]))
                .collect(),
        );
        src.add_view(
            "dims",
            (0..700)
                .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("seg-{}", i % 13))]))
                .collect(),
        );
        let schema_facts = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let schema_dims = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("seg", DataType::Str),
        ]);
        let mut b = PlanBuilder::new();
        let facts = b
            .add(
                Operator::ScanView {
                    view: "facts".into(),
                    schema: schema_facts,
                },
                vec![],
            )
            .unwrap();
        let dims = b
            .add(
                Operator::ScanView {
                    view: "dims".into(),
                    schema: schema_dims,
                },
                vec![],
            )
            .unwrap();
        let join = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dims])
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![3],
                    aggs: vec![
                        AggExpr::new(AggFunc::Count, None, "n"),
                        AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                        AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
                        AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
                    ],
                },
                vec![join],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let udfs = UdfRegistry::new();
        let serial = execute_serial(&plan, &src, &udfs).unwrap();
        let parallel = execute(&plan, &src, &udfs).unwrap();
        assert_eq!(serial.root_rows().unwrap(), parallel.root_rows().unwrap());
        assert_eq!(serial.skipped_lines, parallel.skipped_lines);
    }
}
