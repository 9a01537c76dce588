//! Incremental aggregate maintenance state.
//!
//! The engine aggregates morsel by morsel: every [`MORSEL_SIZE`] input rows
//! fold into a partial `GroupTable`, and the partials merge serially, in
//! morsel order, into one global table (`GroupTable::absorb`) — so the
//! result, float summation grouping included, is a function of the input
//! rows and the fixed morsel structure only. [`AggState`] keeps that
//! structure *alive* between refreshes:
//!
//! * `closed` — the global table after every **complete** morsel so far;
//! * `open` — the partial table of the incomplete last morsel, with its row
//!   count.
//!
//! An append-only delta folds into `open` through the engine's own morsel
//! kernel (`fold_morsel`), cut where `open` reaches [`MORSEL_SIZE`] rows;
//! then it merges into `closed` exactly as the engine merges that morsel,
//! and a fresh one opens. A group's output row is
//! `closed ⊕ open` — the merge the engine would do next. The fold therefore
//! is **bit-identical** to the engine's aggregation of the grown input for
//! every accumulator, in O(|delta|):
//!
//! * `COUNT` / `COUNT DISTINCT` / integer `SUM` — associative anyway;
//! * `MIN` / `MAX` — strict comparisons keep the first-seen value on ties,
//!   in the fold as in the merge;
//! * `AVG` / float `SUM` — IEEE 754 addition is not associative, but the
//!   state adds the same partial sums in the same order as the engine;
//! * group order — groups are emitted in first-seen input order, which is
//!   prefix-stable under appends: existing groups keep their row index, new
//!   groups append in delta first-seen order.
//!
//! The int-vs-float `SUM` decision is replayed exactly too: the engine
//! scans the input in row order and decides from the first `Int`/`Float`
//! value (`first_numeric_is_float`). The state carries `None` per `SUM` while no
//! numeric value has appeared and settles it against each delta the way
//! the engine would against the grown input.

use crate::engine::{first_numeric_is_float, fold_morsel, key_hash, Acc, GroupTable, MORSEL_SIZE};
use crate::eval::eval;
use miso_common::{MisoError, Result};
use miso_data::{ColBatch, Row, RowSetDigest, Value};
use miso_plan::expr::{AggExpr, AggFunc, Expr};
use std::collections::BTreeSet;

/// The changed rows a delta fold produced: existing groups that were
/// updated (by slot index == view row index) and brand-new groups, in
/// first-seen delta order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggApplied {
    /// `(slot, new aggregate output row)` for every touched existing group,
    /// in ascending slot order.
    pub updated: Vec<(usize, Row)>,
    /// Output rows of groups first seen in this delta, in insertion order.
    pub appended: Vec<Row>,
}

impl AggApplied {
    /// Patches the stored aggregate view the fold belongs to: each changed
    /// group's row goes through the view's `post` projection layers and
    /// replaces (or extends) the view's row of the same index, `digest`
    /// following every change. Returns the patched view and the bytes of the
    /// rows written. An aggregate view is group-sized, so the view is
    /// rebuilt whole.
    pub fn patch(
        &self,
        view: &ColBatch,
        post: &[Vec<(String, Expr)>],
        digest: &mut RowSetDigest,
    ) -> Result<(ColBatch, u64)> {
        let mut rows = view.to_rows();
        let mut changed = 0u64;
        for (slot, agg_row) in &self.updated {
            let new_row = apply_projection(post, agg_row)?;
            changed += new_row.approx_bytes();
            if rows[*slot] != new_row {
                digest.replace_row(&rows[*slot], &new_row);
                rows[*slot] = new_row;
            }
        }
        for agg_row in &self.appended {
            let new_row = apply_projection(post, agg_row)?;
            changed += new_row.approx_bytes();
            digest.add_row(&new_row);
            rows.push(new_row);
        }
        let patched = ColBatch::of_rows(view.arity(), &rows)
            .ok_or_else(|| MisoError::Execution("projected groups differ in arity".into()))?;
        Ok((patched, changed))
    }
}

/// Live aggregation state for one maintained view (see module docs).
pub struct AggState {
    closed: GroupTable,
    open: GroupTable,
    open_rows: usize,
    /// Output row index of each `open` group: its `closed` slot, or past
    /// them in `open_only` order.
    open_out: Vec<usize>,
    /// `open` slots of the groups `closed` does not know, in slot order.
    open_only: Vec<usize>,
    /// Per aggregate: `Some(float?)` once a `SUM`'s typing is decided (and
    /// for everything that is not a `SUM`), `None` while no numeric input
    /// value has appeared.
    sum_float: Vec<Option<bool>>,
}

impl AggState {
    /// Replays `input` (the aggregate's full input, in row order) into
    /// fresh state.
    pub fn build(input: &ColBatch, group_by: &[usize], aggs: &[AggExpr]) -> Result<AggState> {
        let table = || GroupTable::new(group_by.len(), aggs.len(), 0);
        let mut state = AggState {
            closed: table(),
            open: table(),
            open_rows: 0,
            open_out: Vec::new(),
            open_only: Vec::new(),
            sum_float: aggs
                .iter()
                .map(|a| (a.func != AggFunc::Sum || a.input.is_none()).then_some(false))
                .collect(),
        };
        state.apply(input, group_by, aggs)?;
        if group_by.is_empty() && input.is_empty() {
            // A global aggregate over empty input still has one output row;
            // materialize the implicit group so deltas update slot 0.
            let accs = aggs.iter().map(|a| Acc::new(a.func, false));
            state
                .open_only
                .push(state.open.insert(key_hash(&[]), [], accs));
            state.open_out.push(0);
        }
        Ok(state)
    }

    /// Number of groups (== maintained view rows before projection).
    pub fn groups(&self) -> usize {
        self.closed.len() + self.open_only.len()
    }

    /// The full output row set in group order — equals what the engine's
    /// aggregation emits over the same input.
    pub fn output_rows(&self) -> Vec<Row> {
        (0..self.groups()).map(|out| self.row_at(out)).collect()
    }

    /// Folds one delta (the aggregate's delta-input rows, in order) into
    /// the state and reports exactly which output rows changed. The delta
    /// folds through the engine's own kernel (`fold_morsel`), in pieces cut
    /// where the engine's morsels of the grown input end.
    pub fn apply(
        &mut self,
        delta: &ColBatch,
        group_by: &[usize],
        aggs: &[AggExpr],
    ) -> Result<AggApplied> {
        self.settle_sum_types(delta, aggs);
        let float_sum: Vec<bool> = self.sum_float.iter().map(|f| *f == Some(true)).collect();
        let before = self.groups();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        let mut start = 0;
        while start < delta.len() {
            let n = (MORSEL_SIZE - self.open_rows).min(delta.len() - start);
            let known = self.open.len();
            let slots = fold_morsel(
                &mut self.open,
                delta,
                (start, n),
                group_by,
                aggs,
                &float_sum,
            )?;
            // Groups new to the open morsel, in first-seen order.
            for slot in known..self.open.len() {
                let key = self.open.key(slot);
                let out = match self.closed.find(self.open.hash(slot), |k| k == key) {
                    Some(closed_slot) => closed_slot,
                    None => {
                        self.open_only.push(slot);
                        self.groups() - 1
                    }
                };
                self.open_out.push(out);
            }
            touched.extend(slots.iter().map(|&slot| self.open_out[slot as usize]));
            self.open_rows += n;
            start += n;
            if self.open_rows == MORSEL_SIZE {
                // The morsel is complete: merge it as the engine would.
                let fresh = GroupTable::new(group_by.len(), aggs.len(), 0);
                self.closed.absorb(std::mem::replace(&mut self.open, fresh));
                self.open_rows = 0;
                self.open_out.clear();
                self.open_only.clear();
            }
        }
        Ok(AggApplied {
            updated: touched
                .range(..before)
                .map(|&out| (out, self.row_at(out)))
                .collect(),
            appended: (before..self.groups())
                .map(|out| self.row_at(out))
                .collect(),
        })
    }

    /// Settles still-undecided `SUM` typings against the delta, exactly as
    /// the engine's first-value scan over the grown input would: the rows
    /// so far contributed no numeric value, so the delta's first numeric
    /// value is the grown input's first — and every accumulator of that
    /// `SUM` is still untouched, so a float decision just re-types them.
    fn settle_sum_types(&mut self, delta: &ColBatch, aggs: &[AggExpr]) {
        for (i, agg) in aggs.iter().enumerate() {
            let (None, Some(e)) = (self.sum_float[i], &agg.input) else {
                continue;
            };
            self.sum_float[i] = first_numeric_is_float(delta, e);
            if self.sum_float[i] == Some(true) {
                for table in [&mut self.closed, &mut self.open] {
                    table.reset_acc(i, &Acc::new(AggFunc::Sum, true));
                }
            }
        }
    }

    /// The output row of group `out`: `closed ⊕ open`.
    fn row_at(&self, out: usize) -> Row {
        let row = |key: &[Value], aggs: &mut dyn Iterator<Item = Value>| {
            let mut values = key.to_vec();
            values.extend(aggs);
            Row::new(values)
        };
        if out >= self.closed.len() {
            let slot = self.open_only[out - self.closed.len()];
            let (key, accs) = (self.open.key(slot), self.open.accs(slot));
            return row(key, &mut accs.iter().map(Acc::finish_ref));
        }
        let (key, accs) = (self.closed.key(out), self.closed.accs(out));
        match self.open.find(self.closed.hash(out), |k| k == key) {
            Some(slot) => {
                let later = self.open.accs(slot);
                row(
                    key,
                    &mut accs.iter().zip(later).map(|(a, l)| finish_merged(a, l)),
                )
            }
            None => row(key, &mut accs.iter().map(Acc::finish_ref)),
        }
    }
}

/// What `acc` finishes to once the open morsel's `later` has merged into it.
fn finish_merged(acc: &Acc, later: &Acc) -> Value {
    if let (Acc::CountDistinct(a), Acc::CountDistinct(b)) = (acc, later) {
        // Same count as the merged set, without copying the closed one.
        let fresh = b.iter().filter(|v| !a.contains(v)).count();
        return Value::Int((a.len() + fresh) as i64);
    }
    let mut merged = acc.clone();
    merged.merge(later.clone());
    merged.finish()
}

/// Applies the maintained view's post-aggregate projection layers
/// (bottom-up) to one changed aggregate row, producing the stored-view row.
/// Mirrors the engine's `Project`: one output row per input row, evaluation
/// errors propagate.
pub fn apply_projection(layers: &[Vec<(String, Expr)>], row: &Row) -> Result<Row> {
    let mut cur = row.clone();
    for layer in layers {
        let values: Vec<Value> = layer
            .iter()
            .map(|(_, e)| eval(e, &cur))
            .collect::<Result<_>>()?;
        cur = Row::new(values);
    }
    Ok(cur)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{execute_subset_guarded, MemSource, Retention};
    use crate::udf::UdfRegistry;
    use miso_common::{guard::QueryGuard, pool, rng::DetRng};
    use miso_data::{DataType, Field, Schema};
    use miso_plan::{LogicalPlan, Operator, PlanBuilder};
    use std::collections::HashMap;

    fn rows(spec: &[(&str, i64)]) -> Vec<Row> {
        spec.iter()
            .map(|(city, score)| Row::new(vec![Value::str(*city), Value::Int(*score)]))
            .collect()
    }

    fn int_aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::new(AggFunc::Count, None, "n"),
            AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(1)), "d"),
            AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s"),
            AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
            AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
        ]
    }

    fn b(rows: &[Row]) -> ColBatch {
        ColBatch::from_rows(rows).expect("one arity")
    }

    /// Patches `view` row by row, and checks that the maintainer's patch of
    /// the stored batch ([`AggApplied::patch`]) gives those rows and their
    /// digest.
    fn patch(view: &mut Vec<Row>, applied: AggApplied) {
        let arity = view.iter().chain(&applied.appended).next();
        let stored = ColBatch::of_rows(arity.map_or(0, Row::arity), view).unwrap();
        let mut digest = RowSetDigest::from_rows(view);
        let (patched, _) = applied.patch(&stored, &[], &mut digest).unwrap();
        for (slot, row) in applied.updated {
            view[slot] = row;
        }
        view.extend(applied.appended);
        assert_eq!(patched.to_rows(), *view);
        assert_eq!(digest.finish(), miso_data::checksum_rows(view));
    }

    /// Build-on-base + delta fold must equal build-on-full for every split.
    #[test]
    fn delta_fold_equals_full_replay() {
        let full = rows(&[
            ("sf", 10),
            ("ny", 20),
            ("sf", 10),
            ("la", 5),
            ("ny", -3),
            ("sf", 7),
            ("austin", 0),
        ]);
        let aggs = int_aggs();
        for split in 0..=full.len() {
            let mut state = AggState::build(&b(&full[..split]), &[0], &aggs).unwrap();
            let mut view = state.output_rows();
            patch(
                &mut view,
                state.apply(&b(&full[split..]), &[0], &aggs).unwrap(),
            );
            let oracle = AggState::build(&b(&full), &[0], &aggs).unwrap();
            assert_eq!(view, oracle.output_rows(), "split {split}");
            assert_eq!(view, state.output_rows(), "split {split}");
        }
    }

    #[test]
    fn global_aggregate_over_empty_base_updates_in_place() {
        let aggs = vec![AggExpr::new(AggFunc::Count, None, "n")];
        let mut state = AggState::build(&b(&[]), &[], &aggs).unwrap();
        assert_eq!(state.groups(), 1, "implicit global group");
        assert_eq!(state.output_rows(), vec![Row::new(vec![Value::Int(0)])]);
        let applied = state
            .apply(&b(&rows(&[("sf", 1), ("ny", 2)])), &[], &aggs)
            .unwrap();
        assert_eq!(applied.appended, vec![]);
        assert_eq!(applied.updated, vec![(0, Row::new(vec![Value::Int(2)]))]);
    }

    /// The aggregate the engine computes over `input`, through a plan.
    fn engine_aggregate(
        input: &[Row],
        group_by: &[usize],
        aggs: &[AggExpr],
        retain: Retention<'_>,
    ) -> Vec<Row> {
        let mut src = MemSource::new();
        src.add_batch("input", ColBatch::of_rows(4, input).expect("one arity"));
        let mut b = PlanBuilder::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Float),
            Field::new("i", DataType::Int),
            Field::new("late", DataType::Float),
        ]);
        let scan = b
            .add(
                Operator::ScanView {
                    view: "input".into(),
                    schema,
                },
                vec![],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: group_by.to_vec(),
                    aggs: aggs.to_vec(),
                },
                vec![scan],
            )
            .unwrap();
        let plan: LogicalPlan = b.finish(agg).unwrap();
        execute_subset_guarded(
            &plan,
            None,
            HashMap::new(),
            &src,
            &UdfRegistry::new(),
            retain,
            QueryGuard::inert_ref(),
        )
        .unwrap()
        .root_rows()
        .unwrap()
        .to_vec()
    }

    /// Rows as text with floats by bit pattern: `Value` equality folds NaNs
    /// and signed zeros together, the claim here does not.
    pub(crate) fn bits(rows: &[Row]) -> Vec<String> {
        let text = |v: &Value| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter()
            .map(|r| r.values().iter().map(text).collect::<Vec<_>>().join("|"))
            .collect()
    }

    /// `[key, float-ish value, int value, late]`: keys with NULLs and a
    /// signed-zero pair; values mixing floats of wildly different
    /// magnitude (so summation order shows), ints, NULLs, -0.0 and NaN; and
    /// a `late` column that is NULL until row `late_from`.
    fn float_rows(n: usize, late_from: usize, late_float: bool) -> Vec<Row> {
        let mut rng = DetRng::new(0x16);
        (0..n)
            .map(|i| {
                let key = match rng.below(9) {
                    0 => Value::Null,
                    1 => Value::Float(0.0),
                    2 => Value::Float(-0.0),
                    k => Value::str(format!("g{k}")),
                };
                let v = match rng.below(12) {
                    0 => Value::Null,
                    1 => Value::Float(-0.0),
                    2 => Value::Int(rng.below(1000) as i64 - 500),
                    3 if i % 1500 == 7 => Value::Float(f64::NAN),
                    4 => Value::Float(1e16 * rng.f64()),
                    _ => Value::Float(rng.f64() - 0.5),
                };
                let late = match (i >= late_from && rng.chance(0.5), late_float) {
                    (false, _) => Value::Null,
                    (true, true) => Value::Float(rng.f64()),
                    (true, false) => Value::Int(rng.below(50) as i64),
                };
                Row::new(vec![key, v, Value::Int(rng.below(100) as i64), late])
            })
            .collect()
    }

    /// Folding a delta is bit-for-bit the engine's aggregation of the grown
    /// input — `AVG`, float `SUM`, mixed NULLs, -0.0 and NaN included —
    /// whatever the base size relative to a morsel, however many morsels the
    /// delta closes, whatever the run keeps, at 1 and 8 threads; and a `SUM`
    /// that sees its first number mid-stream types itself as the engine does
    /// over the grown input.
    #[test]
    fn fold_is_bit_identical_to_engine_aggregation_of_the_grown_input() {
        let aggs = vec![
            AggExpr::new(AggFunc::Count, None, "n"),
            AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s"),
            AggExpr::new(AggFunc::Avg, Some(Expr::col(1)), "a"),
            AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
            AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
            AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(2)), "d"),
            AggExpr::new(AggFunc::Sum, Some(Expr::col(2)), "si"),
            AggExpr::new(AggFunc::Sum, Some(Expr::col(3)), "late"),
            AggExpr::new(AggFunc::Avg, Some(Expr::col(3)), "late_avg"),
        ];
        let before = pool::threads();
        // Deltas that close no morsel, one, and two.
        let deltas = [1usize, 5, 4096, 2 * 4096 + 3];
        for base in [0usize, 1, 4095, 4096, 4097, 8191] {
            for late_float in [true, false] {
                let total = base + deltas.iter().sum::<usize>();
                // `late` turns numeric inside the second delta.
                let all = float_rows(total, base + 3, late_float);
                for group_by in [vec![0usize], vec![]] {
                    let mut state = AggState::build(&b(&all[..base]), &group_by, &aggs).unwrap();
                    let mut view = state.output_rows();
                    let mut end = base;
                    for n in deltas {
                        patch(
                            &mut view,
                            state
                                .apply(&b(&all[end..end + n]), &group_by, &aggs)
                                .unwrap(),
                        );
                        end += n;
                        for (threads, retain) in [
                            (1, Retention::All),
                            (8, Retention::ROOT_ONLY),
                            (8, Retention::All),
                            (1, Retention::ROOT_ONLY),
                        ] {
                            pool::set_threads(threads);
                            let want = engine_aggregate(&all[..end], &group_by, &aggs, retain);
                            assert_eq!(
                                bits(&view),
                                bits(&want),
                                "base {base}, grown to {end}, keys {group_by:?}, \
                                 late_float {late_float}, threads {threads}, {retain:?}"
                            );
                        }
                    }
                    assert_eq!(bits(&view), bits(&state.output_rows()));
                }
            }
        }
        pool::set_threads(before);
    }

    /// An integer `SUM` is exact however it is split: a total that leaves
    /// `i64` is NULL folded as rebuilt, and one that leaves it on the way —
    /// inside the base, inside a delta, or only once they merge — and comes
    /// back is the same number either way.
    #[test]
    fn integer_sum_overflow_folds_like_a_rebuild() {
        let int = |k: &str, v: i64| Row::new(vec![Value::str(k), Value::Int(v)]);
        let all = vec![
            int("back", i64::MAX),
            int("over", i64::MAX),
            int("back", 7),
            int("under", i64::MIN),
            int("back", i64::MIN),
            int("over", 1),
            int("under", -1),
            int("late", i64::MAX),
            int("late", i64::MAX),
            int("late", -i64::MAX),
        ];
        let aggs = vec![AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s")];
        let sums = |rows: &[Row]| -> Vec<Value> { rows.iter().map(|r| r.get(1).clone()).collect() };
        let rebuilt = AggState::build(&b(&all), &[0], &aggs)
            .unwrap()
            .output_rows();
        assert_eq!(
            sums(&rebuilt),
            [
                Value::Int(6),
                Value::Null,
                Value::Null,
                Value::Int(i64::MAX)
            ]
        );
        assert_eq!(rebuilt, engine_aggregate(&all, &[0], &aggs, Retention::All));
        for split in 0..=all.len() {
            let mut state = AggState::build(&b(&all[..split]), &[0], &aggs).unwrap();
            let mut view = state.output_rows();
            patch(
                &mut view,
                state.apply(&b(&all[split..]), &[0], &aggs).unwrap(),
            );
            assert_eq!(view, rebuilt, "split {split}");
        }
    }

    #[test]
    fn projection_layers_compose() {
        let layers = vec![
            vec![
                ("b".to_string(), Expr::col(1)),
                ("a".to_string(), Expr::col(0)),
            ],
            vec![("a2".to_string(), Expr::col(1))],
        ];
        let row = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            apply_projection(&layers, &row).unwrap(),
            Row::new(vec![Value::Int(1)])
        );
        assert_eq!(apply_projection(&[], &row).unwrap(), row);
    }
}
