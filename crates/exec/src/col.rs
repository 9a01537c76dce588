//! Columnar (vectorized) execution support for the morsel engine.
//!
//! This module is the expression half of miso-col: a vectorizability
//! check over plan expressions, a morsel-at-a-time expression evaluator
//! ([`eval_vec`])
//! that produces whole [`Column`] vectors instead of per-row [`Value`]s,
//! and the fused scan+project line parser that turns raw JSON log lines
//! straight into typed column vectors. The operator integration (columnar
//! filter/project/aggregate bodies) lives in [`crate::engine`], which owns
//! morsel dispatch, the guard seam and the accumulator machinery.
//!
//! **Semantics contract**: every path here must agree bit-for-bit with the
//! scalar evaluator in [`crate::eval`]. Fast paths are only taken where
//! the scalar semantics are reproduced exactly (Int/Int comparisons are
//! `i64::cmp`, Str/Str comparisons are `str::cmp`, everything else routes
//! through the shared scalar kernels `eval_binary`/`eval_unary`/`cast`).
//! AND/OR reproduce the scalar short-circuit: the right side is evaluated
//! only at positions where the left side did not decide, so a plan whose
//! right branch would error serially errors columnar-ly in exactly the
//! same cases.

use crate::engine::par_chunks;
use crate::eval::{cast, eval_binary, eval_unary, logical_combine};
use miso_common::guard::QueryGuard;
use miso_common::{MisoError, Result};
use miso_data::json::{parse_flat_line, parse_json, FlatVal};
use miso_data::{Cell, ColBatch, ColBuilder, Column, DataType, Value};
use miso_plan::{BinOp, Expr, UnaryOp};

/// Can `eval_vec` evaluate this expression? Field access and builtin
/// functions stay on the row path (they produce/consume nested JSON, where
/// a columnar layout buys nothing), which makes the whole operator fall
/// back to rows.
pub(crate) fn vectorizable(e: &Expr) -> bool {
    match e {
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Cast { input, .. } | Expr::Unary { input, .. } => vectorizable(input),
        Expr::Binary { left, right, .. } => vectorizable(left) && vectorizable(right),
        Expr::FieldGet { .. } | Expr::Func { .. } => false,
    }
}

/// One evaluated vector over a morsel `[start, start + n)` of a batch.
#[derive(Debug)]
pub(crate) enum VCol<'a> {
    /// Same constant at every position.
    Const(Value),
    /// Borrowed input column; position `j` reads slot `start + j`.
    Ref(&'a Column, usize),
    /// Computed column of length `n`; positions outside the evaluation
    /// mask hold NULL and are never read by the consumer.
    Owned(Column),
}

impl VCol<'_> {
    /// Borrowed scalar at morsel-local position `j`.
    #[inline]
    pub(crate) fn cell(&self, j: usize) -> Cell<'_> {
        match self {
            VCol::Const(v) => Cell::of(v),
            VCol::Ref(c, start) => c.cell(start + j),
            VCol::Owned(c) => c.cell(j),
        }
    }

    /// The underlying column vector, when there is one.
    fn column(&self) -> Option<&Column> {
        match self {
            VCol::Ref(c, _) => Some(c),
            VCol::Owned(c) => Some(c),
            VCol::Const(_) => None,
        }
    }

    /// Materializes morsel-local positions `0..n` as an owned column.
    pub(crate) fn into_column(self, n: usize) -> Column {
        match self {
            VCol::Owned(c) => c,
            v => {
                let mut b = ColBuilder::new();
                b.reserve(n);
                for j in 0..n {
                    b.push_value(v.cell(j).to_value());
                }
                b.finish()
            }
        }
    }
}

/// Builds an owned column of length `n` from `at`, evaluated only at the
/// masked positions (`mask` is sorted ascending); unmasked slots are NULL.
fn build_masked(n: usize, mask: Option<&[u32]>, mut at: impl FnMut(usize) -> Value) -> Column {
    let mut b = ColBuilder::new();
    b.reserve(n);
    match mask {
        None => {
            for j in 0..n {
                b.push_value(at(j));
            }
        }
        Some(sel) => {
            let mut sel = sel.iter().copied();
            let mut next = sel.next();
            for j in 0..n {
                if next == Some(j as u32) {
                    b.push_value(at(j));
                    next = sel.next();
                } else {
                    b.push_null();
                }
            }
        }
    }
    b.finish()
}

/// Mirror of [`crate::eval::logical_short_circuits`] on a borrowed cell.
#[inline]
fn cell_short_circuits(op: BinOp, c: &Cell) -> bool {
    matches!(
        (op, c),
        (BinOp::And, Cell::Bool(false)) | (BinOp::Or, Cell::Bool(true))
    )
}

/// Binary kernel on cells: allocation-free fast arms for the typed pairs
/// the workload runs hot (Int/Int, Str/Str), the shared scalar kernel for
/// everything else. Must agree with `eval_binary` on the equivalent owned
/// values — `Value::cmp` is `i64::cmp` on Int/Int and `str::cmp` on
/// Str/Str, so the fast arms reproduce it exactly.
#[inline]
fn binary_cells(op: BinOp, l: Cell, r: Cell) -> Value {
    match (l, r) {
        (Cell::Null, _) | (_, Cell::Null) => Value::Null,
        (Cell::Int(a), Cell::Int(b)) => match op {
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::Lt => Value::Bool(a < b),
            BinOp::Le => Value::Bool(a <= b),
            BinOp::Gt => Value::Bool(a > b),
            BinOp::Ge => Value::Bool(a >= b),
            _ => eval_binary(op, Value::Int(a), Value::Int(b)),
        },
        (Cell::Str(a), Cell::Str(b)) => match op {
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::Lt => Value::Bool(a < b),
            BinOp::Le => Value::Bool(a <= b),
            BinOp::Gt => Value::Bool(a > b),
            BinOp::Ge => Value::Bool(a >= b),
            // Arithmetic on strings is NULL either way; avoid the clones.
            _ => Value::Null,
        },
        (l, r) => eval_binary(op, l.to_value(), r.to_value()),
    }
}

/// Unary kernel on cells; shares `eval_unary` for the value-dependent arms.
#[inline]
fn unary_cell(op: UnaryOp, c: Cell) -> Value {
    match op {
        UnaryOp::IsNull => Value::Bool(c.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!c.is_null()),
        // Not/Neg on strings and containers are NULL; skip the clone.
        _ => match c {
            Cell::Str(_) | Cell::Val(_) => Value::Null,
            c => eval_unary(op, c.to_value()),
        },
    }
}

/// Cast kernel on cells; borrows string payloads so `CAST(str AS INT)`
/// does not allocate, and routes every other shape through the shared
/// scalar [`cast`].
#[inline]
fn cast_cell(c: Cell, ty: DataType) -> Value {
    match (c, ty) {
        (Cell::Null, _) => Value::Null,
        (Cell::Str(s), DataType::Int) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or(Value::Null),
        (Cell::Str(s), DataType::Float) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or(Value::Null),
        (c, ty) => cast(c.to_value(), ty),
    }
}

/// Evaluates `expr` over the morsel `[start, start + n)` of `batch`.
///
/// `mask` (morsel-local positions, sorted ascending) restricts evaluation
/// to a subset — used for the right side of AND/OR so short-circuited
/// positions are genuinely not evaluated, exactly like the scalar path.
/// The only possible error is a static out-of-range column reference,
/// raised with the scalar evaluator's exact message — and only when at
/// least one unmasked position exists, since the scalar path would not
/// have touched the expression otherwise.
pub(crate) fn eval_vec<'a>(
    expr: &Expr,
    batch: &'a ColBatch,
    start: usize,
    n: usize,
    mask: Option<&[u32]>,
) -> Result<VCol<'a>> {
    let masked_empty = n == 0 || mask.is_some_and(<[u32]>::is_empty);
    match expr {
        Expr::Column(i) => {
            if *i >= batch.arity() {
                if masked_empty {
                    // No position evaluates this expression; the scalar
                    // path would never have observed the bad reference.
                    return Ok(VCol::Const(Value::Null));
                }
                return Err(MisoError::Execution(format!(
                    "column ${i} out of range for row of arity {}",
                    batch.arity()
                )));
            }
            Ok(VCol::Ref(batch.col(*i), start))
        }
        Expr::Literal(v) => Ok(VCol::Const(v.clone())),
        Expr::Cast { input, ty } => {
            let v = eval_vec(input, batch, start, n, mask)?;
            // Identity casts pass the vector through untouched: CAST to
            // JSON is the identity, and casting a typed column to its own
            // type changes nothing (NULL slots stay NULL either way).
            let identity = *ty == DataType::Json
                || v.column().is_some_and(|c| {
                    matches!(
                        (c, *ty),
                        (Column::Int(..), DataType::Int)
                            | (Column::Float(..), DataType::Float)
                            | (Column::Bool(..), DataType::Bool)
                            | (Column::Str(..), DataType::Str)
                    )
                });
            if identity {
                return Ok(v);
            }
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                cast_cell(v.cell(j), *ty)
            })))
        }
        Expr::Unary { op, input } => {
            let v = eval_vec(input, batch, start, n, mask)?;
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                unary_cell(*op, v.cell(j))
            })))
        }
        Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
            let l = eval_vec(left, batch, start, n, mask)?;
            // Positions where the left side did not decide the result.
            let need: Vec<u32> = match mask {
                None => (0..n as u32)
                    .filter(|&j| !cell_short_circuits(*op, &l.cell(j as usize)))
                    .collect(),
                Some(sel) => sel
                    .iter()
                    .copied()
                    .filter(|&j| !cell_short_circuits(*op, &l.cell(j as usize)))
                    .collect(),
            };
            let r = eval_vec(right, batch, start, n, Some(&need))?;
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                let lc = l.cell(j);
                if cell_short_circuits(*op, &lc) {
                    lc.to_value()
                } else {
                    logical_combine(*op, lc.to_value(), r.cell(j).to_value())
                }
            })))
        }
        Expr::Binary { op, left, right } => {
            let l = eval_vec(left, batch, start, n, mask)?;
            let r = eval_vec(right, batch, start, n, mask)?;
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                binary_cells(*op, l.cell(j), r.cell(j))
            })))
        }
        Expr::FieldGet { .. } | Expr::Func { .. } => Err(MisoError::Execution(
            "internal: non-vectorizable expression reached eval_vec".into(),
        )),
    }
}

/// Batch-global indexes (within the morsel `[start, start + n)`) where the
/// predicate vector is `TRUE` — SQL WHERE semantics, so NULL and non-bool
/// results do not select.
pub(crate) fn select_true(pred: &VCol, start: usize, n: usize) -> Vec<u32> {
    // A constant FALSE/NULL predicate selects nothing without a scan.
    if let VCol::Const(v) = pred {
        if !v.is_true() {
            return Vec::new();
        }
    }
    (0..n)
        .filter(|&j| matches!(pred.cell(j), Cell::Bool(true)))
        .map(|j| (start + j) as u32)
        .collect()
}

/// One output column of a fused scan+project: a field to pull out of each
/// log line, with an optional cast to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusedField<'a> {
    /// Top-level key of the JSON object on each line.
    pub key: &'a str,
    /// `CAST` target, `None` for the bare field.
    pub ty: Option<DataType>,
}

/// Recognizes a projection whose every output is
/// `CAST(input->'key' AS ty)` or bare `input->'key'` over the scanned
/// line — the SerDe shape every log query in the workload starts with.
/// Such a projection can be fused into the scan and parsed straight into
/// typed column vectors, skipping the intermediate JSON object rows.
pub(crate) fn fused_fields<'a>(
    exprs: impl IntoIterator<Item = &'a Expr>,
) -> Option<Vec<FusedField<'a>>> {
    exprs
        .into_iter()
        .map(|e| {
            let (inner, ty) = match e {
                Expr::Cast { input, ty } => (input.as_ref(), Some(*ty)),
                other => (other, None),
            };
            match inner {
                Expr::FieldGet { input, key } if matches!(input.as_ref(), Expr::Column(0)) => {
                    Some(FusedField { key, ty })
                }
                _ => None,
            }
        })
        .collect()
}

/// Pushes `field cast to ty` for one parsed token. Fast arms avoid
/// `Value` round-trips for the common shapes; everything else goes
/// through the shared scalar [`cast`] for exact semantics.
fn push_cast(b: &mut ColBuilder, tok: FlatVal<'_>, ty: Option<DataType>) {
    let Some(ty) = ty else {
        match tok {
            FlatVal::Null => b.push_null(),
            FlatVal::Bool(x) => b.push_bool(x),
            FlatVal::Int(i) => b.push_i64(i),
            FlatVal::Float(f) => b.push_f64(f),
            FlatVal::Str(s) => b.push_str(s.to_string()),
            FlatVal::Nested(_) => b.push_value(tok.to_value()),
        }
        return;
    };
    match (tok, ty) {
        (FlatVal::Null, _) => b.push_null(),
        (FlatVal::Int(i), DataType::Int) => b.push_i64(i),
        (FlatVal::Int(i), DataType::Float) => b.push_f64(i as f64),
        (FlatVal::Float(f), DataType::Float) => b.push_f64(f),
        (FlatVal::Str(s), DataType::Int) => match s.trim().parse::<i64>() {
            Ok(i) => b.push_i64(i),
            Err(_) => b.push_null(),
        },
        (FlatVal::Str(s), DataType::Float) => match s.trim().parse::<f64>() {
            Ok(f) => b.push_f64(f),
            Err(_) => b.push_null(),
        },
        (FlatVal::Str(s), DataType::Str) => b.push_str(s.to_string()),
        (tok, ty) => b.push_value(cast(tok.to_value(), ty)),
    }
}

/// Parses `lines` into one column per field, morsel-parallel on the worker
/// pool, and returns the batch with the count of malformed lines skipped.
/// Morsel results are concatenated in line order, so the columns are those
/// one serial [`ColBuilder`] pass would build, for any thread count — which
/// is what lets a store extend them later with the parse of appended lines
/// alone ([`Column::append`]).
pub fn parse_log_columns(lines: &[String], fields: &[FusedField<'_>]) -> Result<(ColBatch, u64)> {
    // The caller owns the cancellation boundary: a store may be parsing for
    // an append, outside any query.
    let parts = par_chunks(QueryGuard::inert_ref(), lines, |_, chunk| {
        parse_lines_fused(chunk, fields)
    })?;
    let mut batches = Vec::with_capacity(parts.len());
    let mut skipped = 0u64;
    for (batch, s) in parts {
        batches.push(batch);
        skipped += s as u64;
    }
    if batches.is_empty() {
        // No lines: `ColBatch::concat` of nothing would lose the arity.
        batches.push(parse_lines_fused(&[], fields).0);
    }
    Ok((ColBatch::concat(batches), skipped))
}

/// Parses a chunk of log lines straight into one column builder per fused
/// field. Malformed lines are skipped and counted, exactly like the row
/// scan. The zero-copy line parser handles the (overwhelmingly common)
/// escape-free object lines, building a tree only for a nested value that
/// is itself asked for; anything it declines falls back to the strict
/// parser so escaped lines behave identically to the row path.
/// Duplicate keys resolve to the last occurrence, matching
/// `Value::object`'s dedup.
pub(crate) fn parse_lines_fused(lines: &[String], fields: &[FusedField<'_>]) -> (ColBatch, usize) {
    let mut builders: Vec<ColBuilder> = (0..fields.len()).map(|_| ColBuilder::new()).collect();
    for b in &mut builders {
        b.reserve(lines.len());
    }
    let mut skipped = 0usize;
    let mut parsed = 0usize;
    for line in lines {
        if let Some(flat) = parse_flat_line(line) {
            for (f, b) in fields.iter().zip(&mut builders) {
                // Last occurrence wins, as in Value::object's dedup.
                let tok = flat
                    .iter()
                    .rev()
                    .find(|(k, _)| *k == f.key)
                    .map(|(_, v)| *v)
                    .unwrap_or(FlatVal::Null);
                push_cast(b, tok, f.ty);
            }
            parsed += 1;
        } else if push_strict(line, fields, &mut builders) {
            parsed += 1;
        } else {
            skipped += 1;
        }
    }
    (
        ColBatch::from_columns(
            builders.into_iter().map(ColBuilder::finish).collect(),
            parsed,
        ),
        skipped,
    )
}

/// The strict-parser path of [`parse_lines_fused`]: pushes the fields of one
/// line out of its [`parse_json`] tree, or nothing if the line is malformed.
fn push_strict(line: &str, fields: &[FusedField<'_>], builders: &mut [ColBuilder]) -> bool {
    let Ok(v) = parse_json(line) else {
        return false;
    };
    for (f, b) in fields.iter().zip(builders) {
        let field = v.get_field(f.key).cloned().unwrap_or(Value::Null);
        b.push_value(match f.ty {
            Some(ty) => cast(field, ty),
            None => field,
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use miso_data::Row;

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn batch() -> ColBatch {
        let rows: Vec<Row> = vec![
            Row::new(vec![Value::Int(1), Value::str("a"), Value::Float(0.5)]),
            Row::new(vec![Value::Null, Value::str("b"), Value::Int(2)]),
            Row::new(vec![Value::Int(3), Value::Null, Value::Float(f64::NAN)]),
            Row::new(vec![Value::Int(-4), Value::str("a"), Value::Bool(true)]),
        ]
        .into_iter()
        .collect();
        ColBatch::from_rows(&rows).unwrap()
    }

    /// Evaluates `e` both ways over every row and asserts identical values
    /// (or identical error messages).
    fn assert_parity(e: &Expr) {
        let b = batch();
        let rows = b.to_rows();
        let vec_result = eval_vec(e, &b, 0, b.len(), None);
        for (i, row) in rows.iter().enumerate() {
            match (&vec_result, eval(e, row)) {
                (Ok(v), Ok(want)) => {
                    assert_eq!(v.cell(i).to_value(), want, "row {i} of {e:?}");
                }
                (Err(ve), Err(se)) => {
                    assert_eq!(ve.to_string(), se.to_string(), "error parity for {e:?}");
                    return;
                }
                (v, s) => panic!("parity split at row {i} of {e:?}: vec={v:?} serial={s:?}"),
            }
        }
    }

    #[test]
    fn scalar_parity_matrix() {
        use miso_plan::Expr as E;
        let exprs = vec![
            E::col(0),
            E::lit(42i64),
            bin(BinOp::Lt, E::col(0), E::lit(2i64)),
            E::col(0).eq(E::col(2)),
            E::col(1).eq(E::lit("a")),
            bin(BinOp::Lt, E::col(1), E::lit("b")),
            E::Binary {
                op: BinOp::Add,
                left: Box::new(E::col(0)),
                right: Box::new(E::col(2)),
            },
            E::Binary {
                op: BinOp::Div,
                left: Box::new(E::col(0)),
                right: Box::new(E::lit(0i64)),
            },
            E::Binary {
                op: BinOp::Mul,
                left: Box::new(E::lit(i64::MAX)),
                right: Box::new(E::col(0)),
            },
            E::Cast {
                input: Box::new(E::col(1)),
                ty: DataType::Int,
            },
            E::Cast {
                input: Box::new(E::col(0)),
                ty: DataType::Str,
            },
            E::Cast {
                input: Box::new(E::col(2)),
                ty: DataType::Int,
            },
            E::Unary {
                op: UnaryOp::IsNull,
                input: Box::new(E::col(0)),
            },
            E::Unary {
                op: UnaryOp::Neg,
                input: Box::new(E::col(0)),
            },
            E::Unary {
                op: UnaryOp::Not,
                input: Box::new(E::col(2)),
            },
            bin(BinOp::Lt, E::col(0), E::lit(3i64)).and(E::col(1).eq(E::lit("a"))),
            bin(
                BinOp::Or,
                bin(BinOp::Lt, E::col(0), E::lit(3i64)),
                E::col(1).eq(E::lit("a")),
            ),
            // Cross-type comparison: NULL for orderings, false for Eq.
            bin(BinOp::Lt, E::col(1), E::col(0)),
            E::col(1).eq(E::col(0)),
            // Out-of-range column must reproduce the scalar error.
            bin(BinOp::Lt, E::col(9), E::lit(1i64)),
        ];
        for e in &exprs {
            assert_parity(e);
        }
    }

    /// `false AND $bad` never evaluates `$bad`, even when every row
    /// short-circuits — same as the scalar evaluator.
    #[test]
    fn short_circuit_skips_bad_column_when_all_rows_decide() {
        use miso_plan::Expr as E;
        let always_false = E::lit(false).and(E::col(99));
        let b = batch();
        let v = eval_vec(&always_false, &b, 0, b.len(), None).expect("no row evaluates $99");
        for j in 0..b.len() {
            assert_eq!(v.cell(j).to_value(), Value::Bool(false));
        }
        // But when at least one row needs the right side, the error fires.
        let sometimes = bin(BinOp::Lt, E::col(0), E::lit(2i64)).and(E::col(99));
        assert!(eval_vec(&sometimes, &b, 0, b.len(), None).is_err());
    }

    #[test]
    fn selection_edges() {
        use miso_plan::Expr as E;
        let b = batch();
        // All pass.
        let v = eval_vec(&E::lit(true), &b, 0, b.len(), None).unwrap();
        assert_eq!(select_true(&v, 0, b.len()), vec![0, 1, 2, 3]);
        // None pass.
        let v = eval_vec(&E::lit(false), &b, 0, b.len(), None).unwrap();
        assert!(select_true(&v, 0, b.len()).is_empty());
        // NULL comparisons do not select (row 1 has NULL in column 0).
        let v = eval_vec(
            &bin(BinOp::Lt, E::col(0), E::lit(10i64)),
            &b,
            0,
            b.len(),
            None,
        )
        .unwrap();
        assert_eq!(select_true(&v, 0, b.len()), vec![0, 2, 3]);
        // Morsel offset shifts the selection to batch-global indexes.
        let v = eval_vec(&bin(BinOp::Lt, E::col(0), E::lit(10i64)), &b, 2, 2, None).unwrap();
        assert_eq!(select_true(&v, 2, 2), vec![2, 3]);
    }

    #[test]
    fn fused_fields_recognizes_serde_projections() {
        use miso_plan::Expr as E;
        let exprs = vec![
            E::Cast {
                input: Box::new(E::col(0).get("uid")),
                ty: DataType::Int,
            },
            E::col(0).get("text"),
        ];
        let fields = fused_fields(&exprs).expect("serde shape");
        assert_eq!(fields[0].key, "uid");
        assert_eq!(fields[0].ty, Some(DataType::Int));
        assert_eq!(fields[1].key, "text");
        assert_eq!(fields[1].ty, None);
        // Non-serde shapes are declined.
        assert!(fused_fields(&[E::col(1).get("uid")]).is_none());
        assert!(fused_fields(&[E::col(0)]).is_none());
        assert!(fused_fields(&[E::Func {
            name: "lower".into(),
            args: vec![E::col(0).get("text")],
        }])
        .is_none());
    }

    /// The fused parser agrees with parse-then-project row execution on
    /// well-formed, malformed, nested, duplicate-key and missing-field
    /// lines.
    #[test]
    fn fused_parse_matches_row_path() {
        let lines: Vec<String> = vec![
            r#"{"uid": 7, "text": "hi", "score": 1.5}"#.into(),
            r#"{"uid": "12", "text": "pad"}"#.into(),
            r#"{"text": "no uid"}"#.into(),
            "not json".into(),
            r#"{"uid": 1, "uid": 2, "text": "dup"}"#.into(),
            r#"{"uid": 3, "nest": {"a": 1}, "text": "nested"}"#.into(),
            r#"{"uid": null, "text": "explicit null"}"#.into(),
        ]
        .into_iter()
        .collect();
        let fields = vec![
            FusedField {
                key: "uid",
                ty: Some(DataType::Int),
            },
            FusedField {
                key: "text",
                ty: None,
            },
        ];
        let (batch, skipped) = parse_lines_fused(&lines, &fields);
        assert_eq!(skipped, 1);
        assert_eq!(batch.len(), 6);
        // Row-path oracle: parse, project field, cast.
        let mut want: Vec<Row> = Vec::new();
        for line in &lines {
            if let Ok(v) = parse_json(line) {
                let uid = v.get_field("uid").cloned().unwrap_or(Value::Null);
                let text = v.get_field("text").cloned().unwrap_or(Value::Null);
                want.push(Row::new(vec![cast(uid, DataType::Int), text]));
            }
        }
        assert_eq!(batch.to_rows(), want);
    }
    /// [`parse_lines_fused`] had the fast path declined every line.
    fn parse_lines_strict(lines: &[String], fields: &[FusedField<'_>]) -> (Vec<Column>, usize) {
        let mut builders: Vec<ColBuilder> = fields.iter().map(|_| ColBuilder::new()).collect();
        let skipped = lines
            .iter()
            .filter(|line| !push_strict(line, fields, &mut builders))
            .count();
        (
            builders.into_iter().map(ColBuilder::finish).collect(),
            skipped,
        )
    }

    /// Over generated tweets (every one carries a `hashtags` array) and
    /// hand-made lines, the fused parse equals the strict-parser path
    /// column for column — and the fast path now answers for every
    /// generated line, so no tree is built unless a nested field is read.
    #[test]
    fn fused_parse_of_nested_lines_matches_the_strict_path() {
        use miso_data::logs::{Corpus, LogsConfig};
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let mut lines = corpus.twitter.lines.clone();
        assert!(lines.iter().all(|l| l.contains("\"hashtags\":[")));
        assert!(
            lines.iter().all(|l| parse_flat_line(l).is_some()),
            "every generated tweet takes the fast path"
        );
        let deep = |n: usize| format!("{{\"city\": {}{}}}", "[".repeat(n), "]".repeat(n));
        lines.extend(
            [
                r#"{"user_id": 1, "hashtags": [{"tag": "a", "pos": [1, 2]}], "city": "x"}"#,
                r#"{"user_id": 2, "hashtags": ["}", "]", "a\"b", "\\"], "city": "br]ack{et"}"#,
                r#"{"user_id": 3, "city": "first", "city": {"name": ["nested", "last"]}}"#,
                r#"{"user_id": 4, "city": ["first"], "city": "scalar last"}"#,
                r#"{"user_id": "5", "hashtags": {}, "city": null}"#,
                r#"{"user_id": 6, "hashtags": ["unterminated", "city": "x"}"#,
                r#"{"user_id": 7, "hashtags": ["x"]} trailing"#,
                r#"{"user_id": 8, "hashtags": ["x"]]}"#,
                r#"{"user_id": 9, "text": "esc\"aped", "hashtags": ["y"], "city": "z"}"#,
                r#"["user_id", 10]"#,
                "torn {\"user_id\": 11",
            ]
            .map(String::from),
        );
        lines.push(deep(miso_data::json::MAX_DEPTH - 1));
        lines.push(deep(miso_data::json::MAX_DEPTH));
        let field = |key, ty| FusedField { key, ty };
        let fields = [
            field("user_id", Some(DataType::Int)),
            field("hashtags", None),
            field("city", None),
            field("city", Some(DataType::Str)),
            field("hashtags", Some(DataType::Int)),
            field("absent", None),
        ];
        let (batch, skipped) = parse_lines_fused(&lines, &fields);
        let (want, want_skipped) = parse_lines_strict(&lines, &fields);
        assert_eq!(skipped, want_skipped);
        assert_eq!(skipped, 5, "unterminated, 2 × trailing, torn, over the cap");
        assert_eq!(batch.len() + skipped, lines.len());
        for ((f, got), want) in fields.iter().zip(batch.columns()).zip(&want) {
            assert_eq!(got.as_ref(), want, "column {f:?}");
        }
    }
}
