//! Columnar (vectorized) execution support for the morsel engine.
//!
//! This module is the expression half of miso-col: a morsel-at-a-time
//! expression evaluator ([`eval_vec`]) that covers the whole [`Expr`] enum
//! and produces [`Column`] vectors instead of per-row [`Value`]s, and the
//! fused scan+project reader ([`LogIndex`]) that turns raw JSON log lines
//! straight into typed column vectors. The operator bodies live in
//! [`crate::engine`], which owns morsel dispatch, the guard seam and the
//! accumulator machinery.
//!
//! **Semantics contract**: every path here must agree bit-for-bit with the
//! scalar evaluator in [`crate::eval`]. Fast paths are only taken where
//! the scalar semantics are reproduced exactly (Int/Int comparisons are
//! `i64::cmp`, Str/Str comparisons are `str::cmp`, everything else routes
//! through the shared scalar kernels `eval_binary`/`eval_unary`/`cast`);
//! a builtin has one body, [`eval_func`], which both evaluators call on
//! borrowed cells. AND/OR reproduce the scalar short-circuit: the right
//! side is evaluated only at positions where the left side did not decide,
//! so a plan whose right branch would error serially — a bad column, an
//! unknown builtin, a wrong argument count — errors columnar-ly in exactly
//! the same cases.
//!
//! **A line is tokenized once**: a [`LogIndex`] records, in one pass over a
//! log's lines, where each top-level value starts; every column read of
//! that log afterwards lexes only the values it asks for, with the lexer
//! the tokenizing pass used.

use crate::engine::par_chunks;
use crate::eval::{cast, eval_binary, eval_func, eval_unary, logical_combine};
use crate::udf::UdfRegistry;
use miso_common::guard::QueryGuard;
use miso_common::{pool, MisoError, Result};
use miso_data::json::{parse_json, FlatVal, IndexedLine, LineIndex};
use miso_data::{Cell, ColBatch, ColBuilder, Column, DataType, Value};
use miso_plan::{BinOp, Expr, Operator, UnaryOp};
use std::sync::Arc;

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
/// Every possible error is static — an out-of-range column reference, an
/// unknown builtin, a wrong argument count — and is raised with the scalar
/// evaluator's exact message, and only when at least one unmasked position
/// exists, since the scalar path would not have touched the expression
/// otherwise.
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
        Expr::FieldGet { input, key } => {
            let v = eval_vec(input, batch, start, n, mask)?;
            Ok(VCol::Owned(build_masked(n, mask, |j| match v.cell(j) {
                Cell::Val(object) => object.get_field(key).cloned().unwrap_or(Value::Null),
                _ => Value::Null,
            })))
        }
        Expr::Func { name, args } => {
            let args = args
                .iter()
                .map(|a| eval_vec(a, batch, start, n, mask))
                .collect::<Result<Vec<_>>>()?;
            // The builtin runs at evaluated positions only, so its static
            // errors need no check of their own: they arise at the first
            // such position, or not at all.
            let mut cells = Vec::with_capacity(args.len());
            let mut failed = None;
            let col = build_masked(n, mask, |j| {
                if failed.is_some() {
                    return Value::Null;
                }
                cells.clear();
                cells.extend(args.iter().map(|a| a.cell(j)));
                eval_func(name, &cells).unwrap_or_else(|e| {
                    failed = Some(e);
                    Value::Null
                })
            });
            match failed {
                Some(e) => Err(e),
                None => Ok(VCol::Owned(col)),
            }
        }
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

/// The fields `op` reads of each line of the log scan beneath it, when it
/// reads nothing else of the line: a projection whose every output is
/// `CAST(input->'key' AS ty)` or bare `input->'key'` — the SerDe shape every
/// log query in the workload starts with — or a UDF that declared its fields
/// ([`crate::Udf::reading`]). Such a consumer can be fused into the scan,
/// which then parses straight into typed column vectors and skips the
/// intermediate JSON records.
pub(crate) fn fused_fields<'a>(
    op: &'a Operator,
    udfs: &'a UdfRegistry,
) -> Option<Vec<FusedField<'a>>> {
    let serde_field = |e: &'a Expr| {
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
    };
    match op {
        Operator::Project { exprs } => exprs.iter().map(|(_, e)| serde_field(e)).collect(),
        Operator::Udf { name, .. } => {
            let keys = udfs.get(name)?.reads()?;
            Some(
                keys.iter()
                    .map(|key| FusedField { key, ty: None })
                    .collect(),
            )
        }
        _ => None,
    }
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

/// The token index of a whole log, or of one appended batch: one
/// [`LineIndex`] per run of lines, in line order — a morsel of the pass that
/// built it, or a batch appended since. Cheap to clone (the runs are
/// shared), which is how a store's clones and its lock-free readers each
/// hold one.
#[derive(Debug, Clone, Default)]
pub struct LogIndex {
    runs: Vec<Arc<LineIndex>>,
}

impl LogIndex {
    /// Tokenizes `lines`, morsel-parallel on the worker pool.
    pub fn build(lines: &[String]) -> Result<LogIndex> {
        // The caller owns the cancellation boundary: a store may be
        // indexing for an append, outside any query.
        let runs = par_chunks(QueryGuard::inert_ref(), lines, |_, chunk| {
            Arc::new(LineIndex::build(chunk))
        })?;
        Ok(LogIndex { runs })
    }

    /// Extends the index over the lines `tail` describes, appended to the
    /// log after those this index covers.
    pub fn append(&mut self, tail: &LogIndex) {
        self.runs.extend(tail.runs.iter().cloned());
    }

    /// `(well-formed, malformed)` line counts: a scan's row and skip counts.
    pub fn counts(&self) -> (usize, u64) {
        let lines: usize = self.runs.iter().map(|run| run.len()).sum();
        let malformed: usize = self.runs.iter().map(|run| run.malformed()).sum();
        (lines - malformed, malformed as u64)
    }

    /// Heap footprint of the index.
    pub fn approx_bytes(&self) -> u64 {
        self.runs.iter().map(|run| run.approx_bytes()).sum()
    }

    /// One column per field over the well-formed lines of `lines` — the
    /// slice this index was built from — in line order. Runs are read in
    /// parallel and concatenated in order, so the columns are those one
    /// serial [`ColBuilder`] pass would build, for any thread count and
    /// however the lines were split into runs — which is what lets a store
    /// extend them later with the columns of appended lines alone
    /// ([`Column::append`]).
    pub fn columns(&self, lines: &[String], fields: &[FusedField<'_>]) -> Result<ColBatch> {
        let mut ranges = Vec::with_capacity(self.runs.len());
        let mut first = 0usize;
        for run in &self.runs {
            ranges.push(first..first + run.len());
            first += run.len();
        }
        if first != lines.len() {
            return Err(MisoError::Execution(format!(
                "log index covers {first} lines, the log has {}",
                lines.len()
            )));
        }
        crate::profile::note_dispatch(self.runs.len() as u64, lines.len() as u64);
        let mut parts = pool::run_batch(self.runs.len(), |i| {
            read_run(&self.runs[i], &lines[ranges[i].clone()], fields)
        })?;
        if parts.is_empty() {
            // No lines: `ColBatch::concat` of nothing would lose the arity.
            parts.push(read_run(&LineIndex::build(&[]), &[], fields));
        }
        Ok(ColBatch::concat(parts))
    }
}

/// Parses `lines` into one column per field and returns the batch with the
/// count of malformed lines skipped: tokenize, then read the fields at the
/// recorded offsets. A caller that reads the same lines again keeps the
/// [`LogIndex`] and skips the first step.
pub fn parse_log_columns(lines: &[String], fields: &[FusedField<'_>]) -> Result<(ColBatch, u64)> {
    let index = LogIndex::build(lines)?;
    Ok((index.columns(lines, fields)?, index.counts().1))
}

/// Reads one run of indexed lines straight into one column builder per
/// fused field. Malformed lines are skipped, exactly like the unfused scan. A
/// fast-path line is lexed at the requested values only, building a tree
/// only for a nested value that is itself asked for; a line the index marks
/// strict goes through the strict parser so escaped lines behave
/// identically to a scan that parses whole records.
fn read_run(index: &LineIndex, lines: &[String], fields: &[FusedField<'_>]) -> ColBatch {
    let rows = index.len() - index.malformed();
    let mut builders: Vec<ColBuilder> = (0..fields.len()).map(|_| ColBuilder::new()).collect();
    for b in &mut builders {
        b.reserve(rows);
    }
    let keys: Vec<&str> = fields.iter().map(|f| f.key).collect();
    index.for_each_line(lines, &keys, |line| match line {
        IndexedLine::Flat(toks) => {
            for ((f, b), tok) in fields.iter().zip(&mut builders).zip(toks) {
                push_cast(b, *tok, f.ty);
            }
        }
        IndexedLine::Strict(line) => push_strict(line, fields, &mut builders),
    });
    ColBatch::from_columns(builders.into_iter().map(ColBuilder::finish).collect(), rows)
}

/// The strict-parser path of [`read_run`]: pushes the fields of one line
/// out of its [`parse_json`] tree.
fn push_strict(line: &str, fields: &[FusedField<'_>], builders: &mut [ColBuilder]) {
    let v = parse_json(line).expect("the index marks only well-formed lines strict");
    for (f, b) in fields.iter().zip(builders) {
        let field = v.get_field(f.key).cloned().unwrap_or(Value::Null);
        b.push_value(match f.ty {
            Some(ty) => cast(field, ty),
            None => field,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use miso_data::json::parse_flat_line;
    use miso_data::Row;

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn func(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Func {
            name: name.into(),
            args,
        }
    }

    /// `$0` Int, `$1` Str, `$4` Float — each with a NULL; `$2` a `Mixed`
    /// column of scalars, `$3` a `Mixed` column of arrays, an object, a
    /// string and a NULL.
    fn batch() -> ColBatch {
        let tags = Value::Array(vec![Value::str("pizza"), Value::Int(1), Value::Null]);
        let user = Value::object(vec![
            ("uid".into(), Value::Int(7)),
            ("tags".into(), Value::Array(vec![Value::str("pizza")])),
        ]);
        let row = |vals: [Value; 5]| Row::new(vals.to_vec());
        let rows: Vec<Row> = vec![
            row([
                Value::Int(1),
                Value::str("a"),
                Value::Float(0.5),
                tags,
                Value::Float(2.25),
            ]),
            row([
                Value::Null,
                Value::str("b"),
                Value::Int(2),
                user,
                Value::Float(-1.0),
            ]),
            row([
                Value::Int(3),
                Value::Null,
                Value::Float(f64::NAN),
                Value::str("Hello World"),
                Value::Null,
            ]),
            row([
                Value::Int(-4),
                Value::str("a"),
                Value::Bool(true),
                Value::Null,
                Value::Float(90_000.7),
            ]),
            row([
                Value::Int(90_000),
                Value::str("Hello"),
                Value::str("x"),
                Value::Array(vec![]),
                Value::Float(0.0),
            ]),
        ];
        let b = ColBatch::from_rows(&rows).unwrap();
        assert!(matches!(b.col(0), Column::Int(..)) && matches!(b.col(1), Column::Str(..)));
        assert!(matches!(b.col(2), Column::Mixed(..)) && matches!(b.col(3), Column::Mixed(..)));
        b
    }

    /// Evaluates `e` both ways over the rows `[start, start + n)` and
    /// asserts identical values — or, where the scalar evaluator fails on
    /// some row, its first error's message.
    fn assert_parity_over(e: &Expr, start: usize, n: usize) {
        let b = batch();
        let rows = b.to_rows();
        let want: Result<Vec<Value>> = rows[start..start + n].iter().map(|r| eval(e, r)).collect();
        match (eval_vec(e, &b, start, n, None), want) {
            (Ok(v), Ok(want)) => {
                for (j, want) in want.iter().enumerate() {
                    assert_eq!(&v.cell(j).to_value(), want, "row {} of {e:?}", start + j);
                }
            }
            (Err(ve), Err(se)) => {
                assert_eq!(ve.to_string(), se.to_string(), "error parity for {e:?}")
            }
            (v, s) => panic!("parity split on {e:?}: vec={v:?} serial={s:?}"),
        }
    }

    fn assert_parity(e: &Expr) {
        assert_parity_over(e, 0, batch().len());
    }

    /// `e` alone, and on the right of an AND / OR whose left side decides
    /// at every row, at some rows, and at none.
    fn assert_parity_guarded(e: &Expr) {
        use miso_plan::Expr as E;
        assert_parity(e);
        let some = bin(BinOp::Lt, E::col(0), E::lit(2i64));
        for left in [E::lit(false), E::lit(true), some, E::lit(Value::Null)] {
            assert_parity(&left.clone().and(e.clone()));
            assert_parity(&bin(BinOp::Or, left, e.clone()));
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

    /// Every builtin of `eval_func`, at its own argument count, over every
    /// combination of argument shapes — typed columns with a NULL, both
    /// `Mixed` columns, literals of each type, an out-of-range column — and
    /// each also behind a short-circuit.
    #[test]
    fn builtin_parity_matrix() {
        use miso_plan::Expr as E;
        let pool = || {
            vec![
                E::col(0),
                E::col(1),
                E::col(2),
                E::col(3),
                E::col(4),
                E::lit("a"),
                E::lit(2i64),
                E::lit(Value::Null),
                E::lit(Value::Array(vec![Value::str("a"), Value::Int(2)])),
                E::col(3).get("tags"),
                E::col(9),
            ]
        };
        let builtins: [(&str, usize); 13] = [
            ("lower", 1),
            ("upper", 1),
            ("length", 1),
            ("abs", 1),
            ("round", 1),
            ("sqrt", 1),
            ("ln", 1),
            ("day", 1),
            ("hour", 1),
            ("contains", 2),
            ("array_contains", 2),
            ("concat", 2),
            ("substr", 3),
        ];
        let mut checked = 0usize;
        for (name, arity) in builtins {
            // Every `arity`-tuple over the pool, odometer-style.
            let pool = pool();
            let mut at = vec![0usize; arity];
            'tuples: loop {
                let args: Vec<Expr> = at.iter().map(|&i| pool[i].clone()).collect();
                let e = func(name, args);
                if arity < 3 {
                    assert_parity_guarded(&e);
                } else {
                    assert_parity(&e);
                }
                checked += 1;
                for slot in at.iter_mut().rev() {
                    *slot += 1;
                    if *slot < pool.len() {
                        continue 'tuples;
                    }
                    *slot = 0;
                }
                break;
            }
        }
        assert_eq!(checked, 9 * 11 + 3 * 121 + 1331);
        // Spot values, so that parity is not two evaluators agreeing on NULL.
        let b = batch();
        let at = |e: &Expr, j: usize| {
            eval_vec(e, &b, 0, b.len(), None)
                .unwrap()
                .cell(j)
                .to_value()
        };
        let pizza = func("array_contains", vec![E::col(3), E::lit("pizza")]);
        assert_eq!(at(&pizza, 0), Value::Bool(true));
        assert_eq!(at(&pizza, 4), Value::Bool(false));
        assert_eq!(at(&pizza, 2), Value::Null, "a string is no array");
        let nested = func(
            "array_contains",
            vec![E::col(3).get("tags"), E::lit("pizza")],
        );
        assert_eq!(at(&nested, 1), Value::Bool(true));
        let hello = func("contains", vec![E::col(1), E::lit("ell")]);
        assert_eq!(at(&hello, 4), Value::Bool(true));
        assert_eq!(at(&hello, 2), Value::Null);
        assert_eq!(at(&func("day", vec![E::col(0)]), 4), Value::Int(1));
        assert_eq!(at(&func("hour", vec![E::col(0)]), 4), Value::Int(1));
        assert_eq!(at(&func("length", vec![E::col(3)]), 0), Value::Int(3));
        assert_eq!(at(&func("length", vec![E::col(1)]), 4), Value::Int(5));
        assert_eq!(at(&func("upper", vec![E::col(1)]), 4), Value::str("HELLO"));
    }

    /// A builtin called with the wrong number of arguments, or one that
    /// does not exist, is a static error: raised with the scalar message
    /// when some position evaluates it, and not at all when none does.
    #[test]
    fn static_builtin_errors_surface_only_where_evaluated() {
        use miso_plan::Expr as E;
        let names = [
            "lower",
            "upper",
            "length",
            "concat",
            "substr",
            "contains",
            "array_contains",
            "abs",
            "round",
            "sqrt",
            "ln",
            "day",
            "hour",
            "nope",
        ];
        let b = batch();
        let mut errors = 0usize;
        for name in names {
            for arity in 0..=4 {
                let e = func(name, vec![E::col(1); arity]);
                assert_parity_guarded(&e);
                if eval_vec(&e, &b, 0, b.len(), None).is_err() {
                    errors += 1;
                    // Nobody evaluates it: no error, as in the scalar path.
                    let never = E::lit(false).and(e.clone());
                    let v = eval_vec(&never, &b, 0, b.len(), None).expect("short-circuited");
                    assert_eq!(v.cell(0).to_value(), Value::Bool(false));
                    assert!(eval_vec(&e, &b, 0, 0, None).is_ok(), "an empty morsel");
                    // Somebody does: the scalar evaluator's message.
                    let some = bin(BinOp::Lt, E::col(0), E::lit(2i64)).and(e.clone());
                    let got = eval_vec(&some, &b, 0, b.len(), None).unwrap_err();
                    let want = eval(&e, &b.to_rows()[0]).unwrap_err();
                    assert_eq!(got.to_string(), want.to_string());
                }
            }
        }
        // 12 fixed-arity builtins × 4 wrong counts, `nope` × 5; `concat`
        // takes any number.
        assert_eq!(errors, 12 * 4 + 5);
        // A bad argument is reported before the call that takes it.
        assert_parity(&func("nope", vec![E::col(9)]));
        assert_parity(&func("lower", vec![func("nope", vec![])]));
    }

    #[test]
    fn field_get_parity() {
        use miso_plan::Expr as E;
        let object = Value::object(vec![("k".into(), Value::Int(1))]);
        let exprs = [
            E::col(3).get("uid"),
            E::col(3).get("tags"),
            E::col(3).get("absent"),
            E::col(3).get("tags").get("deeper"),
            E::col(0).get("uid"),
            E::col(1).get("uid"),
            E::col(2).get("uid"),
            E::lit(object.clone()).get("k"),
            E::lit(object).get("absent"),
            E::lit(5i64).get("k"),
            E::col(9).get("k"),
            E::col(3).get("uid").cast(DataType::Str),
            E::col(3).get("uid").eq(E::lit(7i64)),
        ];
        for e in &exprs {
            assert_parity_guarded(e);
        }
        let b = batch();
        let uid = eval_vec(&exprs[0], &b, 0, b.len(), None).unwrap();
        assert_eq!(uid.cell(1).to_value(), Value::Int(7));
        assert_eq!(
            uid.cell(0).to_value(),
            Value::Null,
            "an array has no fields"
        );
    }

    /// A morsel that starts mid-batch reads its own rows, through every
    /// kind of vector a builtin can be handed.
    #[test]
    fn builtins_honour_the_morsel_offset() {
        use miso_plan::Expr as E;
        let exprs = [
            func("contains", vec![E::col(1), E::lit("a")]),
            func("array_contains", vec![E::col(3), E::col(1)]),
            func("length", vec![func("upper", vec![E::col(1)])]),
            func("day", vec![E::col(0)]),
            E::col(3).get("uid"),
        ];
        for e in &exprs {
            for (start, n) in [(1, 3), (2, 3), (4, 1), (5, 0)] {
                assert_parity_over(e, start, n);
            }
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
        assert_eq!(select_true(&v, 0, b.len()), vec![0, 1, 2, 3, 4]);
        // None pass.
        let v = eval_vec(&E::lit(false), &b, 0, b.len(), None).unwrap();
        assert!(select_true(&v, 0, b.len()).is_empty());
        // NULL comparisons do not select (row 1 has NULL in column 0).
        let lt = bin(BinOp::Lt, E::col(0), E::lit(10i64));
        let v = eval_vec(&lt, &b, 0, b.len(), None).unwrap();
        assert_eq!(select_true(&v, 0, b.len()), vec![0, 2, 3]);
        // Morsel offset shifts the selection to batch-global indexes.
        let v = eval_vec(&lt, &b, 2, 2, None).unwrap();
        assert_eq!(select_true(&v, 2, 2), vec![2, 3]);
    }

    #[test]
    fn fused_fields_recognizes_serde_projections_and_declaring_udfs() {
        use miso_plan::Expr as E;
        let project = |exprs: Vec<Expr>| Operator::Project {
            exprs: exprs.into_iter().map(|e| ("c".to_string(), e)).collect(),
        };
        let mut udfs = UdfRegistry::new();
        let schema = miso_data::Schema::new(vec![]);
        let noop: crate::udf::UdfFn = Arc::new(|_| Ok(vec![]));
        udfs.register(crate::Udf::new("opaque", schema.clone(), noop.clone()));
        udfs.register(crate::Udf::new("declaring", schema.clone(), noop).reading(&["a", "b"]));
        let serde = project(vec![
            E::Cast {
                input: Box::new(E::col(0).get("uid")),
                ty: DataType::Int,
            },
            E::col(0).get("text"),
        ]);
        let fields = fused_fields(&serde, &udfs).expect("serde shape");
        assert_eq!(fields[0].key, "uid");
        assert_eq!(fields[0].ty, Some(DataType::Int));
        assert_eq!(fields[1].key, "text");
        assert_eq!(fields[1].ty, None);
        let udf = |name: &str| Operator::Udf {
            name: name.into(),
            output: schema.clone(),
        };
        let declaring = udf("declaring");
        let fields = fused_fields(&declaring, &udfs).expect("declared fields");
        let keys: Vec<&str> = fields.iter().map(|f| f.key).collect();
        assert_eq!(keys, ["a", "b"]);
        assert!(fields.iter().all(|f| f.ty.is_none()));
        // Everything else is declined.
        for op in [
            project(vec![E::col(1).get("uid")]),
            project(vec![E::col(0)]),
            project(vec![func("lower", vec![E::col(0).get("text")])]),
            udf("opaque"),
            udf("unregistered"),
            Operator::Limit { n: 1 },
        ] {
            assert!(fused_fields(&op, &udfs).is_none(), "{op:?}");
        }
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
        let (batch, skipped) = parse_log_columns(&lines, &fields).unwrap();
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

    /// What the fused reader builds had the index marked every well-formed
    /// line strict.
    fn parse_lines_strict(lines: &[String], fields: &[FusedField<'_>]) -> (Vec<Column>, u64) {
        let mut builders: Vec<ColBuilder> = fields.iter().map(|_| ColBuilder::new()).collect();
        let mut skipped = 0u64;
        for line in lines {
            if parse_json(line).is_ok() {
                push_strict(line, fields, &mut builders);
            } else {
                skipped += 1;
            }
        }
        (
            builders.into_iter().map(ColBuilder::finish).collect(),
            skipped,
        )
    }

    /// Over generated tweets (every one carries a `hashtags` array) and
    /// hand-made lines, the fused parse equals the strict-parser path
    /// column for column — and the fast path answers for every generated
    /// line, so no tree is built unless a nested field is read.
    #[test]
    fn fused_parse_of_nested_lines_matches_the_strict_path() {
        use miso_data::logs::{Corpus, LogsConfig};
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let mut lines = Arc::unwrap_or_clone(corpus.twitter.lines);
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
        let (batch, skipped) = parse_log_columns(&lines, &fields).unwrap();
        let (want, want_skipped) = parse_lines_strict(&lines, &fields);
        assert_eq!(skipped, want_skipped);
        assert_eq!(skipped, 5, "unterminated, 2 × trailing, torn, over the cap");
        assert_eq!(batch.len() as u64 + skipped, lines.len() as u64);
        for ((f, got), want) in fields.iter().zip(batch.columns()).zip(&want) {
            assert_eq!(got.as_ref(), want, "column {f:?}");
        }
    }
}
