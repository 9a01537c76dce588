//! Columnar (vectorized) execution support for the morsel engine.
//!
//! This module is the expression half of miso-col: a morsel-at-a-time
//! expression evaluator (`eval_vec`) that covers the whole [`Expr`] enum
//! and produces [`Column`] vectors instead of per-row [`Value`]s, and the
//! fused scan+project reader ([`LogIndex`]) that turns raw JSON log lines
//! straight into typed column vectors. The operator bodies live in
//! [`crate::engine`], which owns morsel dispatch, the guard seam and the
//! accumulator machinery.
//!
//! **Typed arms**: a kernel reads the variant of the vectors it is handed
//! once per morsel (`Typed`) and, when they are typed, works on their
//! payloads — a comparison of Int/Float/Str/Bool vectors or literals writes
//! a `Bool` column, AND/OR combine two `Bool` vectors, a filter selects off
//! a `Bool` vector, and `array_contains` of a literal reads a list column's
//! items in place. Everything else — a `Mixed` column, a NULL or container
//! literal, a cross-type comparison, arithmetic — takes the per-cell arm.
//!
//! **Semantics contract**: every path here must agree bit-for-bit with the
//! scalar evaluator in [`crate::eval`]. A typed arm compares the [`Cell`]s
//! its payloads stand for (`Scalar`), so it is `Value::cmp` — `cmp_f64`,
//! `3 = 3.0`, NULL in gives NULL out — by construction; the per-cell arm
//! routes through the shared scalar kernels `eval_binary`/`eval_unary`/
//! `cast`, and a builtin has one body, `Builtin::call`, which both
//! evaluators call on borrowed cells. AND/OR reproduce the scalar
//! short-circuit: the right side is evaluated only at positions where the
//! left side did not decide, so a plan whose right branch would error
//! serially — a bad column, an unknown builtin, a wrong argument count —
//! errors columnar-ly in exactly the same cases.
//!
//! **A line is tokenized once**: a [`LogIndex`] records, in one pass over a
//! log's lines, where each top-level value starts; every column read of
//! that log afterwards lexes only the values it asks for, with the lexer
//! the tokenizing pass used.

use crate::engine::par_chunks;
use crate::eval::{cast, eval_binary, eval_unary, logical_combine, Builtin};
use crate::udf::UdfRegistry;
use miso_common::guard::QueryGuard;
use miso_common::{pool, MisoError, Result};
use miso_data::json::{lex_str_array, parse_json, FlatVal, IndexedLine, LineIndex};
use miso_data::{Cell, ColBatch, ColBuilder, Column, DataType, Nulls, Slots, Strs, Value};
use miso_plan::{BinOp, Expr, Operator, UnaryOp};
use std::cmp::Ordering;
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
        self.column_from().map(|(c, _)| c)
    }

    /// The underlying column vector and the slot position `0` reads.
    fn column_from(&self) -> Option<(&Column, usize)> {
        match self {
            VCol::Ref(c, start) => Some((c, *start)),
            VCol::Owned(c) => Some((c, 0)),
            VCol::Const(_) => None,
        }
    }

    /// The vector's typed payload, when it has one: a typed column or a
    /// scalar literal other than NULL.
    pub(crate) fn typed(&self) -> Option<Typed<'_>> {
        match self {
            VCol::Const(Value::Int(x)) => Some(Typed::Int(Side::Lit(x))),
            VCol::Const(Value::Float(x)) => Some(Typed::Float(Side::Lit(x))),
            VCol::Const(Value::Bool(x)) => Some(Typed::Bool(Side::Lit(x))),
            VCol::Const(Value::Str(x)) => Some(Typed::Str(Side::Lit(x.as_str()))),
            VCol::Const(_) => None,
            VCol::Ref(c, start) => Typed::of(c, *start),
            VCol::Owned(c) => Typed::of(c, 0),
        }
    }

    /// Materializes morsel-local positions `0..n` as an owned column — the
    /// one a [`ColBuilder`] makes of those cells. A typed arm's output is
    /// that column already, unless it came out all NULL.
    pub(crate) fn into_column(self, n: usize) -> Column {
        match self {
            VCol::Owned(c) if c.is_canonical() => c,
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

/// One side of a typed kernel: position `j` reads a literal, or slot
/// `start + j` of a typed column's payload `P`.
pub(crate) enum Side<'a, P: Slots> {
    Lit(&'a P::Slot),
    Col(&'a P, &'a Nulls, usize),
}

// Borrows only, whatever `P` is.
impl<P: Slots> Clone for Side<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Slots> Copy for Side<'_, P> {}

impl<'a, P: Slots> Side<'a, P> {
    /// The payload at position `j`; `None` where it is NULL.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<&'a P::Slot> {
        match *self {
            Side::Lit(x) => Some(x),
            Side::Col(v, nulls, start) => (!nulls.is_null(start + j)).then(|| v.slot(start + j)),
        }
    }
}

/// A vector read on its payload, picked once per morsel from its variant.
#[derive(Clone, Copy)]
pub(crate) enum Typed<'a> {
    Int(Side<'a, Vec<i64>>),
    Float(Side<'a, Vec<f64>>),
    Bool(Side<'a, Vec<bool>>),
    Str(Side<'a, Strs>),
}

impl<'a> Typed<'a> {
    /// Column `c` from slot `start` on, when it holds scalars.
    pub(crate) fn of(c: &'a Column, start: usize) -> Option<Typed<'a>> {
        Some(match c {
            Column::Int(v, n) => Typed::Int(Side::Col(v, n, start)),
            Column::Float(v, n) => Typed::Float(Side::Col(v, n, start)),
            Column::Bool(v, n) => Typed::Bool(Side::Col(v, n, start)),
            Column::Str(v, n) => Typed::Str(Side::Col(v, n, start)),
            Column::StrList(..) | Column::Mixed(_) => return None,
        })
    }
}

/// A typed payload, as the [`Cell`] the per-cell arm would read — which is
/// what makes a typed arm agree with it: both compare and hash cells.
pub(crate) trait Scalar {
    fn cell(&self) -> Cell<'_>;
}

impl Scalar for i64 {
    #[inline]
    fn cell(&self) -> Cell<'_> {
        Cell::Int(*self)
    }
}

impl Scalar for f64 {
    #[inline]
    fn cell(&self) -> Cell<'_> {
        Cell::Float(*self)
    }
}

impl Scalar for bool {
    #[inline]
    fn cell(&self) -> Cell<'_> {
        Cell::Bool(*self)
    }
}

impl Scalar for str {
    #[inline]
    fn cell(&self) -> Cell<'_> {
        Cell::Str(self)
    }
}

/// The evaluated positions of a morsel of `n`: `mask`, or every one.
fn evaluated(n: usize, mask: Option<&[u32]>) -> impl Iterator<Item = usize> + '_ {
    let all = mask.is_none().then_some(0..n);
    let some = mask.into_iter().flatten().map(|&j| j as usize);
    all.into_iter().flatten().chain(some)
}

/// Visits positions `0..n` in order, each with whether it is evaluated:
/// in `mask` (sorted ascending), or every one when there is no mask.
fn walk_masked(n: usize, mask: Option<&[u32]>, mut visit: impl FnMut(usize, bool)) {
    let mut sel = mask.map(|m| m.iter().map(|&j| j as usize).peekable());
    for j in 0..n {
        let evaluated = sel.as_mut().is_none_or(|s| s.next_if_eq(&j).is_some());
        visit(j, evaluated);
    }
}

/// Builds an owned column of length `n` from `at`, evaluated only at the
/// masked positions; unmasked slots are NULL.
fn build_masked(n: usize, mask: Option<&[u32]>, mut at: impl FnMut(usize) -> Value) -> Column {
    let mut b = ColBuilder::new();
    b.reserve(n);
    walk_masked(n, mask, |j, evaluated| {
        if evaluated {
            b.push_value(at(j))
        } else {
            b.push_null()
        }
    });
    b.finish()
}

/// A `Bool` column of length `n` written straight from `at` (`None` is
/// NULL) at the evaluated positions, NULL elsewhere. It stays `Bool` even
/// where every slot came out NULL — [`VCol::into_column`] settles that.
fn bool_masked(
    n: usize,
    mask: Option<&[u32]>,
    mut at: impl FnMut(usize) -> Option<bool>,
) -> Column {
    let mut values = vec![false; n];
    let mut nulls = Nulls::none();
    walk_masked(n, mask, |j, evaluated| {
        match evaluated.then(|| at(j)).flatten() {
            Some(b) => values[j] = b,
            None => nulls.set(j),
        }
    });
    Column::Bool(values, nulls)
}

/// Mirror of [`crate::eval::logical_short_circuits`] on a borrowed cell.
#[inline]
fn cell_short_circuits(op: BinOp, c: &Cell) -> bool {
    matches!(
        (op, c),
        (BinOp::And, Cell::Bool(false)) | (BinOp::Or, Cell::Bool(true))
    )
}

/// AND/OR in three-valued logic on `Bool` payloads: the left value that
/// decides alone (`decides`: false for AND, true for OR) is the result and
/// `r` is not read; otherwise NULL on the left gives NULL unless the right
/// decides. Agrees with `logical_combine` on bools and NULLs.
#[inline]
fn kleene(decides: bool, l: Option<bool>, r: impl FnOnce() -> Option<bool>) -> Option<bool> {
    match l {
        Some(a) if a == decides => Some(a),
        Some(_) => r(),
        None => r().filter(|&b| b == decides),
    }
}

/// Binary kernel on cells — the per-cell arm: allocation-free arms for the
/// typed pairs a `Mixed` column still holds (Int/Int, Str/Str), the shared
/// scalar kernel for everything else. Must agree with `eval_binary` on the
/// equivalent owned values — `Value::cmp` is `i64::cmp` on Int/Int and
/// `str::cmp` on Str/Str, so the fast arms reproduce it exactly.
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

/// Whether `ord` satisfies the comparison `op`.
#[inline]
fn holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("not a comparison"),
    }
}

/// The typed arm of a comparison: Int/Float against Int/Float, Str against
/// Str, Bool against Bool — the pairs `eval_binary` orders rather than calls
/// incomparable — written into a `Bool` column; `None` for any other pair.
fn compare_typed(op: BinOp, l: &VCol, r: &VCol, n: usize, mask: Option<&[u32]>) -> Option<Column> {
    fn compare<A: Slots, B: Slots>(
        op: BinOp,
        l: Side<A>,
        r: Side<B>,
        n: usize,
        mask: Option<&[u32]>,
    ) -> Column
    where
        A::Slot: Scalar,
        B::Slot: Scalar,
    {
        bool_masked(n, mask, |j| {
            let ord = l.get(j)?.cell().cmp_cell(&r.get(j)?.cell());
            Some(holds(op, ord))
        })
    }
    use Typed::{Bool, Float, Int, Str};
    Some(match (l.typed()?, r.typed()?) {
        (Int(a), Int(b)) => compare(op, a, b, n, mask),
        (Int(a), Float(b)) => compare(op, a, b, n, mask),
        (Float(a), Int(b)) => compare(op, a, b, n, mask),
        (Float(a), Float(b)) => compare(op, a, b, n, mask),
        (Str(a), Str(b)) => compare(op, a, b, n, mask),
        (Bool(a), Bool(b)) => compare(op, a, b, n, mask),
        _ => return None,
    })
}

/// The typed arm of `array_contains(list, literal)`: each slot of a list
/// column asked in place whether an item equals the needle — which only a
/// string literal can — written into a `Bool` column; `None` for any other
/// pair of arguments.
fn array_contains_typed(
    list: &VCol,
    needle: &VCol,
    n: usize,
    mask: Option<&[u32]>,
) -> Option<Column> {
    let (Column::StrList(lists, nulls), start) = list.column_from()? else {
        return None;
    };
    let VCol::Const(needle) = needle else {
        return None;
    };
    let needle = needle.as_str();
    Some(bool_masked(n, mask, |j| {
        let i = start + j;
        (!nulls.is_null(i)).then(|| needle.is_some_and(|x| lists.get(i).iter().any(|s| s == x)))
    }))
}

/// Unary kernel on cells; shares `eval_unary` for the value-dependent arms.
#[inline]
fn unary_cell(op: UnaryOp, c: Cell) -> Value {
    match op {
        UnaryOp::IsNull => Value::Bool(c.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!c.is_null()),
        // Not/Neg on strings and containers are NULL; skip the clone.
        _ => match c {
            Cell::Str(_) | Cell::StrList(_) | Cell::Val(_) => Value::Null,
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
            let decides = *op == BinOp::Or;
            let l = eval_vec(left, batch, start, n, mask)?;
            let lb = match l.typed() {
                Some(Typed::Bool(lb)) => Some(lb),
                _ => None,
            };
            // Positions where the left side did not decide the result.
            let need: Vec<u32> = evaluated(n, mask)
                .filter(|&j| match lb {
                    Some(lb) => lb.get(j) != Some(&decides),
                    None => !cell_short_circuits(*op, &l.cell(j)),
                })
                .map(|j| j as u32)
                .collect();
            let r = eval_vec(right, batch, start, n, Some(&need))?;
            if let (Some(lb), Some(Typed::Bool(rb))) = (lb, r.typed()) {
                return Ok(VCol::Owned(bool_masked(n, mask, |j| {
                    kleene(decides, lb.get(j).copied(), || rb.get(j).copied())
                })));
            }
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
            let comparison = matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            );
            if let Some(col) = comparison
                .then(|| compare_typed(*op, &l, &r, n, mask))
                .flatten()
            {
                return Ok(VCol::Owned(col));
            }
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
            // The builtin is resolved once. Its errors are static: they
            // arise at the first evaluated position, or not at all.
            let builtin = match Builtin::resolve(name, args.len()) {
                Ok(builtin) => builtin,
                Err(_) if masked_empty => return Ok(VCol::Const(Value::Null)),
                Err(e) => return Err(e),
            };
            if let (Builtin::ArrayContains, [list, needle]) = (builtin, &args[..]) {
                if let Some(col) = array_contains_typed(list, needle, n, mask) {
                    return Ok(VCol::Owned(col));
                }
            }
            let mut cells = Vec::with_capacity(args.len());
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                cells.clear();
                cells.extend(args.iter().map(|a| a.cell(j)));
                builtin.call(&cells)
            })))
        }
    }
}

/// Batch-global indexes (within the morsel `[start, start + n)`) where the
/// predicate vector is `TRUE` — SQL WHERE semantics, so NULL and non-bool
/// results do not select. A `Bool` vector is read on its payload.
pub(crate) fn select_true(pred: &VCol, start: usize, n: usize) -> Vec<u32> {
    // A constant FALSE/NULL predicate selects nothing without a scan.
    if let VCol::Const(v) = pred {
        if !v.is_true() {
            return Vec::new();
        }
    }
    let global = |j: usize| (start + j) as u32;
    // Room for every position: one allocation, however many are selected.
    let mut selected = Vec::with_capacity(n);
    match pred.typed() {
        Some(Typed::Bool(b)) => {
            selected.extend((0..n).filter(|&j| b.get(j) == Some(&true)).map(global))
        }
        _ => selected.extend(
            (0..n)
                .filter(|&j| matches!(pred.cell(j), Cell::Bool(true)))
                .map(global),
        ),
    }
    selected
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
/// `Value` round-trips for the common shapes — an array of plain strings
/// is lexed straight into a list column, `items` being the lexer's scratch
/// — and everything else goes through the shared scalar [`cast`] for exact
/// semantics.
fn push_cast<'a>(
    b: &mut ColBuilder,
    tok: FlatVal<'a>,
    ty: Option<DataType>,
    items: &mut Vec<&'a str>,
) {
    let Some(ty) = ty else {
        match tok {
            FlatVal::Null => b.push_null(),
            FlatVal::Bool(x) => b.push_bool(x),
            FlatVal::Int(i) => b.push_i64(i),
            FlatVal::Float(f) => b.push_f64(f),
            FlatVal::Str(s) => b.push_str(s),
            FlatVal::Nested(raw) => match lex_str_array(raw, items) {
                Some(()) => b.push_strs(items.iter().copied()),
                None => b.push_value(tok.to_value()),
            },
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
        (FlatVal::Str(s), DataType::Str) => b.push_str(s),
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
    let mut items = Vec::new();
    index.for_each_line(lines, &keys, |line| match line {
        IndexedLine::Flat(toks) => {
            for ((f, b), tok) in fields.iter().zip(&mut builders).zip(toks) {
                push_cast(b, *tok, f.ty, &mut items);
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

    fn neg(e: Expr) -> Expr {
        Expr::Unary {
            op: UnaryOp::Neg,
            input: Box::new(e),
        }
    }

    /// `$0` Int, `$1` Str, `$4` Float — each with a NULL; `$2` a `Mixed`
    /// column of scalars, `$3` a `Mixed` column of arrays, an object, a
    /// string and a NULL. For the typed arms, each with a NULL too: `$5`
    /// Float with −0.0, NaN, 0.0 and a −4.0 that `$6` (Int) and `$0` equal,
    /// `$6` Int with 0s that `$5`'s zeros equal, `$7` Bool, `$8` Str (one
    /// of them not ASCII). `$9` Int holds `i64::MIN`, whose negation,
    /// absolute value and remainder by −1 leave `i64`. `$10` is a list
    /// column (a NULL, an empty list, a non-ASCII item). `$11` is out of
    /// range.
    fn batch() -> ColBatch {
        let tags = Value::Array(vec![Value::str("pizza"), Value::Int(1), Value::Null]);
        let user = Value::object(vec![
            ("uid".into(), Value::Int(7)),
            ("tags".into(), Value::Array(vec![Value::str("pizza")])),
        ]);
        let list = |items: &[&str]| Value::Array(items.iter().map(|s| Value::str(*s)).collect());
        let lists = [
            list(&["pizza", "coffee"]),
            list(&[]),
            Value::Null,
            list(&["é", "pizza"]),
            list(&["Hello"]),
        ];
        let mut lists = lists.into_iter();
        let mut row = |vals: [Value; 5], typed: [Value; 5]| {
            let list = lists.next().expect("one list per row");
            Row::new(vals.into_iter().chain(typed).chain([list]).collect())
        };
        let (f, i, t, st) = (Value::Float, Value::Int, Value::Bool, Value::str);
        let rows: Vec<Row> = vec![
            row(
                [
                    Value::Int(1),
                    Value::str("a"),
                    Value::Float(0.5),
                    tags,
                    Value::Float(2.25),
                ],
                [f(-0.0), i(0), t(true), st("a"), i(i64::MIN)],
            ),
            row(
                [
                    Value::Null,
                    Value::str("b"),
                    Value::Int(2),
                    user,
                    Value::Float(-1.0),
                ],
                [f(f64::NAN), i(2), Value::Null, st("a"), i(-1)],
            ),
            row(
                [
                    Value::Int(3),
                    Value::Null,
                    Value::Float(f64::NAN),
                    Value::str("Hello World"),
                    Value::Null,
                ],
                [Value::Null, Value::Null, t(false), st("漢字"), Value::Null],
            ),
            row(
                [
                    Value::Int(-4),
                    Value::str("a"),
                    Value::Bool(true),
                    Value::Null,
                    Value::Float(90_000.7),
                ],
                [f(-4.0), i(-4), t(true), Value::Null, i(i64::MAX)],
            ),
            row(
                [
                    Value::Int(90_000),
                    Value::str("Hello"),
                    Value::str("x"),
                    Value::Array(vec![]),
                    Value::Float(0.0),
                ],
                [f(0.0), i(0), t(false), st("Hello World"), i(7)],
            ),
        ];
        let b = ColBatch::from_rows(&rows).unwrap();
        assert!(matches!(b.col(0), Column::Int(..)) && matches!(b.col(1), Column::Str(..)));
        assert!(matches!(b.col(2), Column::Mixed(..)) && matches!(b.col(3), Column::Mixed(..)));
        assert!(matches!(b.col(5), Column::Float(..)) && matches!(b.col(6), Column::Int(..)));
        assert!(matches!(b.col(7), Column::Bool(..)) && matches!(b.col(8), Column::Str(..)));
        assert!(matches!(b.col(9), Column::Int(..)) && matches!(b.col(10), Column::StrList(..)));
        assert_eq!(b.arity(), 11);
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

    /// `eval_vec` ≡ `eval`: the per-cell arm over the `Expr` enum, then
    /// every typed arm — comparisons, AND / OR with a NULL on either side,
    /// the filter's `Bool` selection.
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
            bin(BinOp::Lt, E::col(11), E::lit(1i64)),
            // Integer results outside `i64` are NULL, as `a + b` is.
            neg(E::col(9)),
            bin(BinOp::Mod, E::col(9), E::lit(-1i64)),
            bin(BinOp::Mod, E::col(9), E::col(9)),
            bin(BinOp::Sub, E::lit(0i64), E::col(9)),
            neg(E::lit(f64::NAN)),
            bin(BinOp::Mod, E::lit(f64::NAN), E::col(9)),
            E::lit(f64::NAN).cast(DataType::Int),
        ];
        for e in &exprs {
            assert_parity(e);
        }
        let b = batch();
        let at = |e: &Expr, j: usize| {
            eval_vec(e, &b, 0, b.len(), None)
                .unwrap()
                .cell(j)
                .to_value()
        };
        assert_eq!(at(&neg(E::col(9)), 0), Value::Null, "-i64::MIN");
        assert_eq!(at(&neg(E::col(9)), 1), Value::Int(1));
        assert_eq!(at(&neg(E::col(9)), 3), Value::Int(-i64::MAX));
        let rem = |r: i64| bin(BinOp::Mod, E::col(9), E::lit(r));
        assert_eq!(at(&rem(-1), 0), Value::Null, "i64::MIN % -1");
        assert_eq!(at(&rem(-1), 4), Value::Int(0));
        assert_eq!(at(&rem(0), 4), Value::Null);
        assert_eq!(at(&rem(-3), 1), Value::Int(2));
        // The typed arms. Every comparison on every typed pair — Int/Int,
        // Float/Float, Int/Float both ways, Str/Str, Bool/Bool; column
        // against column, against a literal and a literal against a column;
        // NaN, −0.0 and NULL among the operands — takes the typed arm and
        // agrees with `eval`, alone and behind an AND / OR. The pairs the
        // typed arm declines take the per-cell arm, and agree too.
        let (c, nan) = (E::col, f64::NAN);
        let typed = [
            (c(0), c(6)),
            (c(6), c(0)),
            (c(4), c(5)),
            (c(5), c(5)),
            (c(6), c(5)),
            (c(5), c(6)),
            (c(0), c(4)),
            (c(1), c(8)),
            (c(8), c(1)),
            (c(7), c(7)),
            (c(0), E::lit(0i64)),
            (c(6), E::lit(-4.0)),
            (c(5), E::lit(0i64)),
            (c(5), E::lit(nan)),
            (c(5), E::lit(-0.0)),
            (c(4), E::lit(2.25)),
            (c(1), E::lit("a")),
            (c(7), E::lit(true)),
            (c(7), E::lit(false)),
            (E::lit(0i64), c(5)),
            (E::lit("b"), c(8)),
            (E::lit(false), c(7)),
            (E::lit(nan), c(4)),
        ];
        let declined = [
            (c(0), c(1)),
            (c(7), c(0)),
            (c(5), E::lit(Value::Null)),
            (c(2), c(0)),
            (c(3), E::lit("a")),
            (c(10), c(10)),
            (c(10), c(3)),
            (c(3), c(10)),
        ];
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        let b = batch();
        let n = b.len();
        let mut predicates = Vec::new();
        for op in ops {
            for (pairs, takes_typed) in [(&typed[..], true), (&declined[..], false)] {
                for (l, r) in pairs {
                    let (lv, rv) = (eval_vec(l, &b, 0, n, None), eval_vec(r, &b, 0, n, None));
                    let arm = compare_typed(op, &lv.unwrap(), &rv.unwrap(), n, None);
                    assert_eq!(arm.is_some(), takes_typed, "{op:?} on {l:?}, {r:?}");
                    let e = bin(op, l.clone(), r.clone());
                    assert_parity_guarded(&e);
                    predicates.push(e);
                }
            }
        }
        // AND / OR of typed `Bool` vectors, a NULL on either side: a Bool
        // column with a NULL, comparisons NULL where an operand is, literals.
        let bools = [
            c(7),
            c(5).eq(E::lit(0.0)),
            bin(BinOp::Gt, c(6), c(0)),
            E::lit(true),
            E::lit(false),
            E::lit(Value::Null),
        ];
        for l in &bools {
            for r in &bools {
                assert_parity(&l.clone().and(r.clone()));
                assert_parity(&bin(BinOp::Or, l.clone(), r.clone()));
            }
        }
        // The filter reads a `Bool` vector on its payload.
        for e in predicates.iter().chain(&bools) {
            let v = eval_vec(e, &b, 0, n, None).unwrap();
            let rows = b.to_rows();
            let want: Vec<u32> = (0..n as u32)
                .filter(|&i| eval(e, &rows[i as usize]).unwrap().is_true())
                .collect();
            assert_eq!(select_true(&v, 0, n), want, "{e:?}");
        }
    }

    /// Every builtin of [`Builtin`], at its own argument count, over every
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
                E::lit(f64::NAN),
                E::col(10),
                E::col(11),
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
        assert_eq!(checked, 9 * 14 + 3 * 196 + 2744);
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
        let abs = func("abs", vec![E::col(9)]);
        assert_eq!(at(&abs, 0), Value::Null, "abs(i64::MIN)");
        assert_eq!(at(&abs, 1), Value::Int(1));
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(at(&func("round", vec![E::lit(x)]), 0), Value::Null, "{x}");
        }
        assert_eq!(at(&func("round", vec![E::lit(-2.5)]), 0), Value::Int(-3));
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
        assert_parity(&func("nope", vec![E::col(11)]));
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
            E::col(11).get("k"),
            E::col(10).get("k"),
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

    /// `array_contains` over a list column reads the items in place when the
    /// needle is a literal, and agrees with `eval` whatever the needle — a
    /// string present or absent, NULL, a number, an array, a column — alone,
    /// behind a short-circuit, and from any morsel offset.
    #[test]
    fn array_contains_reads_list_columns_in_place() {
        use miso_plan::Expr as E;
        let b = batch();
        let n = b.len();
        let needles = [
            (E::lit("pizza"), true),
            (E::lit("é"), true),
            (E::lit("nope"), true),
            (E::lit(Value::Null), true),
            (E::lit(1i64), true),
            (E::lit(Value::Array(vec![Value::str("pizza")])), true),
            (E::col(1), false),
        ];
        for (needle, typed) in needles {
            let (list, v) = (
                eval_vec(&E::col(10), &b, 0, n, None),
                eval_vec(&needle, &b, 0, n, None),
            );
            let arm = array_contains_typed(&list.unwrap(), &v.unwrap(), n, None);
            assert_eq!(arm.is_some(), typed, "{needle:?}");
            let e = func("array_contains", vec![E::col(10), needle]);
            assert_parity_guarded(&e);
            for (start, n) in [(1, 3), (2, 3), (4, 1), (5, 0)] {
                assert_parity_over(&e, start, n);
            }
        }
        let at = |e: &Expr, j: usize| eval_vec(e, &b, 0, n, None).unwrap().cell(j).to_value();
        let pizza = func("array_contains", vec![E::col(10), E::lit("pizza")]);
        let got: Vec<Value> = (0..n).map(|j| at(&pizza, j)).collect();
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        assert_eq!(got, [t.clone(), f.clone(), Value::Null, t, f]);
        assert_eq!(at(&func("length", vec![E::col(10)]), 0), Value::Int(2));
        assert_eq!(at(&func("length", vec![E::col(10)]), 2), Value::Null);
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
