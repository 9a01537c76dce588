//! Columnar (vectorized) execution support for the morsel engine.
//!
//! This module is the expression half of miso-col: a morsel-at-a-time
//! expression evaluator (`eval_vec`) that covers the whole [`Expr`] enum
//! and produces [`Column`] vectors instead of per-row [`Value`]s, a filter's
//! conjunct kernels (`Predicate`), and the fused scan+project reader
//! ([`columnize`], [`field_columns`]) that turns raw JSON log lines straight
//! into typed column vectors. The operator bodies live in [`crate::engine`],
//! which owns morsel dispatch, the guard seam and the accumulator machinery.
//!
//! **One per-cell evaluator**: each `Expr` kind has one arm in `eval_vec`,
//! which computes every evaluated position with the scalar kernels the
//! serial interpreter in [`crate::eval`] runs — `eval_binary`, `eval_unary`,
//! `cast`, `logical_combine` and `Builtin::call` on borrowed cells — so the
//! two agree bit for bit by construction. AND/OR reproduce the scalar
//! short-circuit: the right side is evaluated only at positions where the
//! left side did not decide, so a plan whose right branch would error
//! serially — a bad column, an unknown builtin, a wrong argument count —
//! errors columnar-ly in exactly the same cases. The one typed predicate
//! code is a filter's: its conjuncts narrow a selection vector one at a
//! time, a comparison with a literal and `(array_)contains` reading the
//! column's payload (`Predicate`).
//!
//! **A line is tokenized once**: [`columnize`] keeps every top-level field
//! of a log's lines as a raw column ([`RawColumns`]) in one pass; every
//! column read of that log afterwards is one of those columns, shared, or
//! a cast of it — no line is lexed again.

use crate::engine::par_chunks;
use crate::eval::{
    cast, eval_binary, eval_unary, logical_combine, logical_short_circuits, Builtin,
};
use crate::udf::UdfRegistry;
use miso_common::guard::QueryGuard;
use miso_common::{MisoError, Result};
use miso_data::json::RawColumns;
use miso_data::{Cell, ColBatch, ColBuilder, Column, DataType, Nulls, Row, Slots, Strs, Value};
use miso_plan::{BinOp, Expr, Operator};
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

    /// Materializes morsel-local positions `0..n` as an owned column — the
    /// one a [`ColBuilder`] makes of those cells, which a computed column
    /// already is.
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

/// A typed payload, as the [`Cell`] it stands for — which is what makes a
/// kernel over payloads agree with the per-cell evaluator: both compare and
/// hash cells.
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

/// Builds an owned column of length `n` from `at`, evaluated only at the
/// masked positions (sorted ascending); unmasked slots are NULL.
fn build_masked(n: usize, mask: Option<&[u32]>, mut at: impl FnMut(usize) -> Value) -> Column {
    let mut b = ColBuilder::new();
    b.reserve(n);
    let mut sel = mask.map(|m| m.iter().map(|&j| j as usize).peekable());
    for j in 0..n {
        if sel.as_mut().is_none_or(|s| s.next_if_eq(&j).is_some()) {
            b.push_value(at(j))
        } else {
            b.push_null()
        }
    }
    b.finish()
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

/// Evaluates `expr` over the morsel `[start, start + n)` of `batch`, one
/// cell at a time through the scalar kernels.
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
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                cast(v.cell(j).to_value(), *ty)
            })))
        }
        Expr::Unary { op, input } => {
            let v = eval_vec(input, batch, start, n, mask)?;
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                eval_unary(*op, v.cell(j).to_value())
            })))
        }
        Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
            let l = eval_vec(left, batch, start, n, mask)?;
            // Positions where the left side did not decide the result.
            let need: Vec<u32> = evaluated(n, mask)
                .filter(|&j| !logical_short_circuits(*op, &l.cell(j)))
                .map(|j| j as u32)
                .collect();
            let r = eval_vec(right, batch, start, n, Some(&need))?;
            Ok(VCol::Owned(build_masked(n, mask, |j| {
                let lc = l.cell(j);
                if logical_short_circuits(*op, &lc) {
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
                eval_binary(*op, l.cell(j).to_value(), r.cell(j).to_value())
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

/// A filter's predicate, planned once per batch: the conjuncts of its
/// top-level `AND`s, each narrowing a morsel's selection vector in turn.
/// A row is selected where every conjunct is `TRUE` — where their `AND` is —
/// so the order they run in does not change the answer: comparisons of a
/// column with a literal first, then `array_contains`, then `contains`, all
/// typed kernels over the payload; any other conjunct last, through
/// [`eval_vec`] at the rows still selected. The kernels build no `Bool` column.
///
/// Run apart, the conjuncts would change *where* an error arises, not what
/// is selected. So they are used only when the predicate cannot fail (every
/// column reference below the arity, every builtin resolved: `eval_vec`'s
/// only errors); otherwise the whole predicate is evaluated as one
/// expression, and fails exactly where the scalar evaluator does.
pub(crate) struct Predicate<'e> {
    whole: &'e Expr,
    conjuncts: Option<Vec<Conjunct<'e>>>,
}

/// One conjunct, and the kernel that runs it when the column is typed.
struct Conjunct<'e> {
    expr: &'e Expr,
    kernel: Option<Kernel<'e>>,
}

/// A conjunct a typed kernel can run over a column's payload, its kinds in
/// the order they run.
#[derive(Clone, Copy)]
enum Kernel<'e> {
    /// `$col op literal`, either side: holds where the slot's ordering
    /// against the literal is `accept`ed (indexed by `Ordering as i8 + 1`).
    Compare {
        col: usize,
        lit: &'e Value,
        accept: [bool; 3],
    },
    /// `array_contains($col, 'needle')`.
    ArrayContains { col: usize, needle: &'e str },
    /// `contains($col, 'needle')`.
    Contains { col: usize, needle: &'e str },
}

/// Rows a filter selected in one morsel, and how many candidate rows its
/// conjuncts tested with a typed kernel and through [`eval_vec`].
pub(crate) struct Selected {
    pub(crate) rows: Vec<u32>,
    pub(crate) kernel_rows: u64,
    pub(crate) fallback_rows: u64,
}

impl<'e> Predicate<'e> {
    /// `predicate` over a batch of `arity` columns.
    pub(crate) fn new(predicate: &'e Expr, arity: usize) -> Predicate<'e> {
        let conjuncts = cannot_fail(predicate, arity).then(|| {
            let mut exprs = Vec::new();
            split_and(predicate, &mut exprs);
            let mut conjuncts: Vec<Conjunct> = exprs
                .into_iter()
                .map(|expr| Conjunct {
                    expr,
                    kernel: Kernel::of(expr),
                })
                .collect();
            conjuncts.sort_by_key(|c| c.kernel.map_or(u8::MAX, Kernel::rank));
            conjuncts
        });
        Predicate {
            whole: predicate,
            conjuncts,
        }
    }

    /// The batch-global indexes in the morsel `[start, start + n)` where
    /// the predicate is `TRUE`: [`eval_vec`] then [`select_true`], without
    /// the `Bool` columns.
    pub(crate) fn select(&self, batch: &ColBatch, start: usize, n: usize) -> Result<Selected> {
        let Some(conjuncts) = &self.conjuncts else {
            let pred = eval_vec(self.whole, batch, start, n, None)?;
            return Ok(Selected {
                rows: select_true(&pred, start, n),
                kernel_rows: 0,
                fallback_rows: n as u64,
            });
        };
        let mut out = Selected {
            rows: (start as u32..(start + n) as u32).collect(),
            kernel_rows: 0,
            fallback_rows: 0,
        };
        let sel = &mut out.rows;
        for c in conjuncts {
            if sel.is_empty() {
                break;
            }
            let tested = sel.len() as u64;
            if c.kernel.is_some_and(|k| k.narrow(batch, sel)) {
                out.kernel_rows += tested;
                continue;
            }
            out.fallback_rows += tested;
            let mask: Vec<u32> = sel.iter().map(|&i| i - start as u32).collect();
            let pred = eval_vec(c.expr, batch, start, n, Some(&mask))?;
            keep(sel, |i| matches!(pred.cell(i - start), Cell::Bool(true)));
        }
        Ok(out)
    }
}

impl<'e> Kernel<'e> {
    /// The kernel that runs conjunct `e`, when it has one of their shapes.
    fn of(e: &'e Expr) -> Option<Kernel<'e>> {
        match e {
            Expr::Binary { op, left, right } if is_comparison(*op) => {
                let (col, lit, lit_left) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), Expr::Literal(lit)) => (*c, lit, false),
                    (Expr::Literal(lit), Expr::Column(c)) => (*c, lit, true),
                    _ => return None,
                };
                // `cmp_cell` is a total order, so `lit op x` is `op` on
                // `x.cmp_cell(lit)` reversed.
                let accept = [Ordering::Less, Ordering::Equal, Ordering::Greater]
                    .map(|ord| holds(*op, if lit_left { ord.reverse() } else { ord }));
                Some(Kernel::Compare { col, lit, accept })
            }
            Expr::Func { name, args } => match (Builtin::resolve(name, args.len()), &args[..]) {
                (Ok(b), [Expr::Column(col), Expr::Literal(Value::Str(needle))]) => match b {
                    Builtin::ArrayContains => Some(Kernel::ArrayContains {
                        col: *col,
                        needle: needle.as_str(),
                    }),
                    Builtin::Contains => Some(Kernel::Contains {
                        col: *col,
                        needle: needle.as_str(),
                    }),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        }
    }

    /// Where the kind runs among the conjuncts.
    fn rank(self) -> u8 {
        match self {
            Kernel::Compare { .. } => 0,
            Kernel::ArrayContains { .. } => 1,
            Kernel::Contains { .. } => 2,
        }
    }

    /// Keeps the rows of `sel` (batch-global) on which the conjunct is
    /// `TRUE`, reading the column's payload with one null test per row;
    /// `false`, leaving `sel` alone, when the column and literal are not a
    /// pair the kernel reads — the conjunct then goes through [`eval_vec`].
    /// A comparison orders the `Cell`s its payloads stand for, as
    /// `eval_binary` orders the values; a builtin is `Builtin::call`'s arm
    /// for a string (list) and a string.
    fn narrow(self, batch: &ColBatch, sel: &mut Vec<u32>) -> bool {
        fn compare<P: Slots, L: Scalar + ?Sized>(
            sel: &mut Vec<u32>,
            v: &P,
            nulls: &Nulls,
            lit: &L,
            accept: [bool; 3],
        ) where
            P::Slot: Scalar,
        {
            let lit = lit.cell();
            keep(sel, |i| {
                !nulls.is_null(i) && accept[(v.slot(i).cell().cmp_cell(&lit) as i8 + 1) as usize]
            })
        }
        match self {
            Kernel::Compare { col, lit, accept } => match (batch.col(col), lit) {
                (Column::Int(v, nulls), Value::Int(x)) => compare(sel, v, nulls, x, accept),
                (Column::Int(v, nulls), Value::Float(x)) => compare(sel, v, nulls, x, accept),
                (Column::Float(v, nulls), Value::Int(x)) => compare(sel, v, nulls, x, accept),
                (Column::Float(v, nulls), Value::Float(x)) => compare(sel, v, nulls, x, accept),
                (Column::Str(v, nulls), Value::Str(x)) => {
                    compare(sel, v, nulls, x.as_str(), accept)
                }
                (Column::Bool(v, nulls), Value::Bool(x)) => compare(sel, v, nulls, x, accept),
                _ => return false,
            },
            Kernel::ArrayContains { col, needle } => match batch.col(col) {
                Column::StrList(lists, nulls) => keep(sel, |i| {
                    !nulls.is_null(i) && lists.get(i).iter().any(|item| item == needle)
                }),
                _ => return false,
            },
            Kernel::Contains { col, needle } => match batch.col(col) {
                Column::Str(v, nulls) => {
                    keep(sel, |i| !nulls.is_null(i) && v.get(i).contains(needle))
                }
                _ => return false,
            },
        }
        true
    }
}

/// Whether `op` compares.
fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// Appends the conjuncts of `e`'s top-level `AND`s to `out`, left to right.
fn split_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_and(left, out);
            split_and(right, out);
        }
        e => out.push(e),
    }
}

/// Whether [`eval_vec`] of `e` over a batch of `arity` columns cannot fail,
/// wherever it is evaluated: its only errors are a column out of range and
/// a builtin that does not resolve.
fn cannot_fail(e: &Expr, arity: usize) -> bool {
    match e {
        Expr::Column(i) => *i < arity,
        Expr::Literal(_) => true,
        Expr::Cast { input, .. } | Expr::Unary { input, .. } | Expr::FieldGet { input, .. } => {
            cannot_fail(input, arity)
        }
        Expr::Binary { left, right, .. } => cannot_fail(left, arity) && cannot_fail(right, arity),
        Expr::Func { name, args } => {
            Builtin::resolve(name, args.len()).is_ok() && args.iter().all(|a| cannot_fail(a, arity))
        }
    }
}

/// Keeps the entries of `sel` that `keep` holds on, in order: each is
/// written and the write position moves on only if it is kept, so the
/// loop does not branch on the test.
#[inline]
fn keep(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    let mut kept = 0;
    for k in 0..sel.len() {
        let i = sel[k];
        sel[kept] = i;
        kept += usize::from(keep(i as usize));
    }
    sel.truncate(kept);
}

/// Refills one row in place from a batch's columns, each read on its typed
/// payload, picked once per morsel: a string slot that receives a string
/// keeps its capacity, and any other slot is overwritten. A list or `Mixed`
/// column is read cell by cell.
pub(crate) struct RowFill<'a> {
    fields: Vec<std::result::Result<Typed<'a>, &'a Column>>,
}

impl<'a> RowFill<'a> {
    pub(crate) fn new(batch: &'a ColBatch) -> RowFill<'a> {
        let field = |c: &'a Arc<Column>| Typed::of(c).ok_or(c.as_ref());
        RowFill {
            fields: batch.columns().iter().map(field).collect(),
        }
    }

    /// Overwrites `row`, of the batch's arity, with the batch's row `i`.
    pub(crate) fn fill(&self, i: usize, row: &mut Row) {
        fn set<T: Copy>(slot: &mut Value, x: Option<&T>, wrap: fn(T) -> Value) {
            *slot = x.map_or(Value::Null, |&x| wrap(x));
        }
        debug_assert_eq!(
            row.arity(),
            self.fields.len(),
            "filling a row of another arity"
        );
        for (slot, field) in row.values_mut().iter_mut().zip(&self.fields) {
            match field {
                Ok(Typed::Int(v)) => set(slot, v.get(i), Value::Int),
                Ok(Typed::Float(v)) => set(slot, v.get(i), Value::Float),
                Ok(Typed::Bool(v)) => set(slot, v.get(i), Value::Bool),
                Ok(Typed::Str(v)) => refill(slot, v.get(i).map_or(Cell::Null, Cell::Str)),
                Err(col) => refill(slot, col.cell(i)),
            }
        }
    }
}

/// One typed column's payload `P` and its NULLs.
struct Side<'a, P: Slots>(&'a P, &'a Nulls);

// Borrows only, whatever `P` is.
impl<P: Slots> Clone for Side<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Slots> Copy for Side<'_, P> {}

impl<'a, P: Slots> Side<'a, P> {
    /// The payload at slot `i`; `None` where it is NULL.
    #[inline]
    fn get(&self, i: usize) -> Option<&'a P::Slot> {
        (!self.1.is_null(i)).then(|| self.0.slot(i))
    }
}

/// A column read on its payload, picked once from its variant.
#[derive(Clone, Copy)]
enum Typed<'a> {
    Int(Side<'a, Vec<i64>>),
    Float(Side<'a, Vec<f64>>),
    Bool(Side<'a, Vec<bool>>),
    Str(Side<'a, Strs>),
}

impl<'a> Typed<'a> {
    /// Column `c`, when it holds scalars.
    fn of(c: &'a Column) -> Option<Typed<'a>> {
        Some(match c {
            Column::Int(v, n) => Typed::Int(Side(v, n)),
            Column::Float(v, n) => Typed::Float(Side(v, n)),
            Column::Bool(v, n) => Typed::Bool(Side(v, n)),
            Column::Str(v, n) => Typed::Str(Side(v, n)),
            Column::StrList(..) | Column::Mixed(_) => return None,
        })
    }
}

/// Writes `cell` into `slot`, into the slot's own string when both are
/// strings.
#[inline]
fn refill(slot: &mut Value, cell: Cell) {
    match (slot, cell) {
        (Value::Str(s), Cell::Str(x)) => {
            s.clear();
            s.push_str(x);
        }
        (slot, cell) => *slot = cell.to_value(),
    }
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

/// The one lexing pass over a log's lines, morsel-parallel on the worker
/// pool: each morsel is lexed by [`RawColumns::lex`] and the runs joined in
/// order, so the columns are those one serial pass builds, for any thread
/// count.
pub fn columnize(lines: &[String]) -> Result<RawColumns> {
    // The caller owns the cancellation boundary: a store may be reading an
    // appended batch, outside any query.
    let runs = par_chunks(QueryGuard::inert_ref(), lines, |_, chunk| {
        RawColumns::lex(chunk)
    })?;
    Ok(RawColumns::concat(runs))
}

/// One column per field over `raw`'s rows: the raw column itself, shared,
/// for a bare field or a cast that keeps every cell as it is; otherwise the
/// raw column cast cell by cell with [`cast`] — what parsing each line,
/// taking the field and casting it builds. A key no line has is all NULL.
pub fn field_columns(raw: &RawColumns, fields: &[FusedField<'_>]) -> ColBatch {
    let column = |f: &FusedField<'_>| {
        let Some(col) = raw.column(f.key) else {
            return Arc::new(ColBuilder::Unknown(raw.rows()).finish());
        };
        match f.ty {
            Some(ty) if !cast_keeps(col, ty) => {
                let mut b = ColBuilder::new();
                for i in 0..col.len() {
                    b.push_value(cast(col.value(i), ty));
                }
                Arc::new(b.finish())
            }
            _ => col.clone(),
        }
    };
    ColBatch::from_shared(fields.iter().map(column).collect(), raw.rows())
}

/// Whether [`cast`] to `ty` returns every cell of `col` unchanged.
fn cast_keeps(col: &Column, ty: DataType) -> bool {
    matches!(
        (ty, col),
        (DataType::Json, _)
            | (DataType::Int, Column::Int(..))
            | (DataType::Float, Column::Float(..))
            | (DataType::Str, Column::Str(..))
            | (DataType::Bool, Column::Bool(..))
    )
}

/// Parses `lines` into one column per field and returns the batch with the
/// count of malformed lines skipped: [`columnize`], then [`field_columns`].
/// A caller that reads the same lines again keeps the [`RawColumns`].
pub fn parse_log_columns(lines: &[String], fields: &[FusedField<'_>]) -> Result<(ColBatch, u64)> {
    let raw = columnize(lines)?;
    Ok((field_columns(&raw, fields), raw.skipped()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use miso_data::json::{parse_flat_line, parse_json};
    use miso_data::Row;
    use miso_plan::UnaryOp;

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
    /// string and a NULL. For the typed pairs, each with a NULL too: `$5`
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

    /// `eval_vec` ≡ `eval` over the `Expr` enum, then every comparison of
    /// every pair of operand kinds, AND / OR with a NULL on either side, and
    /// the selection of the `TRUE` rows.
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
        // Every comparison on every typed pair — Int/Int, Float/Float,
        // Int/Float both ways, Str/Str, Bool/Bool; column against column,
        // against a literal and a literal against a column; NaN, −0.0 and
        // NULL among the operands — agrees with `eval`, alone and behind an
        // AND / OR. So do the pairs of other kinds: cross-type, `Mixed`,
        // NULL literals, list columns.
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
        let other = [
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
            for (l, r) in typed.iter().chain(&other) {
                let e = bin(op, l.clone(), r.clone());
                assert_parity_guarded(&e);
                predicates.push(e);
            }
        }
        // AND / OR of `Bool` vectors, a NULL on either side: a Bool column
        // with a NULL, comparisons NULL where an operand is, literals.
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
        // The filter selects the rows that are `TRUE`.
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

    /// `array_contains` over a list column agrees with `eval` whatever the
    /// needle — a string present or absent, NULL, a number, an array, a
    /// column — alone, behind a short-circuit, and from any morsel offset.
    #[test]
    fn array_contains_reads_list_columns_in_place() {
        use miso_plan::Expr as E;
        let b = batch();
        let n = b.len();
        let needles = [
            E::lit("pizza"),
            E::lit("é"),
            E::lit("nope"),
            E::lit(Value::Null),
            E::lit(1i64),
            E::lit(Value::Array(vec![Value::str("pizza")])),
            E::col(1),
        ];
        for needle in needles {
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

    /// A batch over more than one morsel for the filter kernels, a NULL in
    /// every column: `$0` Int with values a cast to `f64` rounds (2^53 + 1,
    /// `i64::MAX`), `$1` Float with NaN, ±0.0, 2^53 and ∞, `$2` Str (one
    /// slot "coffee shop" right before one "pizza", and "漢字" before "b"),
    /// `$3` Bool, `$4` a list column with empty lists, `$5` `Mixed`, `$6` the
    /// row's index.
    fn filter_batch() -> Arc<ColBatch> {
        let big = (1i64 << 53) + 1;
        let (i, f, st) = (Value::Int, Value::Float, Value::str);
        let list = |items: &[&str]| Value::Array(items.iter().map(|s| Value::str(*s)).collect());
        let ints = [
            i(0),
            i(-4),
            Value::Null,
            i(big),
            i(i64::MAX),
            i(i64::MIN),
            i(3),
            i(1000),
        ];
        let floats = [
            f(f64::NAN),
            f(-0.0),
            f(0.0),
            Value::Null,
            f((1i64 << 53) as f64),
            f(-4.0),
            f(0.5),
            f(f64::INFINITY),
            f(3.0),
        ];
        let strs = [
            Value::Null,
            st(""),
            st("a"),
            st("é"),
            st("coffee shop"),
            st("pizza"),
            st("漢字"),
            st("b"),
        ];
        let bools = [Value::Bool(true), Value::Bool(false), Value::Null];
        let lists = [
            Value::Null,
            list(&[]),
            list(&["pizza"]),
            list(&["é", "pizza"]),
            list(&["coffee"]),
            list(&[""]),
        ];
        let mixed = [i(1), st("a"), f(0.5), Value::Null, Value::Bool(true)];
        let at = |vals: &[Value], r: usize| vals[r % vals.len()].clone();
        let rows: Vec<Row> = (0..crate::MORSEL_SIZE + 700)
            .map(|r| {
                Row::new(vec![
                    at(&ints, r),
                    at(&floats, r),
                    at(&strs, r),
                    at(&bools, r),
                    at(&lists, r),
                    at(&mixed, r),
                    i(r as i64),
                ])
            })
            .collect();
        let b = ColBatch::from_rows(&rows).unwrap();
        assert!(matches!(b.col(0), Column::Int(..)) && matches!(b.col(1), Column::Float(..)));
        assert!(matches!(b.col(2), Column::Str(..)) && matches!(b.col(3), Column::Bool(..)));
        assert!(matches!(b.col(4), Column::StrList(..)) && matches!(b.col(5), Column::Mixed(..)));
        Arc::new(b)
    }

    /// Asserts that [`Predicate::select`] is [`eval_vec`] then
    /// [`select_true`] on every morsel of `b`, and that the engine's filter
    /// keeps those rows at pool widths 1 and 8; returns the rows the
    /// conjuncts tested with a kernel and through the fallback.
    fn assert_filter_parity(e: &Expr, b: &Arc<ColBatch>) -> (u64, u64) {
        let predicate = Predicate::new(e, b.arity());
        let (mut kernel, mut fallback, mut want) = (0, 0, Vec::new());
        for start in (0..b.len()).step_by(crate::MORSEL_SIZE) {
            let n = crate::MORSEL_SIZE.min(b.len() - start);
            let pred = eval_vec(e, b, start, n, None).unwrap();
            let rows = select_true(&pred, start, n);
            let got = predicate.select(b, start, n).unwrap();
            assert_eq!(got.rows, rows, "{e:?} from row {start}");
            kernel += got.kernel_rows;
            fallback += got.fallback_rows;
            want.extend(rows.into_iter().map(i64::from));
        }
        let before = miso_common::pool::threads();
        for t in [1, 8] {
            miso_common::pool::set_threads(t);
            let out = crate::engine::filter(QueryGuard::inert_ref(), b, e).unwrap();
            let ids: Vec<i64> = (0..out.len())
                .map(|r| out.col(6).cell(r).as_i64().unwrap())
                .collect();
            assert_eq!(ids, want, "{e:?} at {t} threads");
        }
        miso_common::pool::set_threads(before);
        (kernel, fallback)
    }

    /// The filter's conjunct kernels select what evaluating the predicate
    /// and selecting its `TRUE` rows does, across a morsel boundary: every
    /// comparison of every typed column with every typed literal on either
    /// side (NaN, ±0.0, integers a cast to `f64` rounds), `contains` and
    /// `array_contains` with awkward needles, the pairs a kernel declines,
    /// and conjuncts in every order and nesting.
    #[test]
    fn filter_kernels_select_what_eval_vec_selects() {
        use miso_plan::Expr as E;
        let b = filter_batch();
        let n = b.len() as u64;
        let big = (1i64 << 53) + 1;
        let lits = [
            Value::Int(0),
            Value::Int(-4),
            Value::Int(big),
            Value::Int(3),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float((1i64 << 53) as f64),
            Value::Float(0.5),
            Value::str("a"),
            Value::str("é"),
            Value::str(""),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        // The pairs the comparison kernel reads on their payloads.
        let typed = |col: usize, lit: &Value| {
            matches!(
                (col, lit),
                (0 | 1, Value::Int(_) | Value::Float(_)) | (2, Value::Str(_)) | (3, Value::Bool(_))
            )
        };
        for op in ops {
            for col in 0..6 {
                for lit in &lits {
                    // A declined pair is the per-cell arm on both sides: an
                    // equality and an ordering cover it.
                    if !typed(col, lit) && !matches!(op, BinOp::Eq | BinOp::Lt) {
                        continue;
                    }
                    for e in [
                        bin(op, E::col(col), E::lit(lit.clone())),
                        bin(op, E::lit(lit.clone()), E::col(col)),
                    ] {
                        let tested = assert_filter_parity(&e, &b);
                        let want = if typed(col, lit) { (n, 0) } else { (0, n) };
                        assert_eq!(tested, want, "{e:?}");
                    }
                }
            }
        }
        // `contains`: an empty needle, a multi-byte one, one that ends a slot
        // and ones that run across two slots of the text buffer.
        for needle in ["", "é", "字", "漢字", "shop", "p", "shoppi", "字b", "nope"] {
            for (col, kernel) in [(2, true), (0, false), (5, false), (4, false)] {
                let e = func("contains", vec![E::col(col), E::lit(needle)]);
                let tested = assert_filter_parity(&e, &b);
                assert_eq!(tested, if kernel { (n, 0) } else { (0, n) }, "{e:?}");
            }
        }
        let e = func("contains", vec![E::col(2), E::lit(1i64)]);
        assert_eq!(assert_filter_parity(&e, &b), (0, n), "{e:?}");
        // `array_contains` over empty and NULL lists.
        for needle in ["pizza", "é", "", "coffee", "nope"] {
            for (col, kernel) in [(4, true), (5, false), (2, false)] {
                let e = func("array_contains", vec![E::col(col), E::lit(needle)]);
                let tested = assert_filter_parity(&e, &b);
                assert_eq!(tested, if kernel { (n, 0) } else { (0, n) }, "{e:?}");
            }
        }
        // Every set of three conjuncts in every order, chained to the left
        // and to the right, selects the same rows: a comparison, the two
        // builtins, and conjuncts only the fallback runs — a bare `Bool`
        // column (a reference no mask narrows), arithmetic, an OR.
        let conjuncts = [
            bin(BinOp::Gt, E::col(0), E::lit(-5i64)),
            func("array_contains", vec![E::col(4), E::lit("pizza")]),
            func("contains", vec![E::col(2), E::lit("a")]),
            E::col(3),
            bin(
                BinOp::Gt,
                bin(BinOp::Add, E::col(0), E::lit(1i64)),
                E::lit(0i64),
            ),
            bin(BinOp::Or, E::col(3), bin(BinOp::Lt, E::col(1), E::lit(0.0))),
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut sets = 0;
        for x in 0..conjuncts.len() {
            for y in x + 1..conjuncts.len() {
                for z in y + 1..conjuncts.len() {
                    let set = [x, y, z];
                    let mut answers = Vec::new();
                    for order in orders {
                        let parts = order.map(|k| conjuncts[set[k]].clone());
                        let left = parts.clone().into_iter().reduce(Expr::and).unwrap();
                        let right = parts.into_iter().rev().reduce(|r, l| l.and(r)).unwrap();
                        for e in [left, right] {
                            assert_filter_parity(&e, &b);
                            let p = Predicate::new(&e, b.arity());
                            answers.push(p.select(&b, 0, b.len()).unwrap().rows);
                        }
                    }
                    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{set:?}");
                    sets += 1;
                }
            }
        }
        assert_eq!(sets, 20);
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

    /// What the fused reader builds had every well-formed line gone through
    /// the strict parser.
    fn parse_lines_strict(lines: &[String], fields: &[FusedField<'_>]) -> (Vec<Column>, u64) {
        let mut builders: Vec<ColBuilder> = fields.iter().map(|_| ColBuilder::new()).collect();
        let mut skipped = 0u64;
        for line in lines {
            let Ok(doc) = parse_json(line) else {
                skipped += 1;
                continue;
            };
            for (f, b) in fields.iter().zip(&mut builders) {
                let field = doc.get_field(f.key).cloned().unwrap_or(Value::Null);
                b.push_value(match f.ty {
                    Some(ty) => cast(field, ty),
                    None => field,
                });
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
