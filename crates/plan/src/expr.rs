//! Scalar and aggregate expressions.
//!
//! Expressions reference their input relation positionally
//! ([`Expr::Column`]); name resolution happens once, in `miso-lang`'s
//! lowering. Evaluation lives in `miso-exec`; this module defines structure,
//! typing, and the canonicalization hooks used by plan fingerprints.

use miso_data::{DataType, Schema, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Arithmetic.
    Add,
    /// Arithmetic.
    Sub,
    /// Arithmetic.
    Mul,
    /// Arithmetic (float division; integer operands produce float).
    Div,
    /// Remainder (integers only).
    Mod,
    /// Comparison.
    Eq,
    /// Comparison.
    Ne,
    /// Comparison.
    Lt,
    /// Comparison.
    Le,
    /// Comparison.
    Gt,
    /// Comparison.
    Ge,
    /// Logical (three-valued over NULL is *not* modeled: NULL operands yield
    /// NULL which is not true).
    And,
    /// Logical.
    Or,
}

impl BinOp {
    /// Whether this operator is commutative (used by canonicalization).
    pub fn commutative(&self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or
        )
    }

    /// Whether this operator yields a boolean.
    pub fn is_predicate(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// The mirrored comparison (`a < b` ≡ `b > a`), used to canonicalize
    /// comparisons; `None` for non-comparison ops.
    pub fn mirrored(&self) -> Option<BinOp> {
        match self {
            BinOp::Lt => Some(BinOp::Gt),
            BinOp::Le => Some(BinOp::Ge),
            BinOp::Gt => Some(BinOp::Lt),
            BinOp::Ge => Some(BinOp::Le),
            BinOp::Eq => Some(BinOp::Eq),
            BinOp::Ne => Some(BinOp::Ne),
            _ => None,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL` test.
    IsNull,
    /// `IS NOT NULL` test.
    IsNotNull,
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnaryOp::Not => "NOT",
            UnaryOp::Neg => "-",
            UnaryOp::IsNull => "IS NULL",
            UnaryOp::IsNotNull => "IS NOT NULL",
        };
        f.write_str(s)
    }
}

/// A scalar expression over a single input relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Positional column reference.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// JSON field extraction `input->'key'` — the SerDe path for raw logs.
    FieldGet {
        /// Expression yielding a JSON object.
        input: Box<Expr>,
        /// Field name to extract; missing fields yield NULL.
        key: String,
    },
    /// Explicit cast; failures yield NULL (Hive semantics).
    Cast {
        /// Input expression.
        input: Box<Expr>,
        /// Target type.
        ty: DataType,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        input: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Scalar builtin function (`lower`, `contains`, `array_contains`, ...).
    Func {
        /// Function name, lower-cased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(idx: usize) -> Expr {
        Expr::Column(idx)
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::And,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Field extraction shorthand.
    pub fn get(self, key: impl Into<String>) -> Expr {
        Expr::FieldGet {
            input: Box::new(self),
            key: key.into(),
        }
    }

    /// Cast shorthand.
    pub fn cast(self, ty: DataType) -> Expr {
        Expr::Cast {
            input: Box::new(self),
            ty,
        }
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::FieldGet { input, .. } | Expr::Cast { input, .. } | Expr::Unary { input, .. } => {
                input.visit(f)
            }
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }

    /// Rewrites every column reference through `map` (e.g. after a
    /// projection reorders inputs). `map` returns the new index.
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(map(*i)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::FieldGet { input, key } => Expr::FieldGet {
                input: Box::new(input.remap_columns(map)),
                key: key.clone(),
            },
            Expr::Cast { input, ty } => Expr::Cast {
                input: Box::new(input.remap_columns(map)),
                ty: *ty,
            },
            Expr::Unary { op, input } => Expr::Unary {
                op: *op,
                input: Box::new(input.remap_columns(map)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(map)),
                right: Box::new(right.remap_columns(map)),
            },
            Expr::Func { name, args } => Expr::Func {
                name: name.clone(),
                args: args.iter().map(|a| a.remap_columns(map)).collect(),
            },
        }
    }

    /// Splits a conjunctive predicate into its AND-ed factors.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Conjoins factors back into a single predicate; `None` for empty input.
    pub fn conjoin(factors: Vec<Expr>) -> Option<Expr> {
        factors.into_iter().reduce(|acc, e| acc.and(e))
    }

    /// Infers the static result type against `input` schema. `Json` flows
    /// through operations whose operand types are opaque.
    pub fn infer_type(&self, input: &Schema) -> DataType {
        match self {
            Expr::Column(i) => input
                .fields()
                .get(*i)
                .map(|f| f.ty)
                .unwrap_or(DataType::Json),
            Expr::Literal(v) => match v {
                Value::Bool(_) => DataType::Bool,
                Value::Int(_) => DataType::Int,
                Value::Float(_) => DataType::Float,
                Value::Str(_) => DataType::Str,
                _ => DataType::Json,
            },
            Expr::FieldGet { .. } => DataType::Json,
            Expr::Cast { ty, .. } => *ty,
            Expr::Unary { op, .. } => match op {
                UnaryOp::Not | UnaryOp::IsNull | UnaryOp::IsNotNull => DataType::Bool,
                UnaryOp::Neg => DataType::Float,
            },
            Expr::Binary { op, left, right } => {
                if op.is_predicate() {
                    DataType::Bool
                } else {
                    let l = left.infer_type(input);
                    let r = right.infer_type(input);
                    match *op {
                        BinOp::Div => DataType::Float,
                        _ => l.numeric_join(r).unwrap_or(DataType::Json),
                    }
                }
            }
            Expr::Func { name, .. } => match name.as_str() {
                "lower" | "upper" | "concat" | "substr" => DataType::Str,
                "contains" | "array_contains" | "like" => DataType::Bool,
                "length" | "year" | "month" | "day" | "hour" => DataType::Int,
                "abs" | "round" | "sqrt" | "ln" => DataType::Float,
                _ => DataType::Json,
            },
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "${i}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::FieldGet { input, key } => write!(f, "{input}->'{key}'"),
            Expr::Cast { input, ty } => write!(f, "CAST({input} AS {ty})"),
            Expr::Unary {
                op: UnaryOp::IsNull,
                input,
            } => write!(f, "({input} IS NULL)"),
            Expr::Unary {
                op: UnaryOp::IsNotNull,
                input,
            } => {
                write!(f, "({input} IS NOT NULL)")
            }
            Expr::Unary { op, input } => write!(f, "({op} {input})"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)` (non-null count).
    Count,
    /// Distinct non-null count.
    CountDistinct,
    /// Numeric sum.
    Sum,
    /// Minimum by the total value order.
    Min,
    /// Maximum by the total value order.
    Max,
    /// Numeric average.
    Avg,
}

impl AggFunc {
    /// The output type of the aggregate.
    pub fn output_type(&self, input_ty: DataType) -> DataType {
        match self {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Sum => match input_ty {
                DataType::Int => DataType::Int,
                _ => DataType::Float,
            },
            AggFunc::Min | AggFunc::Max => input_ty,
            AggFunc::Avg => DataType::Float,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::CountDistinct => "COUNT_DISTINCT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// One aggregate in an Aggregate operator's output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument; `None` for `COUNT(*)`.
    pub input: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Constructs an aggregate.
    pub fn new(func: AggFunc, input: Option<Expr>, name: impl Into<String>) -> Self {
        AggExpr {
            func,
            input,
            name: name.into(),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(e) => write!(f, "{}({}) AS {}", self.func, e, self.name),
            None => write!(f, "{}(*) AS {}", self.func, self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::Field;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::col(0).eq(Expr::lit(1i64)).and(
            Expr::col(1)
                .eq(Expr::lit(2i64))
                .and(Expr::col(2).eq(Expr::lit(3i64))),
        );
        assert_eq!(e.conjuncts().len(), 3);
        let rebuilt = Expr::conjoin(e.conjuncts().into_iter().cloned().collect()).unwrap();
        assert_eq!(rebuilt.conjuncts().len(), 3);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn remap_columns_rewrites_everywhere() {
        let e = Expr::col(0).get("a").cast(DataType::Int).eq(Expr::col(2));
        let remapped = e.remap_columns(&|i| i + 10);
        assert_eq!(
            remapped,
            Expr::col(10).get("a").cast(DataType::Int).eq(Expr::col(12))
        );
    }

    #[test]
    fn type_inference() {
        let schema = Schema::new(vec![
            Field::new("j", DataType::Json),
            Field::new("n", DataType::Int),
        ]);
        assert_eq!(Expr::col(1).infer_type(&schema), DataType::Int);
        assert_eq!(Expr::col(0).get("x").infer_type(&schema), DataType::Json);
        assert_eq!(
            Expr::col(0)
                .get("x")
                .cast(DataType::Str)
                .infer_type(&schema),
            DataType::Str
        );
        assert_eq!(
            Expr::col(1).eq(Expr::lit(3i64)).infer_type(&schema),
            DataType::Bool
        );
        let sum = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::lit(1.5f64)),
        };
        assert_eq!(sum.infer_type(&schema), DataType::Float);
        let div = Expr::Binary {
            op: BinOp::Div,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::lit(2i64)),
        };
        assert_eq!(div.infer_type(&schema), DataType::Float);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::col(0)
            .get("user_id")
            .cast(DataType::Int)
            .eq(Expr::lit(42i64));
        assert_eq!(e.to_string(), "(CAST($0->'user_id' AS INT) = 42)");
    }

    #[test]
    fn mirrored_comparisons() {
        assert_eq!(BinOp::Lt.mirrored(), Some(BinOp::Gt));
        assert_eq!(BinOp::Eq.mirrored(), Some(BinOp::Eq));
        assert_eq!(BinOp::Add.mirrored(), None);
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFunc::Count.output_type(DataType::Str), DataType::Int);
        assert_eq!(AggFunc::Sum.output_type(DataType::Int), DataType::Int);
        assert_eq!(AggFunc::Sum.output_type(DataType::Json), DataType::Float);
        assert_eq!(AggFunc::Avg.output_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Min.output_type(DataType::Str), DataType::Str);
    }
}
