//! Scalar expression evaluation.
//!
//! Semantics follow Hive's pragmatics, which the workload depends on:
//!
//! * **NULL propagation** — any NULL operand of an arithmetic/comparison
//!   operator yields NULL; a NULL predicate result is *not true*;
//! * **lenient casts** — `CAST` failures yield NULL instead of erroring (raw
//!   logs are messy; queries must survive odd records);
//! * **JSON field access** — missing fields yield NULL, which composes with
//!   the above so queries silently drop malformed records.

use miso_common::{MisoError, Result};
use miso_data::{Cell, DataType, Row, Value};
use miso_plan::{BinOp, Expr, UnaryOp};

/// Evaluates `expr` against `row`.
pub fn eval(expr: &Expr, row: &Row) -> Result<Value> {
    match expr {
        Expr::Column(i) => {
            if *i >= row.arity() {
                return Err(MisoError::Execution(format!(
                    "column ${i} out of range for row of arity {}",
                    row.arity()
                )));
            }
            Ok(row.get(*i).clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::FieldGet { input, key } => {
            let v = eval(input, row)?;
            Ok(v.get_field(key).cloned().unwrap_or(Value::Null))
        }
        Expr::Cast { input, ty } => Ok(cast(eval(input, row)?, *ty)),
        Expr::Unary { op, input } => Ok(eval_unary(*op, eval(input, row)?)),
        Expr::Binary { op, left, right } => {
            // Short-circuit logical operators before evaluating both sides.
            if matches!(op, BinOp::And | BinOp::Or) {
                return eval_logical(*op, left, right, row);
            }
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            Ok(eval_binary(*op, l, r))
        }
        Expr::Func { name, args } => {
            let vals: Vec<Value> = args.iter().map(|a| eval(a, row)).collect::<Result<_>>()?;
            let cells: Vec<Cell<'_>> = vals.iter().map(Cell::of).collect();
            Ok(Builtin::resolve(name, cells.len())?.call(&cells))
        }
    }
}

/// Evaluates a predicate; NULL results count as false (SQL WHERE semantics).
pub fn eval_predicate(expr: &Expr, row: &Row) -> Result<bool> {
    Ok(eval(expr, row)?.is_true())
}

/// The unary-operator body, shared verbatim with the vectorized evaluator.
pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Value {
    match op {
        UnaryOp::IsNull => Value::Bool(v.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!v.is_null()),
        UnaryOp::Not => match v {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            _ => Value::Null,
        },
        UnaryOp::Neg => match v {
            Value::Int(i) => i.checked_neg().map_or(Value::Null, Value::Int),
            Value::Float(f) => Value::Float(-f),
            _ => Value::Null,
        },
    }
}

fn eval_logical(op: BinOp, left: &Expr, right: &Expr, row: &Row) -> Result<Value> {
    let l = eval(left, row)?;
    if logical_short_circuits(op, &Cell::of(&l)) {
        return Ok(l);
    }
    let r = eval(right, row)?;
    Ok(logical_combine(op, l, r))
}

/// `false AND _` / `true OR _` decide without the right side — the left
/// value *is* the result.
pub(crate) fn logical_short_circuits(op: BinOp, l: &Cell) -> bool {
    matches!(
        (op, l),
        (BinOp::And, Cell::Bool(false)) | (BinOp::Or, Cell::Bool(true))
    )
}

/// The non-short-circuit half of AND/OR, shared verbatim with the
/// vectorized evaluator.
pub(crate) fn logical_combine(op: BinOp, l: Value, r: Value) -> Value {
    match (op, l, r) {
        (BinOp::And, Value::Bool(a), Value::Bool(b)) => Value::Bool(a && b),
        (BinOp::Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(a || b),
        // NULL-involving logical ops: approximate three-valued logic.
        (BinOp::And, Value::Null, Value::Bool(false))
        | (BinOp::And, Value::Bool(false), Value::Null) => Value::Bool(false),
        (BinOp::Or, Value::Null, Value::Bool(true))
        | (BinOp::Or, Value::Bool(true), Value::Null) => Value::Bool(true),
        _ => Value::Null,
    }
}

pub(crate) fn eval_binary(op: BinOp, l: Value, r: Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    match op {
        BinOp::Eq => Value::Bool(l == r),
        BinOp::Ne => Value::Bool(l != r),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            // Comparisons across incompatible types yield NULL, not a
            // type-rank comparison — `'abc' < 5` is not meaningfully true.
            if !comparable(&l, &r) {
                return Value::Null;
            }
            let ord = l.cmp(&r);
            Value::Bool(match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            })
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arithmetic(op, l, r),
        BinOp::And | BinOp::Or => unreachable!("handled by eval_logical"),
    }
}

fn comparable(l: &Value, r: &Value) -> bool {
    use Value::*;
    matches!(
        (l, r),
        (Int(_) | Float(_), Int(_) | Float(_))
            | (Str(_), Str(_))
            | (Bool(_), Bool(_))
            | (Array(_), Array(_))
    )
}

fn arithmetic(op: BinOp, l: Value, r: Value) -> Value {
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinOp::Add => a.checked_add(*b).map(Value::Int).unwrap_or(Value::Null),
            BinOp::Sub => a.checked_sub(*b).map(Value::Int).unwrap_or(Value::Null),
            BinOp::Mul => a.checked_mul(*b).map(Value::Int).unwrap_or(Value::Null),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            // `None` for a zero divisor and for `i64::MIN % -1`.
            BinOp::Mod => a.checked_rem_euclid(*b).map_or(Value::Null, Value::Int),
            _ => unreachable!(),
        },
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Value::Null;
            };
            match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a.rem_euclid(b))
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Hive-style lenient cast: failures produce NULL.
pub fn cast(v: Value, ty: DataType) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    match ty {
        DataType::Json => v,
        DataType::Bool => match v {
            Value::Bool(b) => Value::Bool(b),
            Value::Int(i) => Value::Bool(i != 0),
            Value::Str(s) => match s.as_str() {
                "true" | "TRUE" => Value::Bool(true),
                "false" | "FALSE" => Value::Bool(false),
                _ => Value::Null,
            },
            _ => Value::Null,
        },
        DataType::Int => match v {
            Value::Int(i) => Value::Int(i),
            Value::Float(f) if f.is_finite() => Value::Int(f.trunc() as i64),
            Value::Bool(b) => Value::Int(b as i64),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            _ => Value::Null,
        },
        DataType::Float => match v {
            Value::Int(i) => Value::Float(i as f64),
            Value::Float(f) => Value::Float(f),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or(Value::Null),
            _ => Value::Null,
        },
        DataType::Str => match v {
            Value::Str(s) => Value::Str(s),
            other => Value::Str(other.to_string()),
        },
    }
}

/// A builtin, resolved from its name once per call site — the one body both
/// evaluators call, on borrowed cells so that the vectorized one
/// ([`crate::col::eval_vec`]) clones no string or array to ask a question of
/// it. A container argument arrives as [`Cell::Val`], or as
/// [`Cell::StrList`] from a list column; every scalar, whatever column it
/// sat in, as its typed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Lower,
    Upper,
    Length,
    Concat,
    Substr,
    Contains,
    ArrayContains,
    Abs,
    Round,
    Sqrt,
    Ln,
    Day,
    Hour,
}

impl Builtin {
    /// The builtin `name` names, called with `argc` arguments. Its only
    /// errors are these static ones — an unknown name, a wrong argument
    /// count — so a resolved builtin cannot fail.
    pub(crate) fn resolve(name: &str, argc: usize) -> Result<Builtin> {
        let (builtin, arity) = match name {
            "lower" => (Builtin::Lower, 1),
            "upper" => (Builtin::Upper, 1),
            "length" => (Builtin::Length, 1),
            // Any number of arguments.
            "concat" => (Builtin::Concat, argc),
            "substr" => (Builtin::Substr, 3),
            "contains" => (Builtin::Contains, 2),
            "array_contains" => (Builtin::ArrayContains, 2),
            "abs" => (Builtin::Abs, 1),
            "round" => (Builtin::Round, 1),
            "sqrt" => (Builtin::Sqrt, 1),
            "ln" => (Builtin::Ln, 1),
            // Time extraction from epoch-seconds timestamps (synthetic 90-day span).
            "day" => (Builtin::Day, 1),
            "hour" => (Builtin::Hour, 1),
            _ => return Err(MisoError::Execution(format!("unknown builtin `{name}`"))),
        };
        if arity != argc {
            return Err(MisoError::Execution(format!(
                "builtin `{name}` called with {argc} arguments"
            )));
        }
        Ok(builtin)
    }

    /// The builtin on `args`, which are as many as it was resolved for.
    pub(crate) fn call(self, args: &[Cell<'_>]) -> Value {
        let float = |v: &Cell<'_>, f: fn(f64) -> Option<f64>| {
            v.as_f64().and_then(f).map_or(Value::Null, Value::Float)
        };
        match (self, args) {
            (Builtin::Lower, [Cell::Str(s)]) => Value::Str(s.to_lowercase()),
            (Builtin::Upper, [Cell::Str(s)]) => Value::Str(s.to_uppercase()),
            (Builtin::Length, [Cell::Str(s)]) => Value::Int(s.chars().count() as i64),
            (Builtin::Length, [Cell::Val(Value::Array(a))]) => Value::Int(a.len() as i64),
            (Builtin::Length, [Cell::StrList(l)]) => Value::Int(l.len() as i64),
            (Builtin::Concat, args) => {
                let mut out = String::new();
                for a in args {
                    match a {
                        Cell::Null => return Value::Null,
                        Cell::Str(s) => out.push_str(s),
                        other => out.push_str(&other.to_value().to_string()),
                    }
                }
                Value::Str(out)
            }
            (Builtin::Substr, [Cell::Str(s), Cell::Int(start), Cell::Int(len)]) => {
                let start = (*start).max(0) as usize;
                let len = (*len).max(0) as usize;
                Value::Str(s.chars().skip(start).take(len).collect())
            }
            (Builtin::Contains, [Cell::Str(hay), Cell::Str(needle)]) => {
                Value::Bool(hay.contains(needle))
            }
            (Builtin::ArrayContains, [Cell::Val(Value::Array(items)), needle]) => {
                Value::Bool(items.iter().any(|item| needle.eq_value(item)))
            }
            (Builtin::ArrayContains, [Cell::StrList(items), needle]) => {
                Value::Bool(items.iter().any(|item| *needle == Cell::Str(item)))
            }
            (Builtin::Abs, [Cell::Int(i)]) => i.checked_abs().map_or(Value::Null, Value::Int),
            (Builtin::Abs, [Cell::Float(f)]) => Value::Float(f.abs()),
            // NaN and ±∞ have no integer, as in `CAST(… AS INT)`.
            (Builtin::Round, [Cell::Float(f)]) if f.is_finite() => Value::Int(f.round() as i64),
            (Builtin::Round, [Cell::Int(i)]) => Value::Int(*i),
            // NaN passes both guards: its root and log are NaN.
            (Builtin::Sqrt, [v]) => float(v, |f| if f < 0.0 { None } else { Some(f.sqrt()) }),
            (Builtin::Ln, [v]) => float(v, |f| if f <= 0.0 { None } else { Some(f.ln()) }),
            (Builtin::Day, [v]) => v
                .as_i64()
                .map_or(Value::Null, |ts| Value::Int(ts.div_euclid(86_400))),
            (Builtin::Hour, [v]) => v
                .as_i64()
                .map_or(Value::Null, |ts| Value::Int(ts.rem_euclid(86_400) / 3_600)),
            _ => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![
            Value::Int(10),
            Value::str("Hello World"),
            Value::object(vec![
                ("uid".into(), Value::Int(7)),
                ("tags".into(), Value::Array(vec![Value::str("pizza")])),
            ]),
            Value::Null,
        ])
    }

    fn ev(e: &Expr) -> Value {
        eval(e, &row()).unwrap()
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(ev(&Expr::col(0)), Value::Int(10));
        assert_eq!(ev(&Expr::lit("x")), Value::str("x"));
        assert!(eval(&Expr::col(9), &row()).is_err());
    }

    #[test]
    fn field_get_missing_is_null() {
        assert_eq!(ev(&Expr::col(2).get("uid")), Value::Int(7));
        assert_eq!(ev(&Expr::col(2).get("absent")), Value::Null);
        assert_eq!(ev(&Expr::col(0).get("x")), Value::Null, "non-object");
    }

    #[test]
    fn lenient_casts() {
        assert_eq!(cast(Value::str("42"), DataType::Int), Value::Int(42));
        assert_eq!(cast(Value::str(" 42 "), DataType::Int), Value::Int(42));
        assert_eq!(cast(Value::str("nope"), DataType::Int), Value::Null);
        assert_eq!(cast(Value::Float(3.9), DataType::Int), Value::Int(3));
        assert_eq!(cast(Value::Int(1), DataType::Bool), Value::Bool(true));
        assert_eq!(cast(Value::Int(5), DataType::Str), Value::str("5"));
        assert_eq!(cast(Value::Null, DataType::Int), Value::Null);
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let plus_null = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::col(3)),
        };
        assert_eq!(ev(&plus_null), Value::Null);
        let cmp_null = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::col(3)),
            right: Box::new(Expr::lit(1i64)),
        };
        assert_eq!(ev(&cmp_null), Value::Null);
        assert!(!eval_predicate(&cmp_null, &row()).unwrap());
    }

    #[test]
    fn arithmetic_matrix() {
        let bin = |op, l: Expr, r: Expr| Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        assert_eq!(
            ev(&bin(BinOp::Add, Expr::lit(2i64), Expr::lit(3i64))),
            Value::Int(5)
        );
        assert_eq!(
            ev(&bin(BinOp::Div, Expr::lit(7i64), Expr::lit(2i64))),
            Value::Float(3.5),
            "integer division is float, Hive-style"
        );
        assert_eq!(
            ev(&bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64))),
            Value::Null
        );
        assert_eq!(
            ev(&bin(BinOp::Mod, Expr::lit(-7i64), Expr::lit(3i64))),
            Value::Int(2)
        );
        assert_eq!(
            ev(&bin(BinOp::Mul, Expr::lit(2.5f64), Expr::lit(4i64))),
            Value::Float(10.0)
        );
        // i64 overflow yields NULL, not a panic.
        assert_eq!(
            ev(&bin(BinOp::Add, Expr::lit(i64::MAX), Expr::lit(1i64))),
            Value::Null
        );
    }

    #[test]
    fn cross_type_comparison_is_null() {
        let cmp = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::lit("abc")),
            right: Box::new(Expr::lit(5i64)),
        };
        assert_eq!(ev(&cmp), Value::Null);
        // but equality across types is false, not NULL
        let eq = Expr::lit("abc").eq(Expr::lit(5i64));
        assert_eq!(ev(&eq), Value::Bool(false));
    }

    #[test]
    fn short_circuit_logical() {
        // col0=10, so (false AND <error>) must not evaluate the error side.
        let err_side = Expr::col(99);
        let pred = Expr::col(0).eq(Expr::lit(999i64)).and(err_side);
        assert_eq!(ev(&pred), Value::Bool(false));
        let or = Expr::Binary {
            op: BinOp::Or,
            left: Box::new(Expr::col(0).eq(Expr::lit(10i64))),
            right: Box::new(Expr::col(99)),
        };
        assert_eq!(ev(&or), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic_approximation() {
        let null = Expr::col(3).eq(Expr::lit(1i64)); // NULL
        let f = Expr::lit(false);
        let and = Expr::Binary {
            op: BinOp::And,
            left: Box::new(null.clone()),
            right: Box::new(f),
        };
        assert_eq!(ev(&and), Value::Bool(false));
        let t = Expr::lit(true);
        let or = Expr::Binary {
            op: BinOp::Or,
            left: Box::new(null.clone()),
            right: Box::new(t),
        };
        assert_eq!(ev(&or), Value::Bool(true));
        let and_t = Expr::Binary {
            op: BinOp::And,
            left: Box::new(null),
            right: Box::new(Expr::lit(true)),
        };
        assert_eq!(ev(&and_t), Value::Null);
    }

    #[test]
    fn builtins() {
        let f = |name: &str, args: Vec<Expr>| {
            ev(&Expr::Func {
                name: name.into(),
                args,
            })
        };
        assert_eq!(f("lower", vec![Expr::col(1)]), Value::str("hello world"));
        assert_eq!(f("upper", vec![Expr::lit("ab")]), Value::str("AB"));
        assert_eq!(f("length", vec![Expr::col(1)]), Value::Int(11));
        assert_eq!(
            f("contains", vec![Expr::col(1), Expr::lit("World")]),
            Value::Bool(true)
        );
        assert_eq!(
            f(
                "array_contains",
                vec![Expr::col(2).get("tags"), Expr::lit("pizza")]
            ),
            Value::Bool(true)
        );
        assert_eq!(
            f(
                "array_contains",
                vec![Expr::col(2).get("tags"), Expr::lit("sushi")]
            ),
            Value::Bool(false)
        );
        assert_eq!(
            f("concat", vec![Expr::lit("a"), Expr::lit(1i64)]),
            Value::str("a1")
        );
        assert_eq!(
            f(
                "substr",
                vec![Expr::col(1), Expr::lit(0i64), Expr::lit(5i64)]
            ),
            Value::str("Hello")
        );
        assert_eq!(f("abs", vec![Expr::lit(-3i64)]), Value::Int(3));
        assert_eq!(f("round", vec![Expr::lit(2.6f64)]), Value::Int(3));
        assert_eq!(f("sqrt", vec![Expr::lit(-1.0f64)]), Value::Null);
        assert_eq!(f("day", vec![Expr::lit(90_000i64)]), Value::Int(1));
        assert_eq!(f("hour", vec![Expr::lit(7_200i64)]), Value::Int(2));
    }

    #[test]
    fn unknown_builtin_errors() {
        let e = Expr::Func {
            name: "nope".into(),
            args: vec![],
        };
        assert!(eval(&e, &row()).is_err());
    }

    #[test]
    fn is_null_tests() {
        let isnull = Expr::Unary {
            op: UnaryOp::IsNull,
            input: Box::new(Expr::col(3)),
        };
        assert_eq!(ev(&isnull), Value::Bool(true));
        let isnotnull = Expr::Unary {
            op: UnaryOp::IsNotNull,
            input: Box::new(Expr::col(0)),
        };
        assert_eq!(ev(&isnotnull), Value::Bool(true));
    }
}
