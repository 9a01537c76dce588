//! User-defined functions.
//!
//! The paper's queries "contain relational operators as well as UDFs",
//! arbitrary user code that only HV can execute — which is exactly why UDF
//! nodes pin plan subtrees to HV during split selection. Here a UDF is a
//! registered Rust closure mapping one input row to zero-or-more output rows
//! (covering filters, transformers, and small flat-map extractors), plus its
//! declared output schema.
//!
//! A UDF over log records may also declare which top-level record fields it
//! reads ([`Udf::reading`]). Its function then receives those fields as a
//! positional row instead of the record, which lets the engine feed it from
//! the log's column image and never build the record.

use miso_common::{MisoError, Result};
use miso_data::{Row, Schema, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The UDF implementation signature: row in, zero-or-more rows out.
pub type UdfFn = Arc<dyn Fn(&Row) -> Result<Vec<Row>> + Send + Sync>;

/// A registered UDF.
#[derive(Clone)]
pub struct Udf {
    /// Registered name (plans reference UDFs by this name).
    pub name: String,
    /// Declared output schema.
    pub output: Schema,
    /// The record fields the function reads, when declared.
    reads: Option<Vec<String>>,
    func: UdfFn,
}

impl Udf {
    /// Registers a new UDF definition whose function receives its input
    /// rows as they are.
    pub fn new(name: impl Into<String>, output: Schema, func: UdfFn) -> Self {
        Udf {
            name: name.into(),
            output,
            reads: None,
            func,
        }
    }

    /// Declares that the UDF's input is a record (column 0 of its input row)
    /// of which the function reads only the top-level `fields`. The function
    /// then receives one positional row per record: `fields[i]` of the
    /// record at column `i`, exactly as [`Value::get_field`] finds it, and
    /// `NULL` where the record has no such field (or is not an object).
    pub fn reading(mut self, fields: &[&str]) -> Self {
        self.reads = Some(fields.iter().map(|f| (*f).to_string()).collect());
        self
    }

    /// The record fields declared with [`Udf::reading`], if any.
    pub fn reads(&self) -> Option<&[String]> {
        self.reads.as_deref()
    }

    /// Applies the UDF to one input row, first narrowing a record to the
    /// declared fields when there are any.
    pub fn apply(&self, row: &Row) -> Result<Vec<Row>> {
        match &self.reads {
            None => self.apply_fields(row),
            Some(fields) => {
                let record = row.values().first();
                let field = |f: &String| {
                    record
                        .and_then(|r| r.get_field(f))
                        .cloned()
                        .unwrap_or(Value::Null)
                };
                self.apply_fields(&Row::new(fields.iter().map(field).collect()))
            }
        }
    }

    /// Applies the function to a row that already is what it expects: the
    /// declared fields in order (what a log's column image serves), or the
    /// input row itself when nothing was declared.
    pub(crate) fn apply_fields(&self, row: &Row) -> Result<Vec<Row>> {
        let out = (self.func)(row)?;
        for r in &out {
            if r.arity() != self.output.arity() {
                return Err(MisoError::Execution(format!(
                    "UDF `{}` produced a row of arity {} but declared {}",
                    self.name,
                    r.arity(),
                    self.output.arity()
                )));
            }
        }
        Ok(out)
    }
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Udf")
            .field("name", &self.name)
            .field("output", &self.output)
            .field("reads", &self.reads)
            .finish_non_exhaustive()
    }
}

/// Name → UDF lookup shared by the engine and the language front-end.
#[derive(Debug, Clone, Default)]
pub struct UdfRegistry {
    udfs: HashMap<String, Udf>,
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a UDF; replaces any previous definition of the same name.
    pub fn register(&mut self, udf: Udf) {
        self.udfs.insert(udf.name.clone(), udf);
    }

    /// Looks up a UDF by name.
    pub fn get(&self, name: &str) -> Option<&Udf> {
        self.udfs.get(name)
    }

    /// Looks up a UDF, erroring with execution context when missing.
    pub fn require(&self, name: &str) -> Result<&Udf> {
        self.get(name)
            .ok_or_else(|| MisoError::Execution(format!("unknown UDF `{name}`")))
    }

    /// Registered names (sorted, for diagnostics).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.udfs.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::{DataType, Field, Value};

    fn doubling_udf() -> Udf {
        Udf::new(
            "double",
            Schema::new(vec![Field::new("x2", DataType::Int)]),
            Arc::new(|row| {
                let v = row.get(0).as_i64().unwrap_or(0);
                Ok(vec![Row::new(vec![Value::Int(v * 2)])])
            }),
        )
    }

    #[test]
    fn apply_transforms_rows() {
        let udf = doubling_udf();
        let out = udf.apply(&Row::new(vec![Value::Int(21)])).unwrap();
        assert_eq!(out, vec![Row::new(vec![Value::Int(42)])]);
    }

    /// A declaring UDF sees the record's fields by position — `NULL` where
    /// the record lacks one or is no object — whichever way they arrive.
    #[test]
    fn declared_fields_arrive_by_position() {
        let echo = Udf::new(
            "echo",
            Schema::new(vec![
                Field::new("b", DataType::Json),
                Field::new("a", DataType::Json),
            ]),
            Arc::new(|fields| Ok(vec![fields.clone()])),
        )
        .reading(&["b", "a"]);
        assert_eq!(echo.reads(), Some(&["b".to_string(), "a".to_string()][..]));
        let record = Value::object(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::Array(vec![Value::Null])),
            ("c".into(), Value::str("unread")),
        ]);
        let narrowed = Row::new(vec![Value::Array(vec![Value::Null]), Value::Int(1)]);
        assert_eq!(
            echo.apply(&Row::new(vec![record])).unwrap(),
            vec![narrowed.clone()]
        );
        assert_eq!(echo.apply_fields(&narrowed).unwrap(), vec![narrowed]);
        let nulls = vec![Row::new(vec![Value::Null, Value::Null])];
        assert_eq!(echo.apply(&Row::new(vec![Value::Int(7)])).unwrap(), nulls);
        assert_eq!(echo.apply(&Row::new(vec![])).unwrap(), nulls);
        assert!(doubling_udf().reads().is_none());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let bad = Udf::new(
            "bad",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
            Arc::new(|_| Ok(vec![Row::new(vec![Value::Int(1)])])),
        );
        assert!(bad.apply(&Row::new(vec![])).is_err());
    }

    #[test]
    fn udf_can_filter_and_fan_out() {
        let fanout = Udf::new(
            "fanout",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            Arc::new(|row| {
                let v = row.get(0).as_i64().unwrap_or(0);
                if v < 0 {
                    Ok(vec![]) // filter
                } else {
                    Ok((0..v).map(|i| Row::new(vec![Value::Int(i)])).collect())
                }
            }),
        );
        assert!(fanout
            .apply(&Row::new(vec![Value::Int(-1)]))
            .unwrap()
            .is_empty());
        assert_eq!(
            fanout.apply(&Row::new(vec![Value::Int(3)])).unwrap().len(),
            3
        );
    }

    #[test]
    fn registry_register_and_require() {
        let mut reg = UdfRegistry::new();
        assert!(reg.require("double").is_err());
        reg.register(doubling_udf());
        assert!(reg.require("double").is_ok());
        assert_eq!(reg.names(), vec!["double"]);
        // re-registration replaces
        reg.register(doubling_udf());
        assert_eq!(reg.names().len(), 1);
    }
}
