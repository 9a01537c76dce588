//! Schemas for structured intermediates.
//!
//! Raw logs are schemaless JSON; structure appears the moment a query's scan
//! extracts fields ("the log schema of interest is specified within the query
//! itself"). From that point on every operator output, opportunistic view,
//! and DW table carries a [`Schema`]: an ordered list of named, typed fields.

use std::fmt;

/// The (deliberately small) type lattice of the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Any JSON value — used for fields extracted without a cast and for
    /// UDF outputs whose type is opaque.
    Json,
}

impl DataType {
    /// The common type of two numeric operands, if any.
    pub fn numeric_join(&self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (Int, Int) => Some(Int),
            (Int, Float) | (Float, Int) | (Float, Float) => Some(Float),
            (Json, Int) | (Int, Json) | (Json, Float) | (Float, Json) | (Json, Json) => Some(Json),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Json => "JSON",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name; unique within a schema.
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Field {
    /// Constructs a field.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.ty)
    }
}

/// An ordered list of fields with unique names.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema; panics on duplicate names (construction-time bug).
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            for other in &fields[i + 1..] {
                assert_ne!(f.name, other.name, "duplicate column `{}`", f.name);
            }
        }
        Schema { fields }
    }

    /// An empty schema (zero columns).
    pub fn empty() -> Self {
        Schema { fields: vec![] }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Field lookup by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Positional field access.
    pub fn field_at(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Concatenates two schemas (join output); disambiguates a right-side
    /// name that is taken by prefixing `r_` until it is not, matching common
    /// SQL engines' pragmatics for unqualified collisions (a two-way join's
    /// collision becomes `r_name`, a third side's `r_r_name`).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let mut name = f.name.clone();
            while fields.iter().any(|existing| existing.name == name) {
                name.insert_str(0, "r_");
            }
            fields.push(Field::new(name, f.ty));
        }
        Schema::new(fields)
    }

    /// Projects onto the given column indexes.
    pub fn project(&self, indexes: &[usize]) -> Schema {
        Schema::new(indexes.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// All column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("uid", DataType::Int),
            Field::new("text", DataType::Str),
            Field::new("score", DataType::Float),
        ])
    }

    #[test]
    fn index_and_field_lookup() {
        let s = sample();
        assert!(s.field("missing").is_none());
        assert_eq!(s.field("score").unwrap().ty, DataType::Float);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_panic() {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
    }

    #[test]
    fn join_disambiguates() {
        let left = sample();
        let right = Schema::new(vec![
            Field::new("uid", DataType::Int),
            Field::new("venue", DataType::Str),
        ]);
        let joined = left.join(&right);
        assert_eq!(
            joined.names(),
            vec!["uid", "text", "score", "r_uid", "venue"]
        );
    }

    #[test]
    fn join_prefixes_until_unique() {
        let uid = || Schema::new(vec![Field::new("uid", DataType::Int)]);
        let three = uid().join(&uid()).join(&uid());
        assert_eq!(three.names(), vec!["uid", "r_uid", "r_r_uid"]);
    }

    #[test]
    fn project_keeps_order() {
        let s = sample().project(&[2, 0]);
        assert_eq!(s.names(), vec!["score", "uid"]);
    }

    #[test]
    fn numeric_join_rules() {
        assert_eq!(
            DataType::Int.numeric_join(DataType::Int),
            Some(DataType::Int)
        );
        assert_eq!(
            DataType::Int.numeric_join(DataType::Float),
            Some(DataType::Float)
        );
        assert_eq!(DataType::Str.numeric_join(DataType::Int), None);
        assert_eq!(
            DataType::Json.numeric_join(DataType::Int),
            Some(DataType::Json)
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(sample().to_string(), "(uid INT, text STRING, score FLOAT)");
    }
}
