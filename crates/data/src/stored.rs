//! A view as a store holds it.
//!
//! Both stores keep a view in the form the engine's operators consume and
//! produce — a shared [`ColBatch`] — next to what was recorded about it when
//! it was materialized: its schema, its serialized size
//! ([`ColBatch::row_bytes`]) and its content checksum ([`checksum_batch`]).
//! Scanning a view, shipping it and migrating it between the stores move the
//! `Arc`; nothing is pivoted or copied. Size and checksum are computed once,
//! by whoever materializes the batch, and travel with it; only the checks
//! that guard against bit rot ([`StoredView::verify`]) read the cells again.
//!
//! A store keeps its views on a [`Shelf`]: HV one, DW two — its permanent
//! design and its temporary space.

use crate::batch::ColBatch;
use crate::checksum::{checksum_batch, corrupt_first_cell, Checksum};
use crate::schema::Schema;
use crate::value::Row;
use miso_common::{ByteSize, MisoError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// One stored view: the batch and what was recorded when it was materialized.
#[derive(Debug, Clone)]
pub struct StoredView {
    /// The view's schema.
    pub schema: Schema,
    /// Its rows, as columns.
    pub batch: Arc<ColBatch>,
    /// Their serialized size, [`ColBatch::row_bytes`] at materialization.
    pub size: ByteSize,
    /// Their content checksum at materialization. Deliberately *not* updated
    /// by [`StoredView::corrupt`]: it is the truth verification compares the
    /// stored cells against.
    pub checksum: Checksum,
}

impl StoredView {
    /// Records `batch` as just materialized: sizes and checksums it, here and
    /// nowhere downstream.
    pub fn new(schema: Schema, batch: Arc<ColBatch>) -> StoredView {
        StoredView {
            size: ByteSize::from_bytes(batch.row_bytes()),
            checksum: checksum_batch(&batch),
            schema,
            batch,
        }
    }

    /// The row-set boundary: `rows` pivoted into a view of `schema`'s arity
    /// when there are none. Rows of differing arity have no batch and are
    /// refused here, naming the view, before anything is stored.
    pub fn from_rows(name: &str, schema: Schema, rows: &[Row]) -> Result<StoredView> {
        let batch = ColBatch::of_rows(schema.arity(), rows)
            .ok_or_else(|| MisoError::Store(format!("view `{name}`: {}", ColBatch::RAGGED)))?;
        Ok(StoredView::new(schema, Arc::new(batch)))
    }

    /// The view's rows, pivoted for a caller that speaks rows.
    pub fn rows(&self) -> Arc<Vec<Row>> {
        Arc::new(self.batch.to_rows())
    }

    /// Recomputes the stored cells' checksum and compares it to `expected`.
    /// Reads every cell — callers charge scrub/verify cost accordingly.
    pub fn verify(&self, expected: Checksum) -> bool {
        checksum_batch(&self.batch) == expected
    }

    /// Silently flips the view's first cell ([`corrupt_first_cell`]) and
    /// leaves the recorded checksum alone — only re-verification can notice.
    /// Returns whether anything changed.
    pub fn corrupt(&mut self) -> bool {
        corrupt_first_cell(&mut self.batch)
    }
}

/// Named views, as one store space holds them. Putting and taking move a
/// [`StoredView`] whole — batch, size and checksum as recorded when it was
/// materialized; nothing here reads a cell except [`Shelf::verify`].
#[derive(Debug, Clone, Default)]
pub struct Shelf {
    views: HashMap<String, StoredView>,
}

impl Shelf {
    /// Puts (or replaces) a view as it stands, returning its recorded size.
    pub fn put(&mut self, name: &str, view: StoredView) -> ByteSize {
        let size = view.size;
        self.views.insert(name.to_string(), view);
        size
    }

    /// Removes a view and returns it whole: to migrate it, or to own its
    /// batch alone before extending the columns in place.
    pub fn take(&mut self, name: &str) -> Option<StoredView> {
        self.views.remove(name)
    }

    /// Removes every view.
    pub fn clear(&mut self) {
        self.views.clear();
    }

    /// A view: batch, schema, recorded size and checksum.
    pub fn get(&self, name: &str) -> Option<&StoredView> {
        self.views.get(name)
    }

    /// Whether a view is present.
    pub fn contains(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// A view's recorded size.
    pub fn size(&self, name: &str) -> Option<ByteSize> {
        self.views.get(name).map(|v| v.size)
    }

    /// [`StoredView::verify`] of a view; `None` when it is absent.
    pub fn verify(&self, name: &str, expected: Checksum) -> Option<bool> {
        self.views.get(name).map(|v| v.verify(expected))
    }

    /// [`StoredView::corrupt`] of a view; `false` when it is absent.
    pub fn corrupt(&mut self, name: &str) -> bool {
        self.views.get_mut(name).is_some_and(StoredView::corrupt)
    }

    /// Total recorded bytes of the views (what a storage budget bounds).
    pub fn total_bytes(&self) -> ByteSize {
        self.views.values().map(|v| v.size).sum()
    }

    /// The views' names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Every view, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &StoredView)> {
        self.views.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::checksum_rows;
    use crate::{DataType, Field, Value};

    fn view(n: i64) -> StoredView {
        let rows: Vec<Row> = (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        StoredView::from_rows("v", schema, &rows).unwrap()
    }

    #[test]
    fn put_take_and_budget_accounting() {
        let mut shelf = Shelf::default();
        let size = shelf.put("v_b", view(5));
        assert!(size.as_bytes() > 0);
        assert!(shelf.contains("v_b"));
        assert_eq!(shelf.size("v_b"), Some(size));
        assert_eq!(shelf.total_bytes(), size);
        let more = shelf.put("v_a", view(3));
        assert_eq!(shelf.total_bytes(), size + more);
        assert_eq!(shelf.names(), vec!["v_a".to_string(), "v_b".to_string()]);
        // Taking hands over the stored batch, recorded stamps and all.
        let stored = shelf.get("v_b").unwrap().batch.clone();
        let taken = shelf.take("v_b").unwrap();
        assert!(
            Arc::ptr_eq(&taken.batch, &stored),
            "the stored batch moves out"
        );
        assert_eq!(taken.schema, view(5).schema);
        assert_eq!(taken.batch.to_rows(), view(5).batch.to_rows());
        assert_eq!(taken.size, size);
        assert!(!shelf.contains("v_b"));
        assert!(shelf.take("v_b").is_none());
        assert_eq!(shelf.size("v_b"), None);
        assert_eq!(shelf.total_bytes(), more);
        shelf.clear();
        assert!(shelf.names().is_empty());
        assert_eq!(shelf.total_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn checksum_recorded_and_corruption_detected() {
        let mut shelf = Shelf::default();
        shelf.put("v", view(8));
        let expected = checksum_rows(&view(8).batch.to_rows());
        assert_eq!(shelf.get("v").unwrap().checksum, expected);
        assert_eq!(shelf.verify("v", expected), Some(true));
        // The stamp travels with the view from shelf to shelf.
        let mut other = Shelf::default();
        other.put("w", shelf.take("v").unwrap());
        assert_eq!(other.get("w").unwrap().checksum, expected);
        assert_eq!(other.verify("w", expected), Some(true));
        assert!(other.corrupt("w"));
        assert_eq!(
            other.get("w").unwrap().checksum,
            expected,
            "corruption is silent: the recorded checksum must not move"
        );
        assert_eq!(other.verify("w", expected), Some(false));
        assert_eq!(other.verify("missing", expected), None);
        assert!(!other.corrupt("missing"));
        // An empty view verifies against the empty row set's checksum and
        // has no cell to corrupt.
        other.put("none", view(0));
        assert_eq!(other.size("none"), Some(ByteSize::ZERO));
        assert_eq!(other.verify("none", checksum_rows(&[])), Some(true));
        assert!(!other.corrupt("none"));
    }
}
