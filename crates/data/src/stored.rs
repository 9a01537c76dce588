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

use crate::batch::ColBatch;
use crate::checksum::{checksum_batch, corrupt_first_cell, Checksum};
use crate::schema::Schema;
use crate::value::Row;
use miso_common::{ByteSize, MisoError, Result};
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
