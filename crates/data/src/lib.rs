//! Data layer for the MISO reproduction.
//!
//! The paper's primary data source is "large log files ... social media data
//! drawn from sites such as Twitter, Foursquare, Instagram, Yelp", stored as
//! JSON text in HDFS, plus a small static Landmarks data set. This crate
//! provides:
//!
//! * [`value`] — the dynamically-typed [`value::Value`] runtime value, with a
//!   total order and hashing suitable for join/group keys;
//! * [`json`] — a minimal hand-written JSON parser/printer (the sanctioned
//!   offline dependency set has `serde` but not `serde_json`);
//! * [`batch`] — typed columnar batches ([`batch::ColBatch`]) for the
//!   vectorized executor, with lossless row pivots for callers that speak
//!   rows;
//! * [`stored`] — a view as both stores hold it: the batch plus the size and
//!   checksum recorded when it was materialized;
//! * [`schema`] — field/record schemas for structured intermediates;
//! * [`logs`] — deterministic synthetic generators for the three data sets
//!   with shared join keys (user ids across Twitter/Foursquare, venue ids
//!   across Foursquare/Landmarks).

pub mod batch;
pub mod checksum;
pub mod delta;
pub mod json;
pub mod logs;
pub mod schema;
pub mod stored;
pub mod value;

pub use batch::{Cell, ColBatch, ColBuilder, Column, Nulls, Slots, StrList, StrLists, Strs};
pub use checksum::{checksum_batch, checksum_rows, Checksum, RowSetDigest};
pub use delta::Delta;
pub use schema::{DataType, Field, Schema};
pub use stored::{Shelf, StoredView};
pub use value::{Row, Value};
