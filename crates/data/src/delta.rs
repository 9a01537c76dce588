//! Append-only ingestion batches for the streaming-logs scenario.
//!
//! HDFS logs are append-only: new data arrives as a batch of JSON lines at
//! the end of an existing file, never as in-place updates. A [`Delta`]
//! captures one such batch — the target log plus its raw lines — and is the
//! unit the maintenance layer propagates through view definitions
//! (`miso-views`/`miso-exec`) instead of recomputing from the full base.
//!
//! A delta carries raw lines only: maintenance appends them to the store and
//! reads their fields through `miso_hv::LogBatch::columns`, the same fused
//! reader a log scan uses.

use crate::logs::{generate_delta, LogKind, LogsConfig};
use miso_common::ByteSize;

/// One append-only batch of raw log lines bound for a single base log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Table name of the target log (e.g. `"twitter"`).
    pub log: String,
    /// One JSON document per line, exactly as they would land in HDFS.
    pub lines: Vec<String>,
}

impl Delta {
    /// Wraps raw lines as a delta for `log`.
    pub fn new(log: impl Into<String>, lines: Vec<String>) -> Delta {
        Delta {
            log: log.into(),
            lines,
        }
    }

    /// A deterministic synthetic batch from the log generators: batch `n`
    /// of `count` records for `kind`, disjoint from the base corpus and
    /// from every other batch number.
    pub fn generated(cfg: &LogsConfig, kind: LogKind, batch: u64, count: usize) -> Delta {
        Delta::new(kind.table_name(), generate_delta(cfg, kind, batch, count))
    }

    /// Number of raw lines in the batch.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Byte size charged for ingesting this batch (line bytes + newlines),
    /// matching how `LogFile` sizes the base corpus.
    pub fn size(&self) -> ByteSize {
        ByteSize::from_bytes(self.lines.iter().map(|l| l.len() as u64 + 1).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::value::Value;

    #[test]
    fn generated_delta_parses_cleanly() {
        let cfg = LogsConfig::tiny();
        let d = Delta::generated(&cfg, LogKind::Twitter, 1, 50);
        assert_eq!(d.log, "twitter");
        assert_eq!(d.len(), 50);
        assert!(d.size().as_bytes() > 0);
        for line in &d.lines {
            let record = parse_json(line).expect("generated lines are well-formed JSON");
            assert!(matches!(record, Value::Object(_)));
        }
        // Deterministic: same batch number reproduces the same lines.
        assert_eq!(d, Delta::generated(&cfg, LogKind::Twitter, 1, 50));
        // Distinct batch numbers produce distinct lines.
        assert_ne!(d, Delta::generated(&cfg, LogKind::Twitter, 2, 50));
    }
}
