//! RAII span guards with thread-local parent tracking.
//!
//! A [`Span`] opened while another span is live on the same thread becomes
//! its child; the parent id is recorded on both the start and end events so
//! trace consumers can rebuild the tree (query → optimize → split → exec…)
//! without relying on event order.

use crate::sink::{Event, EventKind, FieldValue};
use std::cell::RefCell;

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live span id on this thread (0 = none).
pub(crate) fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open trace span. Dropping the guard emits the end event carrying the
/// wall duration, the optional simulated timestamp, and all fields attached
/// through the builder methods.
///
/// When observability is disabled the guard is inert: construction and drop
/// touch nothing beyond one atomic load.
pub struct Span {
    id: u64,
    name: &'static str,
    parent: u64,
    start_ns: u64,
    sim_us: Option<u64>,
    fields: Vec<(&'static str, FieldValue)>,
    active: bool,
}

impl Span {
    /// Opens a span (see [`crate::span`]).
    pub(crate) fn enter(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span {
                id: 0,
                name,
                parent: 0,
                start_ns: 0,
                sim_us: None,
                fields: Vec::new(),
                active: false,
            };
        }
        let id = crate::next_span_id();
        let parent = current_span_id();
        let start_ns = crate::mono_ns();
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        crate::record_event(&Event {
            kind: EventKind::SpanStart,
            name,
            span: id,
            parent,
            t_mono_ns: start_ns,
            dur_ns: 0,
            sim_us: None,
            fields: Vec::new(),
        });
        Span {
            id,
            name,
            parent,
            start_ns,
            sim_us: None,
            fields: Vec::new(),
            active: true,
        }
    }

    /// Whether this guard will emit events (observability was enabled at
    /// creation).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches the simulated-clock timestamp (microseconds since the
    /// experiment epoch) to the end event.
    pub fn sim_us(mut self, us: u64) -> Self {
        if self.active {
            self.sim_us = Some(us);
        }
        self
    }

    /// Attaches an unsigned integer field.
    pub fn field_u64(mut self, key: &'static str, value: u64) -> Self {
        self.push_field(key, FieldValue::U64(value));
        self
    }

    /// Attaches a string field.
    pub fn field_str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        if self.active {
            self.fields.push((key, FieldValue::Str(value.into())));
        }
        self
    }

    /// Attaches a field after construction (for values known only at the
    /// end of the spanned region).
    pub fn push_field(&mut self, key: &'static str, value: FieldValue) {
        if self.active {
            self.fields.push((key, value));
        }
    }

    /// Records the simulated timestamp after construction.
    pub fn set_sim_us(&mut self, us: u64) {
        if self.active {
            self.sim_us = Some(us);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Usually the top of the stack; scan back for robustness when a
            // span is moved across threads or dropped out of order.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&x| x == self.id) {
                stack.remove(pos);
            }
        });
        let end_ns = crate::mono_ns();
        crate::record_event(&Event {
            kind: EventKind::SpanEnd,
            name: self.name,
            span: self.id,
            parent: self.parent,
            t_mono_ns: end_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            sim_us: self.sim_us,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::sink::{EventKind, RingSink};
    use crate::{init, set_sink, span, ObsConfig};
    use std::sync::Arc;

    #[test]
    fn nesting_records_parent_ids() {
        let _g = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        init(ObsConfig::ring(64));
        let ring = Arc::new(RingSink::new(64));
        set_sink(ring.clone());
        {
            let outer = span("outer");
            let outer_id = outer.id();
            {
                let inner = span("inner").field_u64("n", 3).sim_us(123);
                assert_eq!(inner.id(), outer_id + 1);
            }
        }
        let events = ring.events();
        // start(outer), start(inner), end(inner), end(outer)
        assert_eq!(events.len(), 4);
        let inner_end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == "inner")
            .unwrap();
        let outer_start = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "outer")
            .unwrap();
        assert_eq!(inner_end.parent, outer_start.span);
        assert_eq!(inner_end.sim_us, Some(123));
        assert_eq!(outer_start.parent, 0);
        let outer_end = events.last().unwrap();
        assert_eq!(outer_end.name, "outer");
        assert!(outer_end.dur_ns >= inner_end.dur_ns);
        init(ObsConfig::disabled());
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _g = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        init(ObsConfig::ring(64));
        let ring = Arc::new(RingSink::new(64));
        set_sink(ring.clone());
        {
            let _root = span("root");
            let a = span("a");
            drop(a);
            let b = span("b");
            drop(b);
        }
        let events = ring.events();
        let root_id = events.iter().find(|e| e.name == "root").unwrap().span;
        for name in ["a", "b"] {
            let e = events
                .iter()
                .find(|e| e.name == name && e.kind == EventKind::SpanEnd)
                .unwrap();
            assert_eq!(e.parent, root_id, "{name} is a child of root");
        }
        init(ObsConfig::disabled());
    }

    #[test]
    fn inert_span_emits_nothing() {
        let _g = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        init(ObsConfig::disabled());
        let ring = Arc::new(RingSink::new(8));
        set_sink(ring.clone());
        {
            let s = span("quiet").field_u64("x", 1);
            assert!(!s.is_active());
        }
        assert!(ring.events().is_empty());
    }
}
