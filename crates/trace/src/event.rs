//! The event taxonomy: categories, kinds, and the event record itself.

use std::borrow::Cow;

/// Which simulator layer emitted an event. Each category renders as its
/// own process (a distinct track group) in the Chrome-trace exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceCategory {
    /// Algorithm 1 / MZIM control unit decisions.
    Scheduler,
    /// Network-on-package packet movement.
    Noc,
    /// Core execution (offloads, barriers).
    Core,
    /// System-level sampled counters (caches, utilization).
    System,
    /// Sweep-executor job timing (wall clock, not sim cycles).
    Sweep,
    /// Request-driven serving subsystem (admission, queueing, workers).
    Serve,
}

impl TraceCategory {
    /// Stable lowercase name, used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceCategory::Scheduler => "scheduler",
            TraceCategory::Noc => "noc",
            TraceCategory::Core => "core",
            TraceCategory::System => "system",
            TraceCategory::Sweep => "sweep",
            TraceCategory::Serve => "serve",
        }
    }

    /// All categories, in process-id order.
    pub fn all() -> [TraceCategory; 6] {
        [
            TraceCategory::Scheduler,
            TraceCategory::Noc,
            TraceCategory::Core,
            TraceCategory::System,
            TraceCategory::Sweep,
            TraceCategory::Serve,
        ]
    }
}

/// Every static event name the simulator emits, in one place.
///
/// The taxonomy's *categories* are a compiler-checked enum, but the event
/// *names* are plain strings; this registry closes that gap. The
/// `flumen-check` `trace-category-registered` lint parses this array and
/// rejects any production emit site whose string-literal name is missing
/// from it, so adding an event means declaring it here first. Dynamic
/// names (the sweep executor's owned job labels) are exempt — only
/// `&'static str` literals at emit sites are checked.
///
/// Keep the list sorted; [`registered`] relies on it for binary search.
pub const REGISTERED_EVENT_NAMES: &[&str] = &[
    "admit",
    "barrier_release",
    "cache_hit",
    "checkpoint",
    "defer",
    "l2_miss",
    "l3_miss",
    "link_busy",
    "link_util",
    "noc::backpressure",
    "noc::fifo_occupancy",
    "noc::handshake_stall",
    "offload",
    "offload_done",
    "partition",
    "pkt",
    "progstore::prepopulate",
    "reconfig",
    "reject",
    "request",
    "resume",
    "serve::admit",
    "serve::batch",
    "serve::complete",
    "serve::dispatch",
    "serve::job",
    "serve::queue_depth",
    "serve::request",
    "serve::shed",
    "serve::timeout",
    "timeout",
    "truncated",
    "wire_release",
    "wire_reserve",
];

/// Whether `name` is a declared simulator event name.
pub fn registered(name: &str) -> bool {
    REGISTERED_EVENT_NAMES.binary_search(&name).is_ok()
}

/// What shape of event this is, mapped onto Chrome-trace phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Opens a nested span on `(category, track)` — Chrome phase `B`.
    SpanBegin,
    /// Closes the innermost span on `(category, track)` — phase `E`.
    SpanEnd,
    /// Opens an async span correlated by `(category, name, id)` — phase
    /// `b`. Async spans may overlap arbitrarily (packets in flight,
    /// partitions on different wires).
    AsyncBegin,
    /// Closes an async span — phase `e`.
    AsyncEnd,
    /// A point event — phase `i`.
    Instant,
    /// A sampled value rendered as a counter track — phase `C`.
    Counter(f64),
}

impl EventKind {
    /// Stable lowercase name, used by the JSONL exporter.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::AsyncBegin => "async_begin",
            EventKind::AsyncEnd => "async_end",
            EventKind::Instant => "instant",
            EventKind::Counter(_) => "counter",
        }
    }
}

/// One structured event.
///
/// `ts` is in simulator cycles for all categories except
/// [`TraceCategory::Sweep`], where it is microseconds of wall clock since
/// the sweep started (the Chrome exporter treats both as microseconds, so
/// one sim cycle renders as one microsecond).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emitting layer.
    pub category: TraceCategory,
    /// Event name ("pkt", "partition", "reconfig", …). Static for all
    /// simulator events; owned only for dynamic sweep-job labels.
    pub name: Cow<'static, str>,
    /// Event shape.
    pub kind: EventKind,
    /// Timestamp (cycles, or µs for sweep events).
    pub ts: u64,
    /// Track within the category: node/wire/worker index.
    pub track: u32,
    /// Correlation id (packet id, partition tag, job index); 0 when
    /// unused.
    pub id: u64,
    /// Small numeric payload.
    pub args: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// Creates an event with no id and no args.
    pub fn new(
        category: TraceCategory,
        name: impl Into<Cow<'static, str>>,
        kind: EventKind,
        ts: u64,
        track: u32,
    ) -> Self {
        TraceEvent {
            category,
            name: name.into(),
            kind,
            ts,
            track,
            id: 0,
            args: Vec::new(),
        }
    }

    /// Shorthand for an [`EventKind::Instant`].
    pub fn instant(
        category: TraceCategory,
        name: impl Into<Cow<'static, str>>,
        ts: u64,
        track: u32,
    ) -> Self {
        TraceEvent::new(category, name, EventKind::Instant, ts, track)
    }

    /// Shorthand for an [`EventKind::Counter`].
    pub fn counter(
        category: TraceCategory,
        name: impl Into<Cow<'static, str>>,
        ts: u64,
        track: u32,
        value: f64,
    ) -> Self {
        TraceEvent::new(category, name, EventKind::Counter(value), ts, track)
    }

    /// Sets the correlation id (builder style).
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Appends one named argument (builder style).
    pub fn with_arg(mut self, key: &'static str, value: f64) -> Self {
        self.args.push((key, value));
        self
    }

    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let e = TraceEvent::instant(TraceCategory::Noc, "inject", 42, 3)
            .with_id(7)
            .with_arg("bits", 512.0);
        assert_eq!(e.ts, 42);
        assert_eq!(e.track, 3);
        assert_eq!(e.id, 7);
        assert_eq!(e.arg("bits"), Some(512.0));
        assert_eq!(e.arg("missing"), None);
        assert_eq!(e.kind.name(), "instant");
    }

    #[test]
    fn category_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            TraceCategory::all().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn registry_is_sorted_and_distinct() {
        let mut sorted = REGISTERED_EVENT_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, REGISTERED_EVENT_NAMES, "keep the registry sorted");
        assert!(registered("pkt"));
        assert!(!registered("not_an_event"));
    }
}
