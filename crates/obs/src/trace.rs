//! Cycle-stamped structured event tracing.
//!
//! Model code builds [`TraceEvent`]s and the system records them into a
//! bounded [`RingBufferSink`] that keeps the most recent events in memory;
//! [`crate::chrome_trace`] exports what it retained.

use numa_gpu_testkit::json::Json;

/// Chrome `trace_event` phase of an emitted event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span with a duration (`ph: "X"`).
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter,
}

impl TracePhase {
    /// The single-character Chrome `ph` code.
    pub fn code(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Instant => "i",
            TracePhase::Counter => "C",
        }
    }
}

/// One structured, cycle-stamped trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`"kernel"`, `"link.turn"`, `"l2.repartition"`, …).
    pub name: String,
    /// Category used for filtering in trace viewers.
    pub category: &'static str,
    /// Chrome phase this event maps to.
    pub phase: TracePhase,
    /// Start cycle of the event.
    pub cycle: u64,
    /// Duration in cycles (only meaningful for [`TracePhase::Complete`]).
    pub dur_cycles: u64,
    /// Track the event renders on (socket id, or a synthetic lane id).
    pub track: u32,
    /// Structured arguments, in insertion order.
    pub args: Vec<(&'static str, Json)>,
}

impl TraceEvent {
    /// A point-in-time event on `track` at `cycle`.
    pub fn instant(
        name: impl Into<String>,
        category: &'static str,
        cycle: u64,
        track: u32,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            category,
            phase: TracePhase::Instant,
            cycle,
            dur_cycles: 0,
            track,
            args: Vec::new(),
        }
    }

    /// A span covering `[cycle, cycle + dur_cycles)` on `track`.
    pub fn complete(
        name: impl Into<String>,
        category: &'static str,
        cycle: u64,
        dur_cycles: u64,
        track: u32,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            category,
            phase: TracePhase::Complete,
            cycle,
            dur_cycles,
            track,
            args: Vec::new(),
        }
    }

    /// A counter sample at `cycle` on `track`; each arg becomes one series.
    pub fn counter(
        name: impl Into<String>,
        category: &'static str,
        cycle: u64,
        track: u32,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            category,
            phase: TracePhase::Counter,
            cycle,
            dur_cycles: 0,
            track,
            args: Vec::new(),
        }
    }

    /// Attaches one argument (builder style).
    pub fn arg(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.args.push((key, value.into()));
        self
    }
}

/// A bounded in-memory sink that keeps the most recent events.
///
/// Recording is deterministic: the same event sequence always leaves the
/// same retained events and drop count.
///
/// # Examples
///
/// ```
/// use numa_gpu_obs::{RingBufferSink, TraceEvent};
///
/// let mut sink = RingBufferSink::new(2);
/// for cycle in 0..3 {
///     sink.record(TraceEvent::instant("tick", "engine", cycle, 0));
/// }
///
/// // Capacity 2: the oldest event was dropped, newest two retained.
/// assert_eq!(sink.dropped(), 1);
/// let cycles: Vec<u64> = sink.events().map(|e| e.cycle).collect();
/// assert_eq!(cycles, [1, 2]);
/// ```
#[derive(Debug, Default)]
pub struct RingBufferSink {
    capacity: usize,
    events: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

/// Largest event count [`RingBufferSink::new`] pre-allocates for. Callers
/// request "unbounded" retention as `usize::MAX`, so the pre-allocation
/// must be capped — reserving the requested capacity verbatim would abort
/// on allocation failure before the first event.
const RING_PREALLOC_MAX: usize = 4096;

impl RingBufferSink {
    /// A sink retaining at most `capacity` events (0 drops everything).
    ///
    /// Pre-allocates `min(capacity, 4096)` slots: a bounded ring reaches
    /// its steady state without reallocating on the record path, while an
    /// effectively unbounded request (`usize::MAX`) still starts small and
    /// grows with use.
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity,
            events: std::collections::VecDeque::with_capacity(capacity.min(RING_PREALLOC_MAX)),
            dropped: 0,
        }
    }

    /// Slots currently allocated by the backing buffer (≥ [`Self::len`]).
    /// Exposed so tests can pin the peak-allocation invariant: a bounded
    /// sink's backing storage must never grow past its initial
    /// pre-allocation, however many events stream through it.
    pub fn buffer_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Drains the retained events, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_iter().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Accepts one event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of events discarded under capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::instant("t", "test", cycle, 0)
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let mut sink = RingBufferSink::new(3);
        for c in 0..5 {
            sink.record(ev(c));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, [2, 3, 4]);
        assert_eq!(sink.into_events().len(), 3);
    }

    /// Regression: the backing buffer of a bounded ring must hit its peak
    /// at construction time and stay there — recording must never grow it
    /// (the retained length never exceeds `capacity`, so steady-state
    /// record/evict cycles are allocation-free).
    #[test]
    fn ring_buffer_backing_storage_never_grows_past_prealloc() {
        let mut sink = RingBufferSink::new(100);
        let initial = sink.buffer_capacity();
        assert!(initial >= 100, "bounded ring pre-allocates its capacity");
        for c in 0..1_000 {
            sink.record(ev(c));
        }
        assert_eq!(sink.len(), 100);
        assert_eq!(sink.dropped(), 900);
        assert_eq!(
            sink.buffer_capacity(),
            initial,
            "recording must not reallocate a bounded ring"
        );
    }

    /// Regression: an "unbounded" sink is requested as `usize::MAX`
    /// capacity; pre-allocating that verbatim would abort immediately, so
    /// the pre-allocation must be capped and growth left to use.
    #[test]
    fn ring_buffer_unbounded_request_starts_small() {
        let sink = RingBufferSink::new(usize::MAX);
        assert!(sink.buffer_capacity() <= 8192);
        let mut sink = sink;
        for c in 0..10_000 {
            sink.record(ev(c));
        }
        assert_eq!(sink.len(), 10_000, "unbounded sink retains everything");
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn ring_buffer_zero_capacity_drops_all() {
        let mut sink = RingBufferSink::new(0);
        sink.record(ev(1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }
}
