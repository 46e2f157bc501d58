//! Conservative-lookahead windowing for partitioned event loops.
//!
//! The simulator splits the machine into per-socket partitions (each with
//! its own [`EventQueue`](crate::EventQueue)) plus one control partition
//! for the shared switch/sampler plane. One thread runs the partitions one
//! after another inside a *window* `[start, end)`, and they exchange
//! cross-partition messages only at the window barrier:
//!
//! * [`conservative_window`] computes the window end from the lookahead —
//!   the minimum latency any cross-partition message needs before it can
//!   affect another partition — and the next control-plane event, which
//!   runs at the barrier.
//! * [`merge_cross_into`] folds the per-partition outboxes into the
//!   canonical deterministic delivery order, stable-sorted by
//!   `(tick, partition, emission sequence)`.
//!
//! Determinism argument: inside a window a partition only reads and writes
//! its own state, so its event order is fixed by its own queue. Messages
//! emitted at tick `t < end` are timestamped `t + d` with `d >=
//! lookahead`, hence land at or after `end` and cannot affect the window
//! that produced them. Merging at the barrier in `(tick, partition, seq)`
//! order makes the enqueue order — and therefore every downstream
//! tie-break — independent of the order the partitions ran in.
//!
//! The windows stay on one thread because they keep one socket's state
//! hot: a window runs dozens to hundreds of one socket's events in a row,
//! where one queue in exact `(tick, partition, seq)` order switches
//! sockets every few events and measured slower on every workload
//! (DESIGN §13, "Negative results").

use numa_gpu_types::Tick;

/// One cross-partition message captured at a window barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossMessage<M> {
    /// Delivery tick at the destination partition.
    pub at: Tick,
    /// Index of the partition that emitted the message.
    pub source: u32,
    /// The message itself.
    pub payload: M,
}

/// Computes the end (exclusive) of a conservative window starting at
/// `start`.
///
/// The window spans `lookahead` ticks, clamped so it always contains at
/// least one tick (a zero lookahead would deadlock the executor). If a
/// control-plane event is pending at `barrier`, the window is truncated to
/// `barrier + 1`: partition events up to and including that tick run
/// first, then the control event is handled serially at the barrier. A
/// `barrier` before `start` never shrinks the window below one tick.
pub fn conservative_window(start: Tick, lookahead: Tick, barrier: Option<Tick>) -> Tick {
    let mut end = start.saturating_add(lookahead.max(1));
    if let Some(b) = barrier {
        end = end.min(b.saturating_add(1));
    }
    end.max(start.saturating_add(1))
}

/// Merges per-partition outboxes into the canonical cross-partition
/// delivery order, recycling every buffer.
///
/// The `p`-th outbox holds partition `p`'s messages in emission order as
/// `(delivery_tick, payload)` pairs; each is drained in place (keeping its
/// capacity for the next window) into `merged`, which is cleared first and
/// likewise keeps its capacity, so the steady state allocates nothing.
/// The result is ordered by `(tick, partition, emission sequence)`: a
/// stable sort by tick alone preserves the partition-major emission order
/// among equal ticks, which is exactly the tuple order. Pushing the result
/// into destination queues in this order gives every message a
/// schedule-independent FIFO sequence number.
pub fn merge_cross_into<'a, M: 'a>(
    outboxes: impl Iterator<Item = &'a mut Vec<(Tick, M)>>,
    merged: &mut Vec<CrossMessage<M>>,
) {
    merged.clear();
    for (p, outbox) in outboxes.enumerate() {
        merged.extend(outbox.drain(..).map(|(at, payload)| CrossMessage {
            at,
            source: p as u32,
            payload,
        }));
    }
    merged.sort_by_key(|m| m.at); // stable: keeps (partition, seq) order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_spans_lookahead() {
        assert_eq!(conservative_window(100, 64, None), 164);
    }

    #[test]
    fn window_always_advances() {
        assert_eq!(conservative_window(100, 0, None), 101);
        assert_eq!(conservative_window(100, 64, Some(0)), 101);
        assert_eq!(conservative_window(u64::MAX, 64, None), u64::MAX);
    }

    #[test]
    fn barrier_truncates_window_inclusively() {
        // The control event at tick 120 must run at the barrier, after
        // partition events at tick 120 — so the window end is 121.
        assert_eq!(conservative_window(100, 64, Some(120)), 121);
        // A barrier beyond the lookahead leaves the window untouched.
        assert_eq!(conservative_window(100, 64, Some(500)), 164);
    }

    /// Runs [`merge_cross_into`] over owned outboxes into a fresh buffer.
    fn merged<M>(mut outboxes: Vec<Vec<(Tick, M)>>) -> Vec<CrossMessage<M>> {
        let mut merged = Vec::new();
        merge_cross_into(outboxes.iter_mut(), &mut merged);
        merged
    }

    #[test]
    fn merge_orders_by_tick_then_partition_then_seq() {
        let merged = merged(vec![
            vec![(20, "p0-a"), (10, "p0-b")],
            vec![(10, "p1-a"), (10, "p1-b")],
            vec![(5, "p2-a")],
        ]);
        let order: Vec<_> = merged.iter().map(|m| (m.at, m.source, m.payload)).collect();
        assert_eq!(
            order,
            vec![
                (5, 2, "p2-a"),
                (10, 0, "p0-b"),
                (10, 1, "p1-a"),
                (10, 1, "p1-b"),
                (20, 0, "p0-a"),
            ]
        );
    }

    #[test]
    fn merge_of_empty_outboxes_is_empty() {
        assert!(merged::<u8>(vec![vec![], vec![]]).is_empty());
        assert!(merged::<u8>(Vec::new()).is_empty());
    }

    #[test]
    fn merge_into_recycles_buffers() {
        let mut outboxes = vec![
            vec![(20u64, "p0-a"), (10, "p0-b")],
            vec![(10, "p1-a"), (10, "p1-b")],
            vec![(5, "p2-a")],
        ];
        let expected = merged(outboxes.clone());
        let mut merged = Vec::new();
        merged.push(CrossMessage {
            at: 0,
            source: 0,
            payload: "stale", // cleared by the merge
        });
        merge_cross_into(outboxes.iter_mut(), &mut merged);
        assert_eq!(merged, expected);
        // Outboxes are drained in place and keep their capacity.
        assert!(outboxes.iter().all(Vec::is_empty));
        assert!(outboxes[0].capacity() >= 2);
    }
}
