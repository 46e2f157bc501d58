//! Property tests for the partitioned event loop's two load-bearing rules:
//! the barrier merge order equals the single-queue delivery order for
//! *any* partitioning, and conservative lookahead never lets a message
//! land inside the window that emitted it.

use numa_gpu_engine::{conservative_window, merge_cross_into, EventQueue};
use numa_gpu_testkit::gen::{ints, pairs, vecs};
use numa_gpu_testkit::prop::Config;
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Replays `events` (partition, tick) through one global [`EventQueue`],
/// pushing in partition-major order so the FIFO tie-break is exactly
/// `(tick, partition, emission sequence)` — the canonical order the
/// barrier merge must reproduce.
fn single_queue_order(partitions: usize, events: &[(u8, u64)]) -> Vec<(u64, u32, usize)> {
    let mut q = EventQueue::new();
    for p in 0..partitions {
        for (i, &(ep, t)) in events.iter().enumerate() {
            if ep as usize % partitions == p {
                q.push(t, (p as u32, i));
            }
        }
    }
    let mut order = Vec::new();
    while let Some((t, (p, i))) = q.pop() {
        order.push((t, p, i));
    }
    order
}

/// Replays the same events through per-partition queues advanced window by
/// window, concatenating each barrier's [`merge_cross_into`] result.
fn windowed_order(
    partitions: usize,
    events: &[(u8, u64)],
    lookahead: u64,
) -> Vec<(u64, u32, usize)> {
    let mut queues: Vec<EventQueue<usize>> = (0..partitions).map(|_| EventQueue::new()).collect();
    for (i, &(ep, t)) in events.iter().enumerate() {
        queues[ep as usize % partitions].push(t, i);
    }
    let mut order = Vec::new();
    let mut merged = Vec::new();
    while let Some(start) = queues.iter().filter_map(|q| q.peek_tick()).min() {
        let end = conservative_window(start, lookahead, None);
        let mut batches: Vec<Vec<(u64, usize)>> = queues
            .iter_mut()
            .map(|q| {
                let mut batch = Vec::new();
                while q.peek_tick().is_some_and(|t| t < end) {
                    let (t, i) = q.pop().expect("peeked event exists");
                    batch.push((t, i));
                }
                batch
            })
            .collect();
        merge_cross_into(batches.iter_mut(), &mut merged);
        order.extend(merged.iter().map(|m| (m.at, m.source, m.payload)));
    }
    order
}

prop_check! {
    #![config = Config::new().regressions(&[
        0x9e37_79b9_7f4a_7c15,
        0x0dd5_e4f0_6b15_2afe,
        0xdead_beef_cafe_f00d,
    ])]

    /// (a) Any partitioning of any event set, merged at window barriers of
    /// any width, delivers in exactly the single-queue order.
    fn any_partitioning_merges_to_single_queue_order(
        events in vecs(pairs(ints(0u8..8), ints(0u64..500)), 0..120),
        partitions in ints(1usize..9),
        lookahead in ints(0u64..600),
    ) {
        let reference = single_queue_order(partitions, &events);
        let windowed = windowed_order(partitions, &events, lookahead);
        prop_assert_eq!(windowed, reference, "delivery order diverged");
    }

    /// (b) Lookahead safety: a message emitted at any tick inside the
    /// window, delayed by at least the lookahead, lands at or after the
    /// window end — it can never be admitted into its source window.
    fn lookahead_never_admits_into_source_window(
        (start, barrier) in pairs(ints(0u64..1_000_000), ints(0u64..2_000_000)),
        lookahead in ints(1u64..100_000),
        (offset, extra) in pairs(ints(0u64..100_000), ints(0u64..100_000)),
    ) {
        let end = conservative_window(start, lookahead, Some(barrier));
        prop_assert!(end > start, "window must contain at least one tick");
        prop_assert!(
            end <= start + lookahead.max(1),
            "window may never exceed the lookahead"
        );
        // Any emission tick inside the window...
        let t = start + offset.min(end - start - 1);
        // ...delayed by at least the lookahead...
        let delivery = t + lookahead + extra;
        // ...misses its own window.
        prop_assert!(
            delivery >= end,
            "message emitted at {t} would arrive at {delivery}, inside [{start}, {end})"
        );
    }

    /// The barrier merge is a permutation: no event is dropped or
    /// duplicated, whatever the partitioning.
    fn merge_is_a_permutation(
        events in vecs(pairs(ints(0u8..8), ints(0u64..300)), 0..100),
        partitions in ints(1usize..9),
        lookahead in ints(0u64..400),
    ) {
        let windowed = windowed_order(partitions, &events, lookahead);
        prop_assert_eq!(windowed.len(), events.len());
        let mut seen: Vec<usize> = windowed.iter().map(|&(_, _, i)| i).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..events.len()).collect::<Vec<_>>());
    }
}
