//! Property tests for the simulation engine.

use numa_gpu_engine::{EventQueue, ServiceQueue};
use numa_gpu_testkit::gen::{ints, pairs, triples, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};
use numa_gpu_types::TICKS_PER_CYCLE;

prop_check! {
    /// The event queue pops events in exactly the order of a stable sort by
    /// tick (ties broken by insertion sequence).
    fn event_queue_matches_stable_sort(
        events in vecs(pairs(ints(0u64..1000), ints(0u16..u16::MAX)), 0..200)
    ) {
        let mut q = EventQueue::new();
        for (tick, payload) in &events {
            q.push(*tick, *payload);
        }
        let mut expected: Vec<(u64, usize, u16)> = events
            .iter()
            .enumerate()
            .map(|(i, (t, p))| (*t, i, *p))
            .collect();
        expected.sort();
        let mut got = Vec::new();
        while let Some((t, p)) = q.pop() {
            got.push((t, p));
        }
        let expected: Vec<(u64, u16)> = expected.into_iter().map(|(t, _, p)| (t, p)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Interleaved push/pop never yields an event earlier than one already
    /// popped at or after the same push horizon.
    fn event_queue_pop_is_monotone_when_pushes_are_future(
        seed_events in vecs(ints(0u64..100), 1..50)
    ) {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for (i, dt) in seed_events.iter().enumerate() {
            q.push(now + dt, i);
            if i % 3 == 0 {
                if let Some((t, _)) = q.pop() {
                    prop_assert!(t >= now || t >= now.saturating_sub(*dt));
                    now = now.max(t);
                }
            }
        }
    }

    /// Under arbitrary push/pop interleavings — same-cycle ties, far-future
    /// overflow, and non-causal pushes below the last popped cycle, which
    /// rebase or rebuild the calendar — the queue pops in exactly the order
    /// of a reference min-heap keyed by `(tick, seq)`.
    fn event_queue_matches_heap_under_interleaving(
        ops in vecs(pairs(ints(0u64..3), ints(0u64..2000)), 1..300)
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, (op, x)) in ops.iter().enumerate() {
            if *op == 0 {
                // Pop from both; results must agree exactly.
                let got = q.pop();
                let want = heap.pop().map(|Reverse((t, _, p))| (t, p));
                prop_assert_eq!(got, want);
            } else {
                // Spread ticks across same-cycle ties (op == 1) and a wide
                // range reaching far past the 512-cycle bucket window and
                // below any already-advanced window front (op == 2).
                let at = if *op == 1 {
                    (x % 4) * TICKS_PER_CYCLE + x % 16
                } else {
                    x * TICKS_PER_CYCLE
                };
                q.push(at, i);
                heap.push(Reverse((at, seq, i)));
                seq += 1;
            }
            q.check_invariants();
        }
        loop {
            let got = q.pop();
            let want = heap.pop().map(|Reverse((t, _, p))| (t, p));
            let done = got.is_none();
            prop_assert_eq!(got, want);
            q.check_invariants();
            if done {
                break;
            }
        }
    }
}

prop_check! {
    // Each case checks the invariants after every one of its thousands of
    // pushes and pops, so fewer cases cover more checked operations than
    // the default count did before the bursts.
    #![config = numa_gpu_testkit::prop::Config::new().cases(64)]

    /// Causal traffic, the only kind a simulation makes: every push is at or
    /// after the tick of the last pop, up to four calendar windows ahead of
    /// it, the near wakeups in same-cycle bursts of up to 64 events (so an
    /// activation walks a long bucket list), with pops interleaved and now
    /// and then a full drain. The pop sequence is that of a reference
    /// min-heap keyed by `(tick, seq)`, the invariants hold after every push
    /// and pop, and however deep the backlog gets the calendar never rebases
    /// or rebuilds.
    fn event_queue_causal_traffic_never_rebuilds(
        ops in vecs(
            triples(ints(0u64..16), ints(0u64..4 * 512 * TICKS_PER_CYCLE), ints(1u64..65)),
            1..400
        )
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // Simulated time starts with the launch event at tick 0.
        let mut now = 0u64;
        q.push(now, usize::MAX);
        heap.push(Reverse((now, seq, usize::MAX)));
        for (i, (op, x, burst)) in ops.iter().enumerate() {
            let pops = match *op {
                0..=5 => 1,
                15 => usize::MAX,
                _ => 0,
            };
            for _ in 0..pops {
                let got = q.pop();
                let want = heap.pop().map(|Reverse((t, _, p))| (t, p));
                prop_assert_eq!(got, want);
                q.check_invariants();
                match got {
                    Some((t, _)) => now = t,
                    None => break,
                }
            }
            if pops == 0 {
                // Same-cycle wakeups, an unloaded round trip, a backlog.
                let delta = match *op {
                    6..=8 => x % (2 * TICKS_PER_CYCLE),
                    9..=11 => x % (300 * TICKS_PER_CYCLE),
                    _ => *x,
                };
                // Wakeups come in bursts spread over the rest of the cycle
                // of `now + delta`; the farther pushes stay single.
                let base = now + delta;
                let room = TICKS_PER_CYCLE - base % TICKS_PER_CYCLE;
                let burst = if *op <= 8 { *burst } else { 1 };
                for k in 0..burst {
                    let (at, payload) = (base + k * 97 % room, i * 64 + k as usize);
                    seq += 1;
                    q.push(at, payload);
                    heap.push(Reverse((at, seq, payload)));
                    q.check_invariants();
                }
            }
        }
        let s = q.stats();
        prop_assert_eq!((s.rebuilds, s.rebases), (0, 0));
    }
}

prop_check! {
    /// `pop_if_before(bound)` pops exactly when the head tick is strictly
    /// below the bound, and never disturbs the queue otherwise.
    fn event_queue_pop_if_before_agrees_with_peek(
        events in vecs(ints(0u64..5000), 1..100),
        bounds in vecs(ints(0u64..5000), 1..100)
    ) {
        let mut q = EventQueue::new();
        for (i, t) in events.iter().enumerate() {
            q.push(*t, i);
        }
        for b in bounds {
            let head = q.peek_tick();
            let len_before = q.len();
            match q.pop_if_before(b) {
                Some((t, _)) => {
                    prop_assert_eq!(Some(t), head);
                    prop_assert!(t < b);
                    prop_assert_eq!(q.len(), len_before - 1);
                }
                None => {
                    prop_assert!(head.is_none_or(|t| t >= b));
                    prop_assert_eq!(q.len(), len_before);
                }
            }
        }
    }

    /// Total busy time equals the sum of per-request occupancies, and the
    /// total bytes equal the sum of request sizes.
    fn service_queue_conserves_work(
        rate in ints(1u64..2048),
        reqs in vecs(pairs(ints(0u64..10_000), ints(1u32..100_000)), 1..100)
    ) {
        let mut q = ServiceQueue::new(rate);
        let mut bytes = 0u64;
        let mut busy = 0u64;
        let mut now = 0;
        for (dt, b) in reqs {
            now += dt;
            q.service(now, b);
            bytes += b as u64;
            busy += (b as u64 * TICKS_PER_CYCLE).div_ceil(rate);
        }
        prop_assert_eq!(q.total_bytes(), bytes);
        prop_assert_eq!(q.total_busy(), busy);
    }

    /// Window utilization is always within [0, 1] and saturation implies
    /// nonzero utilization or backlog.
    fn utilization_bounded(
        rate in ints(1u64..2048),
        reqs in vecs(pairs(ints(0u64..10_000), ints(1u32..100_000)), 1..100)
    ) {
        let mut q = ServiceQueue::new(rate);
        let mut now = 0;
        q.begin_window(0);
        for (dt, b) in reqs {
            now += dt;
            q.service(now, b);
            let u = q.window_utilization(now + 1);
            prop_assert!((0.0..=1.0).contains(&u));
        }
        if q.is_saturated(now + 1, 0.99) {
            prop_assert!(q.window_utilization(now + 1) > 0.0 || q.next_free() > now + 1);
        }
    }

    /// Rate changes preserve FIFO ordering of completions.
    fn rate_change_keeps_fifo(rates in vecs(ints(1u64..1024), 2..20)) {
        let mut q = ServiceQueue::new(rates[0]);
        let mut last = 0;
        for (i, r) in rates.iter().enumerate() {
            q.set_rate(*r);
            let done = q.service(i as u64 * 10, 256);
            prop_assert!(done >= last);
            last = done;
        }
    }
}
