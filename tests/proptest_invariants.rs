//! Property-based tests on the simulator's core invariants.

use numa_gpu::cache::{LineClass, MshrAllocation, MshrFile, SetAssocCache, WayPartition};
use numa_gpu::cache::{PartitionAction, PartitionController};
use numa_gpu::engine::ServiceQueue;
use numa_gpu::interconnect::{BalanceAction, LinkBalancer};
use numa_gpu::mem::PageTable;
use numa_gpu::runtime::{socket_for_cta, LaunchPlan};
use numa_gpu::types::{
    Addr, CacheConfig, CtaSchedulingPolicy, LineAddr, PagePlacement, SocketId, LINE_SIZE,
    TICKS_PER_CYCLE,
};
use numa_gpu_testkit::gen::{bools, ints, pairs, select, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};

prop_check! {
    /// ServiceQueue completions are monotone in submission order and never
    /// finish before request time plus occupancy.
    fn service_queue_monotone(
        rates in ints(1u64..4096),
        reqs in vecs(pairs(ints(0u64..100_000), ints(1u32..100_000)), 1..50)
    ) {
        let mut q = ServiceQueue::new(rates);
        let mut last = 0;
        let mut now = 0;
        for (dt, bytes) in reqs {
            now += dt;
            let done = q.service(now, bytes);
            prop_assert!(done >= last, "completions must be FIFO");
            prop_assert!(done >= now, "cannot complete before submission");
            let occ = (bytes as u64 * TICKS_PER_CYCLE).div_ceil(rates);
            prop_assert!(done >= now + occ.min(1), "occupancy must be charged");
            last = done;
        }
        prop_assert_eq!(q.total_requests(), q.total_requests());
    }

    /// Way partitions always keep at least one way per class regardless of
    /// the action sequence applied.
    fn partition_floors_hold(total in ints(2u16..64), actions in vecs(ints(0u8..4), 0..200)) {
        let mut ctl = PartitionController::new(total);
        for a in actions {
            let (link, dram) = match a {
                0 => (true, false),
                1 => (false, true),
                2 => (true, true),
                _ => (false, false),
            };
            ctl.step(link, dram);
            let p = ctl.partition();
            prop_assert!(p.local_ways() >= 1);
            prop_assert!(p.remote_ways() >= 1);
            prop_assert_eq!(p.local_ways() + p.remote_ways(), total);
        }
    }

    /// Sustained one-sided saturation converges to the extreme partition
    /// and equalization converges back to balance.
    fn partition_converges(total in ints(2u16..64)) {
        let mut ctl = PartitionController::new(total);
        for _ in 0..2 * total {
            ctl.step(true, false);
        }
        prop_assert_eq!(ctl.partition().local_ways(), 1);
        for _ in 0..2 * total {
            ctl.step(true, true);
        }
        prop_assert_eq!(ctl.partition().local_ways(), total - total / 2);
    }

    /// A cache never reports more resident lines than its capacity, and a
    /// fill for a resident line never evicts.
    fn cache_capacity_invariant(lines in vecs(ints(0u64..4096), 1..300)) {
        let cfg = CacheConfig {
            size_bytes: 64 * LINE_SIZE,
            ways: 4,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&cfg, None);
        for l in lines {
            let line = LineAddr::from_index(l);
            let was_resident = c.contains(line);
            let evicted = c.fill(line, LineClass::Local, false);
            if was_resident {
                prop_assert!(evicted.is_none());
            }
            prop_assert!(c.resident_lines() <= 64);
            prop_assert!(c.contains(line));
        }
    }

    /// Partitioned victim selection never evicts from the other class's
    /// protected ways when the partition is full of own-class lines.
    fn partition_isolation(seed in ints(0u64..1000)) {
        let cfg = CacheConfig {
            size_bytes: 8 * LINE_SIZE, // 1 set x 8 ways
            ways: 8,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&cfg, Some(WayPartition::balanced(8)));
        // Fill local ways with 4 locals, then hammer remotes.
        for i in 0..4u64 {
            c.fill(LineAddr::from_index(seed * 100 + i), LineClass::Local, false);
        }
        for i in 0..32u64 {
            c.fill(LineAddr::from_index(10_000 + seed + i), LineClass::Remote, false);
        }
        for i in 0..4u64 {
            prop_assert!(c.contains(LineAddr::from_index(seed * 100 + i)));
        }
    }

    /// MSHR: waiters are returned exactly once, in order, and capacity is
    /// respected.
    fn mshr_waiters_exact(lines in vecs(ints(0u64..16), 1..100)) {
        let mut m: MshrFile<usize> = MshrFile::new(4);
        let mut expected: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for (i, l) in lines.iter().enumerate() {
            match m.allocate(LineAddr::from_index(*l), i) {
                MshrAllocation::Primary | MshrAllocation::Merged => {
                    expected.entry(*l).or_default().push(i);
                }
                MshrAllocation::Full => {
                    prop_assert!(m.in_use() == 4);
                }
            }
        }
        for (l, want) in expected {
            let mut woken = Vec::new();
            m.complete_into(LineAddr::from_index(l), &mut woken);
            prop_assert_eq!(woken, want);
        }
        prop_assert_eq!(m.in_use(), 0);
    }

    /// Page table: homes are stable (same line always resolves to the same
    /// socket once placed) and within range.
    fn page_table_stable(
        policy in select(vec![
            PagePlacement::FineInterleave,
            PagePlacement::PageInterleave,
            PagePlacement::FirstTouch,
        ]),
        sockets in ints(1u8..9),
        addrs in vecs(pairs(ints(0u64..1u64 << 30), ints(0u8..8)), 1..200),
    ) {
        let mut pt = PageTable::new(policy, sockets);
        let mut seen: std::collections::BTreeMap<u64, SocketId> = Default::default();
        for (a, r) in addrs {
            let line = Addr::new(a).line();
            let req = SocketId::new(r % sockets);
            let home = pt.home_of_line(line, req);
            prop_assert!(home.index() < sockets as usize);
            if let Some(prev) = seen.insert(line.raw(), home) {
                prop_assert_eq!(prev, home, "home moved");
            }
        }
    }

    /// CTA assignment: contiguous blocks are monotone in CTA id; interleave
    /// is round-robin; both cover only valid sockets; the launch plan
    /// partitions the grid exactly.
    fn launch_plan_partitions(total in ints(1u32..2000), sockets in ints(1u8..9)) {
        for policy in [CtaSchedulingPolicy::Interleave, CtaSchedulingPolicy::ContiguousBlock] {
            let mut prev = 0usize;
            let mut count = 0u32;
            let mut plan = LaunchPlan::new(policy, total, sockets);
            for c in 0..total {
                let s = socket_for_cta(policy, c, total, sockets);
                prop_assert!(s.index() < sockets as usize);
                if policy == CtaSchedulingPolicy::ContiguousBlock {
                    prop_assert!(s.index() >= prev, "contiguous must be monotone");
                    prev = s.index();
                }
            }
            for s in 0..sockets {
                while plan.next_for_socket(SocketId::new(s)).is_some() {
                    count += 1;
                }
            }
            prop_assert_eq!(count, total, "plan must cover the grid exactly");
        }
    }

    /// The link balancer never steals a donor's last lane and only acts
    /// under saturation.
    fn balancer_safety(
        sat_e in bools(),
        sat_i in bools(),
        eg in ints(1u8..16),
        ing in ints(1u8..16)
    ) {
        match LinkBalancer::decide(sat_e, sat_i, eg, ing) {
            BalanceAction::TurnTowardEgress => {
                prop_assert!(sat_e && !sat_i && ing > 1);
            }
            BalanceAction::TurnTowardIngress => {
                prop_assert!(sat_i && !sat_e && eg > 1);
            }
            BalanceAction::Equalize => {
                prop_assert!(sat_e && sat_i && eg != ing);
            }
            BalanceAction::Hold => {}
        }
    }

    /// Partition controller actions match their inputs (the Fig 7(d) table).
    fn controller_action_table(link in bools(), dram in bools()) {
        let mut ctl = PartitionController::new(16);
        let action = ctl.step(link, dram);
        let want = match (link, dram) {
            (true, false) => PartitionAction::GrowRemote,
            (false, true) => PartitionAction::GrowLocal,
            (true, true) => PartitionAction::Equalize,
            (false, false) => PartitionAction::Hold,
        };
        prop_assert_eq!(action, want);
    }
}
