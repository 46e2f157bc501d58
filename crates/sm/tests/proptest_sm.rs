//! Property tests for the SM state machine.

use numa_gpu_cache::LineClass;
use numa_gpu_sm::{L1ReadOutcome, Sm};
use numa_gpu_testkit::gen::{ints, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};
use numa_gpu_types::{CacheConfig, CtaId, CtaProgram, LineAddr, SmConfig, WarpOp};

struct NWarps {
    warps: u32,
}

impl CtaProgram for NWarps {
    fn num_warps(&self) -> u32 {
        self.warps
    }
    fn next_op(&mut self, _w: u32) -> Option<WarpOp> {
        None
    }
}

fn make_sm(max_warps: u16, max_ctas: u16, mshrs: u16) -> Sm {
    Sm::new(
        &SmConfig {
            sms_per_socket: 1,
            max_warps,
            max_ctas,
            mshrs,
        },
        &CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            hit_latency_cycles: 28,
        },
        None,
    )
}

prop_check! {
    /// Dispatch/retire in arbitrary interleavings conserves warp slots and
    /// CTA slots; capacity checks are exact.
    fn slots_conserved(ctas in vecs(ints(1u32..5), 1..40)) {
        let mut sm = make_sm(16, 8, 8);
        let mut live: Vec<(CtaId, Vec<numa_gpu_types::WarpSlot>)> = Vec::new();
        let mut next_id = 0u32;
        let mut live_warps = 0usize;
        for w in ctas {
            if sm.can_accept_cta(w) {
                let mut slots = Vec::new();
                sm.dispatch_cta_into(CtaId::new(next_id), Box::new(NWarps { warps: w }), &mut slots);
                prop_assert_eq!(slots.len(), w as usize);
                live_warps += slots.len();
                live.push((CtaId::new(next_id), slots));
                next_id += 1;
            } else {
                // Retire the oldest CTA completely to make room.
                if let Some((cta, slots)) = live.first().cloned() {
                    live.remove(0);
                    let n = slots.len();
                    for (i, s) in slots.into_iter().enumerate() {
                        let done = sm.retire_warp(s);
                        if i + 1 == n {
                            prop_assert_eq!(done, Some(cta));
                        } else {
                            prop_assert_eq!(done, None);
                        }
                    }
                    live_warps -= n;
                }
            }
            prop_assert_eq!(sm.active_warps(), live_warps);
            prop_assert_eq!(sm.active_ctas(), live.len());
        }
    }

    /// Reads always resolve to one of the four outcomes, and fills wake
    /// exactly the registered waiters.
    fn mshr_bookkeeping_exact(lines in vecs(ints(0u64..8), 1..60)) {
        let mut sm = make_sm(64, 8, 4);
        let mut slots = Vec::new();
        sm.dispatch_cta_into(CtaId::new(0), Box::new(NWarps { warps: 60 }), &mut slots);
        let mut waiting: std::collections::BTreeMap<u64, Vec<numa_gpu_types::WarpSlot>> =
            Default::default();
        let mut used = 0usize;
        for (i, l) in lines.iter().enumerate() {
            let slot = slots[i % slots.len()];
            let line = LineAddr::from_index(*l);
            match sm.l1_read(line, LineClass::Local, slot) {
                L1ReadOutcome::Hit => {
                    prop_assert!(!waiting.contains_key(l), "hit while outstanding");
                }
                L1ReadOutcome::MissPrimary => {
                    prop_assert!(!waiting.contains_key(l));
                    waiting.insert(*l, vec![slot]);
                    used += 1;
                    prop_assert!(used <= 4);
                }
                L1ReadOutcome::MissMerged => {
                    waiting.get_mut(l).expect("merged into live miss").push(slot);
                }
                L1ReadOutcome::MshrFull => {
                    prop_assert_eq!(used, 4);
                }
            }
            // Occasionally complete the oldest outstanding line.
            if i % 5 == 4 {
                if let Some((&l, _)) = waiting.iter().next() {
                    let want = waiting.remove(&l).unwrap();
                    let mut woken = Vec::new();
                    sm.l1_fill_into(LineAddr::from_index(l), LineClass::Local, &mut woken);
                    prop_assert_eq!(woken, want);
                    used -= 1;
                }
            }
        }
    }

    /// The issue port never goes backwards and spaces issues by at least a
    /// cycle under contention.
    fn issue_port_monotone(times in vecs(ints(0u64..1_000_000), 1..100)) {
        let mut sm = make_sm(8, 4, 4);
        let mut last = 0;
        let mut sorted = times.clone();
        sorted.sort();
        for t in sorted {
            let issue = sm.reserve_issue(t * 1024);
            prop_assert!(issue >= last);
            prop_assert!(issue >= t * 1024);
            last = issue;
        }
    }
}
