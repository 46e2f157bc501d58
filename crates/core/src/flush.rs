//! Kernel-boundary software coherence (paper §3.2, §5.2).
//!
//! GPU coherence in the modeled machine is software based: compiler
//! inserted cache control operations flush the SM-side L1s at every kernel
//! boundary. When the L2 holds GPU-side data (the static R$, shared
//! coherent, and NUMA-aware organizations), the same bulk invalidation must
//! extend into it: dirty lines drain to their homes (consuming DRAM and
//! link bandwidth) before the next kernel may launch.
//!
//! The boundary runs serially between kernels — no windows are open, every
//! outbox is empty — so it may touch any pair of shards directly; the two
//! legs of a cross-socket writeback are applied back to back exactly as the
//! monolithic switch would have.
//!
//! The `ideal_no_l2_invalidate` switch models Figure 9's hypothetical upper
//! bound: an L2 that can ignore invalidation events entirely.

use crate::mempath::{DATA_PACKET_BYTES, LINE_BYTES};
use crate::system::{Ev, NumaGpuSystem};
use numa_gpu_cache::LineClass;
use numa_gpu_interconnect::LinkDirection;
use numa_gpu_types::{cycles_to_ticks, CacheMode, SocketId, Tick};

/// Fixed cost of broadcasting the bulk-invalidate command, in cycles.
const INVALIDATE_BROADCAST_CYCLES: u64 = 64;

impl NumaGpuSystem {
    /// Performs the kernel-boundary synchronization: flushes software
    /// coherent caches, drains dirty data, resets links to symmetric and
    /// cache partitions to the even split. Returns the tick at which the
    /// next kernel may launch.
    pub(crate) fn kernel_boundary(&mut self) -> Tick {
        let t = self.now;
        let mut ready = t;

        // L1s always flush (write-through: clean, so no traffic).
        for shard in &mut self.shards {
            for sm in &mut shard.sms {
                sm.flush_l1();
            }
        }

        // Writes issued during the previous kernel must be globally visible
        // (per-GPU fences are promoted to system level).
        ready = ready.max(self.write_drain);

        // L2 flush by organization. Invalidation is a broadcast; the dirty
        // lines drain *lazily* through the DRAM and link queues, delaying
        // the next kernel only through contention (real flush hardware
        // overlaps the drain the same way). Only an L2 that caches remote
        // data holds GPU-side, possibly stale lines.
        let flush_l2 = self.cfg.cache_mode.caches_remote() && !self.cfg.ideal_no_l2_invalidate;
        if flush_l2 {
            ready += cycles_to_ticks(INVALIDATE_BROADCAST_CYCLES);
            for s in 0..self.shards.len() {
                let socket = SocketId::new(s as u8);
                let outcome = match self.cfg.cache_mode {
                    // Only the GPU-side remote cache portion is coherent; the
                    // memory-side local portion needs no invalidation.
                    CacheMode::StaticRemoteCache => self.shards[s]
                        .l2
                        .invalidate_where(|_, class| class == LineClass::Remote),
                    _ => self.shards[s].l2.invalidate_all(),
                };
                for line in outcome.dirty_writebacks {
                    let home = self.pages.home_of_line(line, socket);
                    if home == socket {
                        let done = self.shards[s].dram.write_line(t, line, LINE_BYTES);
                        self.write_drain = self.write_drain.max(done);
                    } else {
                        // Both message legs applied here, serially: egress
                        // plus the access hop at the flushing socket, then
                        // ingress plus the final access hop at the home.
                        // The home-side absorption is still an event,
                        // processed by the next kernel's loop (in-flight
                        // count keeps the loop alive until it drains).
                        let egress_clear =
                            self.shards[s]
                                .link
                                .send(t, LinkDirection::Egress, DATA_PACKET_BYTES);
                        let at_switch = egress_clear + self.hop_latency;
                        let arrive = self.shards[home.index()].link.send(
                            at_switch,
                            LinkDirection::Ingress,
                            DATA_PACKET_BYTES,
                        ) + self.hop_latency;
                        self.shards[home.index()].queue.push(
                            arrive,
                            Ev::WriteAtHome {
                                from: socket,
                                line,
                                home,
                            },
                        );
                        self.inflight_mem += 1;
                        self.write_drain = self.write_drain.max(arrive);
                    }
                }
            }
        }

        // Links return to the symmetric kernel-launch configuration. The
        // cache partition controllers keep their learned split: the paper
        // allocates the even split "at initial kernel launch" and adapts
        // from there (resetting every launch would re-pay the convergence
        // tax each kernel).
        for link in self.links_mut() {
            link.reset_symmetric(ready);
        }
        ready
    }
}
