//! Replay drivers: one layer's public API at a time, driven with the
//! workload's own op stream, timed as a whole batch from outside.
//!
//! The numbers are layer-alone lower bounds: the layer runs with warm host
//! caches and nothing else competing for them. A batch is timed with one
//! `Instant` pair (or a few, where untimed preparation interleaves), so the
//! clock costs nothing per call.

use crate::inputs::{cta_order, visit_ops, SimInput};
use numa_gpu_cache::{LineClass, MshrFile, SetAssocCache, WayPartition};
use numa_gpu_engine::{merge_cross_into, CrossMessage, EventQueue, ServiceQueue};
use numa_gpu_interconnect::{GpuLink, LinkDirection, Topology};
use numa_gpu_mem::{Dram, PageTable};
use numa_gpu_runtime::LaunchPlan;
use numa_gpu_sm::{L1ReadOutcome, Sm};
use numa_gpu_types::{
    cycles_to_ticks, CtaProgram, LineAddr, MemKind, SocketId, SystemConfig, Tick, TopologyKind,
    WarpOp, WarpSlot, HEADER_BYTES, LINE_SIZE, TICKS_PER_CYCLE,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const LINE_BYTES: u32 = LINE_SIZE as u32;
const PACKET_BYTES: u32 = LINE_BYTES + HEADER_BYTES;

/// A timed batch of calls into one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Batch {
    pub calls: u64,
    pub secs: f64,
}

impl Batch {
    pub fn ns_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.calls as f64
        }
    }

    fn add(&mut self, calls: u64, since: Instant) {
        self.calls += calls;
        self.secs += since.elapsed().as_secs_f64();
    }
}

/// One memory op of the materialised stream, in `visit_ops` order.
#[derive(Debug, Clone, Copy)]
pub struct MemOp {
    pub line: LineAddr,
    pub socket: SocketId,
    pub write: bool,
}

/// Materialises the memory ops of `input` (socket via `socket_for_cta`,
/// line, read/write).
pub fn mem_stream(input: &SimInput) -> Vec<MemOp> {
    let mut stream = Vec::with_capacity(input.mem_ops as usize);
    visit_ops(&input.workload, &input.cfg, |_, socket, _, op| {
        if let WarpOp::Mem { addr, kind } = op {
            stream.push(MemOp {
                line: addr.line(),
                socket: SocketId::new(socket),
                write: kind == MemKind::Write,
            });
        }
    });
    stream
}

/// `Kernel::cta` + `CtaProgram::next_op` over the whole workload — the
/// trace generation the simulator runs inside its timed region.
pub fn tracegen(input: &SimInput) -> Batch {
    let mut batch = Batch::default();
    let start = Instant::now();
    let mut ops = 0;
    visit_ops(&input.workload, &input.cfg, |_, _, _, op| {
        black_box(op);
        ops += 1;
    });
    batch.add(ops, start);
    batch
}

/// `LaunchPlan::new` and the per-socket drain `run_kernel` performs.
pub fn launch(input: &SimInput) -> Batch {
    let cfg = &input.cfg;
    let rounds = (100_000 / input.ctas.max(1)).max(1);
    let mut batch = Batch::default();
    let start = Instant::now();
    for _ in 0..rounds {
        for kernel in &input.workload.kernels {
            let mut plan = LaunchPlan::new(cfg.cta_policy, kernel.num_ctas(), cfg.num_sockets);
            for s in 0..cfg.num_sockets {
                while let Some(cta) = plan.next_for_socket(SocketId::new(s)) {
                    black_box(cta);
                }
            }
        }
    }
    batch.add(rounds * input.ctas, start);
    batch
}

/// `PageTable::home_of_line` once per memory op. Also returns each op's
/// home socket, which classifies lines for the cache and SM drivers.
pub fn page_table(cfg: &SystemConfig, stream: &[MemOp]) -> (Batch, Vec<SocketId>) {
    let mut pages = PageTable::new(cfg.placement, cfg.num_sockets);
    let mut homes = Vec::with_capacity(stream.len());
    let mut batch = Batch::default();
    let start = Instant::now();
    for op in stream {
        homes.push(pages.home_of_line(op.line, op.socket));
    }
    batch.add(stream.len() as u64, start);
    (batch, homes)
}

fn class_of(home: SocketId, socket: SocketId) -> LineClass {
    if home == socket {
        LineClass::Local
    } else {
        LineClass::Remote
    }
}

/// A CTA whose ops were generated beforehand, so the SM driver times the
/// SM and not the trace generator.
struct ScriptedCta {
    ops: Vec<Vec<WarpOp>>,
    cursors: Vec<usize>,
}

impl CtaProgram for ScriptedCta {
    fn num_warps(&self) -> u32 {
        self.ops.len() as u32
    }

    fn next_op(&mut self, warp: u32) -> Option<WarpOp> {
        let w = warp as usize;
        let op = self.ops[w].get(self.cursors[w]).copied();
        self.cursors[w] += 1;
        op
    }
}

/// The per-op SM path on one SM: `dispatch_cta_into`, then per warp op
/// `next_op`, `reserve_issue` and the L1 (`l1_read` with an immediate
/// `l1_fill_into` on a miss, `l1_write`), then `retire_warp`. Walks CTAs
/// and warps in `visit_ops` order, so `homes[k]` is the k-th memory op's.
pub fn sm_issue(input: &SimInput, homes: &[SocketId]) -> Batch {
    let cfg = &input.cfg;
    let l1_partition = Some(WayPartition::balanced(cfg.l1.ways));
    let mut sm = Sm::new(&cfg.sm, &cfg.l1, l1_partition);
    let mut slots: Vec<WarpSlot> = Vec::new();
    let mut woken: Vec<WarpSlot> = Vec::new();
    let mut batch = Batch::default();
    let mut k = 0usize;
    let mut now: Tick = 0;
    for kernel in &input.workload.kernels {
        for (socket, cta) in cta_order(kernel.num_ctas(), cfg) {
            let socket = SocketId::new(socket);
            let mut program = kernel.cta(cta);
            let warps = program.num_warps();
            let ops: Vec<Vec<WarpOp>> = (0..warps)
                .map(|w| std::iter::from_fn(|| program.next_op(w)).collect())
                .collect();
            let total: usize = ops.iter().map(Vec::len).sum();
            let script = Box::new(ScriptedCta {
                cursors: vec![0; ops.len()],
                ops,
            });
            let start = Instant::now();
            slots.clear();
            sm.dispatch_cta_into(cta, script, &mut slots);
            let mut live = slots.len();
            let mut done = vec![false; slots.len()];
            while live > 0 {
                for (w, &slot) in slots.iter().enumerate() {
                    if done[w] {
                        continue;
                    }
                    let Some(op) = sm.next_op(slot) else {
                        black_box(sm.retire_warp(slot));
                        done[w] = true;
                        live -= 1;
                        continue;
                    };
                    now = sm.reserve_issue(now);
                    if let WarpOp::Mem { addr, kind } = op {
                        let line = addr.line();
                        let class = class_of(homes[k], socket);
                        k += 1;
                        match kind {
                            MemKind::Write => sm.l1_write(line),
                            MemKind::Read => {
                                if sm.l1_read(line, class, slot) != L1ReadOutcome::Hit {
                                    woken.clear();
                                    sm.l1_fill_into(line, class, &mut woken);
                                }
                            }
                        }
                    }
                }
            }
            batch.add(total as u64, start);
        }
    }
    assert_eq!(k, homes.len(), "SM driver walked a different op order");
    batch
}

fn l2_for(cfg: &SystemConfig) -> SetAssocCache {
    SetAssocCache::new(&cfg.l2, Some(WayPartition::balanced(cfg.l2.ways)))
}

/// First-touch-ordered distinct lines of the stream with their class and
/// whether the first touch wrote.
fn distinct_lines(stream: &[MemOp], homes: &[SocketId]) -> Vec<(LineAddr, LineClass, bool)> {
    let mut seen = HashSet::new();
    stream
        .iter()
        .zip(homes)
        .filter(|(op, _)| seen.insert(op.line))
        .map(|(op, &home)| (op.line, class_of(home, op.socket), op.write))
        .collect()
}

/// `probe_read` / `probe_write` on resident lines of an L2-shaped cache:
/// the hit path.
pub fn cache_hit(cfg: &SystemConfig, stream: &[MemOp], homes: &[SocketId]) -> Batch {
    let mut cache = l2_for(cfg);
    let resident_target = (cfg.l2.num_lines() / 2) as usize;
    for &(line, class, _) in distinct_lines(stream, homes).iter().take(resident_target) {
        let _ = cache.fill(line, class, false);
    }
    let probes: Vec<&MemOp> = stream
        .iter()
        .filter(|op| cache.contains(op.line))
        .take(2_000_000)
        .collect();
    let rounds = (1_000_000 / probes.len().max(1)).max(1);
    let mut batch = Batch::default();
    let start = Instant::now();
    for _ in 0..rounds {
        for op in &probes {
            let hit = if op.write {
                cache.probe_write(op.line, true)
            } else {
                cache.probe_read(op.line)
            };
            black_box(hit);
        }
    }
    batch.add((rounds * probes.len()) as u64, start);
    batch
}

/// The miss path of an L2-shaped cache: a missing probe, `record_miss`,
/// and a `fill` that evicts (writing back dirty victims) once the cache is
/// full. Every line is distinct, so every access misses.
pub fn cache_miss_fill(cfg: &SystemConfig, stream: &[MemOp], homes: &[SocketId]) -> Batch {
    let lines = distinct_lines(stream, homes);
    let mut cache = l2_for(cfg);
    let mut batch = Batch::default();
    let start = Instant::now();
    for &(line, class, write) in &lines {
        let hit = if write {
            cache.probe_write(line, true)
        } else {
            cache.probe_read(line)
        };
        if !hit {
            cache.record_miss(class);
            black_box(cache.fill(line, class, write));
        }
    }
    batch.add(lines.len() as u64, start);
    batch
}

/// `MshrFile::allocate` (primary and merged) and `complete_into`, in
/// groups that fit the file.
pub fn mshr(cfg: &SystemConfig, stream: &[MemOp], homes: &[SocketId]) -> Batch {
    let lines = distinct_lines(stream, homes);
    let mut file: MshrFile<WarpSlot> = MshrFile::new(cfg.sm.mshrs as usize);
    let mut woken = Vec::new();
    let mut batch = Batch::default();
    let mut calls = 0u64;
    let start = Instant::now();
    for group in lines.chunks(cfg.sm.mshrs as usize / 2) {
        for (i, &(line, _, _)) in group.iter().enumerate() {
            black_box(file.allocate(line, WarpSlot::new(i as u16)));
            calls += 1;
            if i % 4 == 0 {
                black_box(file.allocate(line, WarpSlot::new(i as u16 + 1)));
                calls += 1;
            }
        }
        for &(line, _, _) in group {
            woken.clear();
            file.complete_into(line, &mut woken);
            calls += 1;
        }
    }
    batch.add(calls, start);
    batch
}

/// The whole op stream through one way-partitioned (8 local / 8 remote)
/// L2 per socket, lines classed by home socket: probe, and on a miss
/// `record_miss` + `fill`. The first, untimed pass records the miss stream
/// that drives the DRAM driver (an L2 read miss as a read, a dirty eviction
/// as a write); the second is timed.
pub fn partitioned(
    cfg: &SystemConfig,
    stream: &[MemOp],
    homes: &[SocketId],
) -> (Batch, Vec<MemOp>) {
    let mut misses = Vec::new();
    let mut batch = Batch::default();
    for timed in [false, true] {
        let mut caches: Vec<SetAssocCache> = (0..cfg.num_sockets).map(|_| l2_for(cfg)).collect();
        let start = Instant::now();
        for (op, &home) in stream.iter().zip(homes) {
            let cache = &mut caches[op.socket.index()];
            let class = class_of(home, op.socket);
            let hit = if op.write {
                cache.probe_write(op.line, true)
            } else {
                cache.probe_read(op.line)
            };
            if hit {
                continue;
            }
            if !op.write {
                cache.record_miss(class);
            }
            let victim = cache.fill(op.line, class, op.write);
            if !timed {
                if !op.write {
                    misses.push(MemOp {
                        line: op.line,
                        socket: op.socket,
                        write: false,
                    });
                }
                if let Some(v) = victim.filter(|v| v.dirty) {
                    misses.push(MemOp {
                        line: v.line,
                        socket: op.socket,
                        write: true,
                    });
                }
            } else {
                black_box(victim);
            }
        }
        if timed {
            batch.add(stream.len() as u64, start);
        }
    }
    (batch, misses)
}

/// Per-socket request lists; a workload with almost no L2 misses still
/// gets a stream long enough to time, built from its own lines.
fn per_socket(cfg: &SystemConfig, misses: &[MemOp], stream: &[MemOp]) -> Vec<Vec<MemOp>> {
    let mut lists: Vec<Vec<MemOp>> = vec![Vec::new(); cfg.num_sockets as usize];
    for m in misses {
        lists[m.socket.index()].push(*m);
    }
    if misses.len() < 50_000 {
        for op in stream.iter().take(400_000) {
            lists[op.socket.index()].push(*op);
        }
    }
    lists
}

/// `Dram::read_line` / `write_line` on the replayed L2 miss stream, one
/// socket's requests at a time. A request arrives when the one `in_flight`
/// before it completed, `in_flight` being the misses one socket's SMs can
/// have outstanding (their MSHRs), so the DRAM stays saturated and its
/// backlog bounded, as in the simulator.
pub fn dram(cfg: &SystemConfig, misses: &[MemOp], stream: &[MemOp]) -> Batch {
    let in_flight = cfg.sm.sms_per_socket as usize * cfg.sm.mshrs as usize;
    let mut batch = Batch::default();
    for requests in per_socket(cfg, misses, stream) {
        let mut dram = Dram::new(cfg.dram);
        let mut completed: Vec<Tick> = vec![0; in_flight];
        let start = Instant::now();
        for (i, req) in requests.iter().enumerate() {
            let slot = &mut completed[i % in_flight];
            *slot = black_box(if req.write {
                dram.write_line(*slot, req.line, LINE_BYTES)
            } else {
                dram.read_line(*slot, req.line, LINE_BYTES)
            });
        }
        batch.add(requests.len() as u64, start);
    }
    batch
}

/// `EventQueue` pop + push with `depth` events pending (pass the deepest
/// the simulator's queues got, `engine.queue_peak_len`), every handler
/// scheduling its follow-up one L2-hit round trip later. Every delta stays
/// inside the calendar window, so this is the O(1) near-tick path:
/// a lower bound on what an event costs. What a calendar rebuild can add on
/// a backlogged workload is [`event_queue_rebuild`]'s to bound from above.
pub fn event_queue_near(cfg: &SystemConfig, depth: u64) -> Batch {
    const OPS: u64 = 2_000_000;
    let round_trip =
        cycles_to_ticks(2 * cfg.noc.latency_cycles as u64 + cfg.l2.hit_latency_cycles as u64);
    let mut queue: EventQueue<u64> = EventQueue::new();
    // Warps start staggered, one SM issue slot apart.
    for i in 0..depth.max(1) {
        queue.push(i / cfg.sm.sms_per_socket as u64 * TICKS_PER_CYCLE, i);
    }
    let mut batch = Batch::default();
    let start = Instant::now();
    for _ in 0..OPS {
        let (at, warp) = queue.pop().expect("the loop keeps the queue at its depth");
        queue.push(at + round_trip, black_box(warp));
    }
    batch.add(OPS, start);
    let stats = queue.stats();
    assert_eq!(
        (stats.overflow_pushes, stats.rebuilds),
        (0, 0),
        "the near-tick driver left the calendar window"
    );
    batch
}

/// Cycles the `EventQueue`'s calendar window covers (its `NUM_BUCKETS`).
const WINDOW_CYCLES: u64 = 512;

/// One calendar rebuild of an `EventQueue` holding `depth` events (pass
/// `engine.queue_peak_len`). The events fill the window from its last cycle
/// downwards; each timed push lands one cycle below the window's base, so
/// the pending cycles span more than the window, the push cannot rebase and
/// the whole queue is re-sorted. The simulator's queues hold at most `depth`
/// events when they rebuild, so count x this is an upper bound on what its
/// rebuilds cost, as count x the near-tick cost is a lower one. The driver
/// checks that it caused exactly the rebuilds it timed.
pub fn event_queue_rebuild(depth: u64) -> Batch {
    let depth = depth.max(1);
    let rebuilds = depth.min(200);
    let base = rebuilds + 1;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        let cycle = base + WINDOW_CYCLES - 1 - i % WINDOW_CYCLES;
        queue.push(cycle * TICKS_PER_CYCLE, i);
    }
    let mut batch = Batch::default();
    let start = Instant::now();
    for below in 1..=rebuilds {
        queue.push((base - below) * TICKS_PER_CYCLE, below);
    }
    batch.add(rebuilds, start);
    assert_eq!(
        queue.stats().rebuilds,
        rebuilds,
        "every push below a full window rebuilds"
    );
    batch
}

/// `merge_cross_into` with one outbox per socket, each holding
/// `msgs ÷ barriers ÷ sockets` messages (at least one).
pub fn merge(cfg: &SystemConfig, msgs: u64, barriers: u64) -> Batch {
    let sockets = cfg.num_sockets as usize;
    let per_outbox = (msgs / barriers.max(1) / sockets as u64).max(1) as usize;
    let template: Vec<Vec<(Tick, (SocketId, u64))>> = (0..sockets)
        .map(|s| {
            (0..per_outbox)
                .map(|i| {
                    let at = (i * 7 + s * 3) as Tick * TICKS_PER_CYCLE;
                    (at, (SocketId::new(((s + 1) % sockets) as u8), i as u64))
                })
                .collect()
        })
        .collect();
    const SETS: usize = 256;
    let rounds = (400_000 / (SETS * sockets * per_outbox)).max(1);
    let mut merged: Vec<CrossMessage<(SocketId, u64)>> = Vec::new();
    let mut batch = Batch::default();
    for _ in 0..rounds {
        let mut sets: Vec<_> = (0..SETS).map(|_| template.clone()).collect();
        let start = Instant::now();
        for outboxes in &mut sets {
            merge_cross_into(outboxes.iter_mut(), &mut merged);
            black_box(merged.len());
        }
        batch.add((SETS * sockets * per_outbox) as u64, start);
    }
    batch
}

/// `ServiceQueue::service`, requests and data packets alternating, at the
/// NoC's rate.
pub fn service_queue(cfg: &SystemConfig) -> Batch {
    let mut queue = ServiceQueue::new(cfg.noc.bytes_per_cycle);
    let mut batch = Batch::default();
    const CALLS: u64 = 2_000_000;
    let start = Instant::now();
    let mut now: Tick = 0;
    for i in 0..CALLS {
        let bytes = if i % 2 == 0 {
            HEADER_BYTES
        } else {
            PACKET_BYTES
        };
        now = black_box(queue.service(now, bytes)).min(now + TICKS_PER_CYCLE);
    }
    batch.add(CALLS, start);
    batch
}

/// `GpuLink::send`, egress and ingress alternating, offered faster than
/// the lanes drain so most sends queue behind a backlog.
pub fn link_send(cfg: &SystemConfig) -> Batch {
    let mut link = GpuLink::new(&cfg.link);
    let mut batch = Batch::default();
    const CALLS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..CALLS {
        let (dir, bytes) = if i % 2 == 0 {
            (LinkDirection::Egress, HEADER_BYTES)
        } else {
            (LinkDirection::Ingress, PACKET_BYTES)
        };
        black_box(link.send(i * TICKS_PER_CYCLE, dir, bytes));
    }
    batch.add(CALLS, start);
    batch
}

/// `Topology::route` on the star fabric over every ordered socket pair.
pub fn route(cfg: &SystemConfig) -> Batch {
    let sockets = cfg.num_sockets.max(2);
    let mut fabric = Topology::new(TopologyKind::Star, &cfg.link, sockets)
        .expect("star fabric of at least two sockets");
    let mut batch = Batch::default();
    const CALLS: u64 = 500_000;
    let start = Instant::now();
    for i in 0..CALLS {
        let from = (i % sockets as u64) as u8;
        let to = ((i / sockets as u64) % (sockets as u64 - 1)) as u8;
        let to = if to >= from { to + 1 } else { to };
        let arrival = fabric.route(
            i * 4 * TICKS_PER_CYCLE,
            SocketId::new(from),
            SocketId::new(to),
            PACKET_BYTES,
        );
        black_box(arrival.expect("distinct in-range endpoints"));
    }
    batch.add(CALLS, start);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{sim_input, SimKind};

    #[test]
    fn batches_count_their_calls() {
        let input = sim_input(SimKind::RemoteIrregular, 3, true);
        let stream = mem_stream(&input);
        assert_eq!(stream.len() as u64, input.mem_ops);
        assert_eq!(tracegen(&input).calls, input.warp_ops);
        assert_eq!(launch(&input).calls % input.ctas, 0);
        let (pt, homes) = page_table(&input.cfg, &stream);
        assert_eq!(pt.calls, input.mem_ops);
        assert_eq!(sm_issue(&input, &homes).calls, input.warp_ops);
        let (part, misses) = partitioned(&input.cfg, &stream, &homes);
        assert_eq!(part.calls, input.mem_ops);
        assert!(!misses.is_empty());
        assert!(dram(&input.cfg, &misses, &stream).calls >= misses.len() as u64);
        assert!(cache_hit(&input.cfg, &stream, &homes).calls > 0);
        let distinct = distinct_lines(&stream, &homes).len() as u64;
        assert_eq!(cache_miss_fill(&input.cfg, &stream, &homes).calls, distinct);
        assert!(mshr(&input.cfg, &stream, &homes).calls >= 2 * distinct);
    }

    #[test]
    fn fixed_size_drivers_run() {
        let cfg = SystemConfig::numa_aware_sockets(4);
        assert_eq!(dram(&cfg, &[], &[]).calls, 0);
        assert!(event_queue_near(&cfg, 3000).ns_per_call() > 0.0);
        let shallow = event_queue_rebuild(300).ns_per_call();
        assert!(event_queue_rebuild(3000).ns_per_call() > shallow);
        assert!(merge(&cfg, 1000, 10).calls > 0);
        assert!(merge(&cfg, 0, 10).calls > 0);
        assert!(service_queue(&cfg).ns_per_call() > 0.0);
        assert!(link_send(&cfg).ns_per_call() > 0.0);
        assert!(route(&cfg).ns_per_call() > 0.0);
    }
}
