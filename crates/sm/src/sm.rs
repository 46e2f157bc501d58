//! The SM state machine.

use numa_gpu_cache::{
    FlushOutcome, LineClass, MshrAllocation, MshrFile, SetAssocCache, WayPartition,
};
use numa_gpu_obs::Pow2Histogram;
use numa_gpu_types::{
    CacheConfig, Counter, CtaId, CtaProgram, LineAddr, SmConfig, Tick, WarpOp, WarpSlot,
    TICKS_PER_CYCLE,
};
use std::collections::VecDeque;

/// Outcome of a warp read probing the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1ReadOutcome {
    /// Line resident: warp resumes after the L1 hit latency.
    Hit,
    /// First miss on the line: the caller must issue a fill request.
    MissPrimary,
    /// Miss merged into an outstanding request for the same line.
    MissMerged,
    /// No MSHR available: the warp must be parked and retried.
    MshrFull,
}

/// Per-SM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// CTAs that have completed on this SM.
    pub ctas_completed: Counter,
    /// Warp ops issued (compute + memory).
    pub ops_issued: Counter,
    /// Warp issue attempts lost to MSHR-full stalls (retry parks).
    pub mshr_stalls: Counter,
}

struct CtaRuntime {
    cta: CtaId,
    program: Box<dyn CtaProgram>,
    warps_outstanding: u32,
}

impl std::fmt::Debug for CtaRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtaRuntime")
            .field("cta", &self.cta)
            .field("warps_outstanding", &self.warps_outstanding)
            .finish_non_exhaustive()
    }
}

/// Sentinel in `warp_cta_slot` marking a free warp slot. Valid CTA slots
/// are bounded by `SmConfig::max_ctas` (a `u16` count), so the maximum
/// value is never a real slot.
const NO_CTA: u16 = u16::MAX;

/// One streaming multiprocessor: warp slots, resident CTAs, private L1 and
/// MSHRs, plus a single-issue port.
///
/// # Examples
///
/// ```
/// use numa_gpu_sm::Sm;
/// use numa_gpu_types::{
///     Addr, CacheConfig, CtaId, CtaProgram, SmConfig, WarpOp,
/// };
///
/// struct Nop;
/// impl CtaProgram for Nop {
///     fn num_warps(&self) -> u32 { 1 }
///     fn next_op(&mut self, _w: u32) -> Option<WarpOp> { None }
/// }
///
/// let sm_cfg = SmConfig {
///     sms_per_socket: 1, max_warps: 8, max_ctas: 4, mshrs: 8,
///     max_pending_loads: 4,
/// };
/// let l1_cfg = CacheConfig { size_bytes: 16 * 1024, ways: 4, hit_latency_cycles: 28 };
/// let mut sm = Sm::new(&sm_cfg, &l1_cfg, None);
/// assert!(sm.can_accept_cta(1));
/// let mut slots = Vec::new();
/// sm.dispatch_cta_into(CtaId::new(0), Box::new(Nop), &mut slots);
/// assert_eq!(slots.len(), 1);
/// ```
#[derive(Debug)]
pub struct Sm {
    l1: SetAssocCache,
    l1_hit_latency: Tick,
    mshrs: MshrFile<WarpSlot>,
    // Hot warp state in structure-of-arrays form: the per-event lookups
    // (`next_op`, `retire_warp`) index two dense flat arrays instead of
    // unwrapping an array of option-structs, and [`NO_CTA`] marks free
    // slots without an `Option` discriminant.
    /// CTA slot owning each warp slot; [`NO_CTA`] when the slot is free.
    warp_cta_slot: Vec<u16>,
    /// Warp index within its CTA's program (valid only for resident slots).
    warp_in_cta: Vec<u32>,
    /// Resident warp count, kept so `active_warps` is O(1).
    active_warp_count: u32,
    free_warp_slots: Vec<u16>,
    ctas: Vec<Option<CtaRuntime>>,
    free_cta_slots: Vec<u16>,
    resident_ctas: u16,
    issue_next_free: Tick,
    retry_queue: VecDeque<WarpSlot>,
    stats: SmStats,
    /// MSHR file occupancy sampled at each primary L1 miss.
    mshr_occupancy: Pow2Histogram,
}

impl Sm {
    /// Builds an SM from its configuration. `l1_partition` of `Some`
    /// enables NUMA way partitioning of the L1 (the paper partitions both
    /// cache levels).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero warps/CTAs/MSHRs).
    pub fn new(sm: &SmConfig, l1: &CacheConfig, l1_partition: Option<WayPartition>) -> Self {
        assert!(
            sm.max_warps > 0 && sm.max_ctas > 0 && sm.mshrs > 0,
            "degenerate SM configuration"
        );
        Sm {
            l1: SetAssocCache::new(l1, l1_partition),
            l1_hit_latency: l1.hit_latency_cycles as Tick * TICKS_PER_CYCLE,
            mshrs: MshrFile::new(sm.mshrs as usize),
            warp_cta_slot: vec![NO_CTA; sm.max_warps as usize],
            warp_in_cta: vec![0; sm.max_warps as usize],
            active_warp_count: 0,
            free_warp_slots: (0..sm.max_warps).rev().collect(),
            ctas: (0..sm.max_ctas).map(|_| None).collect(),
            free_cta_slots: (0..sm.max_ctas).rev().collect(),
            resident_ctas: 0,
            issue_next_free: 0,
            retry_queue: VecDeque::new(),
            stats: SmStats::default(),
            mshr_occupancy: Pow2Histogram::default(),
        }
    }

    /// Whether a CTA of `warps` warps can be dispatched right now.
    pub fn can_accept_cta(&self, warps: u32) -> bool {
        !self.free_cta_slots.is_empty() && self.free_warp_slots.len() >= warps as usize
    }

    /// Number of resident warps.
    pub fn active_warps(&self) -> usize {
        self.active_warp_count as usize
    }

    /// Number of resident CTAs.
    pub fn active_ctas(&self) -> usize {
        self.resident_ctas as usize
    }

    /// Dispatches a CTA, allocating one warp slot per program warp, and
    /// appends the allocated slots to `slots` (the caller schedules their
    /// first issue) so a caller-owned scratch buffer absorbs every dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the SM cannot accept the CTA — check
    /// [`Self::can_accept_cta`] first.
    pub fn dispatch_cta_into(
        &mut self,
        cta: CtaId,
        program: Box<dyn CtaProgram>,
        slots: &mut Vec<WarpSlot>,
    ) {
        let warps = program.num_warps();
        assert!(
            self.can_accept_cta(warps),
            "dispatch_cta without capacity check"
        );
        // The can_accept_cta assert above guarantees free slots.
        let cta_slot = self.free_cta_slots.pop().expect("checked above");
        self.ctas[cta_slot as usize] = Some(CtaRuntime {
            cta,
            program,
            warps_outstanding: warps,
        });
        self.resident_ctas += 1;
        self.active_warp_count += warps;
        for warp_in_cta in 0..warps {
            // The can_accept_cta assert above guarantees free slots.
            let slot = self.free_warp_slots.pop().expect("checked above");
            self.warp_cta_slot[slot as usize] = cta_slot;
            self.warp_in_cta[slot as usize] = warp_in_cta;
            slots.push(WarpSlot::new(slot));
        }
    }

    /// Pulls the next operation for the warp in `slot`. `None` means the
    /// warp has retired all work; the caller must then invoke
    /// [`Self::retire_warp`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no warp.
    pub fn next_op(&mut self, slot: WarpSlot) -> Option<WarpOp> {
        let cta_slot = self.warp_cta_slot[slot.index()];
        assert!(cta_slot != NO_CTA, "next_op on empty warp slot");
        let rt = self.ctas[cta_slot as usize]
            .as_mut()
            .expect("warp points at live CTA");
        let op = rt.program.next_op(self.warp_in_cta[slot.index()]);
        if op.is_some() {
            self.stats.ops_issued.inc();
        }
        op
    }

    /// Retires a finished warp. When it was the last warp of its CTA the
    /// CTA completes and its id is returned (so the dispatcher can launch
    /// the next pending CTA).
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no warp.
    pub fn retire_warp(&mut self, slot: WarpSlot) -> Option<CtaId> {
        let cta_slot = self.warp_cta_slot[slot.index()];
        assert!(cta_slot != NO_CTA, "retire_warp on empty warp slot");
        self.warp_cta_slot[slot.index()] = NO_CTA;
        self.active_warp_count -= 1;
        self.free_warp_slots.push(slot.index() as u16);
        let rt = self.ctas[cta_slot as usize]
            .as_mut()
            .expect("warp points at live CTA");
        rt.warps_outstanding -= 1;
        if rt.warps_outstanding == 0 {
            let cta = rt.cta;
            self.ctas[cta_slot as usize] = None;
            self.free_cta_slots.push(cta_slot);
            self.resident_ctas -= 1;
            self.stats.ctas_completed.inc();
            Some(cta)
        } else {
            None
        }
    }

    /// Reserves the single-issue port: returns the actual issue tick for a
    /// request arriving at `now` (at most one op per cycle).
    pub fn reserve_issue(&mut self, now: Tick) -> Tick {
        let t = self.issue_next_free.max(now);
        self.issue_next_free = t + TICKS_PER_CYCLE;
        t
    }

    /// L1 hit latency in ticks.
    pub fn l1_hit_latency(&self) -> Tick {
        self.l1_hit_latency
    }

    /// Probes the L1 for a read by the warp in `slot`.
    pub fn l1_read(&mut self, line: LineAddr, class: LineClass, slot: WarpSlot) -> L1ReadOutcome {
        if self.l1.probe_read(line) {
            return L1ReadOutcome::Hit;
        }
        self.l1.record_miss(class);
        match self.mshrs.allocate(line, slot) {
            MshrAllocation::Primary => {
                self.mshr_occupancy.observe(self.mshrs.in_use() as u64);
                L1ReadOutcome::MissPrimary
            }
            MshrAllocation::Merged => L1ReadOutcome::MissMerged,
            MshrAllocation::Full => {
                self.stats.mshr_stalls.inc();
                L1ReadOutcome::MshrFull
            }
        }
    }

    /// Applies a write to the L1 (write-through, no write-allocate): updates
    /// the line if resident, never dirties it.
    pub fn l1_write(&mut self, line: LineAddr) {
        let _ = self.l1.probe_write(line, false);
    }

    /// Completes a fill: installs the line and appends the warps to wake to
    /// `woken`. The MSHR waiter storage is recycled internally, so the
    /// steady-state fill path allocates nothing.
    pub fn l1_fill_into(&mut self, line: LineAddr, class: LineClass, woken: &mut Vec<WarpSlot>) {
        // Write-through L1: fills are always clean, evictions need no
        // writeback.
        let _ = self.l1.fill(line, class, false);
        self.mshrs.complete_into(line, woken);
    }

    /// Waiter-vector allocations the MSHR file has avoided through pool
    /// reuse (feeds the self-profiler).
    pub fn recycled_allocations(&self) -> u64 {
        self.mshrs.recycled_allocations()
    }

    /// Parks a warp that hit MSHR-full, to be retried on the next fill.
    pub fn park_retry(&mut self, slot: WarpSlot) {
        self.retry_queue.push_back(slot);
    }

    /// Pops one parked warp (called when an MSHR frees up).
    pub fn pop_retry(&mut self) -> Option<WarpSlot> {
        self.retry_queue.pop_front()
    }

    /// Bulk-invalidates the L1 (kernel-boundary software coherence). The
    /// write-through L1 never produces writebacks.
    pub fn flush_l1(&mut self) -> FlushOutcome {
        let out = self.l1.invalidate_all();
        debug_assert!(out.dirty_writebacks.is_empty(), "WT L1 cannot be dirty");
        out
    }

    /// Installs a new L1 way partition (NUMA-aware mode).
    pub fn set_l1_partition(&mut self, partition: WayPartition) {
        self.l1.set_partition(partition);
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> numa_gpu_cache::CacheStats {
        self.l1.stats()
    }

    /// SM statistics.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// MSHR file occupancy, one sample per primary L1 miss.
    pub fn mshr_occupancy(&self) -> &Pow2Histogram {
        &self.mshr_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::Addr;

    struct ScriptedCta {
        ops: Vec<Vec<WarpOp>>,
        cursors: Vec<usize>,
    }

    impl ScriptedCta {
        fn new(ops: Vec<Vec<WarpOp>>) -> Self {
            let cursors = vec![0; ops.len()];
            ScriptedCta { ops, cursors }
        }
    }

    impl CtaProgram for ScriptedCta {
        fn num_warps(&self) -> u32 {
            self.ops.len() as u32
        }
        fn next_op(&mut self, warp: u32) -> Option<WarpOp> {
            let w = warp as usize;
            let op = self.ops[w].get(self.cursors[w]).copied();
            if op.is_some() {
                self.cursors[w] += 1;
            }
            op
        }
    }

    fn sm_config() -> SmConfig {
        SmConfig {
            sms_per_socket: 1,
            max_warps: 8,
            max_ctas: 4,
            mshrs: 4,
            max_pending_loads: 4,
        }
    }

    fn l1_config() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            hit_latency_cycles: 28,
        }
    }

    fn make_sm() -> Sm {
        Sm::new(&sm_config(), &l1_config(), None)
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    fn dispatch(sm: &mut Sm, cta: u32, program: ScriptedCta) -> Vec<WarpSlot> {
        let mut slots = Vec::new();
        sm.dispatch_cta_into(CtaId::new(cta), Box::new(program), &mut slots);
        slots
    }

    fn fill(sm: &mut Sm, line: LineAddr, class: LineClass) -> Vec<WarpSlot> {
        let mut woken = Vec::new();
        sm.l1_fill_into(line, class, &mut woken);
        woken
    }

    #[test]
    fn dispatch_allocates_slots() {
        let mut sm = make_sm();
        let slots = dispatch(&mut sm, 7, ScriptedCta::new(vec![vec![], vec![]]));
        assert_eq!(slots.len(), 2);
        assert_eq!(sm.active_warps(), 2);
        assert_eq!(sm.active_ctas(), 1);
    }

    #[test]
    fn capacity_limits_warps_and_ctas() {
        let mut sm = make_sm();
        for i in 0..4 {
            assert!(sm.can_accept_cta(2));
            dispatch(&mut sm, i, ScriptedCta::new(vec![vec![], vec![]]));
        }
        assert!(!sm.can_accept_cta(1)); // max_ctas reached
        let mut sm = make_sm();
        dispatch(&mut sm, 0, ScriptedCta::new(vec![vec![]; 7]));
        assert!(!sm.can_accept_cta(2)); // only 1 warp slot left
        assert!(sm.can_accept_cta(1));
    }

    #[test]
    fn next_op_streams_per_warp() {
        let mut sm = make_sm();
        let ops = vec![
            vec![WarpOp::compute(3), WarpOp::read(Addr::new(0))],
            vec![WarpOp::write(Addr::new(128))],
        ];
        let slots = dispatch(&mut sm, 0, ScriptedCta::new(ops));
        assert_eq!(sm.next_op(slots[0]), Some(WarpOp::compute(3)));
        assert_eq!(sm.next_op(slots[1]), Some(WarpOp::write(Addr::new(128))));
        assert_eq!(sm.next_op(slots[1]), None);
        assert_eq!(sm.next_op(slots[0]), Some(WarpOp::read(Addr::new(0))));
        assert_eq!(sm.stats().ops_issued.get(), 3);
    }

    #[test]
    fn cta_completes_when_last_warp_retires() {
        let mut sm = make_sm();
        let slots = dispatch(&mut sm, 9, ScriptedCta::new(vec![vec![], vec![]]));
        assert_eq!(sm.retire_warp(slots[0]), None);
        assert_eq!(sm.retire_warp(slots[1]), Some(CtaId::new(9)));
        assert_eq!(sm.active_ctas(), 0);
        assert_eq!(sm.active_warps(), 0);
        assert!(sm.can_accept_cta(2));
        assert_eq!(sm.stats().ctas_completed.get(), 1);
    }

    #[test]
    fn issue_port_serializes() {
        let mut sm = make_sm();
        let a = sm.reserve_issue(0);
        let b = sm.reserve_issue(0);
        let c = sm.reserve_issue(0);
        assert_eq!(a, 0);
        assert_eq!(b, TICKS_PER_CYCLE);
        assert_eq!(c, 2 * TICKS_PER_CYCLE);
        // Idle gap resets.
        let d = sm.reserve_issue(100 * TICKS_PER_CYCLE);
        assert_eq!(d, 100 * TICKS_PER_CYCLE);
    }

    #[test]
    fn l1_read_miss_then_fill_then_hit() {
        let mut sm = make_sm();
        let s = WarpSlot::new(0);
        assert_eq!(
            sm.l1_read(line(5), LineClass::Local, s),
            L1ReadOutcome::MissPrimary
        );
        assert_eq!(
            sm.l1_read(line(5), LineClass::Local, WarpSlot::new(1)),
            L1ReadOutcome::MissMerged
        );
        let woken = fill(&mut sm, line(5), LineClass::Local);
        assert_eq!(woken, vec![WarpSlot::new(0), WarpSlot::new(1)]);
        assert_eq!(sm.l1_read(line(5), LineClass::Local, s), L1ReadOutcome::Hit);
    }

    #[test]
    fn mshr_full_parks_warp() {
        let mut sm = make_sm(); // 4 MSHRs
        for i in 0..4 {
            assert_eq!(
                sm.l1_read(line(i), LineClass::Local, WarpSlot::new(i as u16)),
                L1ReadOutcome::MissPrimary
            );
        }
        assert_eq!(
            sm.l1_read(line(99), LineClass::Remote, WarpSlot::new(5)),
            L1ReadOutcome::MshrFull
        );
        sm.park_retry(WarpSlot::new(5));
        assert_eq!(sm.pop_retry(), Some(WarpSlot::new(5)));
        assert_eq!(sm.pop_retry(), None);
        assert_eq!(sm.stats().mshr_stalls.get(), 1);
    }

    #[test]
    fn obs_records_stalls_and_mshr_occupancy() {
        let mut sm = make_sm(); // 4 MSHRs
        for i in 0..4 {
            sm.l1_read(line(i), LineClass::Local, WarpSlot::new(i as u16));
        }
        assert_eq!(
            sm.l1_read(line(99), LineClass::Local, WarpSlot::new(5)),
            L1ReadOutcome::MshrFull
        );
        assert_eq!(sm.stats().mshr_stalls.get(), 1);
        let h = sm.mshr_occupancy().summary();
        assert_eq!(h.count, 4); // one sample per primary miss
        assert_eq!(h.max, 4); // file full at the last allocation
    }

    #[test]
    fn l1_write_never_allocates() {
        let mut sm = make_sm();
        sm.l1_write(line(3));
        assert_eq!(
            sm.l1_read(line(3), LineClass::Local, WarpSlot::new(0)),
            L1ReadOutcome::MissPrimary
        );
    }

    #[test]
    fn flush_l1_invalidates_everything_clean() {
        let mut sm = make_sm();
        fill(&mut sm, line(1), LineClass::Local);
        fill(&mut sm, line(2), LineClass::Remote);
        let out = sm.flush_l1();
        assert_eq!(out.invalidated, 2);
        assert!(out.dirty_writebacks.is_empty());
        assert_eq!(
            sm.l1_read(line(1), LineClass::Local, WarpSlot::new(0)),
            L1ReadOutcome::MissPrimary
        );
    }

    #[test]
    fn partitioned_l1_accepts_new_partition() {
        let mut sm = Sm::new(&sm_config(), &l1_config(), Some(WayPartition::balanced(4)));
        sm.set_l1_partition(WayPartition::with_local_ways(1, 4));
        // Remote fills now own 3 ways; locals 1 — just exercise the path.
        fill(&mut sm, line(1), LineClass::Remote);
        assert_eq!(
            sm.l1_read(line(1), LineClass::Remote, WarpSlot::new(0)),
            L1ReadOutcome::Hit
        );
    }

    #[test]
    #[should_panic(expected = "without capacity check")]
    fn over_dispatch_panics() {
        let mut sm = make_sm();
        for i in 0..5 {
            dispatch(&mut sm, i, ScriptedCta::new(vec![vec![]]));
        }
    }
}
