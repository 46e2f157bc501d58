//! The staged memory path: L1 miss → NoC → L2 → DRAM or cross-partition
//! message → home.
//!
//! Every resource (NoC direction, DRAM interface, link direction) is a
//! bandwidth-limited FIFO, and each is touched by an *event at its actual
//! arrival time*, so queue timestamps stay monotone and a far-future
//! response never blocks a present-time request.
//!
//! Socket-to-socket traffic is the partition boundary. The monolithic
//! switch's transfer decomposed into two legs: the source shard pays its
//! egress lanes plus half the wire latency and parks an [`XMsg`] in its
//! window outbox ([`SocketShard::send_cross`]); the barrier delivers it as
//! an `Ev::XArrive` in the destination shard, which pays ingress plus the
//! second half on receipt ([`SocketShard::on_x_arrive`]). End to end the
//! timing legs are the monolithic model's, but each link is only ever
//! touched by its owning partition.

use crate::system::{Ev, PagesView, SocketShard, XMsg};
use numa_gpu_cache::LineClass;
use numa_gpu_interconnect::LinkDirection;
use numa_gpu_types::{LineAddr, SocketId, Tick, WarpSlot, WritePolicy, HEADER_BYTES, LINE_SIZE};

/// Bytes of a cache-line data packet.
pub(crate) const LINE_BYTES: u32 = LINE_SIZE as u32;
/// Bytes of a read request or write acknowledgment (header only).
pub(crate) const REQ_BYTES: u32 = HEADER_BYTES;
/// Bytes of a read response or write packet (line + header).
pub(crate) const DATA_PACKET_BYTES: u32 = LINE_BYTES + HEADER_BYTES;

impl SocketShard {
    /// Stage 1 (issue time): a read miss leaves the SM and crosses the
    /// request NoC toward the L2 / switch stop.
    pub(crate) fn start_read(&mut self, t: Tick, sm: u32, line: LineAddr, home: SocketId) {
        let at_l2 = self.noc_req.service(t, REQ_BYTES) + self.noc_latency;
        self.push_mem(at_l2, Ev::ReadAtL2 { sm, line, home });
    }

    /// Stage 2: the read request is at the requester's L2 complex.
    pub(crate) fn on_read_at_l2(&mut self, t: Tick, sm: u32, line: LineAddr, home: SocketId) {
        if home == self.socket {
            if self.l2.probe_read(line) {
                self.push_mem(
                    t + self.l2_hit_latency,
                    Ev::DataToSm {
                        sm,
                        line,
                        class: LineClass::Local,
                        fill_l2: false,
                    },
                );
                return;
            }
            self.l2.record_miss(LineClass::Local);
            let ready = self
                .dram
                .read_line(t + self.l2_hit_latency, line, LINE_BYTES);
            self.push_mem(
                ready,
                Ev::DataToSm {
                    sm,
                    line,
                    class: LineClass::Local,
                    fill_l2: true,
                },
            );
            return;
        }
        // Remote line: GPU-side modes may have it cached locally.
        if self.cfg.cache_mode.caches_remote() {
            if self.l2.probe_read(line) {
                self.push_mem(
                    t + self.l2_hit_latency,
                    Ev::DataToSm {
                        sm,
                        line,
                        class: LineClass::Remote,
                        fill_l2: false,
                    },
                );
                return;
            }
            self.l2.record_miss(LineClass::Remote);
        }
        self.remote_reads_window += 1;
        self.send_cross(t, home, XMsg::ReadReq { sm, line, home }, REQ_BYTES);
    }

    /// Stage 3 (remote path): the request reached the home socket, whose L2
    /// is memory-side for incoming traffic in every mode.
    pub(crate) fn on_read_at_home(
        &mut self,
        t: Tick,
        sm: u32,
        line: LineAddr,
        pages: &mut PagesView<'_>,
    ) {
        let home = self.socket;
        let ready = if self.l2.probe_read(line) {
            t + self.l2_hit_latency
        } else {
            self.l2.record_miss(LineClass::Local);
            let r = self
                .dram
                .read_line(t + self.l2_hit_latency, line, LINE_BYTES);
            self.fill_l2(t, line, LineClass::Local, false, pages);
            r
        };
        self.push_mem(ready, Ev::ReadReturn { sm, line, home });
    }

    /// Stage 4 (remote path): data travels back over the switch to the
    /// requester's partition.
    pub(crate) fn on_read_return(&mut self, t: Tick, sm: u32, line: LineAddr) {
        let dest = self.socket_of(sm);
        self.send_cross(t, dest, XMsg::ReadResp { sm, line }, DATA_PACKET_BYTES);
    }

    /// Stage 5: data is at the requester socket — optionally fill the local
    /// L2, then cross the response NoC to the SM.
    pub(crate) fn on_data_to_sm(
        &mut self,
        t: Tick,
        sm: u32,
        line: LineAddr,
        class: LineClass,
        fill_l2: bool,
        pages: &mut PagesView<'_>,
    ) {
        if fill_l2 {
            self.fill_l2(t, line, class, false, pages);
        }
        let at_sm = self.noc_resp.service(t, LINE_BYTES) + self.noc_latency;
        self.push_mem(at_sm, Ev::L1Fill { sm, line, class });
    }

    /// Write stage 1 (issue time): write data crosses the request NoC.
    /// The issuing warp is blocked until the store is *accepted* (absorbed
    /// locally or clear of the egress lanes) — finite store buffering, which
    /// gives the natural backpressure real SMs have.
    pub(crate) fn start_write(
        &mut self,
        t: Tick,
        sm: u32,
        slot: WarpSlot,
        line: LineAddr,
        home: SocketId,
    ) {
        let at_l2 = self.noc_req.service(t, DATA_PACKET_BYTES) + self.noc_latency;
        self.push_mem(
            at_l2,
            Ev::WriteAtL2 {
                sm,
                slot,
                line,
                home,
            },
        );
    }

    /// Write stage 2: at the requester's L2 complex. Returns control to the
    /// issuing warp at the acceptance tick.
    pub(crate) fn on_write_at_l2(
        &mut self,
        t: Tick,
        sm: u32,
        slot: WarpSlot,
        line: LineAddr,
        home: SocketId,
        pages: &mut PagesView<'_>,
    ) {
        let write_back = self.cfg.l2.write_policy == WritePolicy::WriteBack;
        let accept = if home == self.socket {
            let done = self.absorb_write_at_home(t, line, pages);
            self.write_drain = self.write_drain.max(done);
            t
        } else if self.cfg.cache_mode.caches_remote() && write_back {
            // The GPU-side write-back L2 absorbs remote writes locally; data
            // crosses the link on eviction or at the coherence flush — the
            // §5.2 WB-vs-WT inter-GPU write bandwidth saving.
            if !self.l2.probe_write(line, true) {
                self.fill_l2(t, line, LineClass::Remote, true, pages);
            }
            self.write_drain = self.write_drain.max(t);
            t
        } else {
            let from = self.socket;
            self.send_cross(
                t,
                home,
                XMsg::WriteData { from, line, home },
                DATA_PACKET_BYTES,
            )
        };
        self.queue.push(accept, Ev::WarpIssue { sm, slot });
    }

    /// Write stage 3 (remote path): absorbed at this (home) socket; a small
    /// acknowledgment returns to the writer's partition, extending its
    /// write drain on arrival.
    pub(crate) fn on_write_at_home(
        &mut self,
        t: Tick,
        from: SocketId,
        line: LineAddr,
        pages: &mut PagesView<'_>,
    ) {
        let done = self.absorb_write_at_home(t, line, pages);
        self.write_drain = self.write_drain.max(done);
        self.send_cross(t, from, XMsg::WriteAck, REQ_BYTES);
    }

    /// A cross-partition message reached this shard's switch boundary: pay
    /// the ingress lanes and the second latency half, then continue the
    /// pipeline stage the message carries.
    pub(crate) fn on_x_arrive(&mut self, t: Tick, msg: XMsg) {
        match msg {
            XMsg::ReadReq { sm, line, home } => {
                let arrive =
                    self.link.send(t, LinkDirection::Ingress, REQ_BYTES) + self.hop_latency;
                self.push_mem(arrive, Ev::ReadAtHome { sm, line, home });
            }
            XMsg::ReadResp { sm, line } => {
                let arrive =
                    self.link.send(t, LinkDirection::Ingress, DATA_PACKET_BYTES) + self.hop_latency;
                self.push_mem(
                    arrive,
                    Ev::DataToSm {
                        sm,
                        line,
                        class: LineClass::Remote,
                        fill_l2: self.cfg.cache_mode.caches_remote(),
                    },
                );
            }
            XMsg::WriteData { from, line, home } => {
                let arrive =
                    self.link.send(t, LinkDirection::Ingress, DATA_PACKET_BYTES) + self.hop_latency;
                self.push_mem(arrive, Ev::WriteAtHome { from, line, home });
            }
            XMsg::WriteAck => {
                let arrive =
                    self.link.send(t, LinkDirection::Ingress, REQ_BYTES) + self.hop_latency;
                self.write_drain = self.write_drain.max(arrive);
            }
        }
    }

    /// A write (or writeback) arriving at its home socket: absorbed by the
    /// memory-side L2 or forwarded to DRAM under write-through.
    fn absorb_write_at_home(&mut self, t: Tick, line: LineAddr, pages: &mut PagesView<'_>) -> Tick {
        if self.cfg.l2.write_policy == WritePolicy::WriteBack {
            if !self.l2.probe_write(line, true) {
                // Write-allocate without fetch (coalesced full-line
                // writes, the common GPU case).
                self.fill_l2(t, line, LineClass::Local, true, pages);
            }
            t
        } else {
            let _ = self.l2.probe_write(line, false);
            self.dram.write_line(t, line, LINE_BYTES)
        }
    }

    /// Installs a line into this socket's L2, draining any dirty victim.
    pub(crate) fn fill_l2(
        &mut self,
        t: Tick,
        line: LineAddr,
        class: LineClass,
        dirty: bool,
        pages: &mut PagesView<'_>,
    ) {
        if let Some(victim) = self.l2.fill(line, class, dirty) {
            if victim.dirty {
                let done = self.writeback(t, victim.line, pages);
                self.write_drain = self.write_drain.max(done);
            }
        }
    }

    /// Writes a dirty line back to its home memory; returns the completion
    /// tick as far as this partition can know it (a remote home's DRAM
    /// write extends the drain further via the WriteAck path).
    pub(crate) fn writeback(&mut self, t: Tick, line: LineAddr, pages: &mut PagesView<'_>) -> Tick {
        let home = self.home_of_line(t, line, pages);
        if home == self.socket {
            self.dram.write_line(t, line, LINE_BYTES)
        } else {
            let from = self.socket;
            let egress_clear = self.send_cross(
                t,
                home,
                XMsg::WriteData { from, line, home },
                DATA_PACKET_BYTES,
            );
            egress_clear + self.hop_latency
        }
    }
}
