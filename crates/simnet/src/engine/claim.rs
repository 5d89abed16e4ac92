//! Transfer lifecycle: creation, the two circuit-claim policies (atomic
//! all-or-nothing and hold-and-wait incremental), delivery, and
//! completion. A second `impl` block of the driver's `Sim`, split out so
//! `sim.rs` stays the thin program-execution loop.

use hypercube::{NodeId, Path, Topology};

use crate::engine::arena::LinkRange;
use crate::engine::node::RecvState;
use crate::engine::queue::{EvKind, TransferId};
use crate::engine::router::{TKind, TState, Transfer};
use crate::engine::wakeup::{Blocker, NIL};
use crate::program::Tag;
use crate::sim::Sim;
use crate::trace::TraceKind;
use crate::{ClaimPolicy, PortModel};

impl<T: Topology + ?Sized> Sim<'_, T> {
    // -- transfer creation --------------------------------------------------

    /// The route a transfer will take under the active cost model:
    /// the topology's deterministic route (uniform fast path), a detour
    /// around down links, or `None` with [`crate::SimError::LinkDown`]
    /// staged in `self.err` — the main loop surfaces it after the
    /// current event.
    fn resolve_route(&mut self, src: u32, dst: u32) -> Option<Path> {
        match crate::cost::resolve_route(self.topo, self.cost, NodeId(src), NodeId(dst)) {
            Ok(path) => Some(path),
            Err(e) => {
                self.err = Some(e);
                None
            }
        }
    }

    pub(crate) fn create_data_transfer(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u32,
        tag: Tag,
        exchange_part: bool,
    ) -> Option<TransferId> {
        let path = self.resolve_route(src, dst)?;
        let mut duration = match self.params.claim {
            ClaimPolicy::Atomic => self.cost.transfer_ns(self.params, bytes, path.links()),
            // Hold-and-wait pays per-hop cost during claiming instead;
            // the cost model's per-link extras still ride on the wire time.
            ClaimPolicy::HoldAndWait => {
                self.params.wire_ns(bytes) + self.cost.extra_ns(self.params, bytes, path.links())
            }
        };
        if exchange_part && self.params.ports == PortModel::Split {
            duration += self.params.exchange_sync_ns;
        }
        // Initiating a send costs CPU time before the circuit is requested;
        // exchange parts already paid it during the rendezvous.
        let initiation = if exchange_part {
            0
        } else {
            self.params.send_overhead_ns
        };
        // Long-protocol messages issue in order at each sender (the DCM
        // drains its send queue head-first, stalling behind a head message
        // whose circuit cannot open — the head-of-line blocking that good
        // schedules eliminate). Short-protocol messages and 0-byte control
        // signals are fire-and-forget through system buffers and bypass the
        // queue; exchange parts are gated by their rendezvous instead.
        let issue_seq =
            (!exchange_part && bytes > self.params.protocol_threshold_bytes).then(|| {
                let seq = self.nodes[src as usize].issue_next;
                self.nodes[src as usize].issue_next += 1;
                seq
            });
        let links = self.transfers.push_links(path.links());
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Data { exchange_part },
            src,
            dst,
            bytes,
            rev_bytes: 0,
            tag,
            links,
            duration,
            request_ns: self.now + initiation,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq,
            age: 0,
            wait_next: NIL,
        });
        self.stats_transfers += 1;
        self.nodes[src as usize].outstanding_sends += 1;
        self.nodes[src as usize].stats.sends += 1;
        self.trace_push(TraceKind::Requested, src, dst, tag, bytes);
        if initiation > 0 {
            self.queue
                .push(self.now + initiation, EvKind::XferAdvance(id));
        } else {
            self.request_claim(id);
        }
        Some(id)
    }

    pub(crate) fn create_fused_exchange(
        &mut self,
        a: u32,
        b: u32,
        ab_bytes: u32,
        ba_bytes: u32,
        tag: Tag,
    ) {
        let Some(fwd) = self.resolve_route(a, b) else {
            return;
        };
        let Some(rev) = self.resolve_route(b, a) else {
            return;
        };
        let duration = self.params.exchange_sync_ns
            + self
                .cost
                .transfer_ns(self.params, ab_bytes, fwd.links())
                .max(self.cost.transfer_ns(self.params, ba_bytes, rev.links()));
        let links = self.transfers.push_links_pair(fwd.links(), rev.links());
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Fused,
            src: a,
            dst: b,
            bytes: ab_bytes,
            rev_bytes: ba_bytes,
            tag,
            links,
            duration,
            request_ns: self.now,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
            age: 0,
            wait_next: NIL,
        });
        self.stats_transfers += 1;
        self.nodes[a as usize].stats.sends += 1;
        self.nodes[b as usize].stats.sends += 1;
        self.trace_push(TraceKind::Requested, a, b, tag, ab_bytes.max(ba_bytes));
        self.request_claim(id);
    }

    pub(crate) fn create_copy_transfer(&mut self, node: u32, src: u32, bytes: u32, tag: Tag) {
        let id = self.transfers.alloc(Transfer {
            kind: TKind::Copy,
            src,
            dst: node,
            bytes,
            rev_bytes: 0,
            tag,
            links: LinkRange::EMPTY,
            duration: self.params.copy_ns(bytes),
            request_ns: self.now,
            state: TState::Pending,
            claim_idx: 0,
            issue_seq: None,
            age: 0,
            wait_next: NIL,
        });
        self.request_claim(id);
    }

    /// A transfer requests its resources under the active claim policy:
    /// atomic transfers enter the pending set and the claim pass runs;
    /// hold-and-wait transfers start claiming hop by hop.
    pub(crate) fn request_claim(&mut self, id: TransferId) {
        match self.params.claim {
            ClaimPolicy::Atomic => {
                self.wakeups.enqueue(&mut self.transfers, id);
                self.retry_pending();
            }
            ClaimPolicy::HoldAndWait => {
                self.transfers[id].state = TState::Claiming;
                self.hw_advance(id);
            }
        }
    }

    // -- atomic claim policy -------------------------------------------------

    /// Whether the receive side can accept this message right now, and how.
    /// `Ok(true)` = direct into a posted buffer, `Ok(false)` = via the system
    /// buffer. `Err(())` = must wait (buffer full).
    pub(crate) fn delivery_mode(&mut self, t_idx: TransferId) -> Result<bool, ()> {
        let (dst, src, tag, bytes) = {
            let t = &self.transfers[t_idx];
            (t.dst as usize, t.src, t.tag, t.bytes)
        };
        match self.nodes[dst].recvs.get(&(src, tag.0)) {
            Some(RecvState::Posted) => Ok(true),
            Some(other) => {
                let other = *other;
                self.error(
                    dst,
                    format!("second message ({src},{tag:?}) while first is {other:?}"),
                );
                Err(())
            }
            None => {
                let used = self.nodes[dst].buffer_used;
                match self.params.buffer_bytes {
                    Some(cap) if used + u64::from(bytes) > cap => Err(()),
                    _ => Ok(false),
                }
            }
        }
    }

    /// The claim pass: oldest-first, first-fit over the ready transfers.
    /// A transfer starts as soon as every resource it needs is
    /// simultaneously free; one that cannot start parks under its first
    /// blocker until that blocker is released
    /// ([`crate::engine::wakeup`] explains why this is exact).
    pub(crate) fn retry_pending(&mut self) {
        while let Some(id) = self.wakeups.pop_ready() {
            self.claim_checks += 1;
            match self.atomic_check(id) {
                Ok(direct) => self.activate(id, direct),
                Err(Some(blocker)) => self.wakeups.park(&mut self.transfers, blocker, id),
                // A program error is staged; the main loop surfaces it.
                Err(None) => return,
            }
        }
    }

    /// One atomic feasibility check, in claim order: the issue cursor,
    /// the router's resources, then delivery. `Ok(direct)` when `id` can
    /// start (`direct` as in [`Sim::delivery_mode`]), otherwise the first
    /// blocker, or `None` when the check staged a program error.
    fn atomic_check(&mut self, id: TransferId) -> Result<bool, Option<Blocker>> {
        let t = &self.transfers[id];
        let src = t.src as usize;
        // Head-of-line at the sender: only the oldest unissued
        // long-protocol transfer of a node may claim resources.
        if t.issue_seq
            .is_some_and(|s| s != self.nodes[src].issue_cursor)
        {
            return Err(Some(Blocker::Issue(src)));
        }
        let links = self.transfers.links_of(t.links);
        if let Some(blocker) = self.router.atomic_blocker(t, links) {
            return Err(Some(blocker));
        }
        let (kind, dst) = (t.kind, t.dst as usize);
        match kind {
            TKind::Data { .. } => self
                .delivery_mode(id)
                .map_err(|()| self.err.is_none().then_some(Blocker::Delivery(dst))),
            _ => Ok(true),
        }
    }

    pub(crate) fn activate(&mut self, id: TransferId, direct: bool) {
        let t = &self.transfers[id];
        let (kind, src, dst, bytes, tag, duration) = (
            t.kind,
            t.src as usize,
            t.dst as usize,
            t.bytes,
            t.tag,
            t.duration,
        );
        let links = self.transfers.links_of(t.links);
        self.router.claim_atomic(id, t, links);
        // Receive-side bookkeeping.
        if matches!(kind, TKind::Data { .. }) {
            self.mark_delivery(id, direct);
            if !direct {
                // A transfer parked on delivery here with the same
                // (src, tag) would now fail with a program error instead
                // of waiting: let it see the new receive state.
                self.wakeups.wake(&self.transfers, Blocker::Delivery(dst));
            }
        }
        let t = &mut self.transfers[id];
        t.state = TState::Active;
        let (issue_seq, request_ns) = (t.issue_seq, t.request_ns);
        if let Some(s) = issue_seq {
            debug_assert_eq!(s, self.nodes[src].issue_cursor);
            self.nodes[src].issue_cursor = s + 1;
            self.wakeups.wake_issue(&self.transfers, src, s + 1);
        }
        if self.now > request_ns {
            let delay = self.now - request_ns;
            self.stats_blocked += 1;
            self.stats_blocked_ns += delay;
            self.stats_blocked_max = self.stats_blocked_max.max(delay);
        }
        self.queue.push(self.now + duration, EvKind::XferDone(id));
        self.trace_push(TraceKind::Started, src as u32, dst as u32, tag, bytes);
    }

    /// Record how an admitted data transfer will land at the receiver:
    /// directly into the posted buffer, or parked in the system buffer.
    pub(crate) fn mark_delivery(&mut self, id: TransferId, direct: bool) {
        let (src, dst, bytes, tag) = {
            let t = &self.transfers[id];
            (t.src, t.dst as usize, t.bytes, t.tag)
        };
        let key = (src, tag.0);
        if direct {
            self.nodes[dst].recvs.insert(key, RecvState::InFlightDirect);
        } else {
            self.nodes[dst].recvs.insert(
                key,
                RecvState::BufArriving {
                    posted_meanwhile: false,
                },
            );
            self.nodes[dst].buffer_in(bytes);
        }
    }

    // -- hold-and-wait claim policy ------------------------------------------

    /// Resource at claim step `idx` for a transfer: 0 = send port, then one
    /// slot per link of the route, then the receive port, then delivery.
    pub(crate) fn hw_advance(&mut self, id: TransferId) {
        loop {
            if self.err.is_some() || self.transfers[id].state != TState::Claiming {
                return;
            }
            let (kind, src, dst, nlinks, idx) = {
                let t = &self.transfers[id];
                (
                    t.kind,
                    t.src as usize,
                    t.dst as usize,
                    t.links.len(),
                    t.claim_idx as usize,
                )
            };
            if kind == TKind::Copy {
                // Copies only need the receive port.
                if idx == 0 {
                    if !self.router.hw_claim_recv_port(dst, id) {
                        return;
                    }
                    self.transfers[id].claim_idx = 1;
                }
                self.hw_activate(id);
                return;
            }
            if idx == 0 {
                // Send port.
                if !self.router.hw_claim_engine(src, id) {
                    return;
                }
                self.transfers[id].claim_idx = 1;
                continue;
            }
            if idx <= nlinks {
                let range = self.transfers[id].links;
                let link = self.transfers.links_of(range)[idx - 1];
                if !self.router.hw_claim_link(link, id) {
                    return;
                }
                self.transfers[id].claim_idx = idx as u32 + 1;
                // The circuit probe takes hop_ns to cross this link.
                if self.params.hop_ns > 0 {
                    self.queue
                        .push(self.now + self.params.hop_ns, EvKind::XferAdvance(id));
                    return;
                }
                continue;
            }
            if idx == nlinks + 1 {
                // Receive port.
                if !self.router.hw_claim_recv_port(dst, id) {
                    return;
                }
                self.transfers[id].claim_idx = idx as u32 + 1;
                continue;
            }
            // Delivery condition: the circuit is fully established and holds
            // everything while waiting (tree saturation / deadlock hazard).
            match self.delivery_mode(id) {
                Ok(direct) => {
                    self.mark_delivery(id, direct);
                    self.hw_activate(id);
                }
                Err(()) => {
                    if self.err.is_none() {
                        self.transfers[id].state = TState::WaitDelivery;
                        self.nodes[dst].delivery_waiters.push(id);
                    }
                }
            }
            return;
        }
    }

    pub(crate) fn hw_activate(&mut self, id: TransferId) {
        let t = &mut self.transfers[id];
        t.state = TState::Active;
        let duration = t.duration;
        if self.now > t.request_ns {
            let delay = self.now - t.request_ns;
            self.stats_blocked += 1;
            self.stats_blocked_ns += delay;
            self.stats_blocked_max = self.stats_blocked_max.max(delay);
        }
        let (src, dst, tag, bytes) = (t.src, t.dst, t.tag, t.bytes);
        self.queue.push(self.now + duration, EvKind::XferDone(id));
        self.trace_push(TraceKind::Started, src, dst, tag, bytes);
    }

    pub(crate) fn check_delivery_waiters(&mut self, node: usize) {
        if self.nodes[node].delivery_waiters.is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut self.nodes[node].delivery_waiters);
        for id in waiters {
            if self.transfers[id].state != TState::WaitDelivery {
                continue;
            }
            match self.delivery_mode(id) {
                Ok(direct) => {
                    self.transfers[id].state = TState::Claiming;
                    self.mark_delivery(id, direct);
                    self.hw_activate(id);
                }
                Err(()) => {
                    if self.err.is_some() {
                        return;
                    }
                    self.nodes[node].delivery_waiters.push(id);
                }
            }
        }
    }

    // -- completion -----------------------------------------------------------

    pub(crate) fn finish_transfer(&mut self, id: TransferId) {
        let (kind, src, dst, bytes, tag, duration) = {
            let t = &self.transfers[id];
            (
                t.kind,
                t.src as usize,
                t.dst as usize,
                t.bytes,
                t.tag,
                t.duration,
            )
        };
        self.transfers[id].state = TState::Done;
        self.trace_push(TraceKind::Finished, src as u32, dst as u32, tag, bytes);

        // Release resources and account busy time.
        match kind {
            TKind::Copy => {
                match self.params.ports {
                    PortModel::Unified => self.release_engine(dst, id),
                    PortModel::Split => self.release_recv_port(dst, id),
                }
                self.nodes[dst].stats.engine_busy_ns += duration;
            }
            TKind::Data { .. } => {
                self.release_engine(src, id);
                match self.params.ports {
                    PortModel::Unified => self.release_engine(dst, id),
                    PortModel::Split => self.release_recv_port(dst, id),
                }
                self.release_links(id, duration);
                self.nodes[src].stats.engine_busy_ns += duration;
                self.nodes[dst].stats.engine_busy_ns += duration;
            }
            TKind::Fused => {
                self.release_engine(src, id);
                self.release_engine(dst, id);
                self.release_links(id, duration);
                self.nodes[src].stats.engine_busy_ns += duration;
                self.nodes[dst].stats.engine_busy_ns += duration;
            }
        }

        // Deliver / update protocol state.
        match kind {
            TKind::Copy => {
                self.nodes[dst].buffer_used -= u64::from(bytes);
                self.stats_copies += 1;
                self.nodes[dst]
                    .recvs
                    .insert((src as u32, tag.0), RecvState::Delivered);
                self.nodes[dst].unfinished_recvs -= 1;
                self.trace_push(TraceKind::Copied, src as u32, dst as u32, tag, bytes);
                if self.nodes[dst].wake_receiver(src as u32, tag) {
                    self.schedule_resume(dst);
                }
                // Freed buffer space may unblock parked circuits or pending
                // transfers.
                self.check_delivery_waiters(dst);
                if self.params.claim == ClaimPolicy::Atomic {
                    self.wakeups.wake(&self.transfers, Blocker::Delivery(dst));
                    self.retry_pending();
                }
            }
            TKind::Data { exchange_part } => {
                let key = (src as u32, tag.0);
                let state = *self.nodes[dst]
                    .recvs
                    .get(&key)
                    .expect("active transfer must have a recv entry");
                match state {
                    RecvState::InFlightDirect => {
                        self.nodes[dst].recvs.insert(key, RecvState::Delivered);
                        self.nodes[dst].unfinished_recvs -= 1;
                        self.nodes[dst].stats.direct_bytes += u64::from(bytes);
                        self.nodes[dst].stats.recvs += 1;
                        if self.nodes[dst].wake_receiver(src as u32, tag) {
                            self.schedule_resume(dst);
                        }
                    }
                    RecvState::BufArriving { posted_meanwhile } => {
                        self.nodes[dst].stats.buffered_bytes += u64::from(bytes);
                        self.nodes[dst].stats.recvs += 1;
                        self.trace_push(TraceKind::Buffered, src as u32, dst as u32, tag, bytes);
                        if posted_meanwhile {
                            self.nodes[dst].recvs.insert(key, RecvState::Copying);
                            self.create_copy_transfer(dst as u32, src as u32, bytes, tag);
                        } else {
                            self.nodes[dst]
                                .recvs
                                .insert(key, RecvState::Buffered(bytes));
                        }
                    }
                    other => {
                        self.error(dst, format!("delivery into bad state {other:?}"));
                        return;
                    }
                }
                // Sender-side completion.
                self.nodes[src].outstanding_sends -= 1;
                if self.nodes[src].wake_sender(id) {
                    self.schedule_resume(src);
                }
                if exchange_part {
                    self.finish_exchange_part(src);
                    self.finish_exchange_part(dst);
                }
                if self.params.claim == ClaimPolicy::Atomic {
                    self.retry_pending();
                }
            }
            TKind::Fused => {
                self.nodes[src].stats.recvs += 1;
                self.nodes[dst].stats.recvs += 1;
                // The initiator (src) receives the reverse direction's
                // payload; the partner receives the forward one.
                self.nodes[src].stats.direct_bytes += u64::from(self.transfers[id].rev_bytes);
                self.nodes[dst].stats.direct_bytes += u64::from(bytes);
                self.finish_exchange_part(src);
                self.finish_exchange_part(dst);
                self.retry_pending();
            }
        }
        // The transfer's events have all fired, its resources are released,
        // and nothing holds its id any more: return the slot to the arena.
        self.transfers.recycle(id);
    }

    /// Resource release: hand the resource to the next hold-and-wait
    /// waiter, if any, and wake the atomic transfers parked on it.
    pub(crate) fn release_engine(&mut self, node: usize, id: TransferId) {
        if let Some(next) = self.router.release_engine(node, id) {
            self.queue.push(self.now, EvKind::XferAdvance(next));
        }
        self.wakeups.wake(&self.transfers, Blocker::Engine(node));
    }

    pub(crate) fn release_recv_port(&mut self, node: usize, id: TransferId) {
        if let Some(next) = self.router.release_recv_port(node, id) {
            self.queue.push(self.now, EvKind::XferAdvance(next));
        }
        self.wakeups.wake(&self.transfers, Blocker::RecvPort(node));
    }

    pub(crate) fn release_links(&mut self, id: TransferId, duration: u64) {
        let range = self.transfers[id].links;
        let mut woken = Vec::new();
        let links = self.transfers.links_of(range);
        self.router
            .release_links(id, links, duration, |next| woken.push(next));
        for next in woken {
            self.queue.push(self.now, EvKind::XferAdvance(next));
        }
        for &link in self.transfers.links_of(range) {
            self.wakeups
                .wake(&self.transfers, Blocker::Link(link.index()));
        }
    }

    pub(crate) fn finish_exchange_part(&mut self, node: usize) {
        if self.nodes[node].finish_exchange_part() {
            self.schedule_resume(node);
        }
    }
}
