//! Resource-indexed wakeups for the atomic claim policy.
//!
//! A pending transfer that fails its feasibility check is *parked* under
//! the first blocker the check found, in check order: the sender's issue
//! cursor, the engine or send port at its source, the engine or receive
//! port at its destination, the first busy link of its route, and
//! delivery at its destination (system buffer full). Releasing a
//! resource moves only that resource's waiters to the *ready* set, which
//! the claim pass drains oldest-first (by the age stamped when the
//! transfer entered the pending set).
//!
//! This reaches the same fixed point as rescanning every pending
//! transfer after every completion: activation only *consumes*
//! resources, so a transfer that was not woken is still blocked where it
//! parked. The one exception is the issue-cursor advance, and the
//! transfer that advances it holds the sender's engine, so the woken
//! successor parks again. The age-ordered pass therefore activates the
//! same transfers in the same order as the full scan.
//!
//! Waiter lists are intrusive FIFOs threaded through the transfers'
//! arena slots ([`Transfer::wait_next`]), and their heads live in one
//! [`SparseMap`] keyed by blocker: the index costs memory proportional
//! to the blocked traffic, never to the fabric's link count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::arena::TransferArena;
use crate::engine::queue::TransferId;
use crate::engine::router::Transfer;
use crate::sparse::{MapMode, SparseMap};

/// End-of-list marker for [`Transfer::wait_next`].
pub(crate) const NIL: u32 = u32::MAX;

/// The first condition a pending transfer's atomic claim failed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Blocker {
    /// An older long-protocol transfer of this sender has not started.
    Issue(usize),
    /// This node's unified engine (or its send port in split mode).
    Engine(usize),
    /// This node's receive port (split mode only).
    RecvPort(usize),
    /// This directed link.
    Link(usize),
    /// This node's system buffer has no room and nothing is posted.
    Delivery(usize),
}

/// Head and tail of one intrusive waiter FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WaitList {
    head: u32,
    tail: u32,
}

impl WaitList {
    const EMPTY: WaitList = WaitList {
        head: NIL,
        tail: NIL,
    };
}

/// The atomic policy's pending set: parked waiters indexed by blocker,
/// plus the age-ordered ready set.
pub(crate) struct Wakeups {
    nodes: usize,
    lists: SparseMap<WaitList>,
    ready: BinaryHeap<Reverse<(u64, TransferId)>>,
    next_age: u64,
}

impl Wakeups {
    pub(crate) fn new(nodes: usize, link_count: usize) -> Self {
        Wakeups {
            nodes,
            lists: SparseMap::new(4 * nodes + link_count, WaitList::EMPTY, MapMode::Auto),
            ready: BinaryHeap::new(),
            next_age: 0,
        }
    }

    fn key(&self, b: Blocker) -> usize {
        match b {
            Blocker::Issue(node) => node,
            Blocker::Engine(node) => self.nodes + node,
            Blocker::RecvPort(node) => 2 * self.nodes + node,
            Blocker::Delivery(node) => 3 * self.nodes + node,
            Blocker::Link(link) => 4 * self.nodes + link,
        }
    }

    /// A transfer enters the pending set: stamp its age and make it ready.
    pub(crate) fn enqueue(&mut self, arena: &mut TransferArena, id: TransferId) {
        arena[id].age = self.next_age;
        self.next_age += 1;
        self.ready.push(Reverse((arena[id].age, id)));
    }

    /// The oldest ready transfer.
    pub(crate) fn pop_ready(&mut self) -> Option<TransferId> {
        self.ready.pop().map(|Reverse((_, id))| id)
    }

    /// Park `id` at the tail of `b`'s waiter list.
    pub(crate) fn park(&mut self, arena: &mut TransferArena, b: Blocker, id: TransferId) {
        let key = self.key(b);
        let list = self.lists.slot(key);
        arena[id].wait_next = NIL;
        if list.tail == NIL {
            list.head = id as u32;
        } else {
            let tail = list.tail as usize;
            // Issue waiters arrive in issue order (see `wake_issue`).
            debug_assert!(
                !matches!(b, Blocker::Issue(_)) || arena[tail].issue_seq < arena[id].issue_seq
            );
            arena[tail].wait_next = id as u32;
        }
        list.tail = id as u32;
    }

    /// `b` was released: every waiter parked on it becomes ready.
    pub(crate) fn wake(&mut self, arena: &TransferArena, b: Blocker) {
        let key = self.key(b);
        let mut next = self.lists.get(key).head;
        if next == NIL {
            return;
        }
        *self.lists.slot(key) = WaitList::EMPTY;
        while next != NIL {
            let t: &Transfer = &arena[next as usize];
            self.ready.push(Reverse((t.age, next as usize)));
            next = t.wait_next;
        }
    }

    /// `node`'s issue cursor advanced to `cursor`: wake the transfer with
    /// that issue number if it is parked. A transfer parks on its issue
    /// cursor only at its first check (once it passes, it keeps passing
    /// until it starts), and first checks run in pending-entry order,
    /// which is issue order per sender; so the list is sorted and only
    /// its head can match.
    pub(crate) fn wake_issue(&mut self, arena: &TransferArena, node: usize, cursor: u64) {
        let key = self.key(Blocker::Issue(node));
        let mut list = self.lists.get(key);
        if list.head == NIL {
            return;
        }
        let head = &arena[list.head as usize];
        if head.issue_seq != Some(cursor) {
            return;
        }
        self.ready.push(Reverse((head.age, list.head as usize)));
        list.head = head.wait_next;
        if list.head == NIL {
            list.tail = NIL;
        }
        *self.lists.slot(key) = list;
    }

    /// Approximate heap footprint in bytes (the scale bench's RSS proxy).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.lists.resident_bytes()
            + self.ready.capacity() * std::mem::size_of::<Reverse<(u64, TransferId)>>()
    }
}
