//! Discrete-event simulator of a circuit-switched multicomputer network,
//! modeled on the Intel iPSC/860 hypercube.
//!
//! The Wang & Ranka (1994) experiments ran on a physical 64-node iPSC/860.
//! This crate is the substitute substrate: it reproduces the five machine
//! behaviours that the paper's results hinge on:
//!
//! 1. **Latency + bandwidth cost** — a transfer of `M` bytes costs
//!    `tau + M * phi` ([`MachineParams`]), with distinct short/long message
//!    protocols switching at 100 bytes (the cliff visible in the paper's
//!    Figures 10 and 11).
//! 2. **Node contention** — each node owns a single communication engine:
//!    concurrent transfers at one node serialize (the paper's Observation 1:
//!    a send and a receive to/from *different* partners rarely proceed
//!    concurrently).
//! 3. **Link contention** — a transfer pre-claims its whole deterministic
//!    route (circuit switching); circuits sharing a directed channel cannot
//!    overlap in time.
//! 4. **Pairwise exchange** — two nodes that synchronize and exchange
//!    messages transfer concurrently in both directions
//!    ([`Op::Exchange`]), the feature LP and RS_NL exploit.
//! 5. **Bounded system buffers** — unconfirmed messages consume buffer
//!    space; senders block when the receiver's buffer is full, which can
//!    deadlock (Section 3 of the paper). The simulator detects and reports
//!    this instead of hanging.
//!
//! Execution is fully deterministic: same programs, same parameters, same
//! report — ties in the event queue break on a monotone sequence number.
//!
//! # Engine layout
//!
//! The engine is a module tree under `engine/`, tied together by the thin
//! driver `sim.rs`:
//!
//! * `engine/queue.rs` — the simulation clock: a deterministic indexed
//!   4-ary min-heap event queue (tie-stable, allocation-light on the
//!   push/pop hot path).
//! * `engine/node.rs` — per-node protocol state (program progress,
//!   blocking conditions, receive states, buffer accounting).
//! * `engine/router.rs` — circuit reservation: transfers and the
//!   occupancy tables of engines, receive ports, and directed links,
//!   with FIFO wait queues for the hold-and-wait policy.
//! * `engine/claim.rs` — the transfer lifecycle: creation, the atomic
//!   and hold-and-wait claim policies, delivery, and completion.
//! * `engine/wakeup.rs` — the atomic policy's pending set: blocked
//!   transfers parked under their first blocker, woken on its release.
//! * `sim.rs` — the event loop, per-node program execution, statistics,
//!   and deadlock detection.
//!
//! # Example
//!
//! ```
//! use hypercube::{Hypercube, NodeId};
//! use simnet::{simulate, MachineParams, Program, Tag};
//!
//! let cube = Hypercube::new(1); // two nodes
//! let params = MachineParams::ipsc860();
//!
//! let mut sender = Program::builder();
//! sender.send(NodeId(1), 1024, Tag(0));
//! let mut receiver = Program::builder();
//! receiver.post_recv(NodeId(0), Tag(0));
//! receiver.wait_recv(NodeId(0), Tag(0));
//!
//! let report = simulate(&cube, &params, vec![sender.build(), receiver.build()]).unwrap();
//! assert!(report.makespan_ns > 0);
//! ```

#![forbid(unsafe_code)]

pub mod analytic;
pub mod cost;
mod engine;
mod params;
mod program;
mod sim;
mod sparse;
mod stats;
mod trace;

pub use analytic::{LoadModel, PoolMode, TransferSpec};
pub use cost::{splitmix64, CostModelError, LinkCost, LinkCostModel};
pub use params::{ClaimPolicy, MachineParams, PortModel};
pub use program::{Op, Program, ProgramBuilder, Tag};
pub use sim::{simulate, simulate_with};
pub use stats::{NodeStats, SimError, SimReport, SimStats};
pub use trace::{TraceEvent, TraceKind};
