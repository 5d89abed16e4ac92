//! # schedd — the scheduling daemon
//!
//! The paper's schedulers run at *runtime*, right before the
//! communication they organize, so for a fleet the dominant costs are
//! compile latency and **repeated, near-identical requests**. `schedd`
//! packages the whole stack — registry schedulers, the commcache
//! compilation cache, and both simulation backends — as a long-running
//! service: clients submit `(matrix, topology, scheduler, scheme, seed)`
//! over a framed Unix/TCP socket and get back the compiled schedule
//! plus a simulated cost estimate.
//!
//! The daemon is a pipeline of separately-testable stages:
//!
//! ```text
//! decode ─ admission ─ dedup/batch ─ compile ─ simulate ─ encode
//! (protocol) (server)   (dedup)    (commcache) (commrt)  (protocol)
//! ```
//!
//! * [`protocol`] — the framed wire format: length-prefixed,
//!   checksummed, hardened against truncation/corruption/hostile
//!   headers with typed errors.
//! * [`queue`] — bounded MPMC job queue; full = typed `Overloaded`
//!   backpressure, closed = graceful drain.
//! * [`dedup`] — single-flight coalescing so concurrent identical
//!   fingerprints run **one** compile.
//! * [`service`] — the transport-free pipeline core ([`ServiceState`]),
//!   also callable in-process (that is how the conformance suite pins
//!   daemon responses byte-identical to library calls).
//! * [`net`] / [`server`] / [`client`] — sockets, the threaded daemon
//!   shell, and the blocking (pipelining-capable) client.
//!
//! Binary: `schedd` (the daemon). Its clients live in `repro_bench`:
//! `schedload` (duplicate-heavy load generator writing
//! `BENCH_schedd_load.json`) and `schedctl`'s
//! `submit`/`bench`/`stats`/`shutdown` verbs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod dedup;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use client::{Client, ClientError};
pub use dedup::{FlightStats, SingleFlight};
pub use net::{Endpoint, Stream};
pub use protocol::{
    read_frame, write_frame, DaemonStats, DecodeError, ErrorCode, ErrorReply, FrameError,
    ProtocolLimits, Request, Response, SchemeChoice, SubmitDeltaRequest, SubmitReply,
    SubmitRequest,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerHandle};
pub use service::{ServiceConfig, ServiceError, ServiceState};
pub use simnet::{CostModelError, LinkCostModel};
pub use topo::TopologySpec;
