//! # ipsc-sched
//!
//! Scheduling of unstructured (all-to-many personalized) communication on a
//! circuit-switched hypercube — a faithful reproduction of
//! *Wang & Ranka, "Scheduling of Unstructured Communication on the Intel
//! iPSC/860" (1994)* as a Rust workspace.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`hypercube`] — the topology abstraction and the paper's machines:
//!   hypercubes under e-cube routing and 2-D meshes under XY routing.
//! * [`topo`] — the pluggable fabric family beyond the paper: k-ary
//!   n-cube tori (dimension-ordered shortest-direction routing) and
//!   k-ary fat-trees (deterministic up-down routing), plus the
//!   [`topo::TopologySpec`] kind-string grammar (`"torus:4x4x4"`,
//!   `"fattree:k=8"`) used by CLIs and the daemon.
//! * [`simnet`] — a discrete-event simulator of the iPSC/860's
//!   circuit-switched network (the hardware substitute).
//! * [`commsched`] — the paper's contribution: decomposing a communication
//!   matrix into contention-free partial permutations (AC, LP, RS_N, RS_NL).
//! * [`commcache`] — schedule compilation cache: canonical fingerprints, a
//!   sharded in-memory LRU, and a persistent on-disk artifact store (the
//!   paper's amortization argument as infrastructure).
//! * [`workloads`] — generators for the paper's random test sets and richer
//!   irregular patterns.
//! * [`commrt`] — the runtime layer: compiles schedules + protocols (S1/S2)
//!   into per-node programs and runs experiments on pluggable simulation
//!   backends (exact discrete-event, or a fast contention-aware analytic
//!   model — `IPSC_BACKEND`).
//! * [`schedd`] — a scheduling daemon: serves compile+simulate requests
//!   over a checksummed framed protocol (Unix/TCP), coalescing identical
//!   in-flight requests onto one compile and streaming schedules back.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use ipsc_sched::prelude::*;
//!
//! let cube = Hypercube::new(6);                      // 64 nodes
//! let com = workloads::random_dense(64, 8, 1024, 42); // d=8, 1 KiB messages
//! let schedule = rs_nl(&com, &cube, 7);              // avoid node+link contention
//! let report = run_schedule(&cube, &MachineParams::ipsc860(), &com, &schedule, Scheme::S1)
//!     .expect("simulation succeeds");
//! println!("communication cost: {:.2} ms", report.makespan_ms());
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use commcache;
pub use commrt;
pub use commsched;
pub use hypercube;
pub use schedd;
pub use simnet;
pub use topo;
pub use workloads;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use commcache::{ArtifactStore, CacheConfig, CacheStats, Fingerprint, SchedCache};
    pub use commrt::{
        run_schedule, AnalyticBackend, BackendKind, BackendReport, DesBackend, ExperimentGrid,
        GridResult, Scheme, SimBackend, WorkloadPoint,
    };
    pub use commsched::{
        ac, greedy, lp, rs_n, rs_nl, validate_schedule, CommMatrix, Schedule, ScheduleQuality,
        SchedulerKind,
    };
    pub use hypercube::{Hypercube, Mesh2d, NodeId, RoutingProperties, Topology};
    pub use simnet::{simulate, LinkCostModel, MachineParams, SimReport};
    pub use topo::{FatTree, TopologySpec, Torus};
    pub use workloads;
    pub use workloads::Generator;
}
