//! Runtime layer: turns a communication matrix plus a schedule into
//! executable per-node [`simnet::Program`]s and runs experiments.
//!
//! This crate plays the role of the NX message-passing library and the
//! experiment driver in the paper:
//!
//! * [`compile`] implements the two communication schemes of Section 6 —
//!   **S1** (receiver posts its buffer, sends a 0-byte *ready* signal, the
//!   sender transmits on the signal; reciprocal pairs are fused into
//!   concurrent pairwise exchanges) and **S2** (post all receives up front,
//!   send everything in schedule order, confirm at the end). Asynchronous
//!   (AC) schedules compile to the post/send/confirm program of Figure 1.
//! * [`allgather`] implements the *concatenate* operation the paper uses to
//!   replicate every node's send vector before runtime scheduling
//!   (recursive doubling on the hypercube).
//! * [`ExperimentGrid`] reproduces the paper's measurement methodology:
//!   many independently seeded samples per configuration, cost = maximum
//!   time over processors, averaged over samples ([`CellResult`]). It
//!   declares whole experiment *grids* — scheduler columns × workload
//!   points × topologies — and executes every *(cell, sample)* task on a
//!   work-stealing pool ([`grid`]), with sample matrices generated once
//!   per `(workload, seed)` point and shared across scheduler columns.
//!   The repro binaries are thin renderers over [`GridResult`]s.
//! * [`ExperimentGrid::with_cache`] opts a grid into the [`commcache`]
//!   schedule cache: repeated *(matrix, topology, scheduler, seed)*
//!   requests are served from a sharded in-memory LRU (optionally backed
//!   by the persistent artifact store) instead of rescheduling. Caching
//!   changes cost, never results — grids are byte-identical with the
//!   cache on and off.
//! * [`backend`] makes the simulation substrate pluggable: a
//!   [`SimBackend`] trait with the exact event engine ([`DesBackend`])
//!   and a fast contention-aware occupancy model ([`AnalyticBackend`]),
//!   selectable per grid ([`ExperimentGrid::with_backend`]), per grid
//!   column ([`grid::GridColumn::with_backend`]), and via the
//!   `IPSC_BACKEND` environment variable in the repro binaries. The two
//!   are validated against each other by a differential conformance
//!   suite.
//!
//! ```
//! use commrt::{run_schedule, Scheme};
//! use commsched::rs_nl;
//! use hypercube::Hypercube;
//! use simnet::MachineParams;
//!
//! let cube = Hypercube::new(4);
//! let com = workloads::random_dense(16, 3, 1024, 7);
//! let schedule = rs_nl(&com, &cube, 7);
//! let report = run_schedule(&cube, &MachineParams::ipsc860(), &com, &schedule, Scheme::S1)
//!     .unwrap();
//! assert!(report.makespan_ns > 0);
//! ```

#![forbid(unsafe_code)]

pub mod allgather;
pub mod backend;
mod compile;
mod experiment;
pub mod grid;
mod report;
mod scheme;

pub use backend::{
    AnalyticBackend, BackendKind, BackendReport, ContentionStats, DesBackend, SimBackend,
};
pub use commcache::{CacheConfig, CacheStats, SchedCache};
pub use compile::{compile, compile_ac_send_detect, run_schedule, run_schedule_traced};
pub use experiment::CellResult;
pub use grid::{ExperimentGrid, GridResult, WorkloadPoint};
pub use report::{
    read_json, write_csv, write_grid_json, write_grid_markdown, write_json, CellRecord,
};
pub use scheme::Scheme;
pub use simnet::{CostModelError, LinkCostModel};
