//! Vertex-centric graph-processing engine over the GPU simulator.
//!
//! This crate is the paper's "lightweight GPU graph processing engine"
//! (§5): one monotone driver ([`run_monotone`]) with active-frontier
//! worklist scheduling (dense bitmap / sparse compacted list,
//! density-switched — see [`frontier`]), synchronization relaxation, and
//! a per-iteration push/pull direction choice, able to schedule over
//! four representations — the original CSR, a physically split graph
//! (`Tigr-UDT`), a virtual node array (`Tigr-V` / `Tigr-V+`), and dynamic
//! on-the-fly mapping — plus the six analytics of the evaluation: BFS,
//! CC, SSSP, SSWP, BC, and PR.
//!
//! Everything executes for real on host memory. Every driver is generic
//! over a [`Launcher`]: on the [`tigr_sim`] simulator it accounts
//! warp-lockstep timing, coalescing, and warp efficiency; on
//! [`HostLoop`] the same bodies run as plain loops. [`Engine`] picks the
//! executor from the plan's [`BackendKind`].
//!
//! # Example
//!
//! ```
//! use tigr_engine::{Engine, Pipeline, Representation};
//! use tigr_core::VirtualGraph;
//! use tigr_graph::{generators::star_graph, NodeId};
//!
//! let g = star_graph(1001);                    // a 1000-degree hub
//! let overlay = VirtualGraph::coalesced(&g, 10);
//! let engine = Engine::default();
//!
//! let (bfs, src) = (Pipeline::bfs(), Some(NodeId::new(0)));
//! let baseline = engine.run_pipeline(&Representation::Original(&g), &bfs, src)?;
//! let tigr = engine.run_pipeline(
//!     &Representation::Virtual { graph: &g, overlay: &overlay },
//!     &bfs,
//!     src,
//! )?;
//! assert_eq!(baseline.values, tigr.values);    // same results...
//! // ...but Tigr keeps the SIMD lanes busy:
//! assert!(tigr.report.warp_efficiency() > baseline.report.warp_efficiency());
//! # Ok::<(), tigr_engine::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod algorithms;
pub mod batch;
pub mod frontier;
pub mod kernel;
pub mod mapping;
mod monotone;
pub mod operators;
pub mod plan;
mod program;
mod pull;
mod push;
mod representation;
mod runner;
mod state;

pub use algorithms::bc::{self, BcOutput};
pub use algorithms::pr::{self, PrMode, PrOptions, PrOutput};
pub use batch::{run_batch_push, BatchArena, BatchLane, BatchOutput, BatchProgram};
pub use frontier::{Frontier, FrontierBuilder, FrontierMode, FrontierRep, DENSE_FRACTION};
pub use kernel::{
    csr_edges, pull_gather, push_relax, relax_kernel, slice_edges, AccessMirror, EdgeFlow, EdgeRef,
    GatherFilter, HostLoop, Launcher, NoMirror,
};
pub use mapping::{Active, EdgeWalk, Mapping};
pub use monotone::{run_monotone, MonotoneOutput, PullSide};
pub use operators::{Algo, ComputeStep, Pipeline, PipelineOutput, PipelineSpecError};
pub use plan::{
    default_threads, AutoOptions, BackendKind, CpuOptions, Direction, ExecutionPlan, PlanError,
};
pub use program::{EdgeOp, InitKind, MonotoneProgram};
pub use push::{PushOptions, SyncMode};
pub use representation::Representation;
pub use runner::{Engine, EngineError};
pub use state::{AtomicFloats, AtomicValues, Combine, Fold, KeepMax, KeepMin, ValueCells};
