//! # Tigr — Transforming Irregular Graphs for GPU-Friendly Graph Processing
//!
//! A Rust reproduction of the ASPLOS 2018 paper by Nodehi Sabet, Qiu, and
//! Zhao. This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `tigr-graph` | CSR storage, loaders, power-law generators, dataset analogs, statistics, oracles |
//! | [`sim`] | `tigr-sim` | deterministic GPU SIMD simulator (warps, coalescing, warp efficiency) |
//! | [`core`] | `tigr-core` | split transformations (clique/circular/star/**UDT**), dumb weights, **virtual node arrays**, edge-array coalescing, correctness checks |
//! | [`engine`] | `tigr-engine` | push/pull vertex-centric engine, worklist + relaxation, BFS/CC/SSSP/SSWP/BC/PR |
//! | [`baselines`] | `tigr-baselines` | Maximum Warp, CuSha, Gunrock re-implementations |
//! | [`server`] | `tigr-server` | concurrent query serving over prepared graphs (TCP/Unix socket) |
//!
//! The most common items are also re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use tigr::{Engine, NodeId, Representation, VirtualGraph};
//! use tigr::engine::Pipeline;
//! use tigr::graph::generators::star_graph;
//!
//! // A power-law-extreme input: one node with 10,000 neighbors.
//! let g = star_graph(10_001);
//!
//! // Virtually split every high-degree node down to K = 10 (Tigr-V+).
//! let overlay = VirtualGraph::coalesced(&g, 10);
//!
//! let engine = Engine::default();
//! let (bfs, src) = (Pipeline::bfs(), Some(NodeId::new(0)));
//! let baseline = engine.run_pipeline(&Representation::Original(&g), &bfs, src)?;
//! let tigr = engine.run_pipeline(
//!     &Representation::Virtual { graph: &g, overlay: &overlay },
//!     &bfs,
//!     src,
//! )?;
//!
//! // Identical results, far better SIMD utilization.
//! assert_eq!(baseline.values, tigr.values);
//! assert!(tigr.report.warp_efficiency() > baseline.report.warp_efficiency());
//! assert!(tigr.report.total_cycles() < baseline.report.total_cycles());
//! # Ok::<(), tigr::engine::EngineError>(())
//! ```

#![warn(missing_docs)]

pub use tigr_baselines as baselines;
pub use tigr_core as core;
pub use tigr_engine as engine;
pub use tigr_graph as graph;
pub use tigr_server as server;
pub use tigr_sim as sim;

pub use tigr_baselines::Baseline;
pub use tigr_core::{
    circular_transform, clique_transform, recursive_star_transform, star_transform, udt_transform,
    DumbWeight, TransformedGraph, VirtualGraph,
};
pub use tigr_engine::{
    Engine, FrontierMode, MonotoneProgram, PushOptions, Representation, SyncMode,
};
pub use tigr_graph::{Csr, CsrBuilder, Edge, NodeId, Weight};
pub use tigr_sim::{GpuConfig, GpuSimulator, SimReport};
