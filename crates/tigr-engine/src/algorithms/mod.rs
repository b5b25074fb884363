//! The six graph analytics of the paper's evaluation (§6.1): BFS, CC,
//! SSSP, SSWP, BC, and PR.
//!
//! The four monotone analytics are [`crate::MonotoneProgram`]s run by
//! [`crate::run_monotone`] (or [`crate::Engine`]); PageRank and
//! betweenness centrality have dedicated multi-kernel drivers here.

pub mod bc;
pub mod pr;
