//! Re-implementations of the GPU graph frameworks the paper compares
//! against (Table 2): Maximum Warp, CuSha, and Gunrock.
//!
//! A framework here is a *work mapping* — which simulated thread walks
//! which edges, and what it loads — plus its device footprint and OOM
//! rule ([`Baseline::footprint_bytes`]). Each module feeds its mapping
//! to one shared loop: a monotone analytic's iteration to the crate's
//! fixpoint loop, PageRank's scatter to the engine's
//! [`tigr_engine::pr::power_iterate`]. So the frameworks compute real
//! results with the same programs as [`tigr_engine`] on the shared
//! [`tigr_sim`] simulator while paying their characteristic costs:
//!
//! * [`mw`] — virtual warps of width 2–32 cooperating per node; no
//!   worklist; no memory overhead (and hence no OOMs, as in Table 4).
//! * [`cusha`] — G-Shards / Concatenated-Windows shard processing:
//!   perfectly coalesced edge-parallel sweeps, but a value-refresh
//!   scatter pass per iteration and a ~2× edge-storage footprint that
//!   reproduces the paper's OOM entries on the largest graphs.
//! * [`gunrock`] — frontier-based advance/filter with edge-parallel load
//!   balancing and sizable frontier buffers.
//!
//! [`Baseline`] is the uniform dispatcher the benchmark harness uses to
//! fill Table 4's columns.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
pub mod cusha;
pub mod gunrock;
pub mod hardwired;
pub mod mw;

pub use common::{Baseline, CushaMode, FrameworkRun};
pub use hardwired::{delta_stepping_sssp, hooking_cc};
