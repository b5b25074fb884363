//! The reference every served answer is checked against: a direct
//! `Engine` run on the deterministic sequential plan, outside the server.

use tigr_core::PreparedGraph;
use tigr_engine::{Algo, BackendKind, Engine, Pipeline};
use tigr_graph::NodeId;
use tigr_server::checksum;

/// What a correct reply to `(algo, source)` must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Wire checksum of the value array.
    pub checksum: u64,
    /// Value-array length.
    pub nodes: u64,
}

/// Runs `algo` from `source` over `prepared` with the sequential push
/// plan (the plan `kernel_threads = 1` servers promise byte-equality
/// with) and returns the values.
pub fn values(
    prepared: &PreparedGraph,
    algo: Algo,
    source: Option<u32>,
) -> Result<Vec<u32>, String> {
    let pipeline = Pipeline::for_algo(algo, None).map_err(|e| e.to_string())?;
    let out = Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_device_memory(u64::MAX)
        .run_prepared_pipeline(prepared, &pipeline, source.map(NodeId::new))
        .map_err(|e| e.to_string())?;
    Ok(out.values)
}

/// [`values`], reduced to what a reply can be compared on.
pub fn expected(
    prepared: &PreparedGraph,
    algo: Algo,
    source: Option<u32>,
) -> Result<Expected, String> {
    let values = values(prepared, algo, source)?;
    Ok(Expected {
        checksum: checksum(&values),
        nodes: values.len() as u64,
    })
}
