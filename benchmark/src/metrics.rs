//! The metric tables: names, units, directions, bounds.
//!
//! `BENCHMARK.json` at the repository root repeats these; the unit test
//! at the bottom keeps the two from drifting apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric: what a user of the system waits for or pays.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The five end-to-end metrics; every workload reports all five,
/// measured with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "alt_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: one layer's work, time, or waste.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement (read only by the test that holds this
    /// table against `BENCHMARK.json`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric a traced run prints, grouped by layer.
pub const PER_LAYER: [PerLayer; 74] = [
    // tigr-graph
    lower("graph.rmat_gen_ms", "ms"),
    lower("graph.transpose_ms", "ms"),
    lower("graph.open_mapped_lazy_us", "us"),
    lower("graph.open_mapped_eager_ms", "ms"),
    lower("graph.open_decoded_ms", "ms"),
    // tigr-core::{store, virtual_graph, split}
    lower("store.prepare_miss_ms", "ms"),
    lower("store.prepare_hit_ms", "ms"),
    lower("store.artifact_mb", "MB"),
    lower("store.work_items", "count"),
    lower("virtual.build_ms", "ms"),
    lower("virtual.nodes", "count"),
    lower("split.udt_ms", "ms"),
    lower("split.udt_nodes_added", "count"),
    // tigr-core::mutation
    lower("wal.append512_ms", "ms"),
    lower("wal.bytes_per_op", "count"),
    lower("delta.apply_us_per_op", "us"),
    lower("mutable.apply512_ms", "ms"),
    lower("mutable.snapshot_ns", "ns"),
    lower("mutable.compact_ms", "ms"),
    lower("mutable.delta_edges_at_compact", "count"),
    // tigr-engine
    lower("engine.seq_query_ms", "ms"),
    higher("engine.seq_medges_per_s", "Medges/s"),
    lower("engine.edges_touched", "count"),
    lower("engine.iterations", "count"),
    lower("engine.seq_pr_ms", "ms"),
    lower("engine.batch8_lane_ms", "ms"),
    lower("engine.pool2_query_ms", "ms"),
    lower("engine.warpsim_host_ms", "ms"),
    higher("engine.warpsim_mcycles_per_host_s", "Mcycles/s"),
    // tigr-sim (exact counts of the modelled GPU)
    lower("sim.cycles_base", "count"),
    lower("sim.cycles_v", "count"),
    lower("sim.cycles_vplus", "count"),
    lower("sim.cycles_udt", "count"),
    higher("sim.warp_eff_base", "ratio"),
    higher("sim.warp_eff_vplus", "ratio"),
    higher("sim.warp_eff_udt", "ratio"),
    lower("sim.transactions_base", "count"),
    lower("sim.transactions_v", "count"),
    lower("sim.transactions_vplus", "count"),
    lower("sim.instructions_vplus", "count"),
    higher("sim.speedup_vplus", "ratio"),
    higher("sim.speedup_udt", "ratio"),
    lower("sim.parallel_cycle_drift", "ratio"),
    // tigr-server::{json, protocol}
    lower("json.parse_small_us", "us"),
    lower("json.parse_values_ms", "ms"),
    higher("json.parse_mb_per_s", "MB/s"),
    lower("protocol.encode_request_us", "us"),
    lower("protocol.decode_request_us", "us"),
    lower("protocol.decode_mutate512_ms", "ms"),
    lower("protocol.encode_values_ms", "ms"),
    lower("protocol.decode_values_ms", "ms"),
    lower("protocol.values_reply_kb", "count"),
    // tigr-server::{cache, queue}
    lower("cache.get_hit_us", "us"),
    lower("cache.insert_evict_us", "us"),
    higher("cache.hit_ratio", "ratio"),
    lower("queue.push_pop_us", "us"),
    lower("queue.pop_batch8_us", "us"),
    // tigr-server::server and the wire
    lower("server.submit_cold_ms", "ms"),
    lower("server.overhead_ms", "ms"),
    lower("server.submit_hit_small_us", "us"),
    lower("server.submit_hit_values_us", "us"),
    higher("server.batch_occupancy", "ratio"),
    lower("server.formation_wait_us", "us"),
    lower("server.rejected", "count"),
    lower("server.dirty_over_clean", "ratio"),
    lower("wire.unix_small_us", "us"),
    lower("wire.tcp_small_ms", "ms"),
    lower("wire.unix_values_ms", "ms"),
    lower("wire.tcp_values_ms", "ms"),
    lower("wire.tcp_overhead_ms", "ms"),
    lower("server.query_tail_ms", "ms"),
    lower("server.open60_p90_ms", "ms"),
    lower("server.open60_sched_lag_ms", "ms"),
    // the harness itself
    higher("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_server::json::{parse, Json};

    /// The spelling `BENCHMARK.json` uses.
    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    /// `BENCHMARK.json` must list exactly these metrics with these
    /// units, directions, and bounds (skipped where the harness is
    /// checked out without the repository root).
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let Ok(text) = std::fs::read_to_string("../BENCHMARK.json") else {
            return;
        };
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .to_vec()
        };

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), label(m.better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), label(m.better));
        }
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| field(w, "name").to_owned())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
