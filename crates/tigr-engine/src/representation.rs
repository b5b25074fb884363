//! Graph representations the engine can schedule over.

use std::fmt;

use tigr_core::{OnTheFlyMapper, TransformedGraph, VirtualGraph};
use tigr_graph::Csr;

use crate::mapping::Mapping;

/// The graph form a kernel is launched against — the x-axis of Figure 13.
pub enum Representation<'a> {
    /// The untouched CSR, one thread per node: the paper's `baseline`.
    Original(&'a Csr),
    /// A physically transformed graph (`Tigr-UDT` when built with
    /// [`tigr_core::udt_transform`]), one thread per (possibly split) node.
    Physical(&'a TransformedGraph),
    /// The virtual node array over the untouched CSR: `Tigr-V` for a
    /// consecutive overlay, `Tigr-V+` for a coalesced one. One thread per
    /// virtual node.
    Virtual {
        /// The physical graph (value propagation layer).
        graph: &'a Csr,
        /// The virtual overlay (scheduling layer).
        overlay: &'a VirtualGraph,
    },
    /// Dynamic mapping reasoning (§4.1's second design): edge blocks of
    /// `K` resolved at kernel time, zero mapping storage.
    OnTheFly {
        /// The physical graph.
        graph: &'a Csr,
        /// The block mapper.
        mapper: OnTheFlyMapper,
    },
}

impl<'a> Representation<'a> {
    /// The natural representation of a [`tigr_core::PreparedGraph`]:
    /// `Physical` when a split transform was prepared, `Virtual` when an
    /// overlay was, `Original` otherwise.
    pub fn from_prepared(p: &'a tigr_core::PreparedGraph) -> Self {
        if let Some(t) = p.transformed() {
            Representation::Physical(t)
        } else if let Some(ov) = p.overlay() {
            Representation::Virtual {
                graph: p.graph(),
                overlay: ov,
            }
        } else {
            Representation::Original(p.graph())
        }
    }

    /// The CSR whose edges the kernels walk.
    pub fn graph(&self) -> &'a Csr {
        match self {
            Representation::Original(g) => g,
            Representation::Physical(t) => t.graph(),
            Representation::Virtual { graph, .. } => graph,
            Representation::OnTheFly { graph, .. } => graph,
        }
    }

    /// Number of value slots (the size of the per-node value array).
    pub fn num_value_slots(&self) -> usize {
        self.graph().num_nodes()
    }

    /// Short label for reports ("original", "physical", "virtual",
    /// "virtual+", "otf").
    pub fn label(&self) -> &'static str {
        match self {
            Representation::Original(_) => "original",
            Representation::Physical(_) => "physical",
            Representation::Virtual { overlay, .. } => {
                if overlay.is_coalesced() {
                    "virtual+"
                } else {
                    "virtual"
                }
            }
            Representation::OnTheFly { .. } => "otf",
        }
    }

    /// Simulated device-memory footprint in bytes: the CSR plus any
    /// overlay structures, plus one 4-byte value slot per node — the
    /// quantity checked against the 8 GB budget in Table 4.
    pub fn device_footprint_bytes(&self) -> u64 {
        let values = (self.num_value_slots() * 4) as u64;
        let base = self.graph().csr_size_bytes() as u64;
        let overlay = match self {
            Representation::Virtual { overlay, .. } => overlay.size_bytes() as u64,
            _ => 0,
        };
        base + overlay + values
    }
}

impl fmt::Debug for Representation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Representation")
            .field("kind", &self.label())
            .field("nodes", &self.graph().num_nodes())
            .field("edges", &self.graph().num_edges())
            .field("threads", &Mapping::of(self).full_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
    use tigr_graph::generators::star_graph;

    #[test]
    fn labels_and_threads() {
        let g = star_graph(101);
        assert_eq!(Representation::Original(&g).label(), "original");
        assert_eq!(
            Mapping::of(&Representation::Original(&g)).full_threads(),
            101
        );

        let t = udt_transform(&g, 10, DumbWeight::Zero);
        let rep = Representation::Physical(&t);
        assert_eq!(rep.label(), "physical");
        assert!(Mapping::of(&rep).full_threads() > 101);

        let ov = VirtualGraph::new(&g, 10);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        assert_eq!(rep.label(), "virtual");
        assert_eq!(Mapping::of(&rep).full_threads(), ov.num_virtual_nodes());

        let ovc = VirtualGraph::coalesced(&g, 10);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ovc,
        };
        assert_eq!(rep.label(), "virtual+");

        let mapper = OnTheFlyMapper::new(&g, 10);
        let rep = Representation::OnTheFly { graph: &g, mapper };
        assert_eq!(rep.label(), "otf");
        assert_eq!(Mapping::of(&rep).full_threads(), 10);
    }

    #[test]
    fn virtual_footprint_exceeds_original() {
        let g = star_graph(101);
        let ov = VirtualGraph::new(&g, 10);
        let orig = Representation::Original(&g).device_footprint_bytes();
        let virt = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        }
        .device_footprint_bytes();
        assert!(virt > orig);
        assert_eq!(virt - orig, ov.size_bytes() as u64);
    }
}
