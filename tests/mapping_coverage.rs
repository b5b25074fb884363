//! Coverage of the work-mapping walk: under every mapping — rows of
//! width 1, 2, 4 and 32, a UDT split's rows, consecutive and coalesced
//! overlays and on-the-fly blocks at several `K` — and under a full
//! sweep, a sparse active list and a dense active bitmap, every edge of
//! an active slot is handed to exactly one thread, exactly once, under
//! that slot, and no edge of an inactive slot is handed out at all. The
//! golden digests pin what the sweeps charge; this pins what they cover.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::collection::vec;
use proptest::prelude::*;

use tigr::core::{DumbWeight, OnTheFlyMapper};
use tigr::engine::{AccessMirror, Active, EdgeWalk, Frontier, FrontierMode, Launcher, Mapping};
use tigr::sim::KernelMetrics;
use tigr::{udt_transform, Csr, CsrBuilder, NodeId, VirtualGraph};

/// A mirror that only knows which thread it belongs to.
struct Thread(usize);

impl AccessMirror for Thread {
    fn load(&mut self, _addr: u64, _bytes: u64) {}
    fn store(&mut self, _addr: u64, _bytes: u64) {}
    fn atomic(&mut self, _addr: u64, _bytes: u64) {}
    fn compute(&mut self, _n: u64) {}
}

/// Runs threads in order, handing each its id, and counts launches.
#[derive(Default)]
struct Recorder {
    launches: AtomicUsize,
}

impl Launcher for Recorder {
    type Mirror = Thread;
    const METERED: bool = false;

    fn launch<F>(&self, threads: usize, body: F) -> KernelMetrics
    where
        F: Fn(usize, &mut Thread),
    {
        self.launches.fetch_add(1, Ordering::Relaxed);
        for tid in 0..threads {
            body(tid, &mut Thread(tid));
        }
        KernelMetrics::default()
    }
}

/// Which sweep form to run.
#[derive(Clone, Copy, Debug)]
enum Form {
    Full,
    List,
    Bitmap,
}

/// Sweeps `mapping` over `graph` (the CSR its slots index) in `form`,
/// with the slots where `active` holds, and checks the coverage
/// invariant.
fn check(mapping: Mapping<'_>, graph: &Csr, form: Form, active: &[bool]) {
    let n = graph.num_nodes();
    let is_active = |v: usize| matches!(form, Form::Full) || active[v];
    let list: Vec<u32> = (0..n as u32).filter(|&v| is_active(v as usize)).collect();
    let frontier = Frontier::from_active(n, list.clone(), FrontierMode::Dense);
    let launcher = Recorder::default();
    let handed = Mutex::new(Vec::new());
    let body = |lane: &mut Thread, slot: usize, edges: EdgeWalk| {
        let mut handed = handed.lock().unwrap();
        handed.extend(edges.map(|e| (lane.0, slot, e)));
    };
    match form {
        Form::Full => mapping.sweep(&launcher, |_, _, _| {}, body),
        Form::List => mapping.sweep_active(&launcher, Active::List(&list), body),
        Form::Bitmap => mapping.sweep_active(&launcher, Active::Bitmap(&frontier), body),
    };
    assert_eq!(
        launcher.launches.into_inner(),
        1,
        "{mapping:?} {form:?}: one launch"
    );

    let mut owner: Vec<Option<(usize, usize)>> = vec![None; graph.num_edges()];
    for (tid, slot, e) in handed.into_inner().unwrap() {
        let v = NodeId::from_index(slot);
        assert!(
            (graph.edge_start(v)..graph.edge_end(v)).contains(&e),
            "{mapping:?} {form:?}: edge {e} handed under slot {slot}, not its source"
        );
        assert!(
            is_active(slot),
            "{mapping:?} {form:?}: edge {e} of inactive slot {slot} handed out"
        );
        let first = owner[e].replace((tid, slot));
        assert!(
            first.is_none(),
            "{mapping:?} {form:?}: edge {e} handed to (thread, slot) {first:?} and {:?}",
            (tid, slot)
        );
    }
    for v in graph.nodes().filter(|v| is_active(v.index())) {
        let row = &owner[graph.edge_start(v)..graph.edge_end(v)];
        assert!(
            row.iter().all(Option::is_some),
            "{mapping:?} {form:?}: an edge of active slot {v:?} was never handed out"
        );
    }
}

/// A random directed graph of up to `n` nodes and `m` edges with a hub
/// (node 0 wired to a random number of others), paired with an activity
/// flag per node of the graph and per node of any split that adds up to
/// `m` more.
fn arb_case(n: usize, m: usize) -> impl Strategy<Value = (Csr, Vec<bool>)> {
    (2..n).prop_flat_map(move |nodes| {
        (
            vec((0..nodes as u32, 0..nodes as u32), 0..m),
            0..nodes,
            vec(any::<bool>(), 2 * (nodes + m)..2 * (nodes + m) + 1),
        )
            .prop_map(move |(edges, hub_degree, active)| {
                let mut b = CsrBuilder::new(nodes);
                b.sort_neighbors(false);
                for (s, d) in edges
                    .into_iter()
                    .chain((1..=hub_degree as u32).map(|t| (0, t)))
                {
                    b.edge(s, d);
                }
                (b.build(), active)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_active_edge_is_handed_out_once_under_its_slot((g, active) in arb_case(24, 80)) {
        let split = udt_transform(&g, 3, DumbWeight::Zero);
        prop_assert!(active.len() >= split.graph().num_nodes());
        for form in [Form::Full, Form::List, Form::Bitmap] {
            for width in [1, 2, 4, 32] {
                check(Mapping::Rows { graph: &g, width }, &g, form, &active);
            }
            let rows = Mapping::Rows { graph: split.graph(), width: 1 };
            check(rows, split.graph(), form, &active);
            for k in [1, 2, 3, 8] {
                for overlay in [VirtualGraph::new(&g, k), VirtualGraph::coalesced(&g, k)] {
                    check(Mapping::Virtual(&overlay), &g, form, &active);
                }
                let blocks = Mapping::Blocks { graph: &g, mapper: OnTheFlyMapper::new(&g, k) };
                check(blocks, &g, form, &active);
            }
        }
    }
}
