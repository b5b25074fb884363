//! Work mappings: which thread covers which edges (§4, §4.1, §4.4).
//!
//! A [`Mapping`] is the one design choice the paper's layouts differ in,
//! written down once as a value:
//!
//! | mapping | threads | thread `t` covers | used by |
//! |---|---|---|---|
//! | [`Mapping::Rows`], `width` 1 | one per row | row `t` | baseline, Tigr-UDT |
//! | [`Mapping::Rows`], `width` W | W per row | every W-th edge of row `t / W`, from its `t % W`-th | Maximum Warp |
//! | [`Mapping::Virtual`] | one per virtual node | its ≤ K edges, consecutive or strided | Tigr-V, Tigr-V+ |
//! | [`Mapping::Blocks`] | `⌈|E|/K⌉` | edges `[tK, (t+1)K)`, found by binary search | on-the-fly |
//!
//! [`Mapping::sweep`] and [`Mapping::sweep_active`] turn a mapping into
//! launches and hand each thread's body `(mirror, slot, edges)`: the
//! value slot the edges belong to and an [`EdgeWalk`] over them. What a
//! driver charges around that — a compaction launch, how a block's
//! search is priced — stays with the driver.

use std::ops::Range;

use tigr_core::{OnTheFlyMapper, VirtualGraph, VirtualNode};
use tigr_graph::{Csr, NodeId};
use tigr_sim::KernelMetrics;

use crate::addr::{frontier_addr, frontier_bit_addr, row_ptr_addr, vnode_addr};
use crate::frontier::{Frontier, FrontierRep};
use crate::kernel::{AccessMirror, Launcher};
use crate::representation::Representation;

/// How a sweep's threads are assigned edges (see the [module
/// table](self)).
#[derive(Clone, Copy, Debug)]
pub enum Mapping<'a> {
    /// `width` consecutive threads per row of `graph`: lane `j` of row
    /// `v`'s group takes edges `start + j, start + j + width, …`. Width 1
    /// is a row per thread.
    Rows {
        /// The CSR whose rows are mapped.
        graph: &'a Csr,
        /// Threads per row (a virtual warp's width).
        width: usize,
    },
    /// One thread per virtual node of the overlay.
    Virtual(&'a VirtualGraph),
    /// One thread per edge block of `K`, resolved at kernel time.
    Blocks {
        /// The CSR whose edge array is blocked.
        graph: &'a Csr,
        /// The block mapper.
        mapper: OnTheFlyMapper,
    },
}

/// The slots an active-set sweep runs for.
#[derive(Clone, Copy, Debug)]
pub enum Active<'a> {
    /// A compacted list of active nodes: threads only for them, each
    /// reading its list entry first.
    List(&'a [u32]),
    /// A bitmap: a thread for every node (or virtual node), which tests
    /// its node's bit and exits when it is clear.
    Bitmap(&'a Frontier),
}

impl<'a> Active<'a> {
    /// The active set of `frontier` in the form its representation
    /// schedules.
    pub(crate) fn of(frontier: &'a Frontier) -> Self {
        match frontier.rep() {
            FrontierRep::Sparse => Active::List(frontier.nodes()),
            FrontierRep::Dense => Active::Bitmap(frontier),
        }
    }
}

impl<'a> Mapping<'a> {
    /// The mapping a representation schedules: a row per thread over the
    /// original or split CSR, a thread per virtual node, or edge blocks.
    pub fn of(rep: &Representation<'a>) -> Self {
        match rep {
            Representation::Original(_) | Representation::Physical(_) => Mapping::Rows {
                graph: rep.graph(),
                width: 1,
            },
            Representation::Virtual { overlay, .. } => Mapping::Virtual(overlay),
            Representation::OnTheFly { graph, mapper } => Mapping::Blocks {
                graph,
                mapper: *mapper,
            },
        }
    }

    /// Threads launched by a full sweep.
    pub fn full_threads(&self) -> usize {
        match self {
            Mapping::Rows { graph, width } => graph.num_nodes() * width,
            Mapping::Virtual(overlay) => overlay.num_virtual_nodes(),
            Mapping::Blocks { mapper, .. } => mapper.num_threads(),
        }
    }

    /// One launch over every thread of the mapping. A row thread first
    /// loads its `row_ptr` entry, a virtual-node thread its array entry;
    /// a block thread calls `search(mirror, tid, probes)` to charge the
    /// binary search that located its block, then runs `body` once per
    /// node its block spans, loading `row_ptr` at each crossing.
    pub fn sweep<L: Launcher>(
        &self,
        launcher: &L,
        search: impl Fn(&mut L::Mirror, usize, u32),
        body: impl Fn(&mut L::Mirror, usize, EdgeWalk),
    ) -> KernelMetrics {
        match *self {
            Mapping::Rows { graph, width } => rows(
                launcher,
                graph,
                width,
                graph.num_nodes(),
                |_, v| Some(v),
                &body,
            ),
            Mapping::Virtual(overlay) => {
                launcher.launch(overlay.num_virtual_nodes(), |tid, lane| {
                    let vn = load_vnode(lane, overlay, tid);
                    body(lane, vn.physical.index(), (&vn).into());
                })
            }
            Mapping::Blocks { graph, mapper } => {
                launcher.launch(mapper.num_threads(), |tid, lane| {
                    let (range, first_src, probes) = mapper.resolve(graph, tid);
                    search(lane, tid, probes);
                    walk_segments(lane, graph, range, first_src, |lane, src, seg| {
                        body(lane, src, seg.into());
                    });
                })
            }
        }
    }

    /// One launch over the threads of `active`'s nodes. A list thread
    /// loads its list entry, then its row or virtual node; a bitmap row
    /// thread loads its bit before its row, a bitmap virtual-node thread
    /// its virtual node before its physical node's bit. Edge blocks have
    /// no node to activate, so they run as rows here.
    pub fn sweep_active<L: Launcher>(
        &self,
        launcher: &L,
        active: Active<'_>,
        body: impl Fn(&mut L::Mirror, usize, EdgeWalk),
    ) -> KernelMetrics {
        let (graph, width) = match *self {
            Mapping::Rows { graph, width } => (graph, width),
            Mapping::Blocks { graph, .. } => (graph, 1),
            Mapping::Virtual(overlay) => return virtual_active(launcher, overlay, active, &body),
        };
        match active {
            Active::List(nodes) => rows(
                launcher,
                graph,
                width,
                nodes.len(),
                |lane, i| {
                    lane.load(frontier_addr(i), 4);
                    Some(nodes[i] as usize)
                },
                &body,
            ),
            Active::Bitmap(frontier) => rows(
                launcher,
                graph,
                width,
                graph.num_nodes(),
                |lane, v| {
                    lane.load(frontier_bit_addr(v), 4);
                    frontier.contains(v).then_some(v)
                },
                &body,
            ),
        }
    }
}

/// `width` threads for each of `groups` row groups. `pick(mirror, group)`
/// charges what finds the group's row and returns it, or `None` when the
/// group has nothing to do.
fn rows<L: Launcher>(
    launcher: &L,
    graph: &Csr,
    width: usize,
    groups: usize,
    pick: impl Fn(&mut L::Mirror, usize) -> Option<usize>,
    body: &impl Fn(&mut L::Mirror, usize, EdgeWalk),
) -> KernelMetrics {
    // `row_ptr` is sliced once: no accessor call per row. Width 1 has a
    // launch of its own: through the general one, the per-thread
    // `tid / width`, `tid % width` and the lane's division cost a host
    // `pr` sweep about 40 % more time (a guard ratio of 1.45 against 1.04
    // in `host_vs_warpsim::host_pagerank_costs_what_a_plain_gather_costs`,
    // 2-core Xeon @ 2.10 GHz); the traces are the same either way.
    let row_ptr = graph.row_ptr();
    if width == 1 {
        return launcher.launch(groups, |tid, lane| {
            if let Some(v) = pick(lane, tid) {
                lane.load(row_ptr_addr(v), 8);
                body(lane, v, (row_ptr[v]..row_ptr[v + 1]).into());
            }
        });
    }
    launcher.launch(groups * width, |tid, lane| {
        if let Some(v) = pick(lane, tid / width) {
            lane.load(row_ptr_addr(v), 8);
            body(
                lane,
                v,
                EdgeWalk::lane(row_ptr[v]..row_ptr[v + 1], tid % width, width),
            );
        }
    })
}

/// The active-set sweep of a virtual overlay: a list expands into the
/// active nodes' families, one thread per member; a bitmap keeps one
/// thread per virtual node.
fn virtual_active<L: Launcher>(
    launcher: &L,
    overlay: &VirtualGraph,
    active: Active<'_>,
    body: &impl Fn(&mut L::Mirror, usize, EdgeWalk),
) -> KernelMetrics {
    match active {
        Active::List(nodes) => {
            let members = overlay.expand_active(nodes);
            launcher.launch(members.len(), |tid, lane| {
                lane.load(frontier_addr(tid), 4);
                let vn = load_vnode(lane, overlay, members[tid] as usize);
                body(lane, vn.physical.index(), (&vn).into());
            })
        }
        Active::Bitmap(frontier) => launcher.launch(overlay.num_virtual_nodes(), |tid, lane| {
            let vn = load_vnode(lane, overlay, tid);
            let v = vn.physical.index();
            lane.load(frontier_bit_addr(v), 4);
            if frontier.contains(v) {
                body(lane, v, (&vn).into());
            }
        }),
    }
}

/// The `search` that prices an edge block's binary search as 2 compute
/// per probe (pull and `pr`; push charges each probe's `row_ptr` load
/// too).
pub(crate) fn search_compute<M: AccessMirror>(m: &mut M, _tid: usize, probes: u32) {
    m.compute(probes as u64 * 2);
}

/// Virtual node `i`, its array entry charged
/// (`nodeId = virtualNodes[tid].physicalNodeId`, Algorithm 2 line 2).
#[inline]
fn load_vnode<M: AccessMirror>(lane: &mut M, overlay: &VirtualGraph, i: usize) -> VirtualNode {
    lane.load(vnode_addr(i), 8);
    overlay.vnode(i)
}

/// Walks a contiguous global edge range `[lo, hi)` that may span node
/// boundaries — the on-the-fly block (Algorithm 4) — invoking `body`
/// once per `(owning node, edge subrange)` segment and charging one
/// `row_ptr` boundary load per crossing.
#[inline]
fn walk_segments<M: AccessMirror>(
    mirror: &mut M,
    graph: &Csr,
    (lo, hi): (usize, usize),
    first_src: NodeId,
    mut body: impl FnMut(&mut M, usize, Range<usize>),
) {
    let mut src = first_src.index();
    let mut src_end = graph.edge_end(first_src);
    let mut e = lo;
    while e < hi {
        while e >= src_end {
            src += 1;
            src_end = graph.edge_end(NodeId::from_index(src));
            mirror.load(row_ptr_addr(src + 1), 4);
        }
        let seg_end = src_end.min(hi);
        body(mirror, src, e..seg_end);
        e = seg_end;
    }
}

/// The edge indices one thread covers under that thread's slot: a
/// contiguous range (stride 1), a virtual node's strided cursor, or a
/// virtual-warp lane's share of a row. One concrete type, so bodies take
/// it without dynamic dispatch on the per-edge path.
#[derive(Clone, Copy, Debug)]
pub struct EdgeWalk {
    next: usize,
    stride: usize,
    remaining: usize,
}

impl EdgeWalk {
    /// Lane `lane` of a `width`-wide group over `row`: every `width`-th
    /// edge from the row's `lane`-th.
    fn lane(row: Range<usize>, lane: usize, width: usize) -> Self {
        let first = row.start + lane;
        EdgeWalk {
            next: first,
            stride: width,
            remaining: row.end.saturating_sub(first).div_ceil(width),
        }
    }
}

impl From<Range<usize>> for EdgeWalk {
    fn from(range: Range<usize>) -> Self {
        EdgeWalk {
            next: range.start,
            stride: 1,
            remaining: range.len(),
        }
    }
}

impl From<&VirtualNode> for EdgeWalk {
    fn from(vn: &VirtualNode) -> Self {
        EdgeWalk {
            next: vn.first_edge as usize,
            stride: vn.stride as usize,
            remaining: vn.count as usize,
        }
    }
}

impl Iterator for EdgeWalk {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let e = self.next;
        self.next += self.stride;
        self.remaining -= 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_walks_stride() {
        let vn = VirtualNode {
            physical: NodeId::new(0),
            first_edge: 5,
            stride: 3,
            count: 4,
        };
        let walk = EdgeWalk::from(&vn);
        assert_eq!(walk.collect::<Vec<_>>(), vec![5, 8, 11, 14]);
        let lanes: Vec<Vec<usize>> = (0..4)
            .map(|j| EdgeWalk::lane(10..15, j, 4).collect())
            .collect();
        assert_eq!(lanes, vec![vec![10, 14], vec![11], vec![12], vec![13]]);
        assert_eq!(
            EdgeWalk::lane(10..12, 3, 4).count(),
            0,
            "a lane past the row's end"
        );
    }
}
