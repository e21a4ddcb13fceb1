//! The CSR [`Graph`] type and its compressed weight storage.

use crate::storage::SectionStorage;
use uic_util::prefetch;

/// Node identifier. `u32` keeps adjacency arrays half the size of `usize`
/// and comfortably addresses the multi-million-node stand-in networks.
pub type NodeId = u32;

/// Typed construction failures (see [`Graph::try_from_edges`]).
///
/// The panicking constructors ([`Graph::from_edges`],
/// [`crate::GraphBuilder::build`]) keep their historical assert semantics
/// as thin wrappers; services loading untrusted edge lists go through the
/// `try_*` variants and surface these instead of aborting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// An endpoint does not fit in the declared node count.
    NodeOutOfRange {
        /// Edge source.
        src: NodeId,
        /// Edge target.
        dst: NodeId,
        /// Declared node count.
        n: u32,
    },
    /// A probability is outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// Edge source.
        src: NodeId,
        /// Edge target.
        dst: NodeId,
        /// The offending probability.
        p: f32,
    },
    /// More edges than global `u32` edge ids can address.
    TooManyEdges {
        /// Offered edge count.
        m: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphError::NodeOutOfRange { src, dst, n } => {
                write!(f, "edge ({src},{dst}) out of range for n={n}")
            }
            GraphError::InvalidProbability { src, dst, p } => {
                write!(f, "probability {p} out of [0,1] on edge ({src},{dst})")
            }
            GraphError::TooManyEdges { m } => {
                write!(f, "edge count {m} must fit in u32 ids")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// How edge probabilities are materialized.
///
/// The paper's default weighting is weighted-cascade `p(u,v) = 1/d_in(v)`
/// (§4.3.1.3), and Fig. 9d's ablation uses a constant probability — in
/// both cases every probability is derivable from the CSR structure, so
/// storing two per-edge `f32` arrays (~8 bytes/edge) is pure redundancy.
/// [`crate::GraphBuilder`] picks the compact representation automatically
/// from the [`crate::Weighting`] scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeWeights {
    /// Explicit per-edge probabilities, stored in both orientations
    /// (forward `out_p` parallel to the out-CSR, reverse `in_p` parallel
    /// to the in-CSR) so either side reads without a search.
    PerEdge {
        /// Probabilities parallel to the forward CSR targets.
        out_p: SectionStorage<f32>,
        /// Probabilities parallel to the reverse CSR sources.
        in_p: SectionStorage<f32>,
    },
    /// Weighted cascade: `p(u,v) = 1 / max(d_in(v), 1)`, computed from
    /// the reverse CSR offsets. Zero weight bytes.
    InDegree,
    /// One probability shared by every edge. Zero per-edge weight bytes.
    Constant(f32),
}

/// The structural class of a graph's weight storage — what consumers
/// branch on instead of scanning in-lists for uniformity (the RR-set
/// samplers' geometric-jump fast path, the engine's edge-coin path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightClass {
    /// Arbitrary per-edge probabilities; nothing structural is promised.
    PerEdge,
    /// Weighted cascade: every in-list of a node is uniform at
    /// `1/max(d_in, 1)`.
    InDegree,
    /// Every edge shares this probability.
    Constant(f32),
}

impl WeightClass {
    /// Short token used in stats tables and cache keys.
    pub fn token(self) -> &'static str {
        match self {
            WeightClass::PerEdge => "per-edge",
            WeightClass::InDegree => "in-degree",
            WeightClass::Constant(_) => "constant",
        }
    }
}

/// Weight storage requested at construction time
/// (see [`Graph::try_from_arcs`]).
#[derive(Debug, Clone, Copy)]
pub enum WeightSpec<'a> {
    /// Explicit probabilities, parallel to the arc list.
    PerEdge(&'a [f32]),
    /// Weighted cascade `1/d_in(v)`, derived from structure.
    InDegree,
    /// One shared probability.
    Constant(f32),
}

/// The raw CSR sections of a graph, in snapshot order:
/// `(out_off, out_to, in_off, in_from, in_eid, weights)`.
pub(crate) type RawCsr<'g> = (
    &'g [usize],
    &'g [NodeId],
    &'g [usize],
    &'g [NodeId],
    &'g [u32],
    &'g EdgeWeights,
);

/// Borrowed view of one node's arc probabilities, with the
/// representation branch resolved **once per node** rather than once per
/// edge. Obtained from [`Graph::out_arc_probs`] / [`Graph::in_arc_probs`];
/// `get(i)` is positionally parallel to the node's neighbor slice.
#[derive(Debug, Clone, Copy)]
pub enum ArcProbs<'g> {
    /// Explicit probabilities (the `PerEdge` representation).
    Dense(&'g [f32]),
    /// Every arc in the list shares `p` (in-lists of weighted-cascade
    /// graphs, any list of constant graphs).
    Uniform {
        /// The shared probability.
        p: f32,
        /// Number of arcs in the list.
        len: usize,
    },
    /// Forward lists of weighted-cascade graphs: each arc's probability
    /// is the reciprocal in-degree of its target, read from the reverse
    /// CSR offsets.
    RecipInDegree {
        /// The graph's reverse CSR offsets.
        in_off: &'g [usize],
        /// Targets parallel to the arc list.
        targets: &'g [NodeId],
    },
}

impl<'g> ArcProbs<'g> {
    /// Number of arcs in the list.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            ArcProbs::Dense(p) => p.len(),
            ArcProbs::Uniform { len, .. } => len,
            ArcProbs::RecipInDegree { targets, .. } => targets.len(),
        }
    }

    /// True when the list is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Probability of the `i`-th arc.
    #[inline]
    pub fn get(self, i: usize) -> f32 {
        match self {
            ArcProbs::Dense(p) => p[i],
            ArcProbs::Uniform { p, len } => {
                debug_assert!(i < len, "arc index {i} out of bounds {len}");
                p
            }
            ArcProbs::RecipInDegree { in_off, targets } => {
                let t = targets[i] as usize;
                1.0 / ((in_off[t + 1] - in_off[t]).max(1) as f32)
            }
        }
    }

    /// Iterates the probabilities in arc order.
    pub fn iter(self) -> impl Iterator<Item = f32> + 'g {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Per-section heap usage of a graph, in bytes (see
/// [`Graph::memory_footprint`]). The compact weight representations show
/// up as `weights == 0` (in-degree) or `weights == 4` (constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Forward CSR offsets (`(n+1) × 8`).
    pub out_offsets: usize,
    /// Forward CSR targets (`m × 4`).
    pub out_targets: usize,
    /// Reverse CSR offsets (`(n+1) × 8`).
    pub in_offsets: usize,
    /// Reverse CSR sources (`m × 4`).
    pub in_sources: usize,
    /// Reverse-slot → out-edge-id map (`m × 4`).
    pub in_edge_ids: usize,
    /// Weight storage: `2m × 4` per-edge, `4` constant, `0` in-degree.
    pub weights: usize,
}

impl MemoryFootprint {
    /// Total bytes across all sections.
    pub fn total(&self) -> usize {
        self.out_offsets
            + self.out_targets
            + self.in_offsets
            + self.in_sources
            + self.in_edge_ids
            + self.weights
    }
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total={}B (out_off={} out_to={} in_off={} in_from={} in_eid={} weights={})",
            self.total(),
            self.out_offsets,
            self.out_targets,
            self.in_offsets,
            self.in_sources,
            self.in_edge_ids,
            self.weights
        )
    }
}

/// A directed influence graph in dual-orientation CSR form.
///
/// Both orientations are materialized once at construction:
/// * forward (`out_*`): cascade simulation walks out-edges;
/// * reverse (`in_*`): RR-set sampling walks in-edges.
///
/// Edge probabilities live behind [`EdgeWeights`]: explicit per-edge
/// arrays only when the weighting scheme demands them; weighted-cascade
/// and constant graphs derive every probability from the CSR structure
/// and allocate **zero** per-edge weight bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: u32,
    // Forward CSR: out-edges of u are targets[out_off[u]..out_off[u+1]].
    // Sections are owned boxes for built graphs, or borrowed views over
    // one shared snapshot buffer for zero-copy loads (see `storage.rs`).
    out_off: SectionStorage<usize>,
    out_to: SectionStorage<NodeId>,
    // Reverse CSR: in-edges of v are sources[in_off[v]..in_off[v+1]].
    in_off: SectionStorage<usize>,
    in_from: SectionStorage<NodeId>,
    // For each reverse slot, the global out-edge id of the same physical
    // edge — lets reverse walks share per-edge coin caches with forward
    // simulations (needed by the RR-CIM baseline's two-pass sampling).
    in_eid: SectionStorage<u32>,
    weights: EdgeWeights,
}

impl Graph {
    /// Builds a graph from raw parallel edge arrays `(src, dst, p)` with
    /// explicit per-edge weight storage.
    ///
    /// Edges may be in any order; duplicates are kept (callers that need
    /// deduplication use [`crate::GraphBuilder`]). Probabilities must lie
    /// in `[0, 1]`. Panics on invalid input — see
    /// [`Graph::try_from_edges`] for the fallible variant.
    pub fn from_edges(n: u32, edges: &[(NodeId, NodeId, f32)]) -> Self {
        match Self::try_from_edges(n, edges) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Graph::from_edges`]: rejects out-of-range endpoints,
    /// probabilities outside `[0, 1]`, and edge counts beyond `u32` ids
    /// with a typed [`GraphError`] instead of panicking.
    pub fn try_from_edges(n: u32, edges: &[(NodeId, NodeId, f32)]) -> Result<Self, GraphError> {
        let arcs: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let probs: Vec<f32> = edges.iter().map(|&(_, _, p)| p).collect();
        Self::try_from_arcs(n, &arcs, WeightSpec::PerEdge(&probs))
    }

    /// Builds a graph from an arc list under the requested weight
    /// representation — the single construction entry point behind the
    /// builder, the snapshot loader's validator, and `from_edges`.
    ///
    /// With [`WeightSpec::PerEdge`] the probability slice must be
    /// parallel to `arcs` (enforced by assert: a length mismatch is a
    /// programmer error, not input data).
    pub fn try_from_arcs(
        n: u32,
        arcs: &[(NodeId, NodeId)],
        weights: WeightSpec<'_>,
    ) -> Result<Self, GraphError> {
        let nu = n as usize;
        let m = arcs.len();
        if m >= u32::MAX as usize {
            return Err(GraphError::TooManyEdges { m });
        }
        for &(u, v) in arcs {
            if u >= n || v >= n {
                return Err(GraphError::NodeOutOfRange { src: u, dst: v, n });
            }
        }
        match weights {
            WeightSpec::PerEdge(probs) => {
                assert_eq!(probs.len(), m, "probability slice not parallel to arcs");
                for (&(u, v), &p) in arcs.iter().zip(probs) {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(GraphError::InvalidProbability { src: u, dst: v, p });
                    }
                }
            }
            WeightSpec::Constant(c) => {
                if !(0.0..=1.0).contains(&c) {
                    return Err(GraphError::InvalidProbability {
                        src: 0,
                        dst: 0,
                        p: c,
                    });
                }
            }
            WeightSpec::InDegree => {}
        }

        // Counting sort into forward CSR.
        let mut out_off = vec![0usize; nu + 1];
        for &(u, _) in arcs {
            out_off[u as usize + 1] += 1;
        }
        for i in 0..nu {
            out_off[i + 1] += out_off[i];
        }
        let mut out_to = vec![0 as NodeId; m];
        let mut cursor = out_off.clone();
        // Out-edge id assigned to each input arc (for the reverse map).
        let mut eid_of_input = vec![0u32; m];
        for (idx, &(u, v)) in arcs.iter().enumerate() {
            let slot = cursor[u as usize];
            out_to[slot] = v;
            eid_of_input[idx] = slot as u32;
            cursor[u as usize] += 1;
        }
        // Reverse CSR.
        let mut in_off = vec![0usize; nu + 1];
        for &(_, v) in arcs {
            in_off[v as usize + 1] += 1;
        }
        for i in 0..nu {
            in_off[i + 1] += in_off[i];
        }
        let mut in_from = vec![0 as NodeId; m];
        let mut in_eid = vec![0u32; m];
        let mut cursor = in_off.clone();
        let mut in_slot_of_input = vec![0u32; m];
        for (idx, &(u, v)) in arcs.iter().enumerate() {
            let slot = cursor[v as usize];
            in_from[slot] = u;
            in_eid[slot] = eid_of_input[idx];
            in_slot_of_input[idx] = slot as u32;
            cursor[v as usize] += 1;
        }
        let weights = match weights {
            WeightSpec::PerEdge(probs) => {
                let mut out_p = vec![0f32; m];
                let mut in_p = vec![0f32; m];
                for (idx, &p) in probs.iter().enumerate() {
                    out_p[eid_of_input[idx] as usize] = p;
                    in_p[in_slot_of_input[idx] as usize] = p;
                }
                EdgeWeights::PerEdge {
                    out_p: out_p.into(),
                    in_p: in_p.into(),
                }
            }
            WeightSpec::InDegree => EdgeWeights::InDegree,
            WeightSpec::Constant(c) => EdgeWeights::Constant(c),
        };
        Ok(Graph {
            n,
            out_off: out_off.into(),
            out_to: out_to.into(),
            in_off: in_off.into(),
            in_from: in_from.into(),
            in_eid: in_eid.into(),
            weights,
        })
    }

    /// Assembles a graph directly from pre-built CSR arrays whose
    /// structural invariants the caller has already verified (the
    /// snapshot loader validates them as aggregates fused into its
    /// decode pass — re-scanning hundreds of megabytes here would
    /// double the load's memory traffic). Invariants are still spelled
    /// out as debug assertions.
    pub(crate) fn from_validated_raw_csr(
        n: u32,
        out_off: Vec<usize>,
        out_to: Vec<NodeId>,
        in_off: Vec<usize>,
        in_from: Vec<NodeId>,
        in_eid: Vec<u32>,
        weights: EdgeWeights,
    ) -> Self {
        Self::from_validated_sections(
            n,
            out_off.into(),
            out_to.into(),
            in_off.into(),
            in_from.into(),
            in_eid.into(),
            weights,
        )
    }

    /// [`Graph::from_validated_raw_csr`] over pre-built section storage —
    /// the zero-copy snapshot loader hands in borrowed views over the
    /// mapped buffer here (its fused verify pass has already established
    /// the invariants; they stay spelled out as debug assertions).
    pub(crate) fn from_validated_sections(
        n: u32,
        out_off: SectionStorage<usize>,
        out_to: SectionStorage<NodeId>,
        in_off: SectionStorage<usize>,
        in_from: SectionStorage<NodeId>,
        in_eid: SectionStorage<u32>,
        weights: EdgeWeights,
    ) -> Self {
        let nu = n as usize;
        let m = out_to.len();
        debug_assert_eq!(out_off.len(), nu + 1);
        debug_assert_eq!(in_off.len(), nu + 1);
        debug_assert_eq!(in_from.len(), m);
        debug_assert_eq!(in_eid.len(), m);
        debug_assert!([&out_off, &in_off]
            .iter()
            .all(|w| w[0] == 0 && w[nu] == m && w.windows(2).all(|p| p[0] <= p[1])));
        debug_assert!(!out_to.iter().chain(&in_from[..]).any(|&v| v >= n));
        debug_assert!(!in_eid.iter().any(|&e| e as usize >= m));
        Graph {
            n,
            out_off,
            out_to,
            in_off,
            in_from,
            in_eid,
            weights,
        }
    }

    /// True when every CSR section (and any per-edge weight array) is a
    /// borrowed view into a shared snapshot buffer — i.e. the graph came
    /// through the zero-copy load path.
    pub fn is_zero_copy(&self) -> bool {
        let weights_borrowed = match &self.weights {
            EdgeWeights::PerEdge { out_p, in_p } => out_p.is_borrowed() && in_p.is_borrowed(),
            EdgeWeights::InDegree | EdgeWeights::Constant(_) => true,
        };
        self.out_off.is_borrowed()
            && self.out_to.is_borrowed()
            && self.in_off.is_borrowed()
            && self.in_from.is_borrowed()
            && self.in_eid.is_borrowed()
            && weights_borrowed
    }

    /// The raw CSR sections, in snapshot order (see `snapshot.rs`).
    pub(crate) fn raw_csr(&self) -> RawCsr<'_> {
        (
            &self.out_off[..],
            &self.out_to[..],
            &self.in_off[..],
            &self.in_from[..],
            &self.in_eid[..],
            &self.weights,
        )
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of directed edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_to.len()
    }

    /// The structural class of the weight storage.
    #[inline]
    pub fn weight_class(&self) -> WeightClass {
        match self.weights {
            EdgeWeights::PerEdge { .. } => WeightClass::PerEdge,
            EdgeWeights::InDegree => WeightClass::InDegree,
            EdgeWeights::Constant(c) => WeightClass::Constant(c),
        }
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_off[u as usize + 1] - self.out_off[u as usize]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_off[v as usize + 1] - self.in_off[v as usize]
    }

    /// Reciprocal in-degree `1/max(d_in(v), 1)` — the weighted-cascade
    /// probability of every edge into `v`.
    #[inline]
    fn recip_in_degree(&self, v: NodeId) -> f32 {
        1.0 / (self.in_degree(v).max(1) as f32)
    }

    /// Out-neighbors of `u` (targets only).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_to[self.out_off[u as usize]..self.out_off[u as usize + 1]]
    }

    /// In-neighbors of `v` (sources only).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_from[self.in_span(v)]
    }

    /// Every in-list, concatenated in node order: `in_neighbors(v)` is
    /// `in_sources()[in_span(v)]`. Lets a walk record an in-edge as one
    /// slot index and read its source later.
    #[inline]
    pub fn in_sources(&self) -> &[NodeId] {
        &self.in_from
    }

    /// Slots of `v`'s in-list within [`Self::in_sources`]. Slots are
    /// below `u32::MAX`: construction refuses more edges than that.
    #[inline]
    pub fn in_span(&self, v: NodeId) -> std::ops::Range<usize> {
        self.in_off[v as usize]..self.in_off[v as usize + 1]
    }

    /// Hints that `v`'s in-list bounds will be read soon: pulls the
    /// cache line of `in_off[v]` toward the core. Reverse walks call it
    /// when `v` joins their queue. A hint only; it changes no result.
    #[inline]
    pub fn prefetch_in_offsets(&self, v: NodeId) {
        prefetch(self.in_off.as_ptr().wrapping_add(v as usize));
    }

    /// Hints that `v`'s in-list will be scanned soon: pulls its first
    /// two cache lines of sources toward the core. Reads `in_off[v]`,
    /// so it pays off once [`Self::prefetch_in_offsets`] has brought
    /// that line in. A hint only; it changes no result.
    #[inline]
    pub fn prefetch_in_list(&self, v: NodeId) {
        let lo = self.in_off[v as usize];
        let first = self.in_from.as_ptr().wrapping_add(lo);
        prefetch(first);
        prefetch(first.wrapping_add(64 / std::mem::size_of::<NodeId>()));
    }

    /// Hints that `u`'s out-list bounds will be read soon: pulls the
    /// cache line of `out_off[u]` toward the core. Forward cascades call
    /// it for frontier nodes a few places ahead. A hint only; it changes
    /// no result.
    #[inline]
    pub fn prefetch_out_offsets(&self, u: NodeId) {
        prefetch(self.out_off.as_ptr().wrapping_add(u as usize));
    }

    /// Hints that `u`'s out-list will be scanned soon: pulls its first
    /// cache line of targets toward the core. Reads `out_off[u]`, so it
    /// pays off once [`Self::prefetch_out_offsets`] has brought that line
    /// in. A hint only; it changes no result.
    #[inline]
    pub fn prefetch_out_list(&self, u: NodeId) {
        let lo = self.out_off[u as usize];
        prefetch(self.out_to.as_ptr().wrapping_add(lo));
    }

    /// Probability of the `i`-th out-edge of `u` (parallel to
    /// [`Self::out_neighbors`]). Computed from the representation: a per-
    /// edge array read, a reciprocal in-degree, or the shared constant.
    /// Hot loops over one node's list should hoist
    /// [`Self::out_arc_probs`] instead.
    #[inline]
    pub fn out_prob(&self, u: NodeId, i: usize) -> f32 {
        self.out_arc_probs(u).get(i)
    }

    /// Probability of the `i`-th in-edge of `v` (parallel to
    /// [`Self::in_neighbors`]): `in_prob(v, i)` is
    /// `p(in_neighbors(v)[i] → v)`.
    #[inline]
    pub fn in_prob(&self, v: NodeId, i: usize) -> f32 {
        self.in_arc_probs(v).get(i)
    }

    /// Probability view over `u`'s out-list, with the representation
    /// branch resolved once per node.
    #[inline]
    pub fn out_arc_probs(&self, u: NodeId) -> ArcProbs<'_> {
        let lo = self.out_off[u as usize];
        let hi = self.out_off[u as usize + 1];
        match &self.weights {
            EdgeWeights::PerEdge { out_p, .. } => ArcProbs::Dense(&out_p[lo..hi]),
            EdgeWeights::InDegree => ArcProbs::RecipInDegree {
                in_off: &self.in_off,
                targets: &self.out_to[lo..hi],
            },
            EdgeWeights::Constant(c) => ArcProbs::Uniform {
                p: *c,
                len: hi - lo,
            },
        }
    }

    /// Probability view over `v`'s in-list. Weighted-cascade graphs
    /// report [`ArcProbs::Uniform`] here: every in-list is uniform at
    /// `1/max(d_in(v), 1)`.
    #[inline]
    pub fn in_arc_probs(&self, v: NodeId) -> ArcProbs<'_> {
        let lo = self.in_off[v as usize];
        let hi = self.in_off[v as usize + 1];
        match &self.weights {
            EdgeWeights::PerEdge { in_p, .. } => ArcProbs::Dense(&in_p[lo..hi]),
            EdgeWeights::InDegree => ArcProbs::Uniform {
                p: self.recip_in_degree(v),
                len: hi - lo,
            },
            EdgeWeights::Constant(c) => ArcProbs::Uniform {
                p: *c,
                len: hi - lo,
            },
        }
    }

    /// Global index of the `i`-th out-edge of `u` — a stable edge id usable
    /// for per-world edge-status caches (each edge flipped at most once in
    /// a UIC diffusion, per Fig. 1 of the paper).
    #[inline]
    pub fn out_edge_id(&self, u: NodeId, i: usize) -> usize {
        self.out_off[u as usize] + i
    }

    /// Global out-edge ids parallel to [`Self::in_neighbors`]:
    /// `in_edge_ids(v)[i]` is the id of the physical edge
    /// `in_neighbors(v)[i] → v`. Lets reverse traversals share a per-edge
    /// coin cache with forward simulations of the same world.
    #[inline]
    pub fn in_edge_ids(&self, v: NodeId) -> &[u32] {
        &self.in_eid[self.in_span(v)]
    }

    /// Iterates over all edges as `(src, dst, p)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.out_neighbors(u)
                .iter()
                .zip(self.out_arc_probs(u).iter())
                .map(move |(&v, p)| (u, v, p))
        })
    }

    /// Sum of in-probabilities of `v` (needed to validate LT instances,
    /// where `Σ p(u,v) ≤ 1` must hold). Accumulated in arc order for all
    /// representations so the value is bit-identical across them.
    pub fn in_prob_sum(&self, v: NodeId) -> f64 {
        self.in_arc_probs(v).iter().map(|p| p as f64).sum()
    }

    /// Per-section heap usage. Weighted-cascade and constant graphs show
    /// `weights` at 0 and 4 bytes respectively — the ~8 bytes/edge the
    /// compact representations save over [`EdgeWeights::PerEdge`].
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of;
        MemoryFootprint {
            out_offsets: self.out_off.len() * size_of::<usize>(),
            out_targets: self.out_to.len() * size_of::<NodeId>(),
            in_offsets: self.in_off.len() * size_of::<usize>(),
            in_sources: self.in_from.len() * size_of::<NodeId>(),
            in_edge_ids: self.in_eid.len() * size_of::<u32>(),
            weights: match &self.weights {
                EdgeWeights::PerEdge { out_p, in_p } => {
                    (out_p.len() + in_p.len()) * size_of::<f32>()
                }
                EdgeWeights::InDegree => 0,
                EdgeWeights::Constant(_) => size_of::<f32>(),
            },
        }
    }

    /// Returns the transposed graph (every edge reversed, weights kept).
    ///
    /// Both orientations are already materialized, so transposition swaps
    /// the forward and reverse CSR arrays wholesale — `O(m)` copies, no
    /// edge collection and no counting sort. Only the reverse edge-id map
    /// needs rebuilding: the transposed graph's out-edge ids are the
    /// original in-CSR slots, so the new `in_eid` is the inverse
    /// permutation of the original one.
    ///
    /// Weight representations: `PerEdge` swaps its arrays, `Constant`
    /// stays constant, and `InDegree` materializes per-edge arrays — the
    /// transposed probabilities are reciprocal **out**-degrees of the new
    /// targets, which has no compact form.
    pub fn transpose(&self) -> Graph {
        // self.in_eid: old-in-slot → old-out-edge-id. Inverting it maps
        // each old out slot (= new in slot) to its old in slot (= new
        // out-edge id).
        let mut in_eid = vec![0u32; self.in_eid.len()];
        for (in_slot, &eid) in self.in_eid.iter().enumerate() {
            in_eid[eid as usize] = in_slot as u32;
        }
        let weights = match &self.weights {
            EdgeWeights::PerEdge { out_p, in_p } => EdgeWeights::PerEdge {
                out_p: in_p.clone(),
                in_p: out_p.clone(),
            },
            EdgeWeights::Constant(c) => EdgeWeights::Constant(*c),
            EdgeWeights::InDegree => {
                // Old edge u→v carries p = 1/d_in_old(v). In the
                // transposed graph the same physical edge sits at old-in
                // slots on the out side (p determined by the segment's
                // node v) and old-out slots on the in side (p determined
                // by the slot's old target).
                let m = self.num_edges();
                let mut out_p = vec![0f32; m];
                for v in 0..self.n {
                    let p = self.recip_in_degree(v);
                    out_p[self.in_off[v as usize]..self.in_off[v as usize + 1]].fill(p);
                }
                let in_p: Vec<f32> = self
                    .out_to
                    .iter()
                    .map(|&v| self.recip_in_degree(v))
                    .collect();
                EdgeWeights::PerEdge {
                    out_p: out_p.into(),
                    in_p: in_p.into(),
                }
            }
        };
        Graph {
            n: self.n,
            out_off: self.in_off.clone(),
            out_to: self.in_from.clone(),
            in_off: self.out_off.clone(),
            in_from: self.out_to.clone(),
            in_eid: in_eid.into(),
            weights,
        }
    }

    /// Re-derives edge probabilities on the same topology under a
    /// [`crate::Weighting`] scheme, picking the compact representation
    /// where the scheme allows (the Fig. 9d `1/d_in` ↔ constant swap).
    /// `seed` drives the stochastic schemes; self-loops, duplicates and
    /// edge order are preserved exactly.
    pub fn reweighted_as(&self, weighting: crate::Weighting, seed: u64) -> Graph {
        let mut b = crate::GraphBuilder::new(self.n).allow_self_loops(true);
        b.reserve(self.num_edges());
        for (u, v, p) in self.edges() {
            b.add_edge(u, v, p);
        }
        b.build(weighting, seed)
    }

    /// Average out-degree `m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0→1 (0.5), 0→2 (0.2), 1→2 (1.0), 2→0 (0.3)
    fn diamond() -> Graph {
        Graph::from_edges(3, &[(0, 1, 0.5), (0, 2, 0.2), (1, 2, 1.0), (2, 0, 0.3)])
    }

    /// The same topology under each of the three representations, with
    /// weights that coincide where the representation forces them.
    fn arcs4() -> Vec<(NodeId, NodeId)> {
        vec![(0, 1), (0, 2), (1, 2), (2, 0)]
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.weight_class(), WeightClass::PerEdge);
    }

    #[test]
    fn adjacency_and_probs_are_parallel() {
        let g = diamond();
        let nbrs = g.out_neighbors(0);
        let ps = g.out_arc_probs(0);
        assert_eq!(nbrs.len(), ps.len());
        let pairs: Vec<(u32, f32)> = nbrs.iter().copied().zip(ps.iter()).collect();
        assert!(pairs.contains(&(1, 0.5)));
        assert!(pairs.contains(&(2, 0.2)));
    }

    #[test]
    fn reverse_orientation_matches_forward() {
        let g = diamond();
        let mut fwd: Vec<(u32, u32, f32)> = g.edges().collect();
        let mut rev: Vec<(u32, u32, f32)> = (0..3)
            .flat_map(|v| {
                g.in_neighbors(v)
                    .iter()
                    .zip(g.in_arc_probs(v).iter())
                    .map(move |(&u, p)| (u, v, p))
                    .collect::<Vec<_>>()
            })
            .collect();
        fwd.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rev.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(fwd, rev);
    }

    #[test]
    fn in_degree_representation_computes_weighted_cascade() {
        let g = Graph::try_from_arcs(3, &arcs4(), WeightSpec::InDegree).unwrap();
        assert_eq!(g.weight_class(), WeightClass::InDegree);
        for (_, v, p) in g.edges() {
            let expect = 1.0 / g.in_degree(v).max(1) as f32;
            assert_eq!(p, expect);
        }
        // In-lists are structurally uniform; out-lists are not.
        assert!(matches!(
            g.in_arc_probs(2),
            ArcProbs::Uniform { p: 0.5, len: 2 }
        ));
        assert!(matches!(g.out_arc_probs(0), ArcProbs::RecipInDegree { .. }));
        assert_eq!(g.out_prob(0, 1), 0.5, "edge 0→2 at 1/d_in(2)");
        assert_eq!(g.in_prob(2, 0), 0.5);
    }

    #[test]
    fn constant_representation_shares_one_probability() {
        let g = Graph::try_from_arcs(3, &arcs4(), WeightSpec::Constant(0.25)).unwrap();
        assert_eq!(g.weight_class(), WeightClass::Constant(0.25));
        assert!(g.edges().all(|(_, _, p)| p == 0.25));
        assert!(matches!(
            g.out_arc_probs(0),
            ArcProbs::Uniform { p: 0.25, .. }
        ));
        assert!(matches!(
            g.in_arc_probs(2),
            ArcProbs::Uniform { p: 0.25, .. }
        ));
    }

    #[test]
    fn compact_representations_allocate_no_per_edge_weight_bytes() {
        let arcs = arcs4();
        let wc = Graph::try_from_arcs(3, &arcs, WeightSpec::InDegree).unwrap();
        assert_eq!(wc.memory_footprint().weights, 0);
        let cp = Graph::try_from_arcs(3, &arcs, WeightSpec::Constant(0.1)).unwrap();
        assert_eq!(cp.memory_footprint().weights, 4);
        let pe = diamond();
        assert_eq!(pe.memory_footprint().weights, 4 * 2 * 4);
        assert_eq!(
            pe.memory_footprint().total() - pe.memory_footprint().weights,
            wc.memory_footprint().total()
        );
    }

    #[test]
    fn per_edge_and_in_degree_probs_coincide_on_wc_weights() {
        // Materialize 1/d_in per-edge and compare bitwise against the
        // compact representation on every accessor.
        let arcs = arcs4();
        let compact = Graph::try_from_arcs(3, &arcs, WeightSpec::InDegree).unwrap();
        let dense = {
            let edges: Vec<(NodeId, NodeId, f32)> = compact.edges().collect();
            Graph::from_edges(3, &edges)
        };
        for u in 0..3u32 {
            assert_eq!(
                compact.out_arc_probs(u).iter().collect::<Vec<_>>(),
                dense.out_arc_probs(u).iter().collect::<Vec<_>>()
            );
            assert_eq!(
                compact.in_arc_probs(u).iter().collect::<Vec<_>>(),
                dense.in_arc_probs(u).iter().collect::<Vec<_>>()
            );
            assert_eq!(compact.in_prob_sum(u), dense.in_prob_sum(u));
        }
    }

    #[test]
    fn try_from_edges_reports_typed_errors() {
        assert_eq!(
            Graph::try_from_edges(2, &[(0, 5, 0.5)]),
            Err(GraphError::NodeOutOfRange {
                src: 0,
                dst: 5,
                n: 2
            })
        );
        assert_eq!(
            Graph::try_from_edges(2, &[(0, 1, 1.5)]),
            Err(GraphError::InvalidProbability {
                src: 0,
                dst: 1,
                p: 1.5
            })
        );
        assert!(Graph::try_from_edges(2, &[(0, 1, f32::NAN)]).is_err());
        assert!(Graph::try_from_arcs(2, &[(0, 1)], WeightSpec::Constant(-0.1)).is_err());
        let e = GraphError::TooManyEdges { m: usize::MAX };
        assert!(e.to_string().contains("fit in u32"));
    }

    #[test]
    fn transpose_is_involution() {
        let g = diamond();
        let tt = g.transpose().transpose();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_degree(0), 1); // only 2→0 reversed: 0→2
        assert_eq!(t.in_degree(0), 2);
        assert!(t.out_neighbors(2).contains(&0));
        assert!(t.out_neighbors(2).contains(&1));
    }

    #[test]
    fn transpose_of_compact_representations_keeps_probabilities() {
        for spec in [WeightSpec::InDegree, WeightSpec::Constant(0.2)] {
            let g = Graph::try_from_arcs(3, &arcs4(), spec).unwrap();
            let t = g.transpose();
            let mut expect: Vec<(u32, u32, f32)> = g.edges().map(|(u, v, p)| (v, u, p)).collect();
            let mut got: Vec<(u32, u32, f32)> = t.edges().collect();
            expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
            got.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(expect, got);
        }
        // Constant stays compact; in-degree must materialize.
        let cp = Graph::try_from_arcs(3, &arcs4(), WeightSpec::Constant(0.2)).unwrap();
        assert_eq!(cp.transpose().weight_class(), WeightClass::Constant(0.2));
        let wc = Graph::try_from_arcs(3, &arcs4(), WeightSpec::InDegree).unwrap();
        assert_eq!(wc.transpose().weight_class(), WeightClass::PerEdge);
    }

    #[test]
    fn transpose_matches_rebuild_from_reversed_edges() {
        // The CSR-swap transpose must agree with the naive
        // collect-and-rebuild construction on every array, including the
        // reverse edge-id map (checked via the same-physical-edge
        // invariant below).
        let g = diamond();
        let t = g.transpose();
        let rebuilt = {
            let edges: Vec<(NodeId, NodeId, f32)> = g.edges().map(|(u, v, p)| (v, u, p)).collect();
            Graph::from_edges(g.num_nodes(), &edges)
        };
        for v in 0..g.num_nodes() {
            let mut a: Vec<(u32, f32)> = t
                .out_neighbors(v)
                .iter()
                .copied()
                .zip(t.out_arc_probs(v).iter())
                .collect();
            let mut b: Vec<(u32, f32)> = rebuilt
                .out_neighbors(v)
                .iter()
                .copied()
                .zip(rebuilt.out_arc_probs(v).iter())
                .collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(a, b, "out adjacency of {v}");
            assert_eq!(t.in_degree(v), rebuilt.in_degree(v));
        }
        // in_eid consistency: every reverse slot names the physical edge
        // it sits on.
        for v in 0..t.num_nodes() {
            let srcs = t.in_neighbors(v);
            let ids = t.in_edge_ids(v);
            for (&u, &eid) in srcs.iter().zip(ids) {
                let base = t.out_edge_id(u, 0);
                let slot = eid as usize - base;
                assert_eq!(t.out_neighbors(u)[slot], v);
                assert_eq!(
                    t.out_prob(u, slot),
                    t.in_prob(v, ids.iter().position(|&e| e == eid).unwrap())
                );
            }
        }
    }

    #[test]
    fn transpose_handles_parallel_edges_and_isolated_nodes() {
        let g = Graph::from_edges(4, &[(0, 1, 0.1), (0, 1, 0.2), (2, 0, 0.9)]);
        let t = g.transpose();
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.out_degree(1), 2);
        assert_eq!(t.in_degree(1), 0);
        assert_eq!(t.out_degree(3), 0);
        let mut ids: Vec<usize> = (0..t.num_nodes())
            .flat_map(|u| (0..t.out_degree(u)).map(move |i| (u, i)))
            .map(|(u, i)| t.out_edge_id(u, i))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2], "edge ids stay dense");
        // And the involution property survives duplicates.
        let tt = t.transpose();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn in_edge_ids_name_the_same_physical_edge() {
        use crate::Weighting;
        // Node 2 has in-degree 3, so weighted cascade stores a 1/3 that
        // is not exact in f32. RR-CIM's forward pass reads an edge's
        // probability from the out side and its reverse pass from the in
        // side; both must give the same bits under every representation.
        let per_edge = Graph::from_edges(
            4,
            &[
                (0, 1, 0.5),
                (0, 2, 0.2),
                (1, 2, 1.0),
                (2, 0, 0.3),
                (3, 2, 0.7),
            ],
        );
        let graphs = [
            per_edge.reweighted_as(Weighting::WeightedCascade, 0),
            per_edge.reweighted_as(Weighting::Constant(0.01), 0),
            per_edge,
        ];
        let classes: Vec<_> = graphs.iter().map(Graph::weight_class).collect();
        assert_eq!(
            classes,
            [
                WeightClass::InDegree,
                WeightClass::Constant(0.01),
                WeightClass::PerEdge
            ]
        );
        for g in &graphs {
            for v in 0..g.num_nodes() {
                let srcs = g.in_neighbors(v);
                let ids = g.in_edge_ids(v);
                assert_eq!(srcs.len(), ids.len());
                for (i, (&u, &eid)) in srcs.iter().zip(ids).enumerate() {
                    // The out-edge with that id must be u → v.
                    let base = g.out_edge_id(u, 0);
                    let slot = eid as usize - base;
                    assert_eq!(g.out_neighbors(u)[slot], v);
                    assert_eq!(
                        g.in_arc_probs(v).get(i).to_bits(),
                        g.out_arc_probs(u).get(slot).to_bits(),
                        "edge {eid} ({u} -> {v}) under {:?}",
                        g.weight_class()
                    );
                }
            }
        }
    }

    #[test]
    fn edge_ids_are_unique_and_dense() {
        let g = diamond();
        let mut ids = Vec::new();
        for u in 0..3u32 {
            for i in 0..g.out_degree(u) {
                ids.push(g.out_edge_id(u, i));
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reweighted_as_picks_compact_representations() {
        use crate::Weighting;
        let g = diamond();
        let wc = g.reweighted_as(Weighting::WeightedCascade, 0);
        assert_eq!(wc.weight_class(), WeightClass::InDegree);
        assert_eq!(
            wc.edges().map(|(u, v, _)| (u, v)).collect::<Vec<_>>(),
            g.edges().map(|(u, v, _)| (u, v)).collect::<Vec<_>>(),
            "topology and order preserved"
        );
        let cp = g.reweighted_as(Weighting::Constant(0.01), 0);
        assert_eq!(cp.weight_class(), WeightClass::Constant(0.01));
        let given = g.reweighted_as(Weighting::AsGiven, 0);
        assert_eq!(
            given.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0)]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 0);
        assert!(g.out_neighbors(3).is_empty());
        assert!(g.out_arc_probs(3).is_empty());
        let empty = Graph::from_edges(0, &[]);
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.avg_degree(), 0.0);
        let empty_wc = Graph::try_from_arcs(0, &[], WeightSpec::InDegree).unwrap();
        assert_eq!(empty_wc.num_edges(), 0);
    }

    #[test]
    fn in_prob_sum_accumulates() {
        let g = diamond();
        assert!((g.in_prob_sum(2) - 1.2).abs() < 1e-6);
        let wc = Graph::try_from_arcs(3, &arcs4(), WeightSpec::InDegree).unwrap();
        assert!((wc.in_prob_sum(2) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        Graph::from_edges(2, &[(0, 5, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_probability() {
        Graph::from_edges(2, &[(0, 1, 1.5)]);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let g = Graph::from_edges(2, &[(0, 1, 0.1), (0, 1, 0.2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 2);
    }
}
