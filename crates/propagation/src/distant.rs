//! Distant match propagation (paper §V-C, Eq. 10) and inferred-set
//! discovery (§VI-B, Algorithm 2).
//!
//! Under the Markov assumption, `Pr[m_p | m_q] ≥ Π_i Pr[m_{v_i} | m_{v_{i−1}}]`
//! along any path `q = v_0, …, v_l = p`; the largest lower bound over paths
//! is used as the estimate. With `length(v, v') = −log Pr[m_{v'} | m_v]`
//! this is a shortest-path problem, and the threshold `Pr ≥ τ` becomes
//! `dist ≤ ζ = −log τ`.
//!
//! An inferred set is kept as pair ids only: question selection (Eqs.
//! 15–16) and propagation after a crowd match (Eq. 12) only ask which
//! pairs are in `inferred(q)`. The probability `Pr[m_p | m_q] = exp(−dist)`
//! is computed on demand for one source by the textbook kernel:
//! [`inferred_probabilities`] over the global graph, and
//! [`crate::LoopState::inferred_probabilities`] with its distances indexed
//! by position in the source's component (what a session snapshots for
//! each question it issues).
//!
//! Three implementations, one edge-length rule ([`length_within`]):
//! * [`ComponentView`] — the kernel the crowd loop runs. Each
//!   [`crate::LoopState::refresh`] flattens its dirty components into one
//!   position-indexed CSR with every edge length computed once, then runs
//!   truncated Dijkstra from each eligible source over that view.
//! * [`inferred_sets_dijkstra`] — the textbook truncated Dijkstra from
//!   every vertex of the global [`ProbErGraph`]. The from-scratch
//!   reference the incremental loop is checked against, bit for bit
//!   (property-tested here, and every loop under
//!   `REMP_CHECK_INCREMENTAL=1`).
//! * [`inferred_sets_floyd_warshall`] — the paper's Algorithm 2: threshold
//!   Floyd–Warshall over per-vertex ordered maps. Exact for all distances
//!   ≤ ζ because every subpath of a ≤ ζ path is itself ≤ ζ; yields the
//!   same id rows as Dijkstra, with distances equal within float
//!   tolerance (property-tested). The bench suite compares it with
//!   Dijkstra (ablation).
//!
//! Both Dijkstra kernels key their min-heap on `dist.to_bits()`: every
//! distance is a sum of non-negative lengths starting from `+0.0`, and
//! `0.0 + (−0.0) = 0.0`, so no key is ever `−0.0` and bit order equals
//! value order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use remp_ergraph::PairId;
use remp_par::Parallelism;

use crate::ProbErGraph;

/// The inferred match sets of every candidate question (Eq. 12):
/// `inferred(q) = { p : Pr[m_p | m_q] ≥ τ }`, as pair ids. The
/// probabilities themselves come from [`inferred_probabilities`] or
/// [`crate::LoopState::inferred_probabilities`], one source at a time.
#[derive(Clone, Debug)]
pub struct InferredSets {
    /// `per_source[q]` = the targets, sorted ascending; always contains
    /// `q` itself, unless the row was never computed or has been freed
    /// (see [`crate::LoopState`]).
    per_source: Vec<Vec<PairId>>,
    /// Summed length of the rows, kept current by every write so the
    /// per-refresh gauge does not scan every source.
    entries: usize,
    tau: f64,
}

impl InferredSets {
    fn from_rows(per_source: Vec<Vec<PairId>>, tau: f64) -> InferredSets {
        let entries = per_source.iter().map(Vec::len).sum();
        InferredSets { per_source, entries, tau }
    }

    /// The inferred set of `q`, sorted ascending.
    pub fn inferred(&self, q: PairId) -> &[PairId] {
        &self.per_source[q.index()]
    }

    /// The probability threshold τ the sets were computed with.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Number of sources (= vertices).
    pub fn num_sources(&self) -> usize {
        self.per_source.len()
    }

    /// Total size of all inferred sets: the live entries.
    pub fn total_size(&self) -> usize {
        self.entries
    }

    /// All-empty sets over `n` sources — the starting point for
    /// incremental construction via [`set_row`](Self::set_row). A row is
    /// only ever filled for an eligible source, and
    /// [`crate::LoopState::refresh`] empties it again once the source is
    /// resolved: nothing reads the inferred set of a resolved pair.
    pub(crate) fn empty(n: usize, tau: f64) -> InferredSets {
        InferredSets { per_source: vec![Vec::new(); n], entries: 0, tau }
    }

    /// Replaces one source's inferred set (an empty `row` frees it).
    pub(crate) fn set_row(&mut self, q: PairId, row: Vec<PairId>) {
        self.entries += row.len();
        self.entries -= std::mem::replace(&mut self.per_source[q.index()], row).len();
    }
}

/// One source's textbook truncated Dijkstra over the global graph
/// (Algorithm 2's output for one row): lengths recomputed per edge read,
/// the `(target, distance)` row collected in settle order and sorted by
/// target.
///
/// `dist`/`touched` are caller-provided scratch (distances all `∞` on
/// entry, restored on exit, indexed by vertex id) so a worker can sweep
/// many sources without reallocating.
fn dijkstra_row(
    graph: &ProbErGraph,
    zeta: f64,
    q: PairId,
    slot: impl Fn(PairId) -> usize,
    dist: &mut [f64],
    touched: &mut Vec<usize>,
) -> Vec<(PairId, f64)> {
    let mut out = Vec::new();
    let mut heap = BinaryHeap::new();
    dist[slot(q)] = 0.0;
    touched.push(slot(q));
    heap.push(Reverse((0.0f64.to_bits(), q)));
    while let Some(Reverse((bits, v))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[slot(v)] {
            continue; // stale entry
        }
        out.push((v, d));
        for &(w, p) in graph.edges_from(v) {
            let Some(len) = length_within(p, zeta) else { continue };
            let nd = d + len;
            if nd > zeta {
                continue;
            }
            let s = slot(w);
            if nd < dist[s] {
                if dist[s] == f64::INFINITY {
                    touched.push(s);
                }
                dist[s] = nd;
                heap.push(Reverse((nd.to_bits(), w)));
            }
        }
    }
    out.sort_by_key(|&(w, _)| w);
    for t in touched.drain(..) {
        dist[t] = f64::INFINITY;
    }
    out
}

/// The inferred set of `q` with each target's `Pr[m_p | m_q]` (the
/// largest path lower bound of Eq. 10, reported as `exp(−dist)`), sorted
/// by target: the textbook truncated Dijkstra from one source over the
/// global graph. The self entry is `(q, 1.0)` and every probability is
/// in `[τ, 1]` up to the rounding of `exp(ln τ)`.
pub fn inferred_probabilities(graph: &ProbErGraph, tau: f64, q: PairId) -> Vec<(PairId, f64)> {
    probabilities_within(graph, tau, q, graph.num_vertices(), PairId::index)
}

/// [`inferred_probabilities`] with the search's distances indexed by
/// `slot`, which must give every vertex `q` reaches its own index below
/// `width` (a component's member positions will do).
pub(crate) fn probabilities_within(
    graph: &ProbErGraph,
    tau: f64,
    q: PairId,
    width: usize,
    slot: impl Fn(PairId) -> usize,
) -> Vec<(PairId, f64)> {
    let mut dist = vec![f64::INFINITY; width];
    dijkstra_row(graph, zeta_of(tau), q, slot, &mut dist, &mut Vec::new())
        .into_iter()
        .map(|(w, d)| (w, (-d).exp()))
        .collect()
}

/// The `ζ = −log τ` path-length budget for threshold `tau`.
pub(crate) fn zeta_of(tau: f64) -> f64 {
    -tau.clamp(f64::MIN_POSITIVE, 1.0).ln()
}

/// Edge length `−ln p`, or `None` when the edge is absent or alone
/// already exceeds ζ (lengths are non-negative, so such an edge can never
/// lie on a ≤ ζ path). The one length rule of all three kernels.
fn length_within(p: f64, zeta: f64) -> Option<f64> {
    // NaN fails `p <= 0.0` and `p.min(1.0)` maps it to 1: test it first.
    if p.is_nan() || p <= 0.0 {
        return None; // Pr = 0 edges are removed (log 0), paper §VI-B
    }
    let len = -p.min(1.0).ln();
    (len <= zeta).then_some(len)
}

/// Truncated multi-source Dijkstra implementation of Algorithm 2's output.
///
/// Every source's search is independent, so the sources run data-parallel
/// under `par` (distance/touched buffers are per-worker scratch); each
/// inferred set is sorted by target, so the output is identical in every
/// [`Parallelism`] mode.
pub fn inferred_sets_dijkstra(graph: &ProbErGraph, tau: f64, par: &Parallelism) -> InferredSets {
    let zeta = zeta_of(tau);
    let n = graph.num_vertices();
    let sources: Vec<PairId> = (0..n as u32).map(PairId).collect();
    // dist buffer reused across a worker's sources: reset via `touched`.
    let per_source = par.par_map_with(
        &sources,
        || (vec![f64::INFINITY; n], Vec::<usize>::new()),
        |(dist, touched), &q| {
            dijkstra_row(graph, zeta, q, PairId::index, dist, touched)
                .into_iter()
                .map(|(w, _)| w)
                .collect()
        },
    );
    InferredSets::from_rows(per_source, tau)
}

/// A set of connected components of a [`ProbErGraph`] flattened into one
/// CSR whose vertices are addressed by `(component slot, member
/// position)`, built once per [`crate::LoopState::refresh`] over the
/// dirty components.
///
/// Each edge's length is computed once at build time and edges no ≤ ζ
/// path can use (`p ≤ 0`, NaN, length > ζ) are dropped. Edges never leave
/// their component, so a target is stored as its position within the
/// component, and a search's distances are indexed by position. Members
/// are ascending within a component, so position order is [`PairId`]
/// order: rows come out sorted without sorting.
pub(crate) struct ComponentView {
    zeta: f64,
    /// Per component slot: the index of its first vertex in `members`,
    /// plus one trailing entry (the total).
    bases: Vec<u32>,
    /// Every component's members, concatenated in slot order.
    members: Vec<PairId>,
    /// Per vertex (indexed like `members`), plus one trailing entry: the
    /// start of its row in `edges`.
    offsets: Vec<u32>,
    /// `(target position within the component, edge length)`.
    edges: Vec<(u32, f64)>,
    /// Members of the largest component: the width of a search's scratch.
    width: usize,
}

/// Per-worker scratch of [`ComponentView::row`]: distances all `∞` and
/// the other buffers empty between searches.
pub(crate) struct ViewScratch {
    dist: Vec<f64>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ComponentView {
    /// Flattens `components` (each a member list sorted ascending, closed
    /// under `graph`'s edges) in one sequential pass; `position_of(v)` is
    /// `v`'s index in its component's member list.
    pub(crate) fn build<'m>(
        graph: &ProbErGraph,
        tau: f64,
        components: impl IntoIterator<Item = &'m [PairId]>,
        position_of: impl Fn(PairId) -> usize,
    ) -> ComponentView {
        let zeta = zeta_of(tau);
        let mut view = ComponentView {
            zeta,
            bases: vec![0],
            members: Vec::new(),
            offsets: vec![0],
            edges: Vec::new(),
            width: 0,
        };
        for members in components {
            view.members.extend_from_slice(members);
            assert!(view.members.len() <= u32::MAX as usize, "vertex count overflows view offsets");
            view.bases.push(view.members.len() as u32);
            view.width = view.width.max(members.len());
            for &v in members {
                for &(w, p) in graph.edges_from(v) {
                    if let Some(len) = length_within(p, zeta) {
                        let pos = position_of(w);
                        debug_assert_eq!(
                            members[pos], w,
                            "edge {v:?} → {w:?} leaves its component"
                        );
                        view.edges.push((pos as u32, len));
                    }
                }
                assert!(view.edges.len() <= u32::MAX as usize, "edge count overflows view offsets");
                view.offsets.push(view.edges.len() as u32);
            }
        }
        view
    }

    /// Every `(slot, position)` whose member satisfies `keep`, in view
    /// order.
    pub(crate) fn sources(&self, keep: impl Fn(PairId) -> bool) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (slot, span) in self.bases.windows(2).enumerate() {
            for (pos, &v) in self.members[span[0] as usize..span[1] as usize].iter().enumerate() {
                if keep(v) {
                    out.push((slot as u32, pos as u32));
                }
            }
        }
        out
    }

    /// The pair at `(slot, position)`.
    pub(crate) fn pair(&self, (slot, pos): (u32, u32)) -> PairId {
        self.members[self.bases[slot as usize] as usize + pos as usize]
    }

    /// Fresh scratch wide enough for any search in this view.
    pub(crate) fn scratch(&self) -> ViewScratch {
        ViewScratch {
            dist: vec![f64::INFINITY; self.width],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// The inferred set of the pair at `(slot, position)`, sorted by
    /// target: every vertex within ζ, each settled once at its final
    /// distance.
    pub(crate) fn row(&self, (slot, source): (u32, u32), scratch: &mut ViewScratch) -> Vec<PairId> {
        let ViewScratch { dist, touched, heap } = scratch;
        let base = self.bases[slot as usize] as usize;
        let zeta = self.zeta;
        dist[source as usize] = 0.0;
        touched.push(source);
        heap.push(Reverse((0.0f64.to_bits(), source)));
        while let Some(Reverse((bits, v))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[v as usize] {
                continue; // stale entry
            }
            let g = base + v as usize;
            let row = &self.edges[self.offsets[g] as usize..self.offsets[g + 1] as usize];
            for &(w, len) in row {
                let nd = d + len;
                if nd > zeta {
                    continue;
                }
                let w = w as usize;
                if nd < dist[w] {
                    if dist[w] == f64::INFINITY {
                        touched.push(w as u32);
                    }
                    dist[w] = nd;
                    heap.push(Reverse((nd.to_bits(), w as u32)));
                }
            }
        }
        touched.sort_unstable();
        let members = &self.members[base..];
        let out = touched.iter().map(|&p| members[p as usize]).collect();
        for t in touched.drain(..) {
            dist[t as usize] = f64::INFINITY;
        }
        out
    }
}

/// A target-sorted `(vertex, distance)` row with binary-search lookups —
/// the dense-layout stand-in for the per-vertex `BTreeMap` the paper's
/// pseudo-code implies. Iteration order (ascending vertex) is identical
/// to the ordered map it replaced.
#[derive(Clone, Debug, Default)]
struct SortedRow(Vec<(PairId, f64)>);

impl SortedRow {
    fn get(&self, k: PairId) -> Option<f64> {
        self.0.binary_search_by_key(&k, |&(w, _)| w).ok().map(|i| self.0[i].1)
    }

    fn insert(&mut self, k: PairId, v: f64) {
        match self.0.binary_search_by_key(&k, |&(w, _)| w) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (k, v)),
        }
    }

    fn entries(&self) -> impl Iterator<Item = (PairId, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// Algorithm 2: threshold Floyd–Warshall with per-vertex ordered rows
/// (`bt(q)` / `bt⁻¹(q)` in the paper).
///
/// The intermediate-vertex loop relaxes `r → k → p` whenever both halves
/// are within ζ; every subpath of a ≤ ζ shortest path is ≤ ζ (non-negative
/// lengths), so thresholding loses nothing.
pub fn inferred_sets_floyd_warshall(graph: &ProbErGraph, tau: f64) -> InferredSets {
    let per_source = floyd_warshall_rows(graph, tau)
        .into_iter()
        .map(|row| row.into_iter().map(|(w, _)| w).collect())
        .collect();
    InferredSets::from_rows(per_source, tau)
}

/// [`inferred_sets_floyd_warshall`]'s rows as `(target, distance)`,
/// sorted by target, the self entry at distance 0.
fn floyd_warshall_rows(graph: &ProbErGraph, tau: f64) -> Vec<Vec<(PairId, f64)>> {
    let zeta = zeta_of(tau);
    let n = graph.num_vertices();
    // bt[q]: distances q → p (≤ ζ); bt_inv[q]: distances r → q.
    let mut bt: Vec<SortedRow> = vec![SortedRow::default(); n];
    let mut bt_inv: Vec<SortedRow> = vec![SortedRow::default(); n];
    for (q, row) in bt.iter_mut().enumerate() {
        for &(w, p) in graph.edges_from(PairId(q as u32)) {
            if w.index() == q {
                continue; // self-loops are irrelevant: dist(q,q) = 0
            }
            let Some(len) = length_within(p, zeta) else { continue };
            let cur = row.get(w).unwrap_or(f64::INFINITY);
            if len < cur {
                row.insert(w, len);
                bt_inv[w.index()].insert(PairId(q as u32), len);
            }
        }
    }

    for k in 0..n {
        let k_id = PairId(k as u32);
        // Snapshot to decouple iteration from mutation; the FW invariant
        // only needs the state at the start of iteration k.
        let into_k: Vec<(PairId, f64)> = bt_inv[k].entries().collect();
        let from_k: Vec<(PairId, f64)> = bt[k].entries().collect();
        for &(r, d1) in &into_k {
            if r == k_id {
                continue;
            }
            for &(p, d2) in &from_k {
                if p == k_id || p == r {
                    continue;
                }
                let d = d1 + d2;
                if d > zeta {
                    continue;
                }
                let cur = bt[r.index()].get(p).unwrap_or(f64::INFINITY);
                if d < cur {
                    bt[r.index()].insert(p, d);
                    bt_inv[p.index()].insert(r, d);
                }
            }
        }
    }

    bt.into_iter()
        .enumerate()
        .map(|(q, row)| {
            let mut out = row.0;
            out.push((PairId(q as u32), 0.0));
            out.sort_by_key(|&(w, _)| w);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SEQ: &Parallelism = &Parallelism::Sequential;
    const POOL: &Parallelism = &Parallelism::Fixed(3);

    fn graph(n: usize, edges: &[(u32, u32, f64)]) -> ProbErGraph {
        ProbErGraph::from_edges(n, edges.iter().map(|&(v, w, p)| (PairId(v), PairId(w), p)))
    }

    /// `Pr[m_target | m_source]` from the public one-source call.
    fn probability(g: &ProbErGraph, tau: f64, source: u32, target: u32) -> f64 {
        let row = inferred_probabilities(g, tau, PairId(source));
        row.iter().find(|&&(w, _)| w == PairId(target)).expect("target is inferred").1
    }

    #[test]
    fn self_is_always_inferred() {
        let g = graph(3, &[]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        for q in 0..3 {
            assert_eq!(s.inferred(PairId(q)), &[PairId(q)]);
            assert_eq!(inferred_probabilities(&g, 0.9, PairId(q)), vec![(PairId(q), 1.0)]);
        }
    }

    #[test]
    fn chain_multiplies_probabilities() {
        // 0 →0.95→ 1 →0.95→ 2 : Pr[2|0] = 0.9025 ≥ 0.9
        let g = graph(3, &[(0, 1, 0.95), (1, 2, 0.95)]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        assert_eq!(s.inferred(PairId(0)), &[PairId(0), PairId(1), PairId(2)]);
        assert!((probability(&g, 0.9, 0, 2) - 0.9025).abs() < 1e-9);
    }

    #[test]
    fn threshold_cuts_long_chains() {
        // Pr[2|0] = 0.81 < 0.9 → excluded.
        let g = graph(3, &[(0, 1, 0.9), (1, 2, 0.9)]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        let inf0 = s.inferred(PairId(0));
        assert!(inf0.contains(&PairId(1)));
        assert!(!inf0.contains(&PairId(2)));
    }

    #[test]
    fn best_path_wins() {
        // Direct weak edge 0→2 (0.91) vs 2-hop strong path (0.98² = 0.9604).
        let g = graph(3, &[(0, 2, 0.91), (0, 1, 0.98), (1, 2, 0.98)]);
        assert!((probability(&g, 0.9, 0, 2) - 0.9604).abs() < 1e-9);
    }

    #[test]
    fn zero_probability_edges_removed() {
        let g = graph(2, &[(0, 1, 0.0)]);
        let s = inferred_sets_dijkstra(&g, 0.5, SEQ);
        assert_eq!(s.inferred(PairId(0)).len(), 1);
    }

    #[test]
    fn directedness_respected() {
        let g = graph(2, &[(0, 1, 0.99)]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        assert_eq!(s.inferred(PairId(0)).len(), 2);
        assert_eq!(s.inferred(PairId(1)).len(), 1, "no reverse edge");
    }

    #[test]
    fn set_row_keeps_the_entry_count() {
        let mut s = inferred_sets_dijkstra(&graph(3, &[(0, 1, 0.99)]), 0.9, SEQ);
        assert_eq!(s.total_size(), 4);
        s.set_row(PairId(2), Vec::new());
        assert_eq!(s.total_size(), 3);
        s.set_row(PairId(1), vec![PairId(1), PairId(2)]);
        assert_eq!(s.total_size(), 4);
        s.set_row(PairId(0), vec![PairId(0)]);
        assert_eq!(s.total_size(), 3);
        assert!(s.inferred(PairId(2)).is_empty());
    }

    /// All of `graph` as one component (positions are vertex ids), every
    /// vertex a source: the view kernel's output in `InferredSets` order.
    fn view_rows(graph: &ProbErGraph, tau: f64) -> Vec<Vec<PairId>> {
        let members: Vec<PairId> = (0..graph.num_vertices() as u32).map(PairId).collect();
        let view = ComponentView::build(graph, tau, [members.as_slice()], PairId::index);
        let mut scratch = view.scratch();
        view.sources(|_| true).into_iter().map(|s| view.row(s, &mut scratch)).collect()
    }

    #[test]
    fn nan_edge_infers_nothing() {
        // `from_edges` rejects NaN, so plant it through row replacement —
        // the path the loop's computed edge lists take.
        let mut g = ProbErGraph::empty(2);
        g.replace_edges(PairId(0), vec![(PairId(1), f64::NAN)]);
        let dijkstra = inferred_sets_dijkstra(&g, 0.5, SEQ);
        let fw = inferred_sets_floyd_warshall(&g, 0.5);
        let view = view_rows(&g, 0.5);
        for q in 0..2 {
            let only_self = [PairId(q)];
            assert_eq!(dijkstra.inferred(PairId(q)), only_self.as_slice());
            assert_eq!(fw.inferred(PairId(q)), only_self.as_slice());
            assert_eq!(view[q as usize], only_self);
            assert_eq!(inferred_probabilities(&g, 0.5, PairId(q)), vec![(PairId(q), 1.0)]);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite probability")]
    fn from_edges_rejects_nan() {
        graph(2, &[(0, 1, f64::NAN)]);
    }

    #[test]
    fn tau_one_keeps_only_certain_edges() {
        // τ = 1 → ζ = −0.0: only p = 1 edges (length −0.0) survive, and
        // the path 0 → 1 → 2 stays at distance +0.0.
        let g = graph(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.999_999)]);
        let ids = vec![PairId(0), PairId(1), PairId(2)];
        let probabilities = vec![(PairId(0), 1.0), (PairId(1), 1.0), (PairId(2), 1.0)];
        assert_eq!(inferred_sets_dijkstra(&g, 1.0, SEQ).inferred(PairId(0)), ids.as_slice());
        assert_eq!(inferred_probabilities(&g, 1.0, PairId(0)), probabilities);
        assert_eq!(view_rows(&g, 1.0)[0], ids);
    }

    /// Floyd–Warshall's rows as probabilities, to compare with
    /// [`inferred_probabilities`] within float tolerance.
    fn fw_probabilities(g: &ProbErGraph, tau: f64) -> Vec<Vec<(PairId, f64)>> {
        floyd_warshall_rows(g, tau)
            .into_iter()
            .map(|row| row.into_iter().map(|(w, d)| (w, (-d).exp())).collect())
            .collect()
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_on_fixture() {
        let g = graph(
            5,
            &[(0, 1, 0.95), (1, 2, 0.97), (2, 3, 0.99), (0, 3, 0.91), (3, 4, 0.5), (4, 0, 0.99)],
        );
        let a = inferred_sets_dijkstra(&g, 0.9, SEQ);
        let b = inferred_sets_floyd_warshall(&g, 0.9);
        let fw = fw_probabilities(&g, 0.9);
        for q in 0..5 {
            assert_eq!(a.inferred(PairId(q)), b.inferred(PairId(q)), "q = {q}");
            let xs = inferred_probabilities(&g, 0.9, PairId(q));
            let ys = &fw[q as usize];
            assert_eq!(xs.len(), ys.len(), "q = {q}: {xs:?} vs {ys:?}");
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-9);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The two Algorithm 2 implementations agree on random graphs, and
        /// the Dijkstra side agrees with itself *bit for bit* at every
        /// thread count. This pins the oracle the incremental loop engine
        /// is verified against: `LoopState` recomputes per-source rows via
        /// the same truncated Dijkstra, so FW ≡ Dijkstra (within float
        /// tolerance) plus Dijkstra ≡ Dijkstra across pools (exactly)
        /// grounds the whole equivalence chain.
        #[test]
        fn fw_equals_dijkstra_across_thread_counts(
            edges in proptest::collection::vec((0u32..8, 0u32..8, 0.5f64..1.0), 0..40),
            tau in 0.6f64..0.95
        ) {
            let g = graph(8, &edges);
            let a = inferred_sets_dijkstra(&g, tau, SEQ);
            let b = inferred_sets_floyd_warshall(&g, tau);
            let fw = fw_probabilities(&g, tau);
            for par in [POOL, &Parallelism::Fixed(7)] {
                let pooled = inferred_sets_dijkstra(&g, tau, par);
                for q in 0..8 {
                    // Pool runs are bit-identical to the sequential run…
                    prop_assert_eq!(pooled.inferred(PairId(q)), a.inferred(PairId(q)));
                }
            }
            for q in 0..8 {
                // …and the sequential run matches the paper's Algorithm 2:
                // the same id rows, the same probabilities within
                // tolerance.
                prop_assert_eq!(a.inferred(PairId(q)), b.inferred(PairId(q)));
                let xs = inferred_probabilities(&g, tau, PairId(q));
                let ys = &fw[q as usize];
                prop_assert_eq!(xs.len(), ys.len(), "q={}: {:?} vs {:?}", q, xs, ys);
                for (x, y) in xs.iter().zip(ys) {
                    prop_assert_eq!(x.0, y.0);
                    prop_assert!((x.1 - y.1).abs() < 1e-9);
                }
            }
        }

        /// The loop's kernels equal the textbook kernel over the global
        /// graph bit for bit, for every source, sequentially and pooled:
        /// the id rows of a flat view of several components, and the
        /// probability rows with distances indexed by component position
        /// (what a session snapshots) against [`inferred_probabilities`].
        /// Vertex `v`
        /// joins component `comp[v]`, so members interleave across
        /// components and positions differ from ids. Edge probabilities
        /// mix exact 0, τ and 1, draws above and below τ, two fixed
        /// values that make equal-length paths common, and uniform draws;
        /// self-loops come from `i == j`; `tau_pick == 0` sets τ = 1
        /// (ζ = −0.0).
        #[test]
        fn view_kernel_equals_textbook_kernel(
            comp in proptest::collection::vec(0usize..4, 1..24),
            edges in proptest::collection::vec((0usize..4, 0usize..8, 0usize..8, 0u8..8, 0.0f64..1.0), 0..60),
            tau_pick in 0u8..4,
            tau_draw in 0.5f64..0.99
        ) {
            let tau = if tau_pick == 0 { 1.0 } else { tau_draw };
            let n = comp.len();
            let mut members: Vec<Vec<PairId>> = vec![Vec::new(); 4];
            let mut position = vec![0usize; n];
            for (v, &c) in comp.iter().enumerate() {
                position[v] = members[c].len();
                members[c].push(PairId::from_index(v));
            }
            let mut list = Vec::new();
            for &(c, i, j, pick, x) in &edges {
                let m = &members[c];
                if m.is_empty() {
                    continue;
                }
                let p = match pick {
                    0 => 0.0,
                    1 => tau,
                    2 => 1.0,
                    3 => 0.95,
                    4 => 0.9,
                    5 => tau + (1.0 - tau) * x,
                    6 => tau * x,
                    _ => x,
                };
                list.push((m[i % m.len()].0, m[j % m.len()].0, p));
            }
            let g = graph(n, &list);
            let bits = |row: &[(PairId, f64)]| -> Vec<(PairId, u64)> {
                row.iter().map(|&(w, p)| (w, p.to_bits())).collect()
            };
            let reference = inferred_sets_dijkstra(&g, tau, SEQ);
            let view = ComponentView::build(
                &g,
                tau,
                members.iter().map(Vec::as_slice),
                |v| position[v.index()],
            );
            let sources = view.sources(|_| true);
            prop_assert_eq!(sources.len(), n);
            for par in [SEQ, POOL] {
                let rows = par.par_map_with(&sources, || view.scratch(), |sc, &s| {
                    let q = view.pair(s);
                    let width = members[comp[q.index()]].len();
                    (view.row(s, sc), probabilities_within(&g, tau, q, width, |v| position[v.index()]))
                });
                for (&s, (ids, probabilities)) in sources.iter().zip(&rows) {
                    let q = view.pair(s);
                    prop_assert_eq!(ids.as_slice(), reference.inferred(q), "source {:?}", q);
                    prop_assert_eq!(
                        bits(probabilities),
                        bits(&inferred_probabilities(&g, tau, q)),
                        "source {:?}",
                        q
                    );
                }
            }
        }

        /// Every inferred probability is in [τ, 1] and the self-entry is 1;
        /// the probability rows name exactly the pooled id rows.
        #[test]
        fn inferred_probabilities_bounded(
            edges in proptest::collection::vec((0u32..6, 0u32..6, 0.0f64..1.0), 0..30),
            tau in 0.5f64..0.99
        ) {
            let g = graph(6, &edges);
            let s = inferred_sets_dijkstra(&g, tau, POOL);
            for q in 0..6 {
                let inf = inferred_probabilities(&g, tau, PairId(q));
                let ids: Vec<PairId> = inf.iter().map(|&(w, _)| w).collect();
                prop_assert_eq!(ids.as_slice(), s.inferred(PairId(q)));
                let me = inf.iter().find(|&&(w, _)| w == PairId(q)).expect("self entry");
                prop_assert!((me.1 - 1.0).abs() < 1e-12);
                for &(_, p) in &inf {
                    prop_assert!(p >= tau - 1e-9 && p <= 1.0 + 1e-12);
                }
            }
        }
    }
}
