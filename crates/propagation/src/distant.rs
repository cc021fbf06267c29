//! Distant match propagation (paper §V-C, Eq. 10) and inferred-set
//! discovery (§VI-B, Algorithm 2).
//!
//! Under the Markov assumption, `Pr[m_p | m_q] ≥ Π_i Pr[m_{v_i} | m_{v_{i−1}}]`
//! along any path `q = v_0, …, v_l = p`; the largest lower bound over paths
//! is used as the estimate. With `length(v, v') = −log Pr[m_{v'} | m_v]`
//! this is a shortest-path problem, and the threshold `Pr ≥ τ` becomes
//! `dist ≤ ζ = −log τ`.
//!
//! Two implementations:
//! * [`inferred_sets_floyd_warshall`] — the paper's Algorithm 2: threshold
//!   Floyd–Warshall over per-vertex ordered maps. Exact for all distances
//!   ≤ ζ because every subpath of a ≤ ζ path is itself ≤ ζ.
//! * [`inferred_sets_dijkstra`] — truncated Dijkstra from every vertex;
//!   identical output (property-tested), asymptotically faster on the
//!   sparse graphs the pipeline produces. The pipeline uses this one; the
//!   bench suite compares both (ablation).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use remp_ergraph::PairId;
use remp_par::Parallelism;

use crate::ProbErGraph;

/// The inferred match sets of every candidate question (Eq. 12):
/// `inferred(q) = { p : Pr[m_p | m_q] ≥ τ }`.
#[derive(Clone, Debug)]
pub struct InferredSets {
    /// `per_source[q]` = (target, `Pr[m_p | m_q]`), sorted by target;
    /// always contains `(q, 1.0)` itself.
    per_source: Vec<Vec<(PairId, f64)>>,
    tau: f64,
}

impl InferredSets {
    /// The inferred set of `q` as `(pair, probability)` entries.
    pub fn inferred(&self, q: PairId) -> &[(PairId, f64)] {
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

    /// Total size of all inferred sets (diagnostics).
    pub fn total_size(&self) -> usize {
        self.per_source.iter().map(Vec::len).sum()
    }

    /// All-empty sets over `n` sources — the starting point for
    /// incremental construction via [`set_row`](Self::set_row). Rows of
    /// retired components legitimately stay empty: nothing reads the
    /// inferred set of a resolved pair.
    pub(crate) fn empty(n: usize, tau: f64) -> InferredSets {
        InferredSets { per_source: vec![Vec::new(); n], tau }
    }

    /// Replaces one source's inferred set.
    pub(crate) fn set_row(&mut self, q: PairId, row: Vec<(PairId, f64)>) {
        self.per_source[q.index()] = row;
    }
}

/// One source's truncated Dijkstra (Algorithm 2's output for one row).
///
/// `dist`/`touched` are caller-provided scratch (distances all `∞` on
/// entry, restored on exit) so a worker can sweep many sources without
/// reallocating; `slot` maps each vertex the search can reach to its
/// distinct `dist` index. Shared by [`inferred_sets_dijkstra`] (global
/// vertex ids) and the incremental per-component recomputation in
/// [`crate::LoopState`] (positions within the component), so the two are
/// bit-identical by construction.
pub(crate) fn dijkstra_row(
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
    heap.push(MinDist(0.0, q));
    while let Some(MinDist(d, v)) = heap.pop() {
        if d > dist[slot(v)] {
            continue; // stale entry
        }
        out.push((v, (-d).exp()));
        for &(w, p) in graph.edges_from(v) {
            let Some(len) = length_within(p, zeta) else { continue };
            let nd = d + len;
            if nd > zeta {
                continue;
            }
            let sw = slot(w);
            if nd < dist[sw] {
                if dist[sw] == f64::INFINITY {
                    touched.push(sw);
                }
                dist[sw] = nd;
                heap.push(MinDist(nd, w));
            }
        }
    }
    out.sort_by_key(|&(w, _)| w);
    for t in touched.drain(..) {
        dist[t] = f64::INFINITY;
    }
    out
}

/// The `ζ = −log τ` path-length budget for threshold `tau`.
pub(crate) fn zeta_of(tau: f64) -> f64 {
    -tau.clamp(f64::MIN_POSITIVE, 1.0).ln()
}

/// Edge length `−ln p`, or `None` when the edge alone already exceeds ζ
/// (lengths are non-negative, so such an edge can never lie on a ≤ ζ path).
fn length_within(p: f64, zeta: f64) -> Option<f64> {
    if p <= 0.0 {
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
        |(dist, touched), &q| dijkstra_row(graph, zeta, q, PairId::index, dist, touched),
    );
    InferredSets { per_source, tau }
}

/// Min-heap entry ordered by distance.
#[derive(PartialEq)]
struct MinDist(f64, PairId);

impl Eq for MinDist {}

impl PartialOrd for MinDist {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinDist {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; ties broken by vertex for determinism.
        other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal).then_with(|| other.1.cmp(&self.1))
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
    let zeta = -tau.clamp(f64::MIN_POSITIVE, 1.0).ln();
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

    let per_source = bt
        .iter()
        .enumerate()
        .map(|(q, row)| {
            let mut out: Vec<(PairId, f64)> = row.entries().map(|(p, d)| (p, (-d).exp())).collect();
            out.push((PairId(q as u32), 1.0));
            out.sort_by_key(|&(w, _)| w);
            out
        })
        .collect();
    InferredSets { per_source, tau }
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

    #[test]
    fn self_is_always_inferred() {
        let g = graph(3, &[]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        for q in 0..3 {
            assert_eq!(s.inferred(PairId(q)), &[(PairId(q), 1.0)]);
        }
    }

    #[test]
    fn chain_multiplies_probabilities() {
        // 0 →0.95→ 1 →0.95→ 2 : Pr[2|0] = 0.9025 ≥ 0.9
        let g = graph(3, &[(0, 1, 0.95), (1, 2, 0.95)]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        let inf0 = s.inferred(PairId(0));
        assert_eq!(inf0.len(), 3);
        let p2 = inf0.iter().find(|&&(w, _)| w == PairId(2)).unwrap().1;
        assert!((p2 - 0.9025).abs() < 1e-9);
    }

    #[test]
    fn threshold_cuts_long_chains() {
        // Pr[2|0] = 0.81 < 0.9 → excluded.
        let g = graph(3, &[(0, 1, 0.9), (1, 2, 0.9)]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        let inf0 = s.inferred(PairId(0));
        assert!(inf0.iter().any(|&(w, _)| w == PairId(1)));
        assert!(!inf0.iter().any(|&(w, _)| w == PairId(2)));
    }

    #[test]
    fn best_path_wins() {
        // Direct weak edge 0→2 (0.91) vs 2-hop strong path (0.98² = 0.9604).
        let g = graph(3, &[(0, 2, 0.91), (0, 1, 0.98), (1, 2, 0.98)]);
        let s = inferred_sets_dijkstra(&g, 0.9, SEQ);
        let p2 = s.inferred(PairId(0)).iter().find(|&&(w, _)| w == PairId(2)).unwrap().1;
        assert!((p2 - 0.9604).abs() < 1e-9);
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
    fn floyd_warshall_matches_dijkstra_on_fixture() {
        let g = graph(
            5,
            &[(0, 1, 0.95), (1, 2, 0.97), (2, 3, 0.99), (0, 3, 0.91), (3, 4, 0.5), (4, 0, 0.99)],
        );
        let a = inferred_sets_dijkstra(&g, 0.9, SEQ);
        let b = inferred_sets_floyd_warshall(&g, 0.9);
        for q in 0..5 {
            let xs = a.inferred(PairId(q));
            let ys = b.inferred(PairId(q));
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
            for par in [POOL, &Parallelism::Fixed(7)] {
                let pooled = inferred_sets_dijkstra(&g, tau, par);
                for q in 0..8 {
                    // Pool runs are bit-identical to the sequential run…
                    prop_assert_eq!(pooled.inferred(PairId(q)), a.inferred(PairId(q)));
                }
            }
            for q in 0..8 {
                // …and the sequential run matches the paper's Algorithm 2.
                let xs = a.inferred(PairId(q));
                let ys = b.inferred(PairId(q));
                prop_assert_eq!(xs.len(), ys.len(), "q={}: {:?} vs {:?}", q, xs, ys);
                for (x, y) in xs.iter().zip(ys) {
                    prop_assert_eq!(x.0, y.0);
                    prop_assert!((x.1 - y.1).abs() < 1e-9);
                }
            }
        }

        /// Every inferred probability is in [τ, 1] and the self-entry is 1.
        #[test]
        fn inferred_probabilities_bounded(
            edges in proptest::collection::vec((0u32..6, 0u32..6, 0.0f64..1.0), 0..30),
            tau in 0.5f64..0.99
        ) {
            let g = graph(6, &edges);
            let s = inferred_sets_dijkstra(&g, tau, POOL);
            for q in 0..6 {
                let inf = s.inferred(PairId(q));
                let me = inf.iter().find(|&&(w, _)| w == PairId(q)).expect("self entry");
                prop_assert!((me.1 - 1.0).abs() < 1e-12);
                for &(_, p) in inf {
                    prop_assert!(p >= tau - 1e-9 && p <= 1.0 + 1e-12);
                }
            }
        }
    }
}
