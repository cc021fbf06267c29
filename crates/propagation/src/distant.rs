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
//!   position-indexed CSR with every edge length computed once. A
//!   component with no *near-zero* edge (length ≤ δ = ζ / (64·n) in both
//!   directions, n its width) runs truncated Dijkstra from each eligible
//!   source over that view. Otherwise the pairs such edges join form
//!   *clusters*, and one truncated Dijkstra per cluster over the condensed
//!   graph (every other edge, with its own length) gives the row of every
//!   source in the cluster, guarded as below; a source whose search meets
//!   a cluster the guard cannot decide runs the per-source search instead.
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
//!
//! **Why cluster rows are exact.** Float addition is monotone, so a
//! Dijkstra distance is the least left-to-right float sum over all paths,
//! and dropping a path's hops inside clusters never raises its sum: no
//! pair of a cluster at condensed distance `d > ζ`, or never reached, is
//! within ζ. Conversely a sum of k < n < 2³² terms is within a factor
//! `1 ± 2⁻²¹(1+2⁻²⁰)` of its exact value, and joining the condensed path
//! with near-zero paths inside the clusters it crosses adds at most `n·t`
//! (t: the component's largest joined near-zero length). So a cluster with
//! `(d·(1+2⁻²⁰) + n·t)·(1+2⁻²⁰) ≤ ζ` is within ζ; the factors' spare half
//! covers the guard's own roundings. Any other cluster is undecided.

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

/// 2⁻²⁰: the relative slack of the cluster guard (see the module docs).
const GUARD: f64 = 1.0 / 1_048_576.0;

/// Whether every pair of a cluster at condensed distance `d` is within ζ
/// of the source, whatever near-zero detours the joined path makes inside
/// the clusters it crosses (`slack` = n·t; see the module docs).
fn surely_within(d: f64, slack: f64, zeta: f64) -> bool {
    (d * (1.0 + GUARD) + slack) * (1.0 + GUARD) <= zeta
}

/// The root of `x`'s set in a union-find `forest`, halving the path.
fn root(forest: &mut [u32], mut x: u32) -> u32 {
    while forest[x as usize] != x {
        let up = forest[forest[x as usize] as usize];
        forest[x as usize] = up;
        x = up;
    }
    x
}

/// Unites the sets of `a` and `b` under the smaller root, so every root
/// is the first position of its set.
fn join(forest: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (root(forest, a), root(forest, b));
    forest[ra.max(rb) as usize] = ra.min(rb);
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
///
/// The same pass finds each component's near-zero edges (see the module
/// docs). A component with one also gets its clusters and a second,
/// condensed CSR over them; all of it lives in buffers shared by the
/// whole view, so no component allocates.
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
    /// Per component slot, plus one trailing entry: the index of its
    /// first cluster. A component without near-zero edges has none.
    cluster_bases: Vec<u32>,
    /// Per component slot: the guard's slack `n·t` (0 without clusters).
    slack: Vec<f64>,
    /// Per cluster, plus one trailing entry: the start of its members in
    /// `cluster_members`.
    cluster_offsets: Vec<u32>,
    /// Every cluster's member positions, ascending within a cluster.
    cluster_members: Vec<u32>,
    /// Per cluster, plus one trailing entry: the start of its row in
    /// `condensed`.
    condensed_offsets: Vec<u32>,
    /// `(target cluster within the component, edge length)`: every view
    /// edge between two clusters, with its own length.
    condensed: Vec<(u32, f64)>,
}

/// Per-worker scratch of [`ComponentView`]'s searches, empty between
/// searches.
struct ViewScratch {
    search: SearchScratch,
    /// Positions of the pairs a cluster search places within ζ.
    picked: Vec<u32>,
}

/// One truncated Dijkstra's state: distances all `∞` and the other
/// buffers empty between searches.
struct SearchScratch {
    dist: Vec<f64>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// One unit of [`ComponentView::inferred_rows`]'s parallel work.
#[derive(Clone, Copy)]
enum Search {
    /// The row of the source at `(slot, position)`, in a component
    /// without clusters.
    Source(u32, u32),
    /// The row shared by the eligible members of cluster `.1` (a view
    /// cluster index) of component slot `.0`.
    Cluster(u32, u32),
}

/// What one [`ComponentView::inferred_rows`] call computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RowStats {
    /// Rows written: one per eligible source.
    pub(crate) sources: usize,
    /// Their summed length.
    pub(crate) entries: usize,
    /// Condensed searches, one per cluster holding an eligible source.
    pub(crate) cluster_searches: usize,
    /// Sources that ran their own search because their cluster's search
    /// met a cluster the guard could not decide.
    pub(crate) fallback_sources: usize,
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
            cluster_bases: vec![0],
            slack: Vec::new(),
            cluster_offsets: vec![0],
            cluster_members: Vec::new(),
            condensed_offsets: vec![0],
            condensed: Vec::new(),
        };
        // Union-find parents and cluster labels by position, shared by
        // every component of the build.
        let mut forest: Vec<u32> = Vec::new();
        let mut label: Vec<u32> = Vec::new();
        for members in components {
            let first = view.members.len();
            view.members.extend_from_slice(members);
            assert!(view.members.len() <= u32::MAX as usize, "vertex count overflows view offsets");
            view.bases.push(view.members.len() as u32);
            view.width = view.width.max(members.len());
            let n = members.len();
            let delta = zeta / (64.0 * n as f64);
            forest.clear();
            forest.extend(0..n as u32);
            // The largest length of a near-zero edge joined so far.
            let mut near: Option<f64> = None;
            for (i, &v) in members.iter().enumerate() {
                for &(w, p) in graph.edges_from(v) {
                    if let Some(len) = length_within(p, zeta) {
                        let pos = position_of(w);
                        debug_assert_eq!(
                            members[pos], w,
                            "edge {v:?} → {w:?} leaves its component"
                        );
                        // The edge back from an earlier position is
                        // already in the view.
                        if pos < i && len <= delta {
                            let back = view.length(first + pos, i as u32);
                            if let Some(back) = back.filter(|&b| b <= delta) {
                                join(&mut forest, pos as u32, i as u32);
                                let t = len.max(back);
                                near = Some(near.map_or(t, |m| m.max(t)));
                            }
                        }
                        view.edges.push((pos as u32, len));
                    }
                }
                assert!(view.edges.len() <= u32::MAX as usize, "edge count overflows view offsets");
                view.offsets.push(view.edges.len() as u32);
            }
            match near {
                Some(t) => view.condense(first, n as f64 * t, &mut forest, &mut label),
                None => view.slack.push(0.0),
            }
            view.cluster_bases.push((view.cluster_offsets.len() - 1) as u32);
        }
        view
    }

    /// The length of the view edge from vertex `g` (a `members` index) to
    /// position `target`, if its row holds one. Rows are sorted by
    /// position; a row that is not only misses an edge, which leaves the
    /// pair unjoined and the rows exact.
    fn length(&self, g: usize, target: u32) -> Option<f64> {
        let row = &self.edges[self.offsets[g] as usize..self.offsets[g + 1] as usize];
        row.binary_search_by_key(&target, |&(w, _)| w).ok().map(|k| row[k].1)
    }

    /// Records the clusters of the component just flattened, whose first
    /// vertex is `members[first]`, with `forest` joining its positions,
    /// and its condensed CSR. `label` is scratch.
    fn condense(&mut self, first: usize, slack: f64, forest: &mut [u32], label: &mut Vec<u32>) {
        self.slack.push(slack);
        let n = forest.len();
        // Clusters are numbered in order of their first position: a root
        // is its set's first position, so it is labelled before the rest.
        label.clear();
        let mut clusters = 0;
        for i in 0..n as u32 {
            let r = root(forest, i);
            label.push(if r == i { clusters } else { label[r as usize] });
            clusters += u32::from(r == i);
        }
        // The parents are spent: `forest` now counts each cluster's
        // members, then serves as the fill cursor of each cluster.
        let cursor = &mut forest[..clusters as usize];
        cursor.fill(0);
        for &c in label.iter() {
            cursor[c as usize] += 1;
        }
        let mut at = self.cluster_members.len() as u32;
        for slot in cursor.iter_mut() {
            let size = *slot;
            *slot = at;
            at += size;
        }
        self.cluster_members.resize(at as usize, 0);
        for (pos, &c) in label.iter().enumerate() {
            self.cluster_members[cursor[c as usize] as usize] = pos as u32;
            cursor[c as usize] += 1;
        }
        // Each cursor ended at its cluster's end, the next one's start.
        let start = self.cluster_offsets.len() - 1;
        self.cluster_offsets.extend_from_slice(cursor);
        for c in start..start + clusters as usize {
            let span = self.cluster_offsets[c] as usize..self.cluster_offsets[c + 1] as usize;
            for &pos in &self.cluster_members[span] {
                let g = first + pos as usize;
                let row = &self.edges[self.offsets[g] as usize..self.offsets[g + 1] as usize];
                let own = label[pos as usize];
                for &(w, len) in row {
                    if label[w as usize] != own {
                        self.condensed.push((label[w as usize], len));
                    }
                }
            }
            assert!(self.condensed.len() <= u32::MAX as usize, "edge count overflows view offsets");
            self.condensed_offsets.push(self.condensed.len() as u32);
        }
    }

    /// The pair at `(slot, position)`.
    fn pair(&self, (slot, pos): (u32, u32)) -> PairId {
        self.members[self.bases[slot as usize] as usize + pos as usize]
    }

    /// Fresh scratch wide enough for any search in this view.
    fn scratch(&self) -> ViewScratch {
        ViewScratch {
            search: SearchScratch {
                dist: vec![f64::INFINITY; self.width],
                touched: Vec::new(),
                heap: BinaryHeap::new(),
            },
            picked: Vec::new(),
        }
    }

    /// Writes the inferred set of every member that satisfies `keep`
    /// through `emit`, in no particular order: one search per cluster
    /// holding such a member, one per such member of a component without
    /// clusters, and one per member of a cluster whose search met a
    /// cluster the guard could not decide. Searches run under `par`.
    pub(crate) fn inferred_rows(
        &self,
        par: &Parallelism,
        keep: impl Fn(PairId) -> bool,
        mut emit: impl FnMut(PairId, Vec<PairId>),
    ) -> RowStats {
        let mut searches = Vec::new();
        for slot in 0..self.slack.len() as u32 {
            let clusters = self.cluster_bases[slot as usize]..self.cluster_bases[slot as usize + 1];
            if clusters.is_empty() {
                let span = self.bases[slot as usize]..self.bases[slot as usize + 1];
                searches.extend(
                    (0..span.end - span.start)
                        .filter(|&pos| keep(self.pair((slot, pos))))
                        .map(|pos| Search::Source(slot, pos)),
                );
            } else {
                searches.extend(
                    clusters
                        .filter(|&c| self.cluster_sources(slot, c, &keep).next().is_some())
                        .map(|c| Search::Cluster(slot, c)),
                );
            }
        }
        let found = par.par_map_with(
            &searches,
            || self.scratch(),
            |scratch, &search| match search {
                Search::Source(slot, pos) => Some(self.row((slot, pos), scratch)),
                Search::Cluster(slot, cluster) => self.cluster_row(slot, cluster, scratch),
            },
        );
        let mut stats = RowStats::default();
        let mut write = |stats: &mut RowStats, q: PairId, row: Vec<PairId>| {
            stats.sources += 1;
            stats.entries += row.len();
            emit(q, row);
        };
        let mut undecided = Vec::new();
        for (&search, row) in searches.iter().zip(found) {
            let (slot, cluster) = match search {
                Search::Source(slot, pos) => {
                    let row = row.expect("a source's own search always ends");
                    write(&mut stats, self.pair((slot, pos)), row);
                    continue;
                }
                Search::Cluster(slot, cluster) => (slot, cluster),
            };
            stats.cluster_searches += 1;
            let mut sources = self.cluster_sources(slot, cluster, &keep).peekable();
            let Some(row) = row else {
                undecided.extend(sources);
                continue;
            };
            // Copies at exact capacity; the last source keeps the row.
            while let Some(s) = sources.next() {
                if sources.peek().is_none() {
                    write(&mut stats, self.pair(s), row);
                    break;
                }
                write(&mut stats, self.pair(s), row.clone());
            }
        }
        stats.fallback_sources = undecided.len();
        if !undecided.is_empty() {
            let rows =
                par.par_map_with(&undecided, || self.scratch(), |scratch, &s| self.row(s, scratch));
            for (&s, row) in undecided.iter().zip(rows) {
                write(&mut stats, self.pair(s), row);
            }
        }
        stats
    }

    /// The `(slot, position)` of every member of view cluster `cluster`
    /// of component `slot` that satisfies `keep`, in position order.
    fn cluster_sources<'a>(
        &'a self,
        slot: u32,
        cluster: u32,
        keep: &'a impl Fn(PairId) -> bool,
    ) -> impl Iterator<Item = (u32, u32)> + 'a {
        let span = self.cluster_offsets[cluster as usize] as usize
            ..self.cluster_offsets[cluster as usize + 1] as usize;
        self.cluster_members[span]
            .iter()
            .map(move |&pos| (slot, pos))
            .filter(move |&s| keep(self.pair(s)))
    }

    /// The inferred set of the pair at `(slot, position)`, sorted by
    /// target: every vertex within ζ.
    fn row(&self, (slot, source): (u32, u32), scratch: &mut ViewScratch) -> Vec<PairId> {
        let base = self.bases[slot as usize] as usize;
        let row = |v: u32| {
            let g = base + v as usize;
            &self.edges[self.offsets[g] as usize..self.offsets[g + 1] as usize]
        };
        let search = &mut scratch.search;
        search.run(self.zeta, row, source, |_, _| true);
        search.touched.sort_unstable();
        let members = &self.members[base..];
        let out = search.touched.iter().map(|&p| members[p as usize]).collect();
        search.touched.clear();
        out
    }

    /// The row shared by every member of view cluster `cluster` of
    /// component `slot`: truncated Dijkstra over the condensed graph, the
    /// members of every cluster it settles, in position order. `None` when
    /// it settles a cluster the guard cannot place within ζ; clusters
    /// beyond ζ are never settled, and hold no pair within ζ.
    fn cluster_row(
        &self,
        slot: u32,
        cluster: u32,
        scratch: &mut ViewScratch,
    ) -> Option<Vec<PairId>> {
        let ViewScratch { search, picked } = scratch;
        let first = self.cluster_bases[slot as usize];
        let slack = self.slack[slot as usize];
        let zeta = self.zeta;
        let row = |x: u32| {
            let c = (first + x) as usize;
            &self.condensed
                [self.condensed_offsets[c] as usize..self.condensed_offsets[c + 1] as usize]
        };
        let decided = search.run(zeta, row, cluster - first, |x, d| {
            if !surely_within(d, slack, zeta) {
                return false;
            }
            let c = (first + x) as usize;
            let span = self.cluster_offsets[c] as usize..self.cluster_offsets[c + 1] as usize;
            picked.extend_from_slice(&self.cluster_members[span]);
            true
        });
        search.touched.clear();
        let row = decided.then(|| {
            picked.sort_unstable();
            let members = &self.members[self.bases[slot as usize] as usize..];
            picked.iter().map(|&p| members[p as usize]).collect()
        });
        picked.clear();
        row
    }
}

impl SearchScratch {
    /// Truncated Dijkstra from `source` over one component's CSR rows,
    /// `row(v)` being vertex `v`'s `(target, length)` edges. `settle`
    /// sees each vertex once, at its final distance (≤ ζ), and stops the
    /// search by returning `false`. Returns whether the search ran to its
    /// end. Either way `dist` is all `∞` and `heap` empty again, and
    /// `touched` lists every vertex the search reached.
    fn run<'e>(
        &mut self,
        zeta: f64,
        row: impl Fn(u32) -> &'e [(u32, f64)],
        source: u32,
        mut settle: impl FnMut(u32, f64) -> bool,
    ) -> bool {
        let SearchScratch { dist, touched, heap } = self;
        dist[source as usize] = 0.0;
        touched.push(source);
        heap.push(Reverse((0.0f64.to_bits(), source)));
        let mut complete = true;
        while let Some(Reverse((bits, v))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[v as usize] {
                continue; // stale entry
            }
            if !settle(v, d) {
                complete = false;
                break;
            }
            for &(w, len) in row(v) {
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
        heap.clear();
        for &t in touched.iter() {
            dist[t as usize] = f64::INFINITY;
        }
        complete
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

    /// The loop kernel's rows for the sources `keep` admits, indexed by
    /// pair id (every other row empty), with its counts.
    fn kernel_rows(
        view: &ComponentView,
        n: usize,
        par: &Parallelism,
        keep: impl Fn(PairId) -> bool,
    ) -> (Vec<Vec<PairId>>, RowStats) {
        let mut rows = vec![Vec::new(); n];
        let stats = view.inferred_rows(par, keep, |q, row| {
            assert!(rows[q.index()].is_empty(), "{q:?} written twice");
            rows[q.index()] = row;
        });
        (rows, stats)
    }

    /// All of `graph` as one component (positions are vertex ids), every
    /// vertex a source: the view kernel's output in `InferredSets` order.
    fn view_rows(graph: &ProbErGraph, tau: f64) -> Vec<Vec<PairId>> {
        let members: Vec<PairId> = (0..graph.num_vertices() as u32).map(PairId).collect();
        let view = ComponentView::build(graph, tau, [members.as_slice()], PairId::index);
        kernel_rows(&view, graph.num_vertices(), SEQ, |_| true).0
    }

    #[test]
    fn undecided_cluster_falls_back_to_per_source_search() {
        // 1 ⇄ 2 is a near-zero pair (t = 1e-4 ≤ δ = ζ/192), so {1, 2} is
        // one cluster. From 0 the edge into 1 leaves ζ − L = 5e-5 < t:
        // 1 is within ζ and 2 is not, while the condensed graph puts the
        // whole cluster at L. Only the per-source search can split it.
        let tau: f64 = 0.9;
        let zeta = zeta_of(tau);
        let t: f64 = 1e-4;
        let into = (-(zeta - 5e-5)).exp();
        let g = graph(3, &[(0, 1, into), (1, 2, (-t).exp()), (2, 1, (-t).exp())]);
        let members: Vec<PairId> = (0..3).map(PairId).collect();
        let view = ComponentView::build(&g, tau, [members.as_slice()], PairId::index);
        let reference = inferred_sets_dijkstra(&g, tau, SEQ);
        for par in [SEQ, POOL] {
            let (rows, stats) = kernel_rows(&view, 3, par, |_| true);
            for q in 0..3 {
                assert_eq!(rows[q as usize], reference.inferred(PairId(q)), "source {q}");
            }
            assert_eq!(rows[0], [PairId(0), PairId(1)]);
            assert_eq!(
                stats,
                RowStats { sources: 3, entries: 6, cluster_searches: 2, fallback_sources: 1 }
            );
        }
    }

    #[test]
    fn a_decided_cluster_shares_one_row() {
        // The same near-zero pair, reached with room to spare: one search
        // per cluster, and the pair's two sources get equal rows.
        let tau: f64 = 0.9;
        let g = graph(3, &[(0, 1, 0.95), (1, 2, 0.99999), (2, 1, 0.99999), (2, 0, 0.5)]);
        let members: Vec<PairId> = (0..3).map(PairId).collect();
        let view = ComponentView::build(&g, tau, [members.as_slice()], PairId::index);
        let (rows, stats) = kernel_rows(&view, 3, POOL, |q| q != PairId(2));
        assert_eq!(rows[0], [PairId(0), PairId(1), PairId(2)]);
        assert_eq!(rows[1], [PairId(1), PairId(2)]);
        assert!(rows[2].is_empty(), "an ineligible source gets no row");
        assert_eq!(
            stats,
            RowStats { sources: 2, entries: 5, cluster_searches: 2, fallback_sources: 0 }
        );
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
            let sources: Vec<PairId> = (0..n).map(PairId::from_index).collect();
            for par in [SEQ, POOL] {
                let (ids, stats) = kernel_rows(&view, n, par, |_| true);
                prop_assert_eq!(stats.sources, n);
                let probabilities = par.par_map(&sources, |&q| {
                    let width = members[comp[q.index()]].len();
                    probabilities_within(&g, tau, q, width, |v| position[v.index()])
                });
                for (&q, probabilities) in sources.iter().zip(&probabilities) {
                    prop_assert_eq!(ids[q.index()].as_slice(), reference.inferred(q), "source {:?}", q);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The cluster path equals the textbook kernel bit for bit,
        /// sequentially and pooled, for a random set of eligible sources.
        /// Each of up to three interleaved components mixes pairs joined
        /// both ways by near-zero edges (lengths up to δ, so `n·t` is far
        /// wider than the guard's 2⁻²⁰ factors), one-way near-zero edges,
        /// ordinary edges, and two-edge paths `a → b`, `b' → c` whose
        /// condensed length sits either within a few ulps of ζ (inside
        /// the guard band) or up to δ below it, where a near-zero hop
        /// from `b` to `b'` decides whether `c` is within ζ.
        #[test]
        fn cluster_rows_equal_textbook_kernel(
            comp in proptest::collection::vec(0usize..3, 2..28),
            near in proptest::collection::vec((0usize..3, 0usize..16, 0usize..16, 0.0f64..1.0, 0u8..3), 0..24),
            ordinary in proptest::collection::vec((0usize..3, 0usize..16, 0usize..16, 0u8..2, 0.0f64..1.0), 0..16),
            brinks in proptest::collection::vec((0usize..3, (0usize..16, 0usize..16, 0usize..16, 0usize..16), 0.1f64..0.9, 0.0f64..1.0, 0u8..2, -4i64..=4), 0..6),
            eligible in proptest::collection::vec(0u8..4, 28..29),
            tau_pick in 0u8..3,
            tau_draw in 0.5f64..0.99
        ) {
            let tau = if tau_pick == 0 { 0.9 } else { tau_draw };
            let zeta = zeta_of(tau);
            let n = comp.len();
            let mut members: Vec<Vec<PairId>> = vec![Vec::new(); 3];
            let mut position = vec![0usize; n];
            for (v, &c) in comp.iter().enumerate() {
                position[v] = members[c].len();
                members[c].push(PairId::from_index(v));
            }
            // Member `i` (mod width) of component `c`, and that
            // component's δ; `None` for an empty component.
            let at = |c: usize, i: usize| -> Option<(u32, f64)> {
                let m = &members[c];
                (!m.is_empty()).then(|| (m[i % m.len()].0, zeta / (64.0 * m.len() as f64)))
            };
            let mut list = Vec::new();
            for &(c, i, j, f, kind) in &near {
                let (Some((a, delta)), Some((b, _))) = (at(c, i), at(c, j)) else { continue };
                let p = (-(f * delta)).exp();
                list.push((a, b, p));
                if kind != 0 {
                    list.push((b, a, if kind == 1 { p } else { (-(delta * (1.0 - f))).exp() }));
                }
            }
            for &(c, i, j, within, x) in &ordinary {
                let (Some((a, _)), Some((b, _))) = (at(c, i), at(c, j)) else { continue };
                list.push((a, b, if within == 1 { tau + (1.0 - tau) * x } else { x }));
            }
            let length = |p: f64| -p.min(1.0).ln();
            for &(c, (i, j, j2, k), frac, hop, in_ulps, shift) in &brinks {
                // Three distinct members a, b, d of component c.
                let m = &members[c];
                if m.len() < 3 {
                    continue;
                }
                let delta = zeta / (64.0 * m.len() as f64);
                let pa = i % m.len();
                let pb = (pa + 1 + j % (m.len() - 1)) % m.len();
                let pd = (0..m.len()).filter(|&p| p != pa && p != pb).nth(k % (m.len() - 2));
                let (a, b, d) = (m[pa].0, m[pb].0, m[pd.expect("a third member")].0);
                let b2 = m[j2 % m.len()].0;
                let first = (-(frac * zeta)).exp();
                let head = length(first);
                list.push((a, b, first));
                if in_ulps == 1 {
                    // The probability whose length brings the float sum
                    // nearest to `shift` ulps from ζ.
                    let guess = (-(zeta - head)).exp().to_bits() as i64;
                    let off = |p: f64| {
                        let sum = head + length(p);
                        (sum.to_bits() as i64 - zeta.to_bits() as i64 - shift).abs()
                    };
                    let second = (-24..=24)
                        .map(|k| f64::from_bits((guess + k) as u64))
                        .min_by_key(|&p| off(p))
                        .expect("a non-empty range");
                    list.push((b, d, second));
                } else {
                    let hop = (-(hop * delta)).exp();
                    list.push((b, b2, hop));
                    list.push((b2, b, hop));
                    let short = (shift + 4) as f64 / 8.0 * delta;
                    list.push((b2, d, (-(zeta - head - short)).exp()));
                }
            }
            let g = graph(n, &list);
            let keep = |q: PairId| eligible[q.index()] != 0;
            let reference = inferred_sets_dijkstra(&g, tau, SEQ);
            let view = ComponentView::build(
                &g,
                tau,
                members.iter().map(Vec::as_slice),
                |v| position[v.index()],
            );
            for par in [SEQ, POOL] {
                let (rows, stats) = kernel_rows(&view, n, par, keep);
                let mut entries = 0;
                for q in (0..n).map(PairId::from_index) {
                    let want: &[PairId] = if keep(q) { reference.inferred(q) } else { &[] };
                    prop_assert_eq!(rows[q.index()].as_slice(), want, "source {:?}", q);
                    entries += want.len();
                }
                prop_assert_eq!(stats.sources, (0..n).filter(|&v| keep(PairId::from_index(v))).count());
                prop_assert_eq!(stats.entries, entries);
            }
        }
    }
}
