//! The probabilistic ER graph: ER-graph edges weighted with conditional
//! match probabilities `Pr[m_w | m_v]` from neighbour propagation.

use remp_ergraph::{Candidates, Direction, ErGraph, PairId};
use remp_kb::{EntityId, Kb};
use remp_par::Parallelism;

use crate::{propagate_to_neighbors, ConsistencyTable, MatchingCandidate, PropagationConfig};

/// A directed graph over candidate pairs where each edge `v → w` carries
/// `Pr[m_w | m_v]` (paper §IV-A "probabilistic ER graph").
///
/// Storage is one contiguous `(target, probability)` arena plus a
/// per-vertex `(start, len)` row span, so truncated Dijkstra walks
/// adjacent memory instead of chasing one heap allocation per vertex.
/// The incremental engine replaces rows one at a time, at a cost
/// proportional to the row: a row that fits its old slot is written in place, a longer one is
/// appended and its old slot turns into dead entries. The arena is
/// compacted only once dead entries outnumber live ones, in time
/// proportional to the arena, so a refresh never pays a pass over every
/// vertex.
#[derive(Clone, Debug)]
pub struct ProbErGraph {
    /// Per vertex: `(start, len)` of its row in `arena`. A row is sorted
    /// by target and deduplicated to the maximum probability (the largest
    /// lower bound of Eq. 10).
    rows: Vec<(u32, u32)>,
    arena: Vec<(PairId, f64)>,
    /// Every non-empty row written at the arena's end, as `(start, v)` in
    /// arena order. An entry is live while `rows[v]` still starts there
    /// and is non-empty; compaction walks this list, not the vertices.
    slots: Vec<(u32, PairId)>,
    /// Arena entries no row covers any more.
    dead: usize,
}

impl ProbErGraph {
    /// Computes edge probabilities for every vertex of `graph` by running
    /// neighbour propagation (Eqs. 6–9) on each relationship-pair group.
    ///
    /// For each vertex `v = (u1, u2)` and each edge label `(r1, r2, dir)`,
    /// the group's targets are the candidate pairs within
    /// `N_{u1}^{r1} × N_{u2}^{r2}`; their posteriors given `m_v` become the
    /// probabilities of the edges `v → target`.
    /// Each vertex's outgoing edges depend only on that vertex's
    /// relationship groups, so the per-vertex propagation runs
    /// data-parallel under `par`; edge lists are sorted by target, making
    /// the result identical in every [`Parallelism`] mode.
    pub fn build(
        kb1: &Kb,
        kb2: &Kb,
        candidates: &Candidates,
        graph: &ErGraph,
        consistencies: &ConsistencyTable,
        config: &PropagationConfig,
        par: &Parallelism,
    ) -> ProbErGraph {
        let vertices: Vec<PairId> = candidates.ids().collect();
        let rows: Vec<Vec<(PairId, f64)>> = par.par_map(&vertices, |&v| {
            vertex_edges(kb1, kb2, candidates, graph, consistencies, config, v)
        });
        Self::from_rows(rows)
    }

    /// Freezes per-vertex rows into the arena.
    fn from_rows(rows: Vec<Vec<(PairId, f64)>>) -> ProbErGraph {
        let mut pg = ProbErGraph::empty(rows.len());
        pg.arena.reserve_exact(rows.iter().map(Vec::len).sum());
        for (v, row) in rows.iter().enumerate() {
            if !row.is_empty() {
                pg.rows[v] = pg.append(PairId::from_index(v), row);
            }
        }
        pg
    }

    /// An all-empty graph over `num_vertices` vertices — the starting
    /// point for incremental construction via
    /// [`replace_edges`](Self::replace_edges).
    pub(crate) fn empty(num_vertices: usize) -> ProbErGraph {
        ProbErGraph {
            rows: vec![(0, 0); num_vertices],
            arena: Vec::new(),
            slots: Vec::new(),
            dead: 0,
        }
    }

    /// Replaces the outgoing edges of `v`, returning `true` when the new
    /// list differs from the stored one — the incremental engine's
    /// cutoff for re-running shortest paths in `v`'s component.
    ///
    /// Costs O(|row|) amortised: the row is written in place when it fits
    /// its old slot and appended otherwise; the occasional compaction is
    /// paid for by the dead entries that triggered it.
    pub(crate) fn replace_edges(&mut self, v: PairId, edges: Vec<(PairId, f64)>) -> bool {
        if self.edges_from(v) == edges.as_slice() {
            return false;
        }
        let (start, len) = self.rows[v.index()];
        if edges.len() <= len as usize {
            let begin = start as usize;
            self.arena[begin..begin + edges.len()].copy_from_slice(&edges);
            self.dead += len as usize - edges.len();
            // An emptied row points at 0, a slice that stays valid
            // whatever compaction later does to its old slot.
            self.rows[v.index()] =
                if edges.is_empty() { (0, 0) } else { (start, edges.len() as u32) };
        } else {
            self.dead += len as usize;
            self.rows[v.index()] = self.append(v, &edges);
        }
        if self.dead > self.arena.len() - self.dead {
            self.compact();
        }
        true
    }

    /// Writes a non-empty row for `v` at the arena's end, returning its
    /// span.
    fn append(&mut self, v: PairId, row: &[(PairId, f64)]) -> (u32, u32) {
        let start = self.arena.len();
        assert!(start + row.len() <= u32::MAX as usize, "edge count overflows row offsets");
        self.arena.extend_from_slice(row);
        self.slots.push((start as u32, v));
        (start as u32, row.len() as u32)
    }

    /// Drops the dead entries: copies every live row, in arena order, into
    /// a fresh arena — O(arena), never O(vertices).
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.dead);
        let mut slots = Vec::new();
        for &(start, v) in &self.slots {
            let (row_start, len) = self.rows[v.index()];
            if row_start != start || len == 0 {
                continue;
            }
            let begin = start as usize;
            self.rows[v.index()].0 = arena.len() as u32;
            slots.push((arena.len() as u32, v));
            arena.extend_from_slice(&self.arena[begin..begin + len as usize]);
        }
        self.arena = arena;
        self.slots = slots;
        self.dead = 0;
        if remp_obs::enabled() {
            remp_obs::global()
                .counter(
                    remp_obs::names::PG_ARENA_COMPACTIONS_TOTAL,
                    "Garbage collections of the probabilistic ER graph's edge arena.",
                    &[],
                )
                .inc();
        }
    }

    /// Builds a graph directly from explicit edges (tests, ablations).
    /// Parallel edges keep the maximum probability; probabilities are
    /// clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// If a probability is NaN or infinite.
    pub fn from_edges(
        num_vertices: usize,
        edge_list: impl IntoIterator<Item = (PairId, PairId, f64)>,
    ) -> ProbErGraph {
        let mut rows: Vec<Vec<(PairId, f64)>> = vec![Vec::new(); num_vertices];
        for (v, w, p) in edge_list {
            assert!(p.is_finite(), "edge {v:?} → {w:?} has non-finite probability {p}");
            rows[v.index()].push((w, p.clamp(0.0, 1.0)));
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|&(w, _)| w);
            // Max-merge parallel edges; max is order-independent, so the
            // unstable sort above cannot leak into the result.
            row.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 = b.1.max(a.1);
                    true
                } else {
                    false
                }
            });
        }
        Self::from_rows(rows)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Total number of directed probabilistic edges.
    pub fn num_edges(&self) -> usize {
        self.arena.len() - self.dead
    }

    /// Outgoing `(target, probability)` edges of `v`.
    pub fn edges_from(&self, v: PairId) -> &[(PairId, f64)] {
        let (start, len) = self.rows[v.index()];
        &self.arena[start as usize..start as usize + len as usize]
    }

    /// `Pr[m_w | m_v]`, 0.0 when no edge exists.
    pub fn edge_prob(&self, v: PairId, w: PairId) -> f64 {
        let row = self.edges_from(v);
        match row.binary_search_by_key(&w, |&(t, _)| t) {
            Ok(i) => row[i].1,
            Err(_) => 0.0,
        }
    }
}

/// The outgoing probabilistic edges of one vertex: neighbour propagation
/// (Eqs. 6–9) over each of `v`'s relationship-pair groups, keeping the
/// maximum probability per target, sorted by target.
///
/// The single code path behind both [`ProbErGraph::build`] and the
/// incremental per-vertex recomputation in [`crate::LoopState`], so the
/// two are bit-identical by construction. A vertex's edges depend only on
/// static graph structure, the consistencies of its incident labels, and
/// the priors of its ER-graph neighbours — the facts the incremental
/// engine's dirty tracking is built on.
pub(crate) fn vertex_edges(
    kb1: &Kb,
    kb2: &Kb,
    candidates: &Candidates,
    graph: &ErGraph,
    consistencies: &ConsistencyTable,
    config: &PropagationConfig,
    v: PairId,
) -> Vec<(PairId, f64)> {
    let (u1, u2) = candidates.pair(v);
    let mut out: Vec<(PairId, f64)> = Vec::new();
    for (label_id, targets) in graph.grouped_from(v) {
        let label = graph.label(label_id);
        let (values1, values2): (Vec<EntityId>, Vec<EntityId>) = match label.dir {
            Direction::Forward => (
                kb1.rel_values(u1, label.r1).iter().map(|&(_, o)| o).collect(),
                kb2.rel_values(u2, label.r2).iter().map(|&(_, o)| o).collect(),
            ),
            Direction::Reverse => (
                kb1.rel_subjects(u1, label.r1).iter().map(|&(_, o)| o).collect(),
                kb2.rel_subjects(u2, label.r2).iter().map(|&(_, o)| o).collect(),
            ),
        };
        let index_of = |values: &[EntityId], e: EntityId| -> Option<usize> {
            values.iter().position(|&x| x == e)
        };
        let mut group = Vec::with_capacity(targets.len());
        for &w in &targets {
            let (o1, o2) = candidates.pair(w);
            let (Some(l), Some(r)) = (index_of(&values1, o1), index_of(&values2, o2)) else {
                continue;
            };
            group.push(MatchingCandidate {
                left: l,
                right: r,
                pair: w,
                prior: candidates.prior(w),
            });
        }
        if group.is_empty() {
            continue;
        }
        let posts = propagate_to_neighbors(
            values1.len(),
            values2.len(),
            &group,
            consistencies.get(label_id),
            config,
        );
        for (w, p) in posts {
            if p > 0.0 {
                out.push((w, p));
            }
        }
    }
    // Sort-then-merge replaces the old per-target map: `max` over the
    // duplicates of a target is order-independent, so the unstable sort
    // yields the same row the map did, bit for bit.
    out.sort_unstable_by_key(|&(w, _)| w);
    out.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 = b.1.max(a.1);
            true
        } else {
            false
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Consistency;
    use proptest::prelude::*;
    use remp_ergraph::generate_candidates;
    use remp_kb::{KbBuilder, Value};
    use remp_par::Parallelism as Par;

    /// Two mirrored KBs: person → born-in → city, person → acted-in →
    /// movies (2 movies).
    fn setup() -> (Kb, Kb, Candidates, ErGraph) {
        let mut b1 = KbBuilder::new("kb1");
        let mut b2 = KbBuilder::new("kb2");
        let born1 = b1.add_rel("wasBornIn");
        let born2 = b2.add_rel("birthPlace");
        let acted1 = b1.add_rel("actedIn");
        let acted2 = b2.add_rel("actedIn");
        let lbl1 = b1.add_attr("label");
        let lbl2 = b2.add_attr("label");

        for (b, born, acted, lbl) in
            [(&mut b1, born1, acted1, lbl1), (&mut b2, born2, acted2, lbl2)]
        {
            let joan = b.add_entity("Joan");
            let nyc = b.add_entity("NYC");
            let cradle = b.add_entity("Cradle");
            let player = b.add_entity("Player");
            for e in [joan, nyc, cradle, player] {
                let label = ["Joan", "NYC", "Cradle", "Player"][e.index()];
                b.add_attr_triple(e, lbl, Value::text(label));
            }
            b.add_rel_triple(joan, born, nyc);
            b.add_rel_triple(joan, acted, cradle);
            b.add_rel_triple(joan, acted, player);
        }
        let kb1 = b1.finish();
        let kb2 = b2.finish();
        let cands = generate_candidates(&kb1, &kb2, 0.3, &Par::Sequential);
        let graph = ErGraph::build(&kb1, &kb2, &cands);
        (kb1, kb2, cands, graph)
    }

    #[test]
    fn functional_edge_gets_high_probability() {
        let (kb1, kb2, cands, graph) = setup();
        let cons = ConsistencyTable::from_entries(
            graph.labels().map(|(id, _)| (id, Consistency { eps1: 0.95, eps2: 0.95 })),
        );
        let pg = ProbErGraph::build(
            &kb1,
            &kb2,
            &cands,
            &graph,
            &cons,
            &PropagationConfig::default(),
            &Par::Sequential,
        );
        let joan = cands.id_of((EntityId(0), EntityId(0))).unwrap();
        let nyc = cands.id_of((EntityId(1), EntityId(1))).unwrap();
        assert!(pg.edge_prob(joan, nyc) > 0.8, "got {}", pg.edge_prob(joan, nyc));
        // Reverse orientation also present.
        assert!(pg.edge_prob(nyc, joan) > 0.8);
    }

    #[test]
    fn no_edge_means_zero_probability() {
        let (kb1, kb2, cands, graph) = setup();
        let cons = ConsistencyTable::from_entries(
            graph.labels().map(|(id, _)| (id, Consistency { eps1: 0.9, eps2: 0.9 })),
        );
        let pg = ProbErGraph::build(
            &kb1,
            &kb2,
            &cands,
            &graph,
            &cons,
            &PropagationConfig::default(),
            &Par::Sequential,
        );
        let nyc = cands.id_of((EntityId(1), EntityId(1))).unwrap();
        let cradle = cands.id_of((EntityId(2), EntityId(2))).unwrap();
        assert_eq!(pg.edge_prob(nyc, cradle), 0.0);
    }

    #[test]
    fn low_consistency_weakens_edges() {
        let (kb1, kb2, cands, graph) = setup();
        let strong = ConsistencyTable::from_entries(
            graph.labels().map(|(id, _)| (id, Consistency { eps1: 0.95, eps2: 0.95 })),
        );
        let weak = ConsistencyTable::from_entries(
            graph.labels().map(|(id, _)| (id, Consistency { eps1: 0.2, eps2: 0.2 })),
        );
        let cfg = PropagationConfig::default();
        let pg_s = ProbErGraph::build(&kb1, &kb2, &cands, &graph, &strong, &cfg, &Par::Sequential);
        let pg_w = ProbErGraph::build(&kb1, &kb2, &cands, &graph, &weak, &cfg, &Par::Sequential);
        let joan = cands.id_of((EntityId(0), EntityId(0))).unwrap();
        let nyc = cands.id_of((EntityId(1), EntityId(1))).unwrap();
        assert!(pg_w.edge_prob(joan, nyc) < pg_s.edge_prob(joan, nyc));
    }

    /// Asserts `pg` reads back exactly like a fresh build over `rows`.
    fn assert_reads_like(pg: &ProbErGraph, rows: &[Vec<(PairId, f64)>]) {
        let fresh = ProbErGraph::from_rows(rows.to_vec());
        assert_eq!(pg.num_vertices(), fresh.num_vertices());
        assert_eq!(pg.num_edges(), fresh.num_edges());
        for v in 0..rows.len() {
            let v = PairId::from_index(v);
            assert_eq!(pg.edges_from(v), fresh.edges_from(v), "row of {v:?}");
        }
    }

    #[test]
    fn compaction_waits_until_dead_entries_outnumber_live_ones() {
        let row = |targets: &[u32]| -> Vec<(PairId, f64)> {
            targets.iter().map(|&t| (PairId(t), 0.5 + t as f64 / 10.0)).collect()
        };
        let mut rows = vec![row(&[0, 1, 2]), row(&[3]), row(&[])];
        let mut pg = ProbErGraph::from_rows(rows.clone());
        let replace = |pg: &mut ProbErGraph, rows: &mut Vec<_>, v: usize, new: Vec<_>| {
            rows[v] = new.clone();
            assert!(pg.replace_edges(PairId::from_index(v), new));
            assert_reads_like(pg, rows);
        };
        // Shrinks in place: one dead entry, three live.
        replace(&mut pg, &mut rows, 0, row(&[1, 2]));
        assert_eq!((pg.arena.len(), pg.dead), (4, 1));
        // Grows past its (empty) slot: appended.
        replace(&mut pg, &mut rows, 2, row(&[0, 3, 4]));
        assert_eq!((pg.arena.len(), pg.dead), (7, 1));
        // Empties: three dead, four live — still below the threshold.
        replace(&mut pg, &mut rows, 0, row(&[]));
        assert_eq!((pg.arena.len(), pg.dead), (7, 3));
        // Grows again: six dead against five live, so the arena compacts.
        replace(&mut pg, &mut rows, 2, row(&[0, 1, 3, 4]));
        assert_eq!((pg.arena.len(), pg.dead), (5, 0));
        // An unchanged row is not a replacement.
        assert!(!pg.replace_edges(PairId(1), row(&[3])));
        // Emptied rows stay readable after a compaction moved the arena.
        replace(&mut pg, &mut rows, 1, row(&[]));
        replace(&mut pg, &mut rows, 2, row(&[]));
        assert_eq!((pg.arena.len(), pg.dead), (0, 0));
    }

    fn arb_row() -> impl Strategy<Value = Vec<(PairId, f64)>> {
        proptest::collection::vec((0u32..8, 0.01f64..1.0), 0..6).prop_map(|mut row| {
            row.sort_unstable_by_key(|&(t, _)| t);
            row.dedup_by_key(|&mut (t, _)| t);
            row.into_iter().map(|(t, p)| (PairId(t), p)).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Any sequence of row replacements — rows that grow, shrink,
        /// empty, or are replaced several times between reads — reads
        /// back exactly like `from_rows` over the final rows, with and
        /// without compactions in between. After every replacement the
        /// arena holds no more dead entries than live ones.
        #[test]
        fn replaced_rows_read_like_a_fresh_build(
            initial in proptest::collection::vec(arb_row(), 8),
            start_empty in proptest::bool::ANY,
            ops in proptest::collection::vec((0usize..8, arb_row(), proptest::bool::ANY), 0..48),
        ) {
            let mut rows = if start_empty { vec![Vec::new(); 8] } else { initial };
            let mut pg = ProbErGraph::from_rows(rows.clone());
            for (v, row, read) in ops {
                let changed = rows[v] != row;
                rows[v] = row.clone();
                prop_assert_eq!(pg.replace_edges(PairId::from_index(v), row), changed);
                prop_assert!(pg.dead <= pg.arena.len() - pg.dead);
                if read {
                    assert_reads_like(&pg, &rows);
                }
            }
            assert_reads_like(&pg, &rows);
        }
    }

    #[test]
    fn from_edges_keeps_max_parallel() {
        let pg =
            ProbErGraph::from_edges(3, [(PairId(0), PairId(1), 0.3), (PairId(0), PairId(1), 0.8)]);
        assert_eq!(pg.edge_prob(PairId(0), PairId(1)), 0.8);
        assert_eq!(pg.num_edges(), 1);
    }
}
