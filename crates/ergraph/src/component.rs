//! Connected-component index over the ER graph.
//!
//! Relational match propagation can never cross a connected component of
//! the ER graph: probabilistic edges are a subset of ER-graph adjacency,
//! and the adjacency is materialised in both orientations, so the
//! undirected components bound every inferred set, every propagation
//! path, and every selection interaction. The incremental loop engine
//! (`remp_propagation::LoopState`) leans on this to recompute only the
//! components where evidence actually changed and to retire components
//! whose pairs are all resolved.

use std::collections::HashMap;

use crate::{ErGraph, PairId};

/// A partition of the ER-graph vertices into undirected connected
/// components, with a stable ordering:
///
/// * component ids are assigned in order of each component's smallest
///   vertex id (component 0 contains vertex 0);
/// * each member list is sorted ascending.
///
/// Both properties are load-bearing for the incremental engine: iterating
/// components, or the members of one component, visits pairs in exactly
/// the order the from-scratch pipeline does, which keeps incremental
/// recomputation bit-identical to full rebuilds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentIndex {
    comp_of: Vec<u32>,
    /// Per vertex: its position in its component's member list.
    position: Vec<u32>,
    members: Vec<Vec<PairId>>,
}

impl ComponentIndex {
    /// Builds the index over `graph`'s undirected connected components.
    pub fn build(graph: &ErGraph) -> ComponentIndex {
        let (comp, _) = graph.connected_components();
        ComponentIndex::from_assignments(&comp)
    }

    /// Builds the index from an explicit vertex → group assignment
    /// (tests, alternative graph sources). Group keys are arbitrary —
    /// dense, sparse, or hash-derived; they are relabelled into the
    /// stable ordering described above.
    pub fn from_assignments(assignments: &[usize]) -> ComponentIndex {
        let mut relabel: HashMap<usize, u32> = HashMap::new();
        let mut members: Vec<Vec<PairId>> = Vec::new();
        let mut comp_of = Vec::with_capacity(assignments.len());
        let mut position = Vec::with_capacity(assignments.len());
        for (v, &raw) in assignments.iter().enumerate() {
            let c = *relabel.entry(raw).or_insert_with(|| {
                members.push(Vec::new());
                (members.len() - 1) as u32
            });
            comp_of.push(c);
            position.push(members[c as usize].len() as u32);
            members[c as usize].push(PairId::from_index(v));
        }
        ComponentIndex { comp_of, position, members }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    /// The component id of a vertex.
    pub fn component_of(&self, v: PairId) -> usize {
        self.comp_of[v.index()] as usize
    }

    /// The position of `v` in its component's member list:
    /// `members(component_of(v))[position_of(v)] == v`. Per-component
    /// scratch buffers index by it, so they are sized by the component
    /// instead of by the whole graph.
    pub fn position_of(&self, v: PairId) -> usize {
        self.position[v.index()] as usize
    }

    /// The vertices of component `c`, sorted ascending.
    pub fn members(&self, c: usize) -> &[PairId] {
        &self.members[c]
    }

    /// Iterates `(component id, members)` in component order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[PairId])> {
        self.members.iter().enumerate().map(|(c, m)| (c, m.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_kb::{Kb, KbBuilder};
    use remp_par::Parallelism;

    /// Two disjoint relational clusters plus one isolated entity, mirrored
    /// across both KBs so every candidate pair is an exact-label pair.
    fn disjoint_clusters() -> (Kb, Kb) {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        let r1 = b1.add_rel("linked");
        let r2 = b2.add_rel("linked");
        for (b, r) in [(&mut b1, r1), (&mut b2, r2)] {
            let u = b.add_entity("alpha");
            let v = b.add_entity("beta");
            let x = b.add_entity("gamma");
            let y = b.add_entity("delta");
            b.add_entity("loner");
            b.add_rel_triple(u, r, v);
            b.add_rel_triple(x, r, y);
        }
        (b1.finish(), b2.finish())
    }

    #[test]
    fn components_are_stable_and_cover_all_vertices() {
        let (kb1, kb2) = disjoint_clusters();
        let cands = crate::generate_candidates(&kb1, &kb2, 0.3, &Parallelism::Sequential);
        let graph = ErGraph::build(&kb1, &kb2, &cands);
        let index = ComponentIndex::build(&graph);

        assert_eq!(index.num_vertices(), graph.num_vertices());
        let total: usize = index.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, graph.num_vertices());

        // Component ids follow smallest-member order; member lists ascend.
        let mut smallest_seen = None;
        for (c, members) in index.iter() {
            assert!(!members.is_empty(), "component {c} is empty");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members must ascend");
            let head = members[0];
            if let Some(prev) = smallest_seen {
                assert!(head > prev, "component ids must follow smallest members");
            }
            smallest_seen = Some(head);
            for (i, &v) in members.iter().enumerate() {
                assert_eq!(index.component_of(v), c);
                assert_eq!(index.position_of(v), i);
            }
        }
    }

    #[test]
    fn from_assignments_accepts_sparse_keys() {
        // Group keys are arbitrary: sparse or hash-derived keys must not
        // drive allocation. Relabelling follows first appearance, which
        // for vertex-ordered input is the smallest-member ordering.
        let index = ComponentIndex::from_assignments(&[usize::MAX, 7, usize::MAX, 1 << 40]);
        assert_eq!(index.len(), 3);
        assert_eq!(index.component_of(PairId(0)), 0);
        assert_eq!(index.component_of(PairId(2)), 0);
        assert_eq!(index.members(1), &[PairId(1)]);
        assert_eq!(index.members(2), &[PairId(3)]);
    }

    #[test]
    fn edges_never_cross_components() {
        let (kb1, kb2) = disjoint_clusters();
        let cands = crate::generate_candidates(&kb1, &kb2, 0.3, &Parallelism::Sequential);
        let graph = ErGraph::build(&kb1, &kb2, &cands);
        let index = ComponentIndex::build(&graph);
        assert!(index.len() >= 2, "disjoint clusters must split");
        for (v, _) in cands.iter() {
            for &(_, w) in graph.edges_from(v) {
                assert_eq!(index.component_of(v), index.component_of(w));
            }
        }
        // The isolated exact-label pair sits alone in its component.
        let loner = cands
            .iter()
            .find(|&(p, _)| graph.is_isolated_vertex(p))
            .map(|(p, _)| p)
            .expect("the loner pair is isolated");
        assert_eq!(index.members(index.component_of(loner)), &[loner]);
    }
}
