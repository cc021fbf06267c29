//! ER graph construction stage (§IV) bundled into one reusable step.

use remp_ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, prune,
    AttrAlignment, Candidates, ComponentIndex, ErGraph, PairId,
};
use remp_kb::Kb;
use remp_obs::time_stage;
use remp_simil::SimVec;

use crate::RempConfig;

/// Everything stage 1 produces: the retained candidate set with its
/// similarity vectors, attribute alignment, seed matches and ER graph.
#[derive(Clone, Debug)]
pub struct PreparedEr {
    /// Retained candidate pairs `M_rd` (densely re-indexed).
    pub candidates: Candidates,
    /// `|M_c|` before pruning (Table V's "candidate matches").
    pub candidate_count: usize,
    /// The full pre-pruning candidate set (kept for PC evaluation).
    pub pre_candidates: Candidates,
    /// Initial exact-label matches `M_in`, in retained ids.
    pub initial: Vec<PairId>,
    /// The attribute alignment `M_at`.
    pub alignment: AttrAlignment,
    /// One similarity vector per retained pair.
    pub sim_vectors: Vec<SimVec>,
    /// The ER graph over the retained pairs.
    pub graph: ErGraph,
    /// Connected components of the ER graph — the propagation shards the
    /// incremental loop engine schedules and retires independently.
    pub components: ComponentIndex,
}

/// Runs ER graph construction (§IV): candidates → initial matches →
/// attribute matching → similarity vectors → Algorithm 1 pruning → graph.
///
/// The heavy stages (candidate generation, similarity vectors, pruning)
/// run on the worker pool selected by `config.parallelism`; the output is
/// identical in every mode.
pub fn prepare(kb1: &Kb, kb2: &Kb, config: &RempConfig) -> PreparedEr {
    let par = &config.parallelism;
    // Each stage runs under `time_stage`, feeding the `remp_stage_seconds`
    // histogram (and the active trace, if any) — observation only, the
    // computation is byte-identical with instrumentation on or off.
    let (pre_candidates, _) =
        time_stage("candidates", || generate_candidates(kb1, kb2, config.label_sim_threshold, par));
    let ((initial_full, alignment), _) = time_stage("attr_alignment", || {
        let initial = initial_matches(kb1, kb2, &pre_candidates);
        let alignment = match_attributes(kb1, kb2, &pre_candidates, &initial, &config.attr);
        (initial, alignment)
    });
    let (vectors_full, _) = time_stage("sim_vectors", || {
        build_sim_vectors(kb1, kb2, &pre_candidates, &alignment, config.literal_threshold, par)
    });
    let (retained, _) =
        time_stage("prune", || prune(&pre_candidates, &vectors_full, config.knn_k, par));
    let ((candidates, sim_vectors, initial, graph, components), _) = time_stage("graph", || {
        let (candidates, sim_vectors, mapping) =
            pre_candidates.restrict_with_vectors(&retained, &vectors_full);
        let initial: Vec<PairId> =
            initial_full.iter().filter_map(|old| mapping.get(old).copied()).collect();
        let graph = ErGraph::build(kb1, kb2, &candidates);
        let components = ComponentIndex::build(&graph);
        (candidates, sim_vectors, initial, graph, components)
    });

    PreparedEr {
        candidates,
        candidate_count: pre_candidates.len(),
        pre_candidates,
        initial,
        alignment,
        sim_vectors,
        graph,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_datasets::{generate, iimb};

    #[test]
    fn prepare_produces_consistent_stage() {
        let d = generate(&iimb(0.3));
        let prep = prepare(&d.kb1, &d.kb2, &RempConfig::default());
        assert!(prep.candidates.len() <= prep.candidate_count);
        assert_eq!(prep.sim_vectors.len(), prep.candidates.len());
        assert_eq!(prep.graph.num_vertices(), prep.candidates.len());
        assert!(!prep.initial.is_empty(), "IIMB has exact-label seeds");
        // Initial ids are valid in the retained space.
        for &s in &prep.initial {
            assert!(s.index() < prep.candidates.len());
        }
        // Attribute alignment found the identical-schema matches.
        assert!(prep.alignment.len() >= 6, "got {:?}", prep.alignment.pairs);
    }

    #[test]
    fn pruning_respects_k() {
        let d = generate(&iimb(0.3));
        let mut config = RempConfig { knn_k: 1, ..RempConfig::default() };
        let strict = prepare(&d.kb1, &d.kb2, &config);
        config.knn_k = 8;
        let loose = prepare(&d.kb1, &d.kb2, &config);
        assert!(strict.candidates.len() <= loose.candidates.len());
    }
}
