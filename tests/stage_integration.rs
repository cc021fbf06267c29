//! Cross-crate stage integration: each pipeline stage's output feeds the
//! next with the invariants the paper relies on.

use remp::core::{pair_completeness, prepare, reduction_ratio, RempConfig};
use remp::datasets::{dbpedia_yago, generate, iimb, imdb_yago};
use remp::ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, prune,
    AttrMatchConfig,
};
use remp::par::Parallelism;
use remp::propagation::{
    inferred_probabilities, inferred_sets_dijkstra, ConsistencyTable, ProbErGraph,
};
use remp::selection::{benefit, select_questions};

/// Stage tests run under the config's policy (`Auto`), so the CI
/// thread-matrix (`REMP_THREADS=1` / `REMP_THREADS=4`) exercises both the
/// sequential and the pooled code paths here.
fn par() -> Parallelism {
    Parallelism::Auto
}

#[test]
fn attribute_matching_one_to_one_beats_unconstrained_precision() {
    // Table IV invariant on the heterogeneous presets.
    for spec in [imdb_yago(0.2), dbpedia_yago(0.2)] {
        let d = generate(&spec);
        let cands = generate_candidates(&d.kb1, &d.kb2, 0.3, &par());
        let init = initial_matches(&d.kb1, &d.kb2, &cands);
        let gold = &d.gold_attr_matches;
        let precision_of = |one_to_one: bool| {
            let al = match_attributes(
                &d.kb1,
                &d.kb2,
                &cands,
                &init,
                &AttrMatchConfig { one_to_one, ..AttrMatchConfig::default() },
            );
            let preds: Vec<(String, String)> = al
                .pairs
                .iter()
                .map(|&(a1, a2, _)| {
                    (d.kb1.attr_name(a1).to_owned(), d.kb2.attr_name(a2).to_owned())
                })
                .collect();
            if preds.is_empty() {
                return (1.0, 0);
            }
            let correct = preds.iter().filter(|p| gold.contains(p)).count();
            (correct as f64 / preds.len() as f64, preds.len())
        };
        let (p_strict, n_strict) = precision_of(true);
        let (p_loose, n_loose) = precision_of(false);
        assert!(n_strict > 0, "{}: no attribute matches found", d.name);
        assert!(
            p_strict >= p_loose - 1e-9,
            "{}: 1:1 precision {} must be ≥ unconstrained {}",
            d.name,
            p_strict,
            p_loose
        );
        assert!(n_loose >= n_strict, "unconstrained can only add pairs");
    }
}

#[test]
fn pruning_preserves_most_gold_while_reducing() {
    // Table V invariant: meaningful RR with bounded PC loss.
    let d = generate(&imdb_yago(0.25));
    let config = RempConfig::default();
    let cands = generate_candidates(&d.kb1, &d.kb2, config.label_sim_threshold, &par());
    let init = initial_matches(&d.kb1, &d.kb2, &cands);
    let al = match_attributes(&d.kb1, &d.kb2, &cands, &init, &config.attr);
    let vecs = build_sim_vectors(&d.kb1, &d.kb2, &cands, &al, config.literal_threshold, &par());
    let retained = prune(&cands, &vecs, config.knn_k, &par());

    let pc_before = pair_completeness(cands.iter().map(|(_, p)| p), &d.gold);
    let pc_after = pair_completeness(retained.iter().map(|&p| cands.pair(p)), &d.gold);
    let rr = reduction_ratio(cands.len(), retained.len());

    assert!(rr > 0.1, "expected meaningful reduction, RR = {rr}");
    assert!(pc_before - pc_after < 0.05, "PC loss too high: {pc_before} → {pc_after}");
}

#[test]
fn pair_completeness_grows_with_k() {
    // Fig. 4 invariant: larger k retains at least as many gold pairs.
    let d = generate(&iimb(0.4));
    let config = RempConfig::default();
    let cands = generate_candidates(&d.kb1, &d.kb2, config.label_sim_threshold, &par());
    let init = initial_matches(&d.kb1, &d.kb2, &cands);
    let al = match_attributes(&d.kb1, &d.kb2, &cands, &init, &config.attr);
    let vecs = build_sim_vectors(&d.kb1, &d.kb2, &cands, &al, config.literal_threshold, &par());
    let mut last = 0.0;
    for k in [1usize, 4, 7, 10, 13] {
        let retained = prune(&cands, &vecs, k, &par());
        let pc = pair_completeness(retained.iter().map(|&p| cands.pair(p)), &d.gold);
        assert!(pc >= last - 1e-9, "PC must be non-decreasing in k");
        last = pc;
    }
}

#[test]
fn propagation_stack_builds_consistent_probabilistic_graph() {
    let d = generate(&iimb(0.3));
    let config = RempConfig::default();
    let prep = prepare(&d.kb1, &d.kb2, &config);
    let cons = ConsistencyTable::estimate(
        &d.kb1,
        &d.kb2,
        &prep.candidates,
        &prep.graph,
        &prep.initial,
        &par(),
    );
    assert_eq!(cons.len(), prep.graph.num_labels());
    let pg = ProbErGraph::build(
        &d.kb1,
        &d.kb2,
        &prep.candidates,
        &prep.graph,
        &cons,
        &config.propagation,
        &par(),
    );
    assert_eq!(pg.num_vertices(), prep.candidates.len());
    // Edge probabilities are probabilities.
    for v in prep.candidates.ids() {
        for &(_, p) in pg.edges_from(v) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
    // Inferred sets respect τ and include self, and the one-source
    // probability call names exactly the ids of the all-sources sets.
    let inf = inferred_sets_dijkstra(&pg, config.tau, &par());
    for v in prep.candidates.ids() {
        let set = inferred_probabilities(&pg, config.tau, v);
        assert!(set.iter().any(|&(p, pr)| p == v && (pr - 1.0).abs() < 1e-12));
        for &(_, pr) in &set {
            assert!(pr >= config.tau - 1e-9);
        }
        assert!(set.iter().map(|&(p, _)| p).eq(inf.inferred(v).iter().copied()));
    }
}

#[test]
fn selection_over_real_inferred_sets_is_effective() {
    let d = generate(&iimb(0.3));
    let config = RempConfig::default();
    let prep = prepare(&d.kb1, &d.kb2, &config);
    let cons = ConsistencyTable::estimate(
        &d.kb1,
        &d.kb2,
        &prep.candidates,
        &prep.graph,
        &prep.initial,
        &par(),
    );
    let pg = ProbErGraph::build(
        &d.kb1,
        &d.kb2,
        &prep.candidates,
        &prep.graph,
        &cons,
        &config.propagation,
        &par(),
    );
    let inf = inferred_sets_dijkstra(&pg, config.tau, &par());
    let priors: Vec<f64> = prep.candidates.ids().map(|p| prep.candidates.prior(p)).collect();
    let eligible = vec![true; prep.candidates.len()];
    let all: Vec<_> = prep.candidates.ids().collect();

    let q1 = select_questions(&all, &inf, &priors, &eligible, 1, &par());
    let q10 = select_questions(&all, &inf, &priors, &eligible, 10, &par());
    assert_eq!(q1.len(), 1);
    assert!(q10.len() >= q1.len());
    assert_eq!(q10[0], q1[0], "greedy prefix property");
    let b1 = benefit(&q1, &inf, &priors, &eligible);
    let b10 = benefit(&q10, &inf, &priors, &eligible);
    assert!(b10 >= b1 - 1e-9, "benefit monotone in question count");
    assert!(b1 > 1.0, "the best IIMB question should infer more than itself");
}
