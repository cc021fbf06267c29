//! Criterion microbenchmarks for the paper's three named algorithms plus
//! the ablations DESIGN.md calls out:
//!
//! * `alg1_prune` — partial-order pruning (Algorithm 1);
//! * `alg2_infer/{dijkstra,floyd_warshall}` — inferred-set discovery
//!   (Algorithm 2) in both implementations;
//! * `alg3_select/{lazy,naive}` — lazy vs naive greedy selection
//!   (Algorithm 3);
//! * `propagation/{exact,beam}` — neighbour-propagation enumeration vs the
//!   beam fallback;
//! * `simil/*` — the string-similarity kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use remp_bench::load_dataset;
use remp_core::{Parallelism, RempConfig};

/// Microbenchmarks measure the single-threaded kernels; end-to-end
/// timings at `Parallelism::Fixed(nproc)` are crowdbench's job.
const SEQ: &Parallelism = &Parallelism::Sequential;
use remp_ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, prune, PairId,
};
use remp_propagation::{
    inferred_sets_dijkstra, inferred_sets_floyd_warshall, propagate_to_neighbors, Consistency,
    ConsistencyTable, MatchingCandidate, ProbErGraph, PropagationConfig,
};
use remp_selection::{select_questions, select_questions_naive};
use remp_simil::{jaccard, levenshtein, normalize_tokens, sim_l};

fn bench_alg1_prune(c: &mut Criterion) {
    let dataset = load_dataset("IIMB", 0.5, 1.0);
    let config = RempConfig::default();
    let candidates =
        generate_candidates(&dataset.kb1, &dataset.kb2, config.label_sim_threshold, SEQ);
    let initial = initial_matches(&dataset.kb1, &dataset.kb2, &candidates);
    let alignment =
        match_attributes(&dataset.kb1, &dataset.kb2, &candidates, &initial, &config.attr);
    let vectors = build_sim_vectors(
        &dataset.kb1,
        &dataset.kb2,
        &candidates,
        &alignment,
        config.literal_threshold,
        SEQ,
    );
    c.bench_function("alg1_prune", |b| {
        b.iter(|| prune(black_box(&candidates), black_box(&vectors), 4, SEQ))
    });
}

fn prepared_probgraph() -> (ProbErGraph, usize) {
    let dataset = load_dataset("IIMB", 0.5, 1.0);
    let config = RempConfig::default();
    let prep = remp_core::prepare(&dataset.kb1, &dataset.kb2, &config);
    let cons = ConsistencyTable::estimate(
        &dataset.kb1,
        &dataset.kb2,
        &prep.candidates,
        &prep.graph,
        &prep.initial,
        SEQ,
    );
    let pg = ProbErGraph::build(
        &dataset.kb1,
        &dataset.kb2,
        &prep.candidates,
        &prep.graph,
        &cons,
        &config.propagation,
        SEQ,
    );
    let n = prep.candidates.len();
    (pg, n)
}

fn bench_alg2_infer(c: &mut Criterion) {
    let (pg, _) = prepared_probgraph();
    let mut group = c.benchmark_group("alg2_infer");
    group.bench_function("dijkstra", |b| {
        b.iter(|| inferred_sets_dijkstra(black_box(&pg), 0.9, SEQ))
    });
    group.bench_function("floyd_warshall", |b| {
        b.iter(|| inferred_sets_floyd_warshall(black_box(&pg), 0.9))
    });
    group.finish();
}

fn bench_alg3_select(c: &mut Criterion) {
    let (pg, n) = prepared_probgraph();
    let inferred = inferred_sets_dijkstra(&pg, 0.9, SEQ);
    let priors = vec![0.5f64; n];
    let eligible = vec![true; n];
    let cands: Vec<PairId> = (0..n).map(PairId::from_index).collect();
    let mut group = c.benchmark_group("alg3_select");
    group.bench_function("lazy", |b| {
        b.iter(|| select_questions(black_box(&cands), &inferred, &priors, &eligible, 10, SEQ))
    });
    group.bench_function("naive", |b| {
        b.iter(|| select_questions_naive(black_box(&cands), &inferred, &priors, &eligible, 10))
    });
    group.finish();
}

fn bench_propagation(c: &mut Criterion) {
    // A 4×4 value-set grid: 209 partial matchings — exact is feasible,
    // beam approximates.
    let mut cands = Vec::new();
    let mut id = 0u32;
    for l in 0..4 {
        for r in 0..4 {
            cands.push(MatchingCandidate {
                left: l,
                right: r,
                pair: PairId(id),
                prior: if l == r { 0.8 } else { 0.2 },
            });
            id += 1;
        }
    }
    let cons = Consistency { eps1: 0.9, eps2: 0.9 };
    let exact = PropagationConfig::default();
    let beam = PropagationConfig { enumeration_budget: 16, beam_width: 64, max_candidates: 64 };
    let mut group = c.benchmark_group("propagation");
    group.bench_function("exact", |b| {
        b.iter(|| propagate_to_neighbors(4, 4, black_box(&cands), cons, &exact))
    });
    group.bench_function("beam", |b| {
        b.iter(|| propagate_to_neighbors(4, 4, black_box(&cands), cons, &beam))
    });
    group.finish();
}

fn bench_simil(c: &mut Criterion) {
    let a = normalize_tokens("The Shawshank Redemption Directors Cut Edition");
    let b = normalize_tokens("Shawshank Redemption Special Edition");
    let va: Vec<remp_kb::Value> =
        (0..5).map(|i| remp_kb::Value::text(format!("value number {i}"))).collect();
    let vb: Vec<remp_kb::Value> =
        (0..5).map(|i| remp_kb::Value::text(format!("value number {}", i + 2))).collect();
    let mut group = c.benchmark_group("simil");
    group.bench_function("jaccard", |bch| bch.iter(|| jaccard(black_box(&a), black_box(&b))));
    group.bench_function("levenshtein", |bch| {
        bch.iter(|| {
            levenshtein(black_box("shawshank redemption"), black_box("shawshak redemptions"))
        })
    });
    group.bench_function("sim_l", |bch| bch.iter(|| sim_l(black_box(&va), black_box(&vb), 0.9)));
    group.bench_function("normalize", |bch| {
        bch.iter(|| normalize_tokens(black_box("The Quick Brown Foxes Jumped, Running!")))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alg1_prune, bench_alg2_infer, bench_alg3_select, bench_propagation, bench_simil
);
criterion_main!(benches);
