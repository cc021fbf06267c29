//! Figure 6 and the efficiency text of §VIII-B: running times of
//! Algorithm 1 (pruning), Algorithm 2 (inferred-set discovery) and
//! Algorithm 3 (question selection).
//!
//! Algorithm 2 is timed with the from-scratch reference
//! [`inferred_sets_dijkstra`], one Dijkstra per source, not with the
//! incremental inferred-set kernel that campaigns run.

use std::io::{self, Write};
use std::time::Instant;

use remp_core::RempConfig;
use remp_datasets::GeneratedDataset;
use remp_ergraph::{build_sim_vectors, prune, Candidates, ErGraph, PairId};
use remp_propagation::{inferred_sets_dijkstra, ConsistencyTable, ProbErGraph};
use remp_selection::select_questions;

use crate::{load_dataset, prepare_default, unpruned, DATASETS};

/// Figure 6: running time of Algorithm 1 (pruning) over 25–100% of the
/// candidate matches and of Algorithms 2 (inferred-set discovery) and 3
/// (question selection) over 25–100% of the retained matches, on the D-Y
/// preset. Algorithm 2 is the from-scratch reference (module doc).
///
/// Expected shape: Algorithms 1 and 2 grow roughly linearly in the pair
/// count; Algorithm 3's growth is sublinear when inferred sets stop
/// growing.
pub fn fig6(out: &mut dyn Write, scale: f64) -> io::Result<()> {
    let dataset = load_dataset("D-Y", 0.3, scale);
    let config = RempConfig::default();
    let stage = unpruned(&dataset, &config);

    writeln!(out, "Figure 6: running time (ms) vs portion of entity pairs (D-Y)\n")?;
    writeln!(
        out,
        "{:>8} | {:>12} | {:>12} {:>12}",
        "portion", "Alg.1 prune", "Alg.2 infer", "Alg.3 select"
    )?;
    writeln!(out, "{}", "-".repeat(55))?;

    for portion in [0.25, 0.5, 0.75, 1.0] {
        // --- Algorithm 1 on a portion of the candidate matches. ---
        let take = (stage.candidates.len() as f64 * portion).round() as usize;
        let subset: Vec<PairId> = stage.candidates.ids().take(take).collect();
        let (sub_cands, sub_vectors, _) =
            stage.candidates.restrict_with_vectors(&subset, &stage.vectors);
        let (alg1_ms, retained) =
            mean_ms(1, || prune(&sub_cands, &sub_vectors, config.knn_k, &config.parallelism));

        // --- Algorithms 2 and 3 on the corresponding retained portion,
        // seeded with its exact-label pairs. ---
        let (ret_cands, _) = sub_cands.restrict(&retained);
        let graph = ErGraph::build(&dataset.kb1, &dataset.kb2, &ret_cands);
        let seeds: Vec<PairId> = ret_cands
            .iter()
            .filter(|&(_, (u1, u2))| dataset.kb1.label(u1) == dataset.kb2.label(u2))
            .map(|(id, _)| id)
            .collect();
        let (alg2_ms, alg3_ms) =
            time_algorithms_2_3(&dataset, &ret_cands, &graph, &seeds, &config, 1);

        writeln!(
            out,
            "{:>7.0}% | {:>12.1} | {:>12.1} {:>12.1}",
            100.0 * portion,
            alg1_ms,
            alg2_ms,
            alg3_ms
        )?;
    }
    Ok(())
}

/// Efficiency analysis (§VIII-B text): average running times of
/// Algorithm 1 (pruning), Algorithm 2 (inferred-set discovery) and
/// Algorithm 3 (question selection) on each dataset, over 3 runs.
/// Algorithm 2 is the from-scratch reference (module doc).
///
/// Expected shape: Algorithm 1 dominates (similarity-vector work);
/// Algorithms 2 and 3 are much cheaper on the retained graphs.
pub fn efficiency(out: &mut dyn Write, scale: f64) -> io::Result<()> {
    let runs = 3;
    writeln!(out, "Efficiency: average running time (ms) of Algorithms 1–3 ({runs} runs)\n")?;
    writeln!(out, "{:>6} | {:>12} {:>12} {:>12}", "", "Alg.1", "Alg.2", "Alg.3")?;
    writeln!(out, "{}", "-".repeat(50))?;

    let config = RempConfig::default();
    let par = &config.parallelism;
    for (name, base) in DATASETS {
        let dataset = load_dataset(name, base, scale);
        let prep = prepare_default(&dataset);
        let (kb1, kb2, all) = (&dataset.kb1, &dataset.kb2, &prep.pre_candidates);
        // Algorithm 1's cost includes building the similarity vectors
        // (the paper notes vector construction dominates).
        let (alg1, _) = mean_ms(runs, || {
            let vectors =
                build_sim_vectors(kb1, kb2, all, &prep.alignment, config.literal_threshold, par);
            prune(all, &vectors, config.knn_k, par)
        });
        let (alg2, alg3) = time_algorithms_2_3(
            &dataset,
            &prep.candidates,
            &prep.graph,
            &prep.initial,
            &config,
            runs,
        );
        writeln!(out, "{:>6} | {:>12.1} {:>12.1} {:>12.1}", name, alg1, alg2, alg3)?;
    }
    Ok(())
}

/// Mean wall time of `runs` calls of `f` in ms, with the last result.
fn mean_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..runs {
        let started = Instant::now();
        let result = f();
        total += started.elapsed().as_secs_f64() * 1e3;
        last = Some(result);
    }
    (total / runs as f64, last.expect("at least one run"))
}

/// Mean ms of Algorithm 2 (inferred sets from `seeds`' consistency
/// estimate) and of Algorithm 3 (selection over every pair of `cands`),
/// each over `runs` runs.
fn time_algorithms_2_3(
    dataset: &GeneratedDataset,
    cands: &Candidates,
    graph: &ErGraph,
    seeds: &[PairId],
    config: &RempConfig,
    runs: usize,
) -> (f64, f64) {
    let (kb1, kb2, par) = (&dataset.kb1, &dataset.kb2, &config.parallelism);
    let cons = ConsistencyTable::estimate(kb1, kb2, cands, graph, seeds, par);
    let pg = ProbErGraph::build(kb1, kb2, cands, graph, &cons, &config.propagation, par);
    let (alg2, inferred) = mean_ms(runs, || inferred_sets_dijkstra(&pg, config.tau, par));

    let priors: Vec<f64> = cands.ids().map(|p| cands.prior(p)).collect();
    let eligible = vec![true; cands.len()];
    let all: Vec<PairId> = cands.ids().collect();
    let (alg3, _) =
        mean_ms(runs, || select_questions(&all, &inferred, &priors, &eligible, config.mu, par));
    (alg2, alg3)
}
