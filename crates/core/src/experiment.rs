//! Experiment drivers shared by the integration tests, examples and the
//! bench harness.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use remp_crowd::LabelSource;
use remp_datasets::GeneratedDataset;
use remp_ergraph::PairId;
use remp_propagation::{inferred_sets_dijkstra, ConsistencyTable, ProbErGraph};

use crate::{evaluate_matches, prepare, LoopStat, PrecisionRecall, Remp, RempConfig};

/// One experiment's outcome: quality plus cost.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Precision / recall / F1 against the dataset's gold standard.
    pub eval: PrecisionRecall,
    /// Questions asked (`#Q`).
    pub questions: usize,
    /// Human-machine loops (`#L`).
    pub loops: usize,
    /// Per-loop stage-2/3 timings and dirty-region counters from the
    /// incremental engine (one entry per propagation pass).
    pub loop_stats: Vec<LoopStat>,
}

/// Runs the full Remp pipeline on a generated dataset with the given crowd.
pub fn run_on_dataset(
    dataset: &GeneratedDataset,
    config: &RempConfig,
    crowd: &mut dyn LabelSource,
) -> ExperimentResult {
    let remp = Remp::new(config.clone());
    let mut session =
        remp.begin(&dataset.kb1, &dataset.kb2).unwrap_or_else(|e| panic!("run_on_dataset: {e}"));
    session
        .drive(&|u1, u2| dataset.is_match(u1, u2), crowd)
        .expect("draining a fresh session cannot hit caller-protocol errors");
    let loop_stats = session.loop_stats().to_vec();
    let outcome = session.finish();
    ExperimentResult {
        eval: evaluate_matches(outcome.matches.iter().copied(), &dataset.gold),
        questions: outcome.questions_asked,
        loops: outcome.loops,
        loop_stats,
    }
}

/// The Table VI protocol: seed a fraction of the gold matches and measure
/// pure propagation quality (no crowd, no classifier).
///
/// Seeds are sampled from the gold matches that survived pruning; two
/// propagation rounds run (estimate → infer → re-estimate with the new
/// matches → infer), mirroring the pipeline's update loop.
pub fn propagation_only_f1(
    dataset: &GeneratedDataset,
    config: &RempConfig,
    seed_fraction: f64,
    rng_seed: u64,
) -> PrecisionRecall {
    let prep = prepare(&dataset.kb1, &dataset.kb2, config);
    let mut gold_retained: Vec<PairId> = prep
        .candidates
        .ids()
        .filter(|&p| {
            let (u1, u2) = prep.candidates.pair(p);
            dataset.is_match(u1, u2)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    gold_retained.shuffle(&mut rng);
    let n_seeds = ((gold_retained.len() as f64) * seed_fraction).round() as usize;
    let seeds: Vec<PairId> = gold_retained.into_iter().take(n_seeds).collect();

    let mut candidates = prep.candidates.clone();
    let mut matched: Vec<PairId> = seeds.clone();
    for &s in &seeds {
        candidates.set_prior(s, 1.0);
    }

    let mut prev_count = 0usize;
    for _round in 0..8 {
        if matched.len() == prev_count && _round > 0 {
            break; // fixpoint reached
        }
        prev_count = matched.len();
        let par = &config.parallelism;
        let cons = ConsistencyTable::estimate(
            &dataset.kb1,
            &dataset.kb2,
            &candidates,
            &prep.graph,
            &matched,
            par,
        );
        let pg = ProbErGraph::build(
            &dataset.kb1,
            &dataset.kb2,
            &candidates,
            &prep.graph,
            &cons,
            &config.propagation,
            par,
        );
        let inferred = inferred_sets_dijkstra(&pg, config.tau, par);
        let mut new_matches = Vec::new();
        for &s in &matched {
            for &p in inferred.inferred(s) {
                new_matches.push(p);
            }
        }
        matched.extend(new_matches);
        matched.sort_unstable();
        matched.dedup();
        for &m in &matched {
            candidates.set_prior(m, 1.0);
        }
    }

    let predictions = matched.iter().map(|&p| candidates.pair(p));
    evaluate_matches(predictions, &dataset.gold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_crowd::OracleCrowd;
    use remp_datasets::{generate, iimb};

    #[test]
    fn run_on_dataset_smoke() {
        let d = generate(&iimb(0.2));
        let mut crowd = OracleCrowd::new();
        let r = run_on_dataset(&d, &RempConfig::default(), &mut crowd);
        assert!(r.eval.f1 > 0.5, "F1 = {}", r.eval.f1);
        assert!(r.questions > 0);
        assert!(r.loops > 0);
    }

    #[test]
    fn more_seeds_no_worse_propagation() {
        let d = generate(&iimb(0.25));
        let config = RempConfig::default().without_classifier();
        let low = propagation_only_f1(&d, &config, 0.2, 7);
        let high = propagation_only_f1(&d, &config, 0.8, 7);
        assert!(
            high.f1 >= low.f1 - 0.05,
            "more seeds should help: 20% → {}, 80% → {}",
            low.f1,
            high.f1
        );
        assert!(high.f1 > 0.5, "80% seeds should resolve most: {}", high.f1);
    }

    #[test]
    fn propagation_only_is_deterministic() {
        let d = generate(&iimb(0.2));
        let config = RempConfig::default().without_classifier();
        let a = propagation_only_f1(&d, &config, 0.4, 3);
        let b = propagation_only_f1(&d, &config, 0.4, 3);
        assert_eq!(a, b);
    }
}
