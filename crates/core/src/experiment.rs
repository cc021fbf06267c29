//! Experiment drivers shared by the integration tests and examples.

use remp_crowd::LabelSource;
use remp_datasets::GeneratedDataset;

use crate::{evaluate_matches, LoopStat, PrecisionRecall, Remp, RempConfig};

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
}
