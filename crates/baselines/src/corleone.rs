//! Corleone-style hands-off crowdsourced ER (Gokhale et al., SIGMOD'14).
//!
//! Corleone learns a random-forest matcher with active learning: starting
//! from a pair of sure seeds, it repeatedly trains a forest on the labeled
//! pairs, sends the most *uncertain* pairs (split tree votes) to the
//! crowd, and stops when uncertainty dries up. The forest then classifies
//! everything. Without inference across pairs, its question count grows
//! with the decision boundary — the paper's Tables III and Fig. 3 show it
//! asking the most questions by far.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use remp_crowd::{infer_truth, LabelSource, TruthConfig, Verdict};
use remp_ergraph::{Candidates, PairId};
use remp_forest::{DistinctRows, ForestConfig, RandomForest};
use remp_par::Parallelism;
use remp_simil::SimVec;

use crate::BaselineOutcome;

/// Corleone parameters.
#[derive(Clone, Copy, Debug)]
pub struct CorleoneConfig {
    /// Pairs asked per active-learning round.
    pub batch_size: usize,
    /// Maximum active-learning rounds.
    pub max_rounds: usize,
    /// Uncertainty band: pairs with forest probability inside
    /// `(0.5 − band, 0.5 + band)` are considered uncertain.
    pub uncertainty_band: f64,
    /// Fraction of each batch drawn uniformly from the unlabeled pool
    /// (exploration — without it the forest never revisits regions it is
    /// confidently wrong about).
    pub exploration: f64,
    /// Exploration RNG seed.
    pub seed: u64,
    /// Hard question budget.
    pub max_questions: usize,
    /// Truth-inference thresholds.
    pub truth: TruthConfig,
    /// Forest settings.
    pub forest: ForestConfig,
}

impl Default for CorleoneConfig {
    fn default() -> Self {
        CorleoneConfig {
            batch_size: 20,
            max_rounds: 50,
            uncertainty_band: 0.2,
            exploration: 0.3,
            seed: 0xC0E,
            max_questions: 5_000,
            truth: TruthConfig::default(),
            forest: ForestConfig { n_trees: 25, ..ForestConfig::default() },
        }
    }
}

/// Runs Corleone over the retained candidates.
pub fn corleone(
    candidates: &Candidates,
    sim_vectors: &[SimVec],
    truth: &dyn Fn(remp_kb::EntityId, remp_kb::EntityId) -> bool,
    crowd: &mut dyn LabelSource,
    config: &CorleoneConfig,
) -> BaselineOutcome {
    let n = candidates.len();
    if n == 0 {
        return BaselineOutcome { matches: Vec::new(), questions: 0 };
    }
    // Every candidate's similarity vector, interned: the forest scores
    // each distinct vector once per round.
    let mut rows = DistinctRows::new(sim_vectors[0].len());
    let row_of: Vec<u32> = sim_vectors[..n].iter().map(|v| rows.intern(v.components())).collect();

    let mut labeled: Vec<Option<bool>> = vec![None; n];
    let mut questions = 0usize;

    let mut ask = |p: PairId, labeled: &mut Vec<Option<bool>>, questions: &mut usize| {
        let (u1, u2) = candidates.pair(p);
        let labels = crowd.label(truth(u1, u2));
        *questions += 1;
        let (verdict, posterior) = infer_truth(candidates.prior(p), &labels, &config.truth);
        labeled[p.index()] = Some(match verdict {
            Verdict::Match => true,
            Verdict::NonMatch => false,
            Verdict::Inconsistent => posterior > 0.5,
        });
    };

    // Bootstrap: the most/least plausible pairs by prior (Corleone's sure
    // positive/negative seeds).
    let mut by_prior: Vec<PairId> = candidates.ids().collect();
    by_prior.sort_by(|&a, &b| {
        candidates
            .prior(b)
            .partial_cmp(&candidates.prior(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    for &p in by_prior.iter().take(3).chain(by_prior.iter().rev().take(3)) {
        if labeled[p.index()].is_none() && questions < config.max_questions {
            ask(p, &mut labeled, &mut questions);
        }
    }

    // The last forest's probability for each distinct row.
    let mut proba: Option<Vec<f64>> = None;
    let mut explore_rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..config.max_rounds {
        if questions >= config.max_questions {
            break;
        }
        // Train on everything labeled so far.
        let mut train_rows = DistinctRows::new(rows.n_features());
        let (train_x, train_y): (Vec<u32>, Vec<bool>) = labeled
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|y| (train_rows.intern(rows.row(row_of[i] as usize)), y)))
            .unzip();
        if train_y.iter().all(|&y| y) || !train_y.iter().any(|&y| y) {
            // Only one class labeled: ask more extremes.
            let next = by_prior.iter().find(|&&p| labeled[p.index()].is_none()).copied();
            match next {
                Some(p) => {
                    ask(p, &mut labeled, &mut questions);
                    continue;
                }
                None => break,
            }
        }
        let rf = RandomForest::fit_par(
            &train_rows,
            &train_x,
            &train_y,
            &config.forest,
            &Parallelism::Sequential,
        );
        let round_proba = rf.predict_proba_rows(&rows);

        // Most uncertain unlabeled pairs.
        let mut uncertain: Vec<(f64, PairId)> = candidates
            .ids()
            .filter(|&p| labeled[p.index()].is_none())
            .map(|p| ((round_proba[row_of[p.index()] as usize] - 0.5).abs(), p))
            .filter(|&(dist, _)| dist < config.uncertainty_band)
            .collect();
        proba = Some(round_proba);
        let explore_n =
            ((config.batch_size as f64) * config.exploration.clamp(0.0, 1.0)).round() as usize;
        let exploit_n = config.batch_size.saturating_sub(explore_n);
        // A forest trained on a handful of clean seeds reports false
        // certainty (pure leaves); require a minimum labeled pool before
        // trusting an empty uncertainty region.
        let labeled_count = labeled.iter().filter(|l| l.is_some()).count();
        let min_labels = (n / 25).clamp(40, 400).min(n);
        if uncertain.is_empty() && labeled_count >= min_labels {
            break; // converged: the matcher is confident everywhere
        }
        uncertain.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.1.cmp(&b.1))
        });
        let mut batch: Vec<PairId> = uncertain.iter().take(exploit_n).map(|&(_, p)| p).collect();
        // Exploration: uniform draws from the unlabeled pool.
        let mut pool: Vec<PairId> = candidates
            .ids()
            .filter(|&p| labeled[p.index()].is_none() && !batch.contains(&p))
            .collect();
        pool.shuffle(&mut explore_rng);
        batch.extend(pool.into_iter().take(explore_n));
        if batch.is_empty() {
            break;
        }
        for &p in &batch {
            if questions >= config.max_questions {
                break;
            }
            ask(p, &mut labeled, &mut questions);
        }
    }

    // Final classification.
    let mut matches = Vec::new();
    for p in candidates.ids() {
        let is_match = match labeled[p.index()] {
            Some(y) => y,
            None => proba.as_ref().is_some_and(|proba| proba[row_of[p.index()] as usize] > 0.5),
        };
        if is_match {
            matches.push(candidates.pair(p));
        }
    }
    matches.sort_unstable();
    BaselineOutcome { matches, questions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_core::{evaluate_matches, prepare, RempConfig};
    use remp_crowd::OracleCrowd;
    use remp_datasets::{generate, iimb};

    fn setup() -> (remp_datasets::GeneratedDataset, remp_core::PreparedEr) {
        let d = generate(&iimb(0.2));
        let prep = prepare(&d.kb1, &d.kb2, &RempConfig::default());
        (d, prep)
    }

    #[test]
    fn corleone_with_oracle_is_accurate() {
        let (d, prep) = setup();
        let mut crowd = OracleCrowd::new();
        let out = corleone(
            &prep.candidates,
            &prep.sim_vectors,
            &|u1, u2| d.is_match(u1, u2),
            &mut crowd,
            &CorleoneConfig::default(),
        );
        let eval = evaluate_matches(out.matches.iter().copied(), &d.gold);
        assert!(eval.f1 > 0.5, "F1 = {}", eval.f1);
        assert!(out.questions > 0);
    }

    #[test]
    fn budget_respected() {
        let (d, prep) = setup();
        let mut crowd = OracleCrowd::new();
        let config = CorleoneConfig { max_questions: 8, ..Default::default() };
        let out = corleone(
            &prep.candidates,
            &prep.sim_vectors,
            &|u1, u2| d.is_match(u1, u2),
            &mut crowd,
            &config,
        );
        assert!(out.questions <= 8);
    }

    #[test]
    fn empty_candidates() {
        let cands = Candidates::from_pairs(std::iter::empty());
        let mut crowd = OracleCrowd::new();
        let out = corleone(&cands, &[], &|_, _| false, &mut crowd, &CorleoneConfig::default());
        assert!(out.matches.is_empty());
        assert_eq!(out.questions, 0);
    }
}
