//! Random-forest inference for isolated entity pairs (paper §VII-B).
//!
//! Pairs whose ER-graph vertex has no edges can never be reached by match
//! propagation; polling them one by one would waste the budget. The paper
//! instead trains a random forest on the similarity vectors of *resolved*
//! pairs with attribute signatures similar to the target pair
//! (`Jaccard(A_p, A_p') ≥ ψ`) and predicts the isolated ones, treating
//! unresolved pairs as non-matches to balance the classes.
//!
//! ## Documented deviation
//! Training one forest per isolated pair (or per signature group)
//! fragments the training data badly at reproduction scale. We train one
//! *global* forest whose features are the similarity vector and the
//! per-attribute **presence bits** (the signature `A_p` itself) — the
//! forest partitions on signatures internally, which subsumes the paper's
//! ψ-neighbourhood selection while seeing all the evidence. Class balance
//! is enforced by capping the majority class, mirroring the paper's
//! balancing intent.
//!
//! ## One fit and one score per distinct feature vector
//! Similarities and presence bits take few values, so pairs share
//! feature vectors: on D-A ×16, 12,134 balanced training pairs hold 68
//! distinct vectors and 404,375 targets hold 46. Both sets are interned
//! into [`DistinctRows`] (data-parallel, one flat buffer per chunk, no
//! vector per pair). The forest fits on the distinct training rows, each
//! weighted by how often each tree's bootstrap drew it, and each distinct
//! target vector walks the trees once. This is exact, not an
//! approximation:
//! - the weights are whole numbers, so every sum of them in a split scan
//!   is exact in `f64` and equals the row-wise count;
//! - the split scan reads the running sums only between two different
//!   values, so the order equal values were sorted in never matters;
//! - every bootstrap index still comes from the same RNG stream, one
//!   `gen_range` per draw, and only the per-row counting changed.
//!
//! So every tree, every probability and every prediction is bit-identical
//! to fitting and scoring pair by pair, in every
//! [`Parallelism`](remp_par::Parallelism) mode.

use remp_ergraph::{AttrAlignment, Candidates, ErGraph, PairId};
use remp_forest::{DistinctRows, RandomForest};
use remp_kb::{AttrId, EntityId, Kb};
use remp_simil::SimVec;

use crate::{RempConfig, Resolution};

/// Which aligned attributes each entity of one KB has: bit `j % 64` of
/// word `j / 64` of an entity's mask is set when the entity has the
/// attribute of alignment pair `j` on this KB's side. One attribute
/// lookup per entity and pair of the alignment, instead of one per
/// candidate pair.
struct Presence {
    words: usize,
    masks: Vec<u64>,
}

impl Presence {
    fn new(kb: &Kb, attrs: impl Iterator<Item = AttrId> + Clone) -> Presence {
        let words = attrs.clone().count().div_ceil(64);
        let mut masks = vec![0u64; kb.num_entities() * words];
        for (u, mask) in masks.chunks_exact_mut(words).enumerate() {
            for (j, a) in attrs.clone().enumerate() {
                if kb.has_attr(EntityId::from_index(u), a) {
                    mask[j / 64] |= 1 << (j % 64);
                }
            }
        }
        Presence { words, masks }
    }

    fn of(&self, u: EntityId) -> &[u64] {
        &self.masks[u.index() * self.words..][..self.words]
    }
}

/// What the feature vector of a pair is read from.
struct FeatureSource<'a> {
    candidates: &'a Candidates,
    sim_vectors: &'a [SimVec],
    presence1: Presence,
    presence2: Presence,
    /// Number of aligned attribute pairs.
    aligned: usize,
}

impl<'a> FeatureSource<'a> {
    fn new(
        kb1: &Kb,
        kb2: &Kb,
        candidates: &'a Candidates,
        sim_vectors: &'a [SimVec],
        alignment: &AttrAlignment,
    ) -> FeatureSource<'a> {
        let pairs = &alignment.pairs;
        FeatureSource {
            candidates,
            sim_vectors,
            presence1: Presence::new(kb1, pairs.iter().map(|&(a1, _, _)| a1)),
            presence2: Presence::new(kb2, pairs.iter().map(|&(_, a2, _)| a2)),
            aligned: pairs.len(),
        }
    }

    /// Writes the feature vector of `p` into `out`: similarity components
    /// plus presence bits of each aligned attribute (the signature `A_p`).
    /// The label-similarity prior is deliberately *not* a feature — the
    /// paper trains on similarity vectors only, and isolated matches with
    /// noisy labels (low prior, strong attributes) are exactly the cases
    /// the classifier must recover.
    fn write(&self, p: PairId, out: &mut [f64]) {
        let (u1, u2) = self.candidates.pair(p);
        let sims = self.sim_vectors[p.index()].components();
        out[..sims.len()].copy_from_slice(sims);
        let (has1, has2) = (self.presence1.of(u1), self.presence2.of(u2));
        for (j, slot) in out[sims.len()..][..self.aligned].iter_mut().enumerate() {
            let both = has1[j / 64] & has2[j / 64] & (1 << (j % 64)) != 0;
            *slot = if both { 1.0 } else { 0.0 };
        }
    }
}

/// Classifies the unresolved isolated pairs, returning those predicted to
/// be matches.
///
/// Positives: resolved matches (crowd + inferred). Negatives: resolved
/// non-matches and unresolved non-isolated pairs (the paper's balancing
/// device). The majority class is capped at the minority size by
/// deterministic striding.
#[allow(clippy::too_many_arguments)]
pub fn classify_isolated(
    kb1: &Kb,
    kb2: &Kb,
    candidates: &Candidates,
    graph: &ErGraph,
    sim_vectors: &[SimVec],
    alignment: &AttrAlignment,
    resolution: &[Resolution],
    config: &RempConfig,
) -> Vec<PairId> {
    let n = candidates.len();
    if n == 0 || alignment.is_empty() {
        return Vec::new();
    }
    let _span = remp_obs::Span::enter("classifier");

    // One pass over the pairs sorts out the targets and both classes.
    // Targets: every pair still unresolved when the loop terminated —
    // primarily isolated vertices (the paper's case), plus connected pairs
    // the propagation terminally could not reach with Pr ≥ τ (a small
    // extension; without it those pairs silently count as non-matches).
    // Positives: resolved matches. Negatives, in preference order (the
    // paper treats unresolved N_p pairs as non-matches to balance):
    //   1. crowd-confirmed non-matches,
    //   2. unresolved *non-isolated* pairs with prior < 0.8 (propagation
    //      had its chance — these are overwhelmingly true non-matches),
    //   3. unresolved isolated pairs with the lowest priors, only to fill
    //      the quota (they are partially contaminated with exactly the
    //      matches we want to predict).
    let mut targets: Vec<PairId> = Vec::new();
    let mut positives: Vec<PairId> = Vec::new();
    let mut negatives: Vec<PairId> = Vec::new();
    for (i, r) in resolution[..n].iter().enumerate() {
        let p = PairId::from_index(i);
        match r {
            Resolution::Match(_) => positives.push(p),
            Resolution::NonMatch => negatives.push(p),
            Resolution::Unresolved => {
                targets.push(p);
                if !graph.is_isolated_vertex(p) && candidates.prior(p) < 0.8 {
                    negatives.push(p);
                }
            }
        }
    }
    if targets.is_empty() || positives.is_empty() {
        return Vec::new();
    }

    // Targets and training pairs are interned into distinct feature
    // vectors, data-parallel and without a vector per pair: the forest
    // fits on weighted distinct rows and scores each distinct target
    // vector once, bit-identical to fitting and scoring pair by pair.
    let source = FeatureSource::new(kb1, kb2, candidates, sim_vectors, alignment);
    let sims = sim_vectors[0].len();
    let write = |&p: &PairId, out: &mut [f64]| source.write(p, out);
    let (target_rows, target_ids) =
        DistinctRows::collect_par(&targets, sims + alignment.len(), &config.parallelism, write);

    if negatives.len() < positives.len() {
        // Fill from unresolved isolated pairs: stratified by prior so the
        // forest sees the whole junk spectrum, skipping pairs that agree
        // strongly on ≥ 2 attributes (likely the very matches we want to
        // predict — training on them as negatives poisons the boundary).
        let weak: Vec<bool> = (0..target_rows.len())
            .map(|id| target_rows.row(id)[..sims].iter().filter(|&&c| c >= 0.9).count() < 2)
            .collect();
        // Sorted by prior, ties by id (`targets` ascends and the sort is
        // stable): every prior here is below 0.8, so not NaN, and `+ 0.0`
        // folds `-0.0` into `0.0`, so `total_cmp` orders as `<` does.
        let mut pool: Vec<(f64, PairId)> = Vec::with_capacity(targets.len());
        pool.extend(targets.iter().zip(&target_ids).filter_map(|(&p, &id)| {
            let prior = candidates.prior(p);
            (weak[id as usize] && prior < 0.8 && graph.is_isolated_vertex(p))
                .then_some((prior + 0.0, p))
        }));
        pool.sort_by(|a, b| a.0.total_cmp(&b.0));
        let need = positives.len() - negatives.len();
        let stride = (pool.len() as f64 / need as f64).max(1.0);
        let picks = need.min(pool.len());
        negatives.extend((0..picks).map(|k| pool[(k as f64 * stride) as usize].1));
    }
    if negatives.is_empty() || positives.len() + negatives.len() < 8 {
        return Vec::new();
    }

    // Cap the majority class at the minority count by striding.
    let cap = |members: &[PairId], quota: usize| -> Vec<PairId> {
        if members.len() <= quota {
            return members.to_vec();
        }
        let stride = members.len() as f64 / quota as f64;
        (0..quota).map(|k| members[(k as f64 * stride) as usize]).collect()
    };
    let quota = positives.len().min(negatives.len());
    let mut keep: Vec<(PairId, bool)> =
        cap(&positives, quota).into_iter().map(|p| (p, true)).collect();
    keep.extend(cap(&negatives, quota).into_iter().map(|p| (p, false)));
    keep.sort_unstable_by_key(|&(p, _)| p);
    let (train, labels): (Vec<PairId>, Vec<bool>) = keep.into_iter().unzip();
    let (train_rows, train_ids) =
        DistinctRows::collect_par(&train, sims + alignment.len(), &config.parallelism, write);
    let forest = RandomForest::fit_par(
        &train_rows,
        &train_ids,
        &labels,
        &config.forest,
        &config.parallelism,
    );

    let hits: Vec<bool> = forest
        .predict_proba_rows(&target_rows)
        .into_iter()
        .map(|proba| proba >= config.classifier_threshold)
        .collect();
    record_distinct_rows(train_rows.len(), target_rows.len());
    // `targets` ascends, so the predictions do too.
    targets.iter().zip(&target_ids).filter(|&(_, &id)| hits[id as usize]).map(|(&t, _)| t).collect()
}

/// Publishes how many distinct feature vectors the classifier fitted on
/// and scored — the work it did, where the pair counts are the work it
/// was given.
fn record_distinct_rows(training: usize, targets: usize) {
    if !remp_obs::enabled() {
        return;
    }
    for (set, rows) in [("training", training), ("targets", targets)] {
        remp_obs::global()
            .gauge(
                remp_obs::names::CLASSIFIER_DISTINCT_ROWS,
                "Distinct feature vectors in the isolated-pair classifier's last run, by set.",
                &[("set", set)],
            )
            .set(rows as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, Remp, RempConfig};
    use remp_crowd::OracleCrowd;
    use remp_datasets::{generate, iimb};

    #[test]
    fn classifier_targets_only_isolated_unresolved() {
        let d = generate(&iimb(0.3));
        let config = RempConfig::default();
        let prep = prepare(&d.kb1, &d.kb2, &config);
        let remp = Remp::new(config.clone());
        let mut crowd = OracleCrowd::new();
        let outcome = remp.run_prepared(
            &d.kb1,
            &d.kb2,
            prep.clone(),
            &|u1, u2| d.is_match(u1, u2),
            &mut crowd,
        );

        let predicted = classify_isolated(
            &d.kb1,
            &d.kb2,
            &prep.candidates,
            &prep.graph,
            &prep.sim_vectors,
            &prep.alignment,
            &outcome.resolutions,
            &config,
        );
        for p in predicted {
            assert!(prep.graph.is_isolated_vertex(p), "classifier only targets isolated pairs");
        }
    }

    #[test]
    fn no_alignment_no_predictions() {
        let d = generate(&iimb(0.1));
        let config = RempConfig::default();
        let prep = prepare(&d.kb1, &d.kb2, &config);
        let resolution = vec![Resolution::Unresolved; prep.candidates.len()];
        let out = classify_isolated(
            &d.kb1,
            &d.kb2,
            &prep.candidates,
            &prep.graph,
            &prep.sim_vectors,
            &remp_ergraph::AttrAlignment::default(),
            &resolution,
            &config,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn single_class_training_yields_nothing() {
        // All pairs unresolved → no positives → no predictions.
        let d = generate(&iimb(0.1));
        let config = RempConfig::default();
        let prep = prepare(&d.kb1, &d.kb2, &config);
        let resolution = vec![Resolution::Unresolved; prep.candidates.len()];
        let out = classify_isolated(
            &d.kb1,
            &d.kb2,
            &prep.candidates,
            &prep.graph,
            &prep.sim_vectors,
            &prep.alignment,
            &resolution,
            &config,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn feature_vector_has_expected_dimension() {
        let d = generate(&iimb(0.1));
        let config = RempConfig::default();
        let prep = prepare(&d.kb1, &d.kb2, &config);
        let pairs = &prep.alignment.pairs;
        let source = FeatureSource::new(
            &d.kb1,
            &d.kb2,
            &prep.candidates,
            &prep.sim_vectors,
            &prep.alignment,
        );
        for p in prep.candidates.ids() {
            assert_eq!(prep.sim_vectors[p.index()].len(), pairs.len());
            let mut f = vec![f64::NAN; 2 * pairs.len()];
            source.write(p, &mut f);
            let (u1, u2) = prep.candidates.pair(p);
            for (j, &(a1, a2, _)) in pairs.iter().enumerate() {
                let both = d.kb1.has_attr(u1, a1) && d.kb2.has_attr(u2, a2);
                assert_eq!(f[pairs.len() + j], if both { 1.0 } else { 0.0 }, "{p:?} attr {j}");
            }
            assert_eq!(&f[..pairs.len()], prep.sim_vectors[p.index()].components());
        }
    }
}
