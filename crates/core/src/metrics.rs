//! Evaluation metrics (paper §III-A and §VIII-B): precision, recall, F1,
//! pair completeness (PC) and reduction ratio (RR).

use std::collections::HashSet;
use std::hash::Hash;

use remp_kb::EntityId;

/// Precision / recall / F1 of a predicted match set against a gold
/// standard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of predictions that are correct.
    pub precision: f64,
    /// Fraction of gold matches recovered.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Number of predictions.
    pub predicted: usize,
    /// Gold-standard size.
    pub expected: usize,
    /// Correct predictions.
    pub correct: usize,
}

impl PrecisionRecall {
    /// JSON form, as reported by `rempctl run` and the `remp-sim`
    /// robustness reports.
    pub fn to_json(&self) -> remp_json::Json {
        use remp_json::Json;
        Json::Obj(vec![
            ("precision".into(), Json::from(self.precision)),
            ("recall".into(), Json::from(self.recall)),
            ("f1".into(), Json::from(self.f1)),
            ("predicted".into(), Json::from(self.predicted)),
            ("expected".into(), Json::from(self.expected)),
            ("correct".into(), Json::from(self.correct)),
        ])
    }
}

/// Evaluates predicted matches (entity pairs, or any other match such as
/// attribute-name pairs) against the gold standard. Duplicate
/// predictions are counted once.
pub fn evaluate_matches<M: Eq + Hash>(
    predicted: impl IntoIterator<Item = M>,
    gold: &HashSet<M>,
) -> PrecisionRecall {
    let predicted: HashSet<M> = predicted.into_iter().collect();
    let correct = predicted.iter().filter(|p| gold.contains(p)).count();
    let precision =
        if predicted.is_empty() { 0.0 } else { correct as f64 / predicted.len() as f64 };
    let recall = if gold.is_empty() { 0.0 } else { correct as f64 / gold.len() as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PrecisionRecall {
        precision,
        recall,
        f1,
        predicted: predicted.len(),
        expected: gold.len(),
        correct,
    }
}

/// Pair completeness: the fraction of gold matches preserved in a
/// candidate/retained pair set (Table V).
pub fn pair_completeness(
    pairs: impl IntoIterator<Item = (EntityId, EntityId)>,
    gold: &HashSet<(EntityId, EntityId)>,
) -> f64 {
    if gold.is_empty() {
        return 0.0;
    }
    let pairs: HashSet<(EntityId, EntityId)> = pairs.into_iter().collect();
    gold.iter().filter(|g| pairs.contains(g)).count() as f64 / gold.len() as f64
}

/// Reduction ratio: the fraction of pairs removed by pruning (Table V).
pub fn reduction_ratio(before: usize, after: usize) -> f64 {
    if before == 0 {
        return 0.0;
    }
    1.0 - after as f64 / before as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold(pairs: &[(u32, u32)]) -> HashSet<(EntityId, EntityId)> {
        pairs.iter().map(|&(a, b)| (EntityId(a), EntityId(b))).collect()
    }

    fn pred(pairs: &[(u32, u32)]) -> Vec<(EntityId, EntityId)> {
        pairs.iter().map(|&(a, b)| (EntityId(a), EntityId(b))).collect()
    }

    #[test]
    fn perfect_prediction() {
        let g = gold(&[(0, 0), (1, 1)]);
        let m = evaluate_matches(pred(&[(0, 0), (1, 1)]), &g);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.correct, 2);
    }

    #[test]
    fn partial_prediction() {
        let g = gold(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let m = evaluate_matches(pred(&[(0, 0), (1, 1), (9, 9)]), &g);
        assert!((m.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        let expected_f1 = 2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5);
        assert!((m.f1 - expected_f1).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        let g = gold(&[(0, 0)]);
        let m = evaluate_matches(pred(&[]), &g);
        assert_eq!(m.f1, 0.0);
        let m2 = evaluate_matches(pred(&[(0, 0)]), &gold(&[]));
        assert_eq!(m2.recall, 0.0);
    }

    #[test]
    fn duplicates_counted_once() {
        let g = gold(&[(0, 0)]);
        let m = evaluate_matches(pred(&[(0, 0), (0, 0)]), &g);
        assert_eq!(m.predicted, 1);
        assert_eq!(m.precision, 1.0);
    }

    #[test]
    fn pair_completeness_basics() {
        let g = gold(&[(0, 0), (1, 1)]);
        assert_eq!(pair_completeness(pred(&[(0, 0), (5, 5)]), &g), 0.5);
        assert_eq!(pair_completeness(pred(&[]), &g), 0.0);
        assert_eq!(pair_completeness(pred(&[(0, 0)]), &gold(&[])), 0.0);
    }

    #[test]
    fn reduction_ratio_basics() {
        assert!((reduction_ratio(100, 25) - 0.75).abs() < 1e-12);
        assert_eq!(reduction_ratio(0, 0), 0.0);
        assert_eq!(reduction_ratio(10, 10), 0.0);
    }
}
