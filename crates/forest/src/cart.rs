//! CART decision trees with Gini impurity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::DistinctRows;

/// Tree-growing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth; `None` grows to purity (sklearn default).
    pub max_depth: Option<usize>,
    /// Minimum samples required to split a node (sklearn default 2).
    pub min_samples_split: usize,
    /// Number of features examined per split; `None` uses all (a single
    /// CART tree), `Some(k)` subsamples `k` (forests use `√d`).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: None, min_samples_split: 2, max_features: None }
    }
}

#[derive(Clone, Debug)]
enum Node {
    /// Probability of the positive class among training samples reaching
    /// this leaf.
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// How often one tree's bootstrap drew a distinct row, and how many of
/// those draws carried the positive label. Both are whole numbers, so
/// every sum of them is exact in `f64`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Weight {
    pub(crate) n: f64,
    pub(crate) pos: f64,
}

impl Weight {
    /// The weight of each of `n_rows` rows, one count per `(row, label)`
    /// sample.
    pub(crate) fn tally(n_rows: usize, samples: impl Iterator<Item = (u32, bool)>) -> Vec<Weight> {
        // `[negative, positive]` samples of each row.
        let mut counts = vec![[0u32; 2]; n_rows];
        for (row, label) in samples {
            counts[row as usize][usize::from(label)] += 1;
        }
        counts
            .into_iter()
            .map(|[neg, pos]| Weight { n: f64::from(neg + pos), pos: f64::from(pos) })
            .collect()
    }
}

/// The training sample one tree grows on: distinct rows with a
/// [`Weight`] each, zero for rows the sample does not hold.
#[derive(Clone, Copy)]
pub(crate) struct Sample<'a> {
    pub(crate) rows: &'a DistinctRows,
    pub(crate) weights: &'a [Weight],
}

/// A binary CART classifier over dense `f64` feature vectors.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on `samples[i]` with boolean `labels[i]`.
    ///
    /// `rng` drives feature subsampling (unused when
    /// [`TreeConfig::max_features`] is `None`).
    ///
    /// # Panics
    /// Panics on empty input or ragged feature matrices.
    pub fn fit(
        samples: &[Vec<f64>],
        labels: &[bool],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert!(!samples.is_empty(), "cannot fit on empty data");
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        let mut rows = DistinctRows::new(samples[0].len());
        let ids: Vec<u32> = samples.iter().map(|x| rows.intern(x)).collect();
        let weights = Weight::tally(rows.len(), ids.into_iter().zip(labels.iter().copied()));
        DecisionTree::fit_sample(Sample { rows: &rows, weights: &weights }, config, rng)
    }

    /// Fits a tree on the rows of `sample` that carry weight.
    ///
    /// # Panics
    /// Panics if no row carries weight.
    pub(crate) fn fit_sample(
        sample: Sample<'_>,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        let members: Vec<u32> = (0..sample.rows.len() as u32)
            .filter(|&id| sample.weights[id as usize].n > 0.0)
            .collect();
        assert!(!members.is_empty(), "cannot fit on empty data");
        let mut tree = DecisionTree { nodes: Vec::new(), n_features: sample.rows.n_features() };
        tree.grow(sample, &members, 0, config, rng);
        tree
    }

    /// Recursively grows the subtree for the distinct rows `members`,
    /// returning its node id.
    fn grow(
        &mut self,
        sample: Sample<'_>,
        members: &[u32],
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let total = members.iter().fold(Weight::default(), |t, &id| {
            let w = sample.weights[id as usize];
            Weight { n: t.n + w.n, pos: t.pos + w.pos }
        });
        let p = total.pos / total.n;
        let pure = total.pos == 0.0 || total.pos == total.n;
        let depth_capped = config.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || total.n < config.min_samples_split as f64 {
            self.nodes.push(Node::Leaf(p));
            return self.nodes.len() - 1;
        }

        match self.best_split(sample, members, total, config, rng) {
            None => {
                self.nodes.push(Node::Leaf(p));
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let (left_ids, right_ids): (Vec<u32>, Vec<u32>) = members
                    .iter()
                    .partition(|&&id| sample.rows.row(id as usize)[feature] <= threshold);
                debug_assert!(!left_ids.is_empty() && !right_ids.is_empty());
                // Reserve this node's slot before growing children.
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf(p)); // placeholder
                let left = self.grow(sample, &left_ids, depth + 1, config, rng);
                let right = self.grow(sample, &right_ids, depth + 1, config, rng);
                self.nodes[id] = Node::Split { feature, threshold, left, right };
                id
            }
        }
    }

    /// Finds the Gini-optimal `(feature, threshold)` split, or `None` if no
    /// split separates the rows.
    ///
    /// Each distinct row is one entry of the sorted column, carrying its
    /// weight, and several rows may share a value. The scan stops only
    /// between two different values, where the running sums equal the
    /// counts of all drawn samples at or below the value, whatever order
    /// equal values were sorted in.
    fn best_split(
        &self,
        sample: Sample<'_>,
        members: &[u32],
        total: Weight,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = config.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1));
        }

        let (n, total_pos) = (total.n, total.pos);
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)

        let mut column: Vec<(f64, Weight)> = Vec::with_capacity(members.len());
        for &f in &features {
            column.clear();
            column.extend(
                members
                    .iter()
                    .map(|&id| (sample.rows.row(id as usize)[f], sample.weights[id as usize])),
            );
            column.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
            });

            // Scan split points between distinct consecutive values.
            let mut left_n = 0.0f64;
            let mut left_pos = 0.0f64;
            for w in 0..column.len() - 1 {
                left_n += column[w].1.n;
                left_pos += column[w].1.pos;
                if column[w].0 == column[w + 1].0 {
                    continue; // same value: not a valid threshold
                }
                let right_n = n - left_n;
                let right_pos = total_pos - left_pos;
                let score = (left_n / n) * gini(left_n, left_pos)
                    + (right_n / n) * gini(right_n, right_pos);
                let threshold = 0.5 * (column[w].0 + column[w + 1].0);
                if best.is_none_or(|(b, _, _)| score < b - 1e-15) {
                    best = Some((score, f, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Probability of the positive class for `x`.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature dimension mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf(p) => return *p,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Hard classification at probability 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) > 0.5
    }

    /// Number of nodes (diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Gini impurity of a node holding `cnt` samples, `pos` of them positive.
fn gini(cnt: f64, pos: f64) -> f64 {
    if cnt == 0.0 {
        0.0
    } else {
        let p = pos / cnt;
        2.0 * p * (1.0 - p)
    }
}

/// The row-wise CART this crate grew every tree with before it fitted on
/// distinct rows, kept verbatim as the reference the weighted fit must
/// equal node for node: it sorts every drawn row at every node.
#[cfg(test)]
impl DecisionTree {
    /// Fits a tree on `samples[i]` with boolean `labels[i]`, one entry
    /// per row.
    pub(crate) fn fit_rowwise(
        samples: &[Vec<f64>],
        labels: &[bool],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert!(!samples.is_empty(), "cannot fit on empty data");
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        let n_features = samples[0].len();
        assert!(samples.iter().all(|s| s.len() == n_features), "ragged features");

        let mut tree = DecisionTree { nodes: Vec::new(), n_features };
        let indices: Vec<usize> = (0..samples.len()).collect();
        tree.grow_rowwise(samples, labels, &indices, 0, config, rng);
        tree
    }

    /// Recursively grows the subtree for `indices`, returning its node id.
    fn grow_rowwise(
        &mut self,
        samples: &[Vec<f64>],
        labels: &[bool],
        indices: &[usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let positives = indices.iter().filter(|&&i| labels[i]).count();
        let p = positives as f64 / indices.len() as f64;
        let pure = positives == 0 || positives == indices.len();
        let depth_capped = config.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || indices.len() < config.min_samples_split {
            self.nodes.push(Node::Leaf(p));
            return self.nodes.len() - 1;
        }

        match self.best_split_rowwise(samples, labels, indices, config, rng) {
            None => {
                self.nodes.push(Node::Leaf(p));
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| samples[i][feature] <= threshold);
                debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
                // Reserve this node's slot before growing children.
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf(p)); // placeholder
                let left = self.grow_rowwise(samples, labels, &left_idx, depth + 1, config, rng);
                let right = self.grow_rowwise(samples, labels, &right_idx, depth + 1, config, rng);
                self.nodes[id] = Node::Split { feature, threshold, left, right };
                id
            }
        }
    }

    /// Finds the Gini-optimal `(feature, threshold)` split, or `None` if no
    /// split separates the samples.
    fn best_split_rowwise(
        &self,
        samples: &[Vec<f64>],
        labels: &[bool],
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = config.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1));
        }

        let total_pos = indices.iter().filter(|&&i| labels[i]).count() as f64;
        let n = indices.len() as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)

        let mut column: Vec<(f64, bool)> = Vec::with_capacity(indices.len());
        for &f in &features {
            column.clear();
            column.extend(indices.iter().map(|&i| (samples[i][f], labels[i])));
            column.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

            // Scan split points between distinct consecutive values.
            let mut left_n = 0.0f64;
            let mut left_pos = 0.0f64;
            for w in 0..column.len() - 1 {
                left_n += 1.0;
                if column[w].1 {
                    left_pos += 1.0;
                }
                if column[w].0 == column[w + 1].0 {
                    continue; // same value: not a valid threshold
                }
                let right_n = n - left_n;
                let right_pos = total_pos - left_pos;
                let gini = |cnt: f64, pos: f64| {
                    if cnt == 0.0 {
                        0.0
                    } else {
                        let p = pos / cnt;
                        2.0 * p * (1.0 - p)
                    }
                };
                let score = (left_n / n) * gini(left_n, left_pos)
                    + (right_n / n) * gini(right_n, right_pos);
                let threshold = 0.5 * (column[w].0 + column[w + 1].0);
                if best.is_none_or(|(b, _, _)| score < b - 1e-15) {
                    best = Some((score, f, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Every node in id order as `(feature, bits, left, right)`: a split's
    /// feature and `threshold.to_bits()`, or `usize::MAX` and a leaf's
    /// `p.to_bits()` — equal exactly when two trees are bit-identical.
    pub(crate) fn node_bits(&self) -> Vec<(usize, u64, usize, usize)> {
        self.nodes
            .iter()
            .map(|node| match *node {
                Node::Leaf(p) => (usize::MAX, p.to_bits(), 0, 0),
                Node::Split { feature, threshold, left, right } => {
                    (feature, threshold.to_bits(), left, right)
                }
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn separable_data_fits_perfectly() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let tree = DecisionTree::fit(&xs, &ys, &TreeConfig::default(), &mut rng());
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), y);
        }
    }

    #[test]
    fn xor_needs_depth_two() {
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![false, true, true, false];
        let tree = DecisionTree::fit(&xs, &ys, &TreeConfig::default(), &mut rng());
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), y, "xor point {x:?}");
        }
    }

    #[test]
    fn constant_labels_yield_single_leaf() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![true, true, true];
        let tree = DecisionTree::fit(&xs, &ys, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.predict(&[9.0]));
    }

    #[test]
    fn identical_features_cannot_split() {
        let xs = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let ys = vec![true, false, true, false];
        let tree = DecisionTree::fit(&xs, &ys, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1, "no valid threshold exists");
        assert!((tree.predict_proba(&[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_depth_caps_growth() {
        let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        let ys: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        let capped = TreeConfig { max_depth: Some(2), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&xs, &ys, &capped, &mut rng());
        // Depth-2 binary tree has at most 7 nodes.
        assert!(tree.num_nodes() <= 7, "got {} nodes", tree.num_nodes());
    }

    #[test]
    fn probabilities_reflect_leaf_composition() {
        let xs = vec![vec![0.0], vec![0.0], vec![0.0], vec![10.0]];
        let ys = vec![true, true, false, false];
        let capped = TreeConfig { max_depth: Some(1), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&xs, &ys, &capped, &mut rng());
        let p = tree.predict_proba(&[0.0]);
        assert!((p - 2.0 / 3.0).abs() < 1e-9, "leaf holds 2/3 positives, got {p}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let _ = DecisionTree::fit(&[], &[], &TreeConfig::default(), &mut rng());
    }

    #[test]
    fn weights_count_repeated_rows() {
        // Three copies of x = 0 (two positive) against one x = 10: the
        // weighted root sees four samples, not two rows.
        let xs = vec![vec![0.0], vec![10.0], vec![0.0], vec![0.0]];
        let ys = vec![true, false, true, false];
        let stump = TreeConfig { max_depth: Some(0), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&xs, &ys, &stump, &mut rng());
        assert_eq!(tree.predict_proba(&[0.0]), 0.5);
        let split = TreeConfig { min_samples_split: 5, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&xs, &ys, &split, &mut rng());
        assert_eq!(tree.num_nodes(), 1, "4 samples < min_samples_split 5");
        let split = TreeConfig { min_samples_split: 4, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&xs, &ys, &split, &mut rng());
        assert_eq!(tree.num_nodes(), 3, "4 samples, though only 2 distinct rows, may split");
    }

    /// Rows drawn from a few base vectors over a small value set: rows
    /// repeat, one x carries both labels, values tie across rows, and
    /// `0.0` meets `-0.0`.
    pub(crate) fn duplicated_data(
        seed: u64,
        n_base: usize,
        n_rows: usize,
        d: usize,
    ) -> (Vec<Vec<f64>>, Vec<bool>) {
        const VALUES: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 1.0, -1.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<Vec<f64>> = (0..n_base)
            .map(|_| (0..d).map(|_| VALUES[rng.gen_range(0..VALUES.len())]).collect())
            .collect();
        let xs: Vec<Vec<f64>> =
            (0..n_rows).map(|_| base[rng.gen_range(0..n_base)].clone()).collect();
        let ys = (0..n_rows).map(|_| rng.gen_bool(0.5)).collect();
        (xs, ys)
    }

    /// `0` means "no limit", `k` means `Some(k - 1)`.
    pub(crate) fn limit(k: usize) -> Option<usize> {
        k.checked_sub(1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The distinct-row fit grows the row-wise reference's tree, node
        /// for node and bit for bit.
        #[test]
        fn weighted_fit_equals_the_rowwise_reference(
            seed in any::<u64>(),
            n_base in 1usize..7,
            n_rows in 1usize..60,
            d in 1usize..4,
            max_depth in 0usize..5,
            min_samples_split in 0usize..7,
            max_features in 0usize..4,
        ) {
            let (xs, ys) = duplicated_data(seed, n_base, n_rows, d);
            let config = TreeConfig {
                max_depth: limit(max_depth),
                min_samples_split,
                max_features: (max_features > 0).then_some(max_features),
            };
            let weighted = DecisionTree::fit(&xs, &ys, &config, &mut StdRng::seed_from_u64(seed));
            let rowwise =
                DecisionTree::fit_rowwise(&xs, &ys, &config, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(weighted.node_bits(), rowwise.node_bits());
        }
    }
}
