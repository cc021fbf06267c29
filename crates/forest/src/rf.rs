//! Bagged random forests over CART trees.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cart::{Sample, Weight};
use crate::{DecisionTree, DistinctRows, TreeConfig};

/// Forest parameters mirroring scikit-learn's defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (sklearn default 100).
    pub n_trees: usize,
    /// Per-tree growing parameters; `max_features = None` here means the
    /// forest picks `√d` automatically (sklearn's `max_features="sqrt"`).
    pub tree: TreeConfig,
    /// RNG seed for bootstraps and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 100, tree: TreeConfig::default(), seed: 0 }
    }
}

/// A bagged random-forest binary classifier.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits the forest on `samples[i]` with label `labels[i]`: each tree
    /// trains on a bootstrap resample with `√d` features per split
    /// (unless overridden in `config.tree`).
    ///
    /// # Panics
    /// Panics on empty input or ragged feature matrices.
    pub fn fit(samples: &[Vec<f64>], labels: &[bool], config: &ForestConfig) -> RandomForest {
        assert!(!samples.is_empty(), "cannot fit on empty data");
        let mut rows = DistinctRows::new(samples[0].len());
        let ids: Vec<u32> = samples.iter().map(|x| rows.intern(x)).collect();
        RandomForest::fit_par(&rows, &ids, labels, config, &remp_par::Parallelism::Sequential)
    }

    /// Fits the forest on samples given as row ids: sample `i` has the
    /// features `rows.row(samples[i])` and the label `labels[i]`.
    ///
    /// The master RNG draws every bootstrap index and per-tree seed
    /// *sequentially*, exactly as a fit on one cloned row per draw would.
    /// Each tree then counts its draws per distinct row and label instead
    /// of cloning rows, and grows data-parallel on the weighted rows (see
    /// the crate docs for why that is exact). The forest is bit-identical
    /// in every [`remp_par::Parallelism`] mode. Rows of `rows` no sample
    /// uses cost an empty count per tree, so `rows` should hold the
    /// training rows only.
    ///
    /// # Panics
    /// Panics on empty input or a sample id outside `rows`.
    pub fn fit_par(
        rows: &DistinctRows,
        samples: &[u32],
        labels: &[bool],
        config: &ForestConfig,
        par: &remp_par::Parallelism,
    ) -> RandomForest {
        assert!(!samples.is_empty(), "cannot fit on empty data");
        assert_eq!(samples.len(), labels.len(), "one label per sample");
        let d = rows.n_features();
        let tree_config = TreeConfig {
            max_features: config
                .tree
                .max_features
                .or_else(|| Some(((d as f64).sqrt().round() as usize).max(1))),
            ..config.tree
        };

        let mut rng = StdRng::seed_from_u64(config.seed);
        let m = samples.len();
        assert!(u32::try_from(m).is_ok(), "at most u32::MAX samples");
        let draws: Vec<(Vec<u32>, u64)> = (0..config.n_trees.max(1))
            .map(|_| ((0..m).map(|_| rng.gen_range(0..m) as u32).collect(), rng.gen()))
            .collect();
        let trees = par.par_map(&draws, |(drawn, tree_seed)| {
            let draws = drawn.iter().map(|&i| (samples[i as usize], labels[i as usize]));
            let weights = Weight::tally(rows.len(), draws);
            let mut tree_rng = StdRng::seed_from_u64(*tree_seed);
            DecisionTree::fit_sample(
                Sample { rows, weights: &weights },
                &tree_config,
                &mut tree_rng,
            )
        });
        RandomForest { trees }
    }

    /// Mean positive-class probability across trees.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict_proba(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// [`predict_proba`](Self::predict_proba) of every row of `rows`, in
    /// id order: each distinct vector walks the trees once, however many
    /// pairs share it.
    pub fn predict_proba_rows(&self, rows: &DistinctRows) -> Vec<f64> {
        (0..rows.len()).map(|id| self.predict_proba(rows.row(id))).collect()
    }

    /// Majority-vote classification at probability 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) > 0.5
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cart::tests::{duplicated_data, limit};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use remp_par::Parallelism;

    /// The forest fit before it moved to distinct rows, verbatim but for
    /// the row-wise tree fit it calls: every bootstrap draw clones its
    /// row. It is the reference [`fit_par`](RandomForest::fit_par) must equal.
    fn fit_rowwise(samples: &[Vec<f64>], labels: &[bool], config: &ForestConfig) -> RandomForest {
        let d = samples[0].len();
        let tree_config = TreeConfig {
            max_features: config
                .tree
                .max_features
                .or_else(|| Some(((d as f64).sqrt().round() as usize).max(1))),
            ..config.tree
        };

        let mut rng = StdRng::seed_from_u64(config.seed);
        let draws: Vec<(Vec<usize>, u64)> = (0..config.n_trees.max(1))
            .map(|_| {
                let idx: Vec<usize> =
                    (0..samples.len()).map(|_| rng.gen_range(0..samples.len())).collect();
                (idx, rng.gen())
            })
            .collect();
        let trees = draws
            .iter()
            .map(|(idx, tree_seed)| {
                let boot_x: Vec<Vec<f64>> = idx.iter().map(|&i| samples[i].clone()).collect();
                let boot_y: Vec<bool> = idx.iter().map(|&i| labels[i]).collect();
                let mut tree_rng = StdRng::seed_from_u64(*tree_seed);
                DecisionTree::fit_rowwise(&boot_x, &boot_y, &tree_config, &mut tree_rng)
            })
            .collect();
        RandomForest { trees }
    }

    fn small_config() -> ForestConfig {
        ForestConfig { n_trees: 25, ..ForestConfig::default() }
    }

    #[test]
    fn separable_data_classified_perfectly() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i * 7 % 13) as f64]).collect();
        let ys: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let rf = RandomForest::fit(&xs, &ys, &small_config());
        let acc = xs.iter().zip(&ys).filter(|(x, &y)| rf.predict(x) == y).count() as f64
            / xs.len() as f64;
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn noisy_threshold_data_generalises() {
        // y = x0 > 0.5 with 10% label noise; test on clean held-out points.
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let x: f64 = rng.gen();
            let noise = rng.gen_bool(0.1);
            xs.push(vec![x, rng.gen()]);
            ys.push((x > 0.5) != noise);
        }
        let rf = RandomForest::fit(&xs, &ys, &small_config());
        let mut correct = 0;
        for i in 0..100 {
            let x = i as f64 / 100.0;
            if rf.predict(&[x, 0.5]) == (x > 0.5) {
                correct += 1;
            }
        }
        assert!(correct >= 90, "held-out accuracy {correct}/100");
    }

    #[test]
    fn deterministic_under_seed() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        let a = RandomForest::fit(&xs, &ys, &small_config());
        let b = RandomForest::fit(&xs, &ys, &small_config());
        for i in 0..30 {
            let x = [i as f64 + 0.5];
            assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        }
    }

    #[test]
    fn num_trees_respected() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![false, true];
        let rf = RandomForest::fit(&xs, &ys, &ForestConfig { n_trees: 7, ..Default::default() });
        assert_eq!(rf.num_trees(), 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The forest grown on distinct rows equals the row-wise reference
        /// tree for tree, and so scores every query bit for bit, on one
        /// thread and on three.
        #[test]
        fn distinct_row_forest_equals_the_rowwise_reference(
            seed in any::<u64>(),
            n_base in 1usize..7,
            n_rows in 1usize..60,
            d in 1usize..5,
            max_depth in 0usize..5,
            min_samples_split in 0usize..7,
            query in 0.0f64..1.0,
        ) {
            let (xs, ys) = duplicated_data(seed, n_base, n_rows, d);
            let config = ForestConfig {
                n_trees: 9,
                tree: TreeConfig {
                    max_depth: limit(max_depth),
                    min_samples_split,
                    ..TreeConfig::default()
                },
                seed,
            };
            let reference = fit_rowwise(&xs, &ys, &config);
            let mut rows = DistinctRows::new(d);
            let ids: Vec<u32> = xs.iter().map(|x| rows.intern(x)).collect();
            let mut queries = xs.clone();
            queries.push(vec![query; d]);
            for par in [Parallelism::Sequential, Parallelism::Fixed(3)] {
                let forest = RandomForest::fit_par(&rows, &ids, &ys, &config, &par);
                prop_assert_eq!(forest.trees.len(), reference.trees.len());
                for (tree, want) in forest.trees.iter().zip(&reference.trees) {
                    prop_assert_eq!(tree.node_bits(), want.node_bits());
                }
                for x in &queries {
                    prop_assert_eq!(
                        forest.predict_proba(x).to_bits(),
                        reference.predict_proba(x).to_bits()
                    );
                }
                let by_row = forest.predict_proba_rows(&rows);
                for (x, &id) in xs.iter().zip(&ids) {
                    prop_assert_eq!(
                        by_row[id as usize].to_bits(),
                        reference.predict_proba(x).to_bits()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Probabilities stay in [0, 1] on arbitrary queries.
        #[test]
        fn probabilities_bounded(
            data in proptest::collection::vec((0.0f64..1.0, proptest::bool::ANY), 4..40),
            query in 0.0f64..1.0
        ) {
            let xs: Vec<Vec<f64>> = data.iter().map(|&(x, _)| vec![x]).collect();
            let ys: Vec<bool> = data.iter().map(|&(_, y)| y).collect();
            let rf = RandomForest::fit(&xs, &ys, &ForestConfig { n_trees: 5, ..Default::default() });
            let p = rf.predict_proba(&[query]);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        /// Constant labels are always reproduced.
        #[test]
        fn constant_labels_learned(
            xs in proptest::collection::vec(0.0f64..1.0, 3..20),
            label in proptest::bool::ANY,
            query in 0.0f64..1.0
        ) {
            let feats: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let ys = vec![label; feats.len()];
            let rf = RandomForest::fit(&feats, &ys, &ForestConfig { n_trees: 5, ..Default::default() });
            prop_assert_eq!(rf.predict(&[query]), label);
        }
    }
}
