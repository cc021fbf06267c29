//! Random-forest substrate (paper §VII-B).
//!
//! The paper trains a scikit-learn `RandomForestClassifier` with default
//! parameters to resolve isolated entity pairs (and the Corleone baseline
//! is built on random forests too). This crate is a from-scratch
//! implementation of the same default configuration: CART trees with Gini
//! impurity grown to purity, bootstrap bagging, and `√d` feature
//! subsampling per split.
//!
//! ## Fitting on distinct rows
//! Training data for entity resolution repeats itself: similarity vectors
//! and presence bits take few values. So a forest fits on [`DistinctRows`],
//! feature rows interned by the `to_bits` of their values. Each bootstrap
//! draw adds one to its row's count (and to the row's positive count when
//! the drawn sample is positive) instead of cloning the row, and one
//! weighted CART grows each tree on the rows with a non-zero count. The
//! result is the same forest, bit for bit, as a CART over one cloned row
//! per draw, for three reasons:
//! - **Integer weights.** Counts are whole numbers well below 2⁵³, so the
//!   running sums `left_n` and `left_pos`, the node totals, the leaf
//!   probability `pos / n` and the `min_samples_split` test all see the
//!   exact values the row-wise counts give.
//! - **An order-free scan.** A split point is scored only between two
//!   different values of the sorted column, where the running sums cover
//!   every sample at or below the value, whatever order equal values
//!   (and `0.0` next to `-0.0`) were sorted in; thresholds are midpoints
//!   of those two values. Candidates, the Gini arithmetic, the
//!   `score < best − 1e-15` tie rule and the per-node feature shuffle are
//!   unchanged.
//! - **An unchanged RNG stream.** The master RNG draws every bootstrap
//!   index (`gen_range`) and tree seed in the same order as before, and
//!   each tree's RNG is consumed node by node in the same pre-order.
//!
//! The row-wise CART survives only as the test reference these claims are
//! checked against (`cart.rs`, `rf.rs`). Scoring follows the same idea:
//! [`RandomForest::predict_proba_rows`] walks the trees once per distinct
//! row.

mod cart;
mod rf;
mod rows;

pub use cart::{DecisionTree, TreeConfig};
pub use rf::{ForestConfig, RandomForest};
pub use rows::DistinctRows;
