//! The Remp pipeline — crowdsourced collective entity resolution with
//! relational match propagation (the paper's contribution, §III-B).
//!
//! The primary interface is the resumable [`RempSession`] state machine
//! ([`Remp::begin`]): the caller owns the crowd loop, pulling question
//! [`Batch`]es and submitting worker labels as they arrive, with
//! checkpoint/resume for long campaigns. [`Remp::run`] is the
//! convenience wrapper that drains a session against a simulated
//! [`remp_crowd::LabelSource`]. Either way the four stages are:
//!
//! 1. **ER graph construction** (`remp-ergraph`): candidate generation,
//!    initial matches, attribute matching, similarity vectors,
//!    partial-order pruning, graph building.
//! 2. **Relational match propagation** (`remp-propagation`): consistency
//!    estimation and the probabilistic ER graph.
//! 3. **Multiple questions selection** (`remp-selection`): lazy-greedy
//!    submodular maximisation of the expected inferred matches.
//! 4. **Truth inference** (`remp-crowd`): Eq. 17 posteriors, thresholds,
//!    hard-question prior downdating; inferred matches propagate through
//!    `inferred(q)`.
//!
//! The loop stops when no beneficial question remains (or the budget is
//! hit); isolated pairs are then resolved by a random-forest classifier
//! (§VII-B). [`metrics`] carries the evaluation machinery shared by the
//! test suite and the table/figure harnesses of `remp-bench`.

pub mod config;
pub mod error;
pub mod experiment;
pub mod isolated;
mod jsonio;
pub mod metrics;
pub mod pipeline;
pub mod prepared;
pub mod session;

pub use config::RempConfig;
pub use error::RempError;
pub use experiment::{propagation_only_f1, run_on_dataset, ExperimentResult};
pub use isolated::classify_isolated;
pub use metrics::{evaluate_matches, pair_completeness, reduction_ratio, PrecisionRecall};
pub use pipeline::{MatchSource, Remp, RempOutcome, Resolution};
pub use prepared::{prepare, PreparedEr};
pub use remp_par::Parallelism;
pub use remp_propagation::{LoopState, PropagationContext, RefreshStats};
pub use session::{
    Batch, KbFingerprint, LoopStat, ParseQuestionIdError, Question, QuestionContext, QuestionId,
    RempSession, SessionCheckpoint, SubmitOutcome, CHECKPOINT_VERSION, CHECK_INCREMENTAL_ENV,
};
