//! The paper harness: one function per table or figure of §VIII.
//!
//! [`ARTEFACTS`] lists them by name in paper order; `rempctl repro NAME...`
//! runs them (see DESIGN.md §5 and EXPERIMENTS.md). Each writes its
//! table to a [`Write`] and generates the synthetic presets of
//! `remp-datasets` at laptop-friendly default scales, multiplied by the
//! caller's scale.

use std::io::{self, Write};

use remp_baselines::{corleone, hike, power, CorleoneConfig, HikeConfig, PowerConfig};
use remp_core::{
    evaluate_matches, prepare, PrecisionRecall, PreparedEr, Remp, RempConfig, Resolution,
};
use remp_crowd::{LabelSource, OracleCrowd};
use remp_datasets::{generate, preset_by_name, GeneratedDataset};
use remp_ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, AttrAlignment,
    Candidates, PairId,
};
use remp_selection::BatchStrategy;
use remp_simil::SimVec;

pub mod figures;
pub mod tables;
pub mod timing;

/// One paper artefact: writes its table or figure to `out`, with every
/// dataset at its default harness scale times `scale`.
pub type Artefact = fn(out: &mut dyn Write, scale: f64) -> io::Result<()>;

/// Every artefact by name, in paper order.
pub const ARTEFACTS: &[(&str, Artefact)] = &[
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", timing::fig6),
    ("efficiency", timing::efficiency),
];

/// The four datasets in paper order with default harness scales chosen so
/// the full suite runs in minutes.
pub const DATASETS: [(&str, f64); 4] = [("IIMB", 1.0), ("D-A", 0.5), ("I-Y", 0.35), ("D-Y", 0.3)];

/// Generates a preset dataset at `base_scale × multiplier`.
pub fn load_dataset(name: &str, base_scale: f64, multiplier: f64) -> GeneratedDataset {
    let spec = preset_by_name(name, base_scale * multiplier)
        .unwrap_or_else(|| panic!("unknown preset {name}"));
    generate(&spec)
}

/// The four crowdsourced competitors of Tables III / Fig. 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// This paper's system.
    Remp,
    /// HIKE (Zhuang et al., CIKM'17).
    Hike,
    /// POWER (Chai et al., VLDB J.'18).
    Power,
    /// Corleone (Gokhale et al., SIGMOD'14).
    Corleone,
}

impl Method {
    /// All methods in the paper's column order.
    pub const ALL: [Method; 4] = [Method::Remp, Method::Hike, Method::Power, Method::Corleone];
}

/// Runs one crowdsourced method on a prepared dataset, returning
/// `(quality, questions)`. All methods consume the same retained pairs
/// (paper §VIII setup).
pub fn run_method(
    method: Method,
    dataset: &GeneratedDataset,
    prep: &PreparedEr,
    crowd: &mut dyn LabelSource,
) -> (PrecisionRecall, usize) {
    let truth = |u1, u2| dataset.is_match(u1, u2);
    let (cands, vectors) = (&prep.candidates, &prep.sim_vectors);
    let (matches, questions) = match method {
        Method::Remp => {
            let remp = Remp::new(RempConfig::default());
            let out = remp.run_prepared(&dataset.kb1, &dataset.kb2, prep.clone(), &truth, crowd);
            (out.matches, out.questions_asked)
        }
        Method::Hike => {
            let config = HikeConfig::default();
            let (kb1, kb2, alignment) = (&dataset.kb1, &dataset.kb2, &prep.alignment);
            let out = hike(kb1, kb2, cands, vectors, alignment, &truth, crowd, &config);
            (out.matches, out.questions)
        }
        Method::Power => {
            let out = power(cands, vectors, &truth, crowd, &PowerConfig::default());
            (out.matches, out.questions)
        }
        Method::Corleone => {
            let out = corleone(cands, vectors, &truth, crowd, &CorleoneConfig::default());
            (out.matches, out.questions)
        }
    };
    (evaluate_matches(matches, &dataset.gold), questions)
}

/// The Table III / Fig. 3 header: `first`, then an F1 and a #Q column
/// per method.
fn method_header(out: &mut dyn Write, first: &str) -> io::Result<()> {
    writeln!(
        out,
        "{:>6} | {:>8} {:>6} | {:>8} {:>6} | {:>8} {:>6} | {:>8} {:>6}",
        first, "Remp", "#Q", "HIKE", "#Q", "POWER", "#Q", "Corleone", "#Q"
    )
}

/// The rest of a Table III / Fig. 3 row: every method's F1 and #Q, each
/// answered by a fresh `crowd()` so the same worker pool answers every
/// method (the paper reuses labels across approaches).
fn method_row<C: LabelSource>(
    out: &mut dyn Write,
    dataset: &GeneratedDataset,
    prep: &PreparedEr,
    crowd: impl Fn() -> C,
) -> io::Result<()> {
    for method in Method::ALL {
        let (eval, questions) = run_method(method, dataset, prep, &mut crowd());
        write!(out, " {:>8} {questions:>6} |", pct(eval.f1))?;
    }
    writeln!(out)
}

/// All selection policies in Fig. 5 order (the core [`BatchStrategy`]
/// is used directly — the harness only adds paper-style display names).
pub const STRATEGIES: [BatchStrategy; 3] =
    [BatchStrategy::Benefit, BatchStrategy::MaxInf, BatchStrategy::MaxPr];

/// Paper-style display name for a selection policy.
pub fn strategy_label(strategy: BatchStrategy) -> &'static str {
    match strategy {
        BatchStrategy::Benefit => "Remp",
        BatchStrategy::MaxInf => "MaxInf",
        BatchStrategy::MaxPr => "MaxPr",
    }
}

/// The Fig. 5 protocol: µ = 1, ground-truth labels, pluggable selection
/// strategy; returns the F1 after each checkpoint question count
/// (`checkpoints` ascending).
///
/// The curve is one [`RempSession`](remp_core::RempSession) campaign
/// under a budget of the last checkpoint, so propagation, truth handling
/// and stopping are the pipeline's own. The isolated-pair classifier is
/// disabled so the curves isolate selection quality. Checkpoints past
/// the session's stopping rule repeat its final F1.
pub fn question_curve(
    dataset: &GeneratedDataset,
    prep: &PreparedEr,
    strategy: BatchStrategy,
    checkpoints: &[usize],
) -> Vec<(usize, f64)> {
    let max_q = checkpoints.iter().copied().max().unwrap_or(0);
    let config = RempConfig::default()
        .with_mu(1)
        .with_strategy(strategy)
        .with_budget(max_q)
        .without_classifier();
    let mut session = Remp::new(config)
        .begin_prepared(&dataset.kb1, &dataset.kb2, prep.clone())
        .expect("the Fig. 5 configuration is valid");
    let f1_now = |resolutions: &[Resolution]| {
        let matches = resolutions
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Resolution::Match(_)))
            .map(|(i, _)| prep.candidates.pair(PairId::from_index(i)));
        evaluate_matches(matches, &dataset.gold).f1
    };

    let mut crowd = OracleCrowd::new();
    let mut curve = Vec::with_capacity(checkpoints.len());
    let mut pending = checkpoints.iter().copied().peekable();
    while let Some(batch) = session.next_batch().expect("the curve answers every question") {
        for q in &batch.questions {
            let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
            session.submit(q.id, labels).expect("fresh question");
            while let Some(c) = pending.next_if(|&c| session.questions_asked() >= c) {
                curve.push((c, f1_now(session.resolutions())));
            }
        }
    }
    let final_f1 = f1_now(session.resolutions());
    curve.extend(pending.map(|c| (c, final_f1)));
    curve
}

/// Prepares a dataset with the default configuration (shared stage 1).
pub fn prepare_default(dataset: &GeneratedDataset) -> PreparedEr {
    prepare(&dataset.kb1, &dataset.kb2, &RempConfig::default())
}

/// Stage 1 before pruning: every candidate pair with the initial
/// matches, the attribute alignment and one similarity vector per pair.
/// The artefacts that vary, time or inspect pruning start here.
pub(crate) struct Unpruned {
    /// The candidate matches `M_c`.
    pub candidates: Candidates,
    /// Initial exact-label matches `M_in`.
    pub initial: Vec<PairId>,
    /// The attribute alignment `M_at` under `config.attr`.
    pub alignment: AttrAlignment,
    /// One similarity vector per candidate.
    pub vectors: Vec<SimVec>,
}

/// Runs stage 1 up to the similarity vectors: candidates → initial
/// matches → attribute matching → similarity vectors.
pub(crate) fn unpruned(dataset: &GeneratedDataset, config: &RempConfig) -> Unpruned {
    let (kb1, kb2, par) = (&dataset.kb1, &dataset.kb2, &config.parallelism);
    let candidates = generate_candidates(kb1, kb2, config.label_sim_threshold, par);
    let initial = initial_matches(kb1, kb2, &candidates);
    let alignment = match_attributes(kb1, kb2, &candidates, &initial, &config.attr);
    let vectors =
        build_sim_vectors(kb1, kb2, &candidates, &alignment, config.literal_threshold, par);
    Unpruned { candidates, initial, alignment, vectors }
}

/// Formats a ratio as the paper's percent style.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_all_presets_small() {
        for (name, _) in DATASETS {
            let d = load_dataset(name, 0.05, 1.0);
            assert!(d.kb1.num_entities() > 0, "{name}");
        }
    }

    #[test]
    fn question_curve_is_monotone_under_oracle() {
        let d = load_dataset("IIMB", 0.2, 1.0);
        let prep = prepare_default(&d);
        let curve = question_curve(&d, &prep, BatchStrategy::Benefit, &[1, 2, 4, 8]);
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "oracle F1 must not drop: {curve:?}");
        }
    }

    #[test]
    fn methods_all_run_on_tiny_data() {
        let d = load_dataset("IIMB", 0.1, 1.0);
        let prep = prepare_default(&d);
        for m in Method::ALL {
            let mut crowd = remp_crowd::OracleCrowd::new();
            let (eval, _q) = run_method(m, &d, &prep, &mut crowd);
            assert!(eval.f1 >= 0.0, "{m:?}");
        }
    }
}
