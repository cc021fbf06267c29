//! Shared machinery for the table/figure harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §5 and EXPERIMENTS.md). Datasets are the synthetic presets of
//! `remp-datasets` at laptop-friendly default scales; pass `--scale X`
//! (or set `REMP_SCALE`) to multiply them.

use remp_baselines::{corleone, hike, power, CorleoneConfig, HikeConfig, PowerConfig};
use remp_core::{
    evaluate_matches, prepare, PrecisionRecall, PreparedEr, Remp, RempConfig, Resolution,
};
use remp_crowd::{LabelSource, OracleCrowd};
use remp_datasets::{generate, preset_by_name, GeneratedDataset};
use remp_ergraph::PairId;
use remp_selection::BatchStrategy;

/// The four datasets in paper order with default harness scales chosen so
/// the full suite runs in minutes.
pub const DATASETS: [(&str, f64); 4] = [("IIMB", 1.0), ("D-A", 0.5), ("I-Y", 0.35), ("D-Y", 0.3)];

/// Parses `--scale X` from argv (or `REMP_SCALE`), defaulting to 1.0.
pub fn scale_multiplier() -> f64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    std::env::var("REMP_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0)
}

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

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Remp => "Remp",
            Method::Hike => "HIKE",
            Method::Power => "POWER",
            Method::Corleone => "Corleone",
        }
    }
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
    match method {
        Method::Remp => {
            let remp = Remp::new(RempConfig::default());
            let out = remp.run_prepared(&dataset.kb1, &dataset.kb2, prep.clone(), &truth, crowd);
            (evaluate_matches(out.matches.iter().copied(), &dataset.gold), out.questions_asked)
        }
        Method::Hike => {
            let out = hike(
                &dataset.kb1,
                &dataset.kb2,
                &prep.candidates,
                &prep.sim_vectors,
                &prep.alignment,
                &truth,
                crowd,
                &HikeConfig::default(),
            );
            (evaluate_matches(out.matches.iter().copied(), &dataset.gold), out.questions)
        }
        Method::Power => {
            let out =
                power(&prep.candidates, &prep.sim_vectors, &truth, crowd, &PowerConfig::default());
            (evaluate_matches(out.matches.iter().copied(), &dataset.gold), out.questions)
        }
        Method::Corleone => {
            let out = corleone(
                &prep.candidates,
                &prep.sim_vectors,
                &truth,
                crowd,
                &CorleoneConfig::default(),
            );
            (evaluate_matches(out.matches.iter().copied(), &dataset.gold), out.questions)
        }
    }
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

/// Formats a ratio as the paper's percent style.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        assert_eq!(scale_multiplier(), 1.0);
    }

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
            assert!(eval.f1 >= 0.0, "{}", m.name());
        }
    }
}
