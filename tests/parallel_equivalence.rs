//! Parallel execution must be invisible in the results: for every dataset
//! preset, a campaign run on the worker pool produces *bit-identical*
//! matches, metrics, resolutions and question order to the sequential
//! reference, and a seeded `SimulatedCrowd` produces the exact same
//! question-answer transcript regardless of thread count.

mod common;

use remp::core::{evaluate_matches, Remp, RempConfig, RempOutcome};
use remp::crowd::{LabelSource, OracleCrowd, SimulatedCrowd};
use remp::datasets::{generate, preset_by_name, GeneratedDataset};
use remp::kb::EntityId;
use remp::par::Parallelism;

/// Every preset at a laptop-friendly scale — "every preset" is the point:
/// each one stresses a different KB shape (homogeneous, heterogeneous,
/// cross-type relationships).
fn presets() -> Vec<GeneratedDataset> {
    [("IIMB", 0.25), ("D-A", 0.2), ("I-Y", 0.15), ("D-Y", 0.15), ("TINY", 1.0)]
        .into_iter()
        .map(|(name, scale)| generate(&preset_by_name(name, scale).expect("known preset")))
        .collect()
}

/// One campaign's full observable behaviour: the question order (pair by
/// pair, in the order posted) plus the final outcome.
fn run_campaign(
    dataset: &GeneratedDataset,
    config: &RempConfig,
    crowd: &mut dyn LabelSource,
) -> (Vec<(usize, EntityId, EntityId)>, RempOutcome) {
    let remp = Remp::new(config.clone());
    let mut session = remp.begin(&dataset.kb1, &dataset.kb2).expect("valid config");
    let mut transcript = Vec::new();
    while let Some(batch) = session.next_batch().expect("no protocol errors") {
        for q in &batch.questions {
            transcript.push((batch.loop_index, q.pair.0, q.pair.1));
            let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
            session.submit(q.id, labels).expect("fresh question");
        }
    }
    (transcript, session.finish())
}

#[test]
fn parallel_equals_sequential_on_every_preset() {
    for dataset in presets() {
        let sequential_config = RempConfig::default().with_parallelism(Parallelism::Sequential);
        let parallel_config = RempConfig::default().with_parallelism(Parallelism::Fixed(4));

        let mut crowd = OracleCrowd::new();
        let (seq_questions, seq_outcome) = run_campaign(&dataset, &sequential_config, &mut crowd);
        let mut crowd = OracleCrowd::new();
        let (par_questions, par_outcome) = run_campaign(&dataset, &parallel_config, &mut crowd);

        // Identical question order…
        assert_eq!(seq_questions, par_questions, "{}: question order diverged", dataset.name);
        // …identical matches and resolutions (RempOutcome is PartialEq
        // over matches, resolutions, counts)…
        assert_eq!(seq_outcome, par_outcome, "{}: outcomes diverged", dataset.name);
        // …and identical metrics, bit for bit.
        let seq_eval = evaluate_matches(seq_outcome.matches.iter().copied(), &dataset.gold);
        let par_eval = evaluate_matches(par_outcome.matches.iter().copied(), &dataset.gold);
        assert_eq!(seq_eval, par_eval, "{}: metrics diverged", dataset.name);
    }
}

#[test]
fn prepare_is_thread_count_invariant() {
    // Stage 1 alone, compared field by field across three policies.
    let dataset = generate(&preset_by_name("IIMB", 0.3).expect("known preset"));
    let baseline = remp::core::prepare(
        &dataset.kb1,
        &dataset.kb2,
        &RempConfig::default().with_parallelism(Parallelism::Sequential),
    );
    for threads in [2, 4, 7] {
        let config = RempConfig::default().with_parallelism(Parallelism::Fixed(threads));
        let prep = remp::core::prepare(&dataset.kb1, &dataset.kb2, &config);
        assert_eq!(prep.candidate_count, baseline.candidate_count, "{threads} threads");
        assert_eq!(prep.sim_vectors, baseline.sim_vectors, "{threads} threads");
        assert_eq!(prep.initial, baseline.initial, "{threads} threads");
        assert_eq!(
            prep.candidates.ids().map(|p| prep.candidates.pair(p)).collect::<Vec<_>>(),
            baseline.candidates.ids().map(|p| baseline.candidates.pair(p)).collect::<Vec<_>>(),
            "{threads} threads"
        );
        assert_eq!(prep.graph.num_edges(), baseline.graph.num_edges(), "{threads} threads");
    }
}

/// The satellite regression test for the session RNG: a *seeded*
/// `SimulatedCrowd` (stateful RNG, advanced once per question) must see
/// the exact same question sequence under `Sequential` and `Fixed(4)`
/// parallelism, and therefore produce the identical label transcript and
/// final outcome. If parallel code ever reordered or duplicated RNG
/// draws, the transcripts would diverge.
#[test]
fn seeded_crowd_transcript_is_identical_across_thread_counts() {
    let dataset = generate(&preset_by_name("IIMB", 0.25).expect("known preset"));

    /// One answered question: `(loop, pair, labels as (quality, vote))`.
    type TranscriptEntry = (usize, (u32, u32), Vec<(f64, bool)>);

    let transcript_under = |parallelism: Parallelism| {
        let config = RempConfig::default().with_parallelism(parallelism);
        let remp = Remp::new(config);
        let mut crowd = SimulatedCrowd::paper_default(20260728);
        let mut session = remp.begin(&dataset.kb1, &dataset.kb2).expect("valid config");
        let mut transcript: Vec<TranscriptEntry> = Vec::new();
        while let Some(batch) = session.next_batch().expect("no protocol errors") {
            for q in &batch.questions {
                let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
                transcript.push((
                    batch.loop_index,
                    (q.pair.0 .0, q.pair.1 .0),
                    labels.iter().map(|l| (l.worker_quality, l.says_match)).collect(),
                ));
                session.submit(q.id, labels).expect("fresh question");
            }
        }
        (transcript, session.finish(), crowd.questions_asked(), crowd.labels_collected())
    };

    let sequential = transcript_under(Parallelism::Sequential);
    let parallel = transcript_under(Parallelism::Fixed(4));
    assert_eq!(sequential.0, parallel.0, "label transcript diverged");
    assert_eq!(sequential.1, parallel.1, "outcome diverged");
    assert_eq!(sequential.2, parallel.2, "question count diverged");
    assert_eq!(sequential.3, parallel.3, "label count diverged");
    assert!(!sequential.0.is_empty(), "campaign must ask questions for the pin to mean anything");
}

/// Campaign outputs pinned across *code changes*, not just across thread
/// counts: these digests were captured on the `HashMap`/`BTreeMap`
/// layout immediately before the dense-id refactor (packed pair keys,
/// CSR adjacency, `IdHasher`). Every preset must keep producing the
/// exact same question order, outcome, metrics and checkpoint JSON —
/// the sequential and pooled constants differ only because the
/// checkpoint embeds the parallelism config.
#[test]
fn outputs_pinned_to_pre_refactor_digests() {
    for (dataset, &(name, seq_pin, par_pin)) in common::presets().iter().zip(common::PINS) {
        assert_eq!(dataset.name, name, "preset order drifted under the pins");
        let seq = common::observe_campaign(dataset, Parallelism::Sequential, None);
        assert_eq!(
            common::campaign_digest(dataset, &seq),
            seq_pin,
            "{name}: sequential campaign diverged from the pre-refactor outputs"
        );
        let par = common::observe_campaign(dataset, Parallelism::Fixed(4), None);
        assert_eq!(
            common::campaign_digest(dataset, &par),
            par_pin,
            "{name}: Fixed(4) campaign diverged from the pre-refactor outputs"
        );
    }
}
