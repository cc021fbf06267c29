//! Parallel execution must be invisible in the results: for every dataset
//! preset, a campaign run on the worker pool produces *bit-identical*
//! matches, metrics, resolutions and question order to the sequential
//! reference, and a seeded `SimulatedCrowd` produces the exact same
//! question-answer transcript regardless of thread count.

mod common;

use remp::core::{evaluate_matches, RempConfig};
use remp::crowd::{LabelSource, OracleCrowd, SimulatedCrowd};
use remp::datasets::{generate, preset_by_name};
use remp::par::Parallelism;

#[test]
fn parallel_equals_sequential_on_every_preset() {
    for dataset in common::presets() {
        let seq = common::observe_campaign(
            &dataset,
            Parallelism::Sequential,
            &mut OracleCrowd::new(),
            |_| {},
        );
        let par = common::observe_campaign(
            &dataset,
            Parallelism::Fixed(4),
            &mut OracleCrowd::new(),
            |_| {},
        );

        // Identical question order…
        assert_eq!(seq.transcript, par.transcript, "{}: question order diverged", dataset.name);
        // …identical matches and resolutions (RempOutcome is PartialEq
        // over matches, resolutions, counts)…
        assert_eq!(seq.outcome, par.outcome, "{}: outcomes diverged", dataset.name);
        // …and identical metrics, bit for bit.
        let seq_eval = evaluate_matches(seq.outcome.matches.iter().copied(), &dataset.gold);
        let par_eval = evaluate_matches(par.outcome.matches.iter().copied(), &dataset.gold);
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

/// The regression test for the session RNG: a *seeded*
/// `SimulatedCrowd` (stateful RNG, advanced once per question) must see
/// the exact same question sequence under `Sequential` and `Fixed(4)`
/// parallelism, and therefore produce the identical label transcript and
/// final outcome. The crowd's labels are a function of its seed and the
/// sequence of questions it is asked, so an identical question
/// transcript and label count mean identical labels; if parallel code
/// ever reordered questions, the transcripts would diverge.
#[test]
fn seeded_crowd_transcript_is_identical_across_thread_counts() {
    let dataset = generate(&preset_by_name("IIMB", 0.25).expect("known preset"));

    let transcript_under = |parallelism: Parallelism| {
        let mut crowd = SimulatedCrowd::paper_default(20260728);
        let observed = common::observe_campaign(&dataset, parallelism, &mut crowd, |_| {});
        (observed, crowd.questions_asked(), crowd.labels_collected())
    };

    let (sequential, seq_asked, seq_labels) = transcript_under(Parallelism::Sequential);
    let (parallel, par_asked, par_labels) = transcript_under(Parallelism::Fixed(4));
    assert_eq!(sequential.transcript, parallel.transcript, "question transcript diverged");
    assert_eq!(sequential.outcome, parallel.outcome, "outcome diverged");
    assert_eq!(seq_asked, par_asked, "question count diverged");
    assert_eq!(seq_labels, par_labels, "label count diverged");
    assert!(
        !sequential.transcript.is_empty(),
        "campaign must ask questions for the pin to mean anything"
    );
}

/// Campaign outputs pinned across *code changes*, not just across thread
/// counts: these digests were captured on the `HashMap`/`BTreeMap`
/// layout immediately before the dense-id refactor (packed pair keys,
/// CSR adjacency, `IdHasher`). Every preset must keep producing the
/// exact same question order, outcome, metrics and checkpoint JSON —
/// the sequential and pooled constants differ only because the
/// checkpoint embeds the parallelism config.
///
/// The checkpoint with half the first batch still open is held to
/// `common::OPEN_PINS` in the same loop.
#[test]
fn outputs_pinned_to_pre_refactor_digests() {
    let pins = common::PINS.iter().zip(common::OPEN_PINS);
    for (dataset, (&(name, seq_pin, par_pin), &(_, seq_open, par_open))) in
        common::presets().iter().zip(pins)
    {
        assert_eq!(dataset.name, name, "preset order drifted under the pins");
        let seq = common::observe_campaign(
            dataset,
            Parallelism::Sequential,
            &mut OracleCrowd::new(),
            |_| {},
        );
        assert_eq!(
            common::campaign_digest(dataset, &seq),
            seq_pin,
            "{name}: sequential campaign diverged from the pre-refactor outputs"
        );
        assert_eq!(
            common::open_checkpoint_digest(&seq),
            seq_open,
            "{name}: sequential checkpoint with open questions diverged from its pin"
        );
        let par = common::observe_campaign(
            dataset,
            Parallelism::Fixed(4),
            &mut OracleCrowd::new(),
            |_| {},
        );
        assert_eq!(
            common::campaign_digest(dataset, &par),
            par_pin,
            "{name}: Fixed(4) campaign diverged from the pre-refactor outputs"
        );
        assert_eq!(
            common::open_checkpoint_digest(&par),
            par_open,
            "{name}: Fixed(4) checkpoint with open questions diverged from its pin"
        );
    }
}
