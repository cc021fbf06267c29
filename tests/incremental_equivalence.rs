//! The incremental loop engine must be invisible in the results: for
//! every dataset preset, a campaign run on the delta-driven,
//! component-sharded stage-2 path produces *bit-identical* question
//! order, outcomes, metrics and checkpoint JSON to a campaign that
//! rebuilds the world from scratch every loop — under both sequential
//! and pooled execution. `REMP_CHECK_INCREMENTAL=1` (or
//! `set_check_incremental`) additionally asserts the internal stage-2
//! artifacts against the from-scratch reference every single loop.

mod common;

use remp::core::{evaluate_matches, Remp, RempConfig, RempOutcome};
use remp::crowd::{LabelSource, OracleCrowd, SimulatedCrowd};
use remp::datasets::{generate, preset_by_name, GeneratedDataset};
use remp::kb::EntityId;
use remp::par::Parallelism;

/// Every preset at a laptop-friendly scale, as in
/// `tests/parallel_equivalence.rs` — each stresses a different KB shape.
fn presets() -> Vec<GeneratedDataset> {
    [("IIMB", 0.25), ("D-A", 0.2), ("I-Y", 0.15), ("D-Y", 0.15), ("TINY", 1.0)]
        .into_iter()
        .map(|(name, scale)| generate(&preset_by_name(name, scale).expect("known preset")))
        .collect()
}

/// Everything observable about one campaign: the question transcript, a
/// checkpoint taken after the first completed batch, and the outcome.
struct CampaignTrace {
    transcript: Vec<(usize, EntityId, EntityId)>,
    mid_checkpoint: Option<String>,
    outcome: RempOutcome,
    full_rebuild_loops: usize,
    propagation_passes: usize,
}

fn run_campaign(
    dataset: &GeneratedDataset,
    parallelism: Parallelism,
    incremental: bool,
    check_every_loop: bool,
    crowd: &mut dyn LabelSource,
) -> CampaignTrace {
    let config = RempConfig::default().with_parallelism(parallelism);
    let remp = Remp::new(config);
    let mut session = remp.begin(&dataset.kb1, &dataset.kb2).expect("valid config");
    session.set_incremental(incremental);
    session.set_check_incremental(check_every_loop);
    let mut transcript = Vec::new();
    let mut mid_checkpoint = None;
    while let Some(batch) = session.next_batch().expect("no protocol errors") {
        for q in &batch.questions {
            transcript.push((batch.loop_index, q.pair.0, q.pair.1));
            let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
            session.submit(q.id, labels).expect("fresh question");
        }
        if mid_checkpoint.is_none() {
            // Same point in both modes: right after the first batch was
            // folded into the seeds.
            mid_checkpoint = Some(session.checkpoint().to_json_string());
        }
    }
    let stats = session.loop_stats();
    let full_rebuild_loops = stats.iter().filter(|s| s.refresh.full_rebuild).count();
    let propagation_passes = stats.len();
    CampaignTrace {
        transcript,
        mid_checkpoint,
        outcome: session.finish(),
        full_rebuild_loops,
        propagation_passes,
    }
}

#[test]
fn incremental_equals_from_scratch_on_every_preset() {
    for dataset in presets() {
        for parallelism in [Parallelism::Sequential, Parallelism::Fixed(4)] {
            let mut crowd = OracleCrowd::new();
            let incremental = run_campaign(&dataset, parallelism, true, false, &mut crowd);
            let mut crowd = OracleCrowd::new();
            let full = run_campaign(&dataset, parallelism, false, false, &mut crowd);

            // Identical question order…
            assert_eq!(
                incremental.transcript, full.transcript,
                "{} ({parallelism:?}): question order diverged",
                dataset.name
            );
            // …identical outcome (matches, resolutions, #Q, #L)…
            assert_eq!(
                incremental.outcome, full.outcome,
                "{} ({parallelism:?}): outcomes diverged",
                dataset.name
            );
            // …identical metrics, bit for bit…
            let eval_inc =
                evaluate_matches(incremental.outcome.matches.iter().copied(), &dataset.gold);
            let eval_full = evaluate_matches(full.outcome.matches.iter().copied(), &dataset.gold);
            assert_eq!(eval_inc, eval_full, "{}: metrics diverged", dataset.name);
            // …and identical checkpoint JSON at the same mid-campaign
            // point (priors, seeds, resolutions — the whole dynamic
            // state serializes to the same bytes).
            assert_eq!(
                incremental.mid_checkpoint, full.mid_checkpoint,
                "{} ({parallelism:?}): checkpoint JSON diverged",
                dataset.name
            );
            // The incremental engine must actually be incremental: one
            // full rebuild (the first pass), deltas afterwards.
            if incremental.propagation_passes > 1 {
                assert_eq!(
                    incremental.full_rebuild_loops, 1,
                    "{}: only the first pass may rebuild from scratch",
                    dataset.name
                );
            }
            assert_eq!(
                full.full_rebuild_loops, full.propagation_passes,
                "{}: the baseline must rebuild every pass",
                dataset.name
            );
        }
    }
}

#[test]
fn incremental_state_matches_reference_every_loop() {
    // The strongest form of the guarantee, on the two smallest presets:
    // after every single refresh the incremental ConsistencyTable,
    // ProbErGraph and InferredSets are bit-compared against a
    // from-scratch rebuild (LoopState::check_reference panics on the
    // first divergence). A noisy crowd exercises the Inconsistent-verdict
    // prior downdates too.
    for (name, scale) in [("TINY", 1.0), ("IIMB", 0.2)] {
        let dataset = generate(&preset_by_name(name, scale).expect("known preset"));
        let mut crowd = SimulatedCrowd::paper_default(20260728);
        let trace = run_campaign(&dataset, Parallelism::Fixed(2), true, true, &mut crowd);
        assert!(!trace.transcript.is_empty(), "{name}: campaign must ask questions");
    }
}

#[test]
fn checkpoints_cross_between_modes() {
    // A checkpoint written by an incremental session resumes into a
    // from-scratch session (and vice versa) with identical results —
    // the engine is pure execution strategy, invisible to the format.
    let dataset = generate(&preset_by_name("IIMB", 0.2).expect("known preset"));
    let mut crowd = OracleCrowd::new();
    let reference = run_campaign(&dataset, Parallelism::Sequential, true, false, &mut crowd);
    let checkpoint_json = reference.mid_checkpoint.clone().expect("at least one batch");

    let checkpoint = remp::core::SessionCheckpoint::from_json_str(&checkpoint_json).unwrap();
    let mut resumed =
        remp::core::RempSession::resume(&dataset.kb1, &dataset.kb2, checkpoint).unwrap();
    resumed.set_incremental(false);
    let mut crowd = OracleCrowd::new();
    // Skip the questions the original session already consumed before
    // the checkpoint: replay the crowd to the same RNG-free state (the
    // oracle is stateless, so nothing to fast-forward).
    while let Some(batch) = resumed.next_batch().expect("no protocol errors") {
        for q in &batch.questions {
            let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
            resumed.submit(q.id, labels).expect("fresh question");
        }
    }
    let resumed_outcome = resumed.finish();
    assert_eq!(resumed_outcome, reference.outcome, "cross-mode resume diverged");
}

/// The engine choice is pinned against the pre-refactor outputs too:
/// both the incremental and the from-scratch engine must reproduce the
/// digests captured on the `HashMap`/`BTreeMap` layout immediately
/// before the dense-id refactor — one constant per preset × parallelism,
/// the table `common::PINS` that `tests/parallel_equivalence.rs` also
/// reads, because the engines are output-invisible.
#[test]
fn engine_outputs_pinned_to_pre_refactor_digests() {
    for (dataset, &(name, seq_pin, par_pin)) in common::presets().iter().zip(common::PINS) {
        assert_eq!(dataset.name, name, "preset order drifted under the pins");
        for incremental in [true, false] {
            let seq = common::observe_campaign(dataset, Parallelism::Sequential, Some(incremental));
            assert_eq!(
                common::campaign_digest(dataset, &seq),
                seq_pin,
                "{name}: sequential {} engine diverged from the pre-refactor outputs",
                if incremental { "incremental" } else { "from-scratch" }
            );
            let par = common::observe_campaign(dataset, Parallelism::Fixed(4), Some(incremental));
            assert_eq!(
                common::campaign_digest(dataset, &par),
                par_pin,
                "{name}: Fixed(4) {} engine diverged from the pre-refactor outputs",
                if incremental { "incremental" } else { "from-scratch" }
            );
        }
    }
}
