//! The incremental loop engine must be invisible in the results: for
//! every dataset preset, a campaign run on the delta-driven,
//! component-sharded stage-2 path produces *bit-identical* question
//! order, outcomes, metrics and checkpoint JSON to a campaign that
//! rebuilds the world from scratch every loop — under both sequential
//! and pooled execution. `REMP_CHECK_INCREMENTAL=1` (or
//! `set_check_incremental`) additionally asserts the internal stage-2
//! artifacts against the from-scratch reference every single loop.

mod common;

use remp::core::{evaluate_matches, RempSession};
use remp::crowd::{LabelSource, OracleCrowd, SimulatedCrowd};
use remp::datasets::{generate, preset_by_name};
use remp::par::Parallelism;

/// Session set-up that picks the incremental engine or the from-scratch
/// one.
fn on_engine(incremental: bool) -> impl FnOnce(&mut RempSession<'_>) {
    move |session| session.set_incremental(incremental)
}

#[test]
fn incremental_equals_from_scratch_on_every_preset() {
    for dataset in common::presets() {
        for parallelism in [Parallelism::Sequential, Parallelism::Fixed(4)] {
            let incremental = common::observe_campaign(
                &dataset,
                parallelism,
                &mut OracleCrowd::new(),
                on_engine(true),
            );
            let full = common::observe_campaign(
                &dataset,
                parallelism,
                &mut OracleCrowd::new(),
                on_engine(false),
            );

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
            let rebuilds = |stats: &[remp::core::LoopStat]| {
                stats.iter().filter(|s| s.refresh.full_rebuild).count()
            };
            if incremental.loop_stats.len() > 1 {
                assert_eq!(
                    rebuilds(&incremental.loop_stats),
                    1,
                    "{}: only the first pass may rebuild from scratch",
                    dataset.name
                );
            }
            assert_eq!(
                rebuilds(&full.loop_stats),
                full.loop_stats.len(),
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
        let trace = common::observe_campaign(&dataset, Parallelism::Fixed(2), &mut crowd, |s| {
            s.set_incremental(true);
            s.set_check_incremental(true);
        });
        assert!(!trace.transcript.is_empty(), "{name}: campaign must ask questions");
    }
}

#[test]
fn iy_preset_takes_the_cluster_path() {
    // I-Y's giant component is almost all near-zero edges, so stage 2c
    // condenses it and runs one search per cluster instead of one per
    // source; the pins above hold its rows to the textbook kernel's, and
    // under REMP_CHECK_INCREMENTAL=1 so does every loop.
    let dataset = generate(&preset_by_name("I-Y", 0.15).expect("known preset"));
    let observed = common::observe_campaign(
        &dataset,
        Parallelism::Fixed(2),
        &mut OracleCrowd::new(),
        on_engine(true),
    );
    let total = |count: fn(&remp::core::RefreshStats) -> usize| -> usize {
        observed.loop_stats.iter().map(|s| count(&s.refresh)).sum()
    };
    let searches = total(|r| r.cluster_searches);
    let sources = total(|r| r.recomputed_sources);
    assert!(searches > 0, "I-Y never took the cluster path");
    assert!(searches < sources, "{searches} cluster searches for {sources} sources");
}

#[test]
fn checkpoints_cross_between_modes() {
    // A checkpoint written by an incremental session resumes into a
    // from-scratch session (and vice versa) with identical results —
    // the engine is pure execution strategy, invisible to the format.
    let dataset = generate(&preset_by_name("IIMB", 0.2).expect("known preset"));
    let reference = common::observe_campaign(
        &dataset,
        Parallelism::Sequential,
        &mut OracleCrowd::new(),
        on_engine(true),
    );
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
/// reads, because the engines are output-invisible. The checkpoint with
/// half the first batch still open is held to `common::OPEN_PINS`.
#[test]
fn engine_outputs_pinned_to_pre_refactor_digests() {
    let pins = common::PINS.iter().zip(common::OPEN_PINS);
    for (dataset, (&(name, seq_pin, par_pin), &(_, seq_open, par_open))) in
        common::presets().iter().zip(pins)
    {
        assert_eq!(dataset.name, name, "preset order drifted under the pins");
        for incremental in [true, false] {
            let seq = common::observe_campaign(
                dataset,
                Parallelism::Sequential,
                &mut OracleCrowd::new(),
                on_engine(incremental),
            );
            assert_eq!(
                common::campaign_digest(dataset, &seq),
                seq_pin,
                "{name}: sequential {} engine diverged from the pre-refactor outputs",
                if incremental { "incremental" } else { "from-scratch" }
            );
            assert_eq!(
                common::open_checkpoint_digest(&seq),
                seq_open,
                "{name}: sequential {} engine's open checkpoint diverged from its pin",
                if incremental { "incremental" } else { "from-scratch" }
            );
            let par = common::observe_campaign(
                dataset,
                Parallelism::Fixed(4),
                &mut OracleCrowd::new(),
                on_engine(incremental),
            );
            assert_eq!(
                common::campaign_digest(dataset, &par),
                par_pin,
                "{name}: Fixed(4) {} engine diverged from the pre-refactor outputs",
                if incremental { "incremental" } else { "from-scratch" }
            );
            assert_eq!(
                common::open_checkpoint_digest(&par),
                par_open,
                "{name}: Fixed(4) {} engine's open checkpoint diverged from its pin",
                if incremental { "incremental" } else { "from-scratch" }
            );
        }
    }
}
