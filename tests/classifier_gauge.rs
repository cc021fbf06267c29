//! `remp_classifier_distinct_rows{set}` reads how many distinct feature
//! vectors the isolated-pair classifier fitted on and scored, and one
//! `classify_isolated` call is one `classifier` observation of
//! `remp_stage_seconds`. The targets are every unresolved pair, so the
//! `targets` gauge is checked against an independent count of their
//! distinct feature vectors (similarity components plus presence bits).
//!
//! The metrics registry is process-global, so this test has a binary of
//! its own: another suite's sessions would set the gauge under it.

use std::collections::HashSet;

use remp::core::{classify_isolated, prepare, Remp, RempConfig, Resolution};
use remp::crowd::OracleCrowd;
use remp::datasets::{generate, preset_by_name};
use remp::obs;

#[test]
fn the_gauges_count_distinct_feature_vectors_and_the_stage_is_timed() {
    obs::set_enabled(true);
    let gauge = |set: &str| {
        obs::global()
            .gauge(obs::names::CLASSIFIER_DISTINCT_ROWS, "Distinct rows.", &[("set", set)])
            .get()
    };
    let stage_count = || {
        obs::global()
            .histogram(
                obs::names::STAGE_SECONDS,
                "Stage seconds.",
                &[("stage", "classifier")],
                obs::SECONDS_BUCKETS,
            )
            .count()
    };
    let d = generate(&preset_by_name("I-Y", 0.15).expect("known preset"));
    let config = RempConfig::default();
    let prep = prepare(&d.kb1, &d.kb2, &config);
    // An oracle campaign without the classifier leaves the targets.
    let remp = Remp::new(config.clone().without_classifier());
    let outcome = remp
        .run_prepared(
            &d.kb1,
            &d.kb2,
            prep.clone(),
            &|u1, u2| d.is_match(u1, u2),
            &mut OracleCrowd::new(),
        )
        .resolutions;

    let before = stage_count();
    let predicted = classify_isolated(
        &d.kb1,
        &d.kb2,
        &prep.candidates,
        &prep.graph,
        &prep.sim_vectors,
        &prep.alignment,
        &outcome,
        &config,
    );
    assert!(!predicted.is_empty(), "the fixture must reach the forest");
    assert_eq!(stage_count(), before + 1, "one call, one classifier observation");

    let targets: Vec<_> =
        prep.candidates.ids().filter(|p| outcome[p.index()] == Resolution::Unresolved).collect();
    let distinct: HashSet<Vec<u64>> = targets
        .iter()
        .map(|&p| {
            let (u1, u2) = prep.candidates.pair(p);
            let sims = prep.sim_vectors[p.index()].components().iter().map(|c| c.to_bits());
            let bits = prep.alignment.pairs.iter().map(|&(a1, a2, _)| {
                let both = d.kb1.has_attr(u1, a1) && d.kb2.has_attr(u2, a2);
                (if both { 1.0f64 } else { 0.0 }).to_bits()
            });
            sims.chain(bits).collect()
        })
        .collect();
    assert_eq!(gauge("targets"), distinct.len() as f64);
    assert!(distinct.len() < targets.len(), "targets share feature vectors");
    let training = gauge("training");
    assert!(training >= 2.0, "both classes are present, got {training}");
}
