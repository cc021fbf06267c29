//! Instrumentation is observation-only: with remp-obs switched off, every
//! preset's campaign — question order, outcome, metrics and mid-campaign
//! checkpoint — reproduces the digests pinned in `common::PINS`, under
//! sequential and pooled execution alike.
//!
//! `remp_obs::set_enabled` is process-global, so this test has a binary
//! of its own: inside another suite it would switch instrumentation off
//! under that suite's concurrently running tests.

mod common;

use remp::crowd::OracleCrowd;
use remp::obs;
use remp::par::Parallelism;

#[test]
fn outputs_with_instrumentation_off_match_the_pins() {
    obs::set_enabled(false);
    for (dataset, &(name, seq_pin, par_pin)) in common::presets().iter().zip(common::PINS) {
        assert_eq!(dataset.name, name, "preset order drifted under the pins");
        for (parallelism, pin) in
            [(Parallelism::Sequential, seq_pin), (Parallelism::Fixed(4), par_pin)]
        {
            let observed =
                common::observe_campaign(dataset, parallelism, &mut OracleCrowd::new(), |_| {});
            assert_eq!(
                common::campaign_digest(dataset, &observed),
                pin,
                "{name}: {parallelism:?} campaign with instrumentation off diverged from the pins"
            );
        }
    }
    assert!(!obs::enabled(), "a campaign switched instrumentation back on");
}
