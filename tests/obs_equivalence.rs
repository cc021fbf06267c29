//! Instrumentation is observation-only: with remp-obs switched off, every
//! preset's campaign — question order, outcome, metrics and mid-campaign
//! checkpoints — reproduces the digests pinned in `common::PINS` and
//! `common::OPEN_PINS`, under sequential and pooled execution alike.
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
    let pins = common::PINS.iter().zip(common::OPEN_PINS);
    for (dataset, (&(name, seq_pin, par_pin), &(_, seq_open, par_open))) in
        common::presets().iter().zip(pins)
    {
        assert_eq!(dataset.name, name, "preset order drifted under the pins");
        for (parallelism, pin, open_pin) in [
            (Parallelism::Sequential, seq_pin, seq_open),
            (Parallelism::Fixed(4), par_pin, par_open),
        ] {
            let observed =
                common::observe_campaign(dataset, parallelism, &mut OracleCrowd::new(), |_| {});
            assert_eq!(
                common::campaign_digest(dataset, &observed),
                pin,
                "{name}: {parallelism:?} campaign with instrumentation off diverged from the pins"
            );
            assert_eq!(
                common::open_checkpoint_digest(&observed),
                open_pin,
                "{name}: {parallelism:?} open checkpoint with instrumentation off diverged"
            );
        }
    }
    assert!(!obs::enabled(), "a campaign switched instrumentation back on");
}
