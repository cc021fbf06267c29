//! The `remp-par` pool does not grow with the number of crowd loops:
//! after every preset's campaign at `Fixed(4)`, each refresh having set
//! `remp_par_helper_threads`, the gauge reads at most the three helpers
//! `Fixed(4)` needs beside its caller. The outputs still match the pins.
//!
//! The pool and the metrics registry are process-global, so this test
//! has a binary of its own: another suite's `Fixed(8)` call would grow
//! the pool under it.

mod common;

use remp::crowd::OracleCrowd;
use remp::obs;
use remp::par::Parallelism;

#[test]
fn helper_threads_stay_at_the_largest_request_across_every_preset() {
    obs::set_enabled(true);
    let gauge = || {
        obs::global().gauge(obs::names::PAR_HELPER_THREADS, "Persistent helper threads.", &[]).get()
    };
    let pins = common::PINS.iter().zip(common::OPEN_PINS);
    for (dataset, (&(name, _, par_pin), &(_, _, par_open))) in common::presets().iter().zip(pins) {
        let observed = common::observe_campaign(
            dataset,
            Parallelism::Fixed(4),
            &mut OracleCrowd::new(),
            |_| {},
        );
        assert_eq!(common::campaign_digest(dataset, &observed), par_pin, "{name}: diverged");
        assert_eq!(common::open_checkpoint_digest(&observed), par_open, "{name}: diverged");
        let helpers = gauge();
        assert!(
            (1.0..=3.0).contains(&helpers),
            "{name}: {helpers} helper threads after the campaign"
        );
    }
    assert_eq!(gauge(), remp::par::helper_threads() as f64);
}
