//! `remp_inferred_entries` reads the live inferred-set entries a refresh
//! leaves, and a refresh frees the rows of the pairs resolved before it.
//! Resolving pairs without changing a prior or a seed dirties nothing,
//! so the next refresh recomputes no row and the gauge falls by exactly
//! the entries of the resolved pairs' rows.
//!
//! The metrics registry is process-global, so this test has a binary of
//! its own: another suite's refreshes would set the gauge under it.

use remp::core::{prepare, RempConfig};
use remp::datasets::{generate, iimb};
use remp::ergraph::PairId;
use remp::obs;
use remp::par::Parallelism;
use remp::propagation::{LoopState, PropagationContext};

#[test]
fn the_gauge_reads_the_live_entries_and_resolved_rows_are_freed() {
    obs::set_enabled(true);
    let gauge = || {
        obs::global().gauge(obs::names::INFERRED_ENTRIES, "Live inferred-set entries.", &[]).get()
    };
    let d = generate(&iimb(0.4));
    let config = RempConfig::default();
    let prep = prepare(&d.kb1, &d.kb2, &config);
    let ctx = PropagationContext {
        kb1: &d.kb1,
        kb2: &d.kb2,
        candidates: &prep.candidates,
        graph: &prep.graph,
        components: &prep.components,
    };
    let eligible: Vec<bool> =
        prep.candidates.ids().map(|p| !prep.graph.is_isolated_vertex(p)).collect();
    let mut state =
        LoopState::new(&ctx, config.tau, config.propagation, &prep.initial, eligible.clone());
    let par = Parallelism::Sequential;

    // The first refresh rebuilds: every eligible source settles once.
    let first = state.refresh(&ctx, &par);
    let entries = state.inferred().total_size();
    assert_eq!(entries, first.stats.settled_vertices);
    assert_eq!(gauge(), entries as f64);

    // Resolve every other eligible pair.
    let resolved: Vec<PairId> =
        prep.candidates.ids().filter(|p| eligible[p.index()]).step_by(2).collect();
    let freed: usize = resolved.iter().map(|&p| state.inferred().inferred(p).len()).sum();
    assert!(freed > 0, "the fixture has eligible pairs with inferred sets");
    for &p in &resolved {
        state.note_resolved(p);
    }
    let second = state.refresh(&ctx, &par);
    assert_eq!(second.stats.recomputed_sources, 0, "nothing was dirtied");
    for &p in &resolved {
        assert!(state.inferred().inferred(p).is_empty(), "{p:?} kept its inferred set");
    }
    assert_eq!(state.inferred().total_size(), entries - freed);
    assert_eq!(gauge(), (entries - freed) as f64);
}
