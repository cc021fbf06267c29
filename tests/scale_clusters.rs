//! The cluster path of the inferred-set kernel on the worlds that need
//! it most. A remp-scale world's blocking cuts its giant component into
//! chunks, and chunks planned into the same shard rejoin there as one
//! component whose edges are all near zero. No pinned preset has such a
//! component, so this runs every shard of a 10⁴-entity world (seed 42,
//! stream mode, the benchmark's shard plan) with the incremental
//! engine's rows compared with the textbook kernel after every loop.
//!
//! A binary of its own: it sets `REMP_CHECK_INCREMENTAL` for the whole
//! process, and reads a process-wide counter.

use std::collections::HashSet;

use remp::core::CHECK_INCREMENTAL_ENV;
use remp::kb::EntityId;
use remp::obs;
use remp::scale::bench::{bench_config, shards_for};
use remp::scale::{
    generate_dataset, process_shard, write_campaign, CrowdSpec, PlanMode, ScaleSpec, World,
};

fn cluster_searches() -> u64 {
    obs::global().counter(obs::names::LOOP_CLUSTER_SEARCHES_TOTAL, "Condensed searches.", &[]).get()
}

#[test]
fn scale_shards_match_the_reference_every_loop() {
    // Every session of this process checks every loop against the
    // from-scratch reference and panics on the first divergence.
    std::env::set_var(CHECK_INCREMENTAL_ENV, "1");
    let entities = 10_000;
    let spec = ScaleSpec { seed: 42, ..ScaleSpec::new("clusters-1e4", entities) };
    let dir = std::env::temp_dir().join(format!("remp-scale-clusters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_dataset(&spec, &dir).expect("generate");
    let kb1 = remp::ingest::load_snapshot(&dir.join("kb1.rkb")).expect("kb1");
    let kb2 = remp::ingest::load_snapshot(&dir.join("kb2.rkb")).expect("kb2");
    let shared = World::new(&spec).shared() as u32;
    let gold: HashSet<(EntityId, EntityId)> =
        (0..shared).map(|i| (EntityId(i), EntityId(i))).collect();
    let manifest = write_campaign(
        &dir,
        &spec.name,
        &kb1,
        &kb2,
        &gold,
        &bench_config(50),
        &CrowdSpec::Oracle,
        spec.seed,
        &PlanMode::Stream { max_block: 200_000 },
        shards_for(entities),
    )
    .expect("plan");
    let before = cluster_searches();
    for path in manifest.shard_paths(&dir) {
        let result = process_shard(&path).expect("shard runs");
        assert!(result.questions_asked > 0, "{}: the shard asked nothing", path.display());
    }
    assert!(cluster_searches() > before, "no shard took the cluster path");
    let _ = std::fs::remove_dir_all(&dir);
}
