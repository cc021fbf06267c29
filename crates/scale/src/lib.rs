//! Million-entity campaign substrate (`remp-scale`).
//!
//! The classic pipeline holds both KBs, the candidate set and the ER
//! graph in one address space — fine at Table II scale, hopeless at 10⁶
//! entities. This crate provides the out-of-core path:
//!
//! 1. [`generate_dataset`] — a seeded synthetic world streamed straight
//!    to `.rkb` snapshots; every entity is a pure hash function, so the
//!    generator's peak memory is one snapshot section.
//! 2. [`stream_candidates`] — blocked candidate generation that walks
//!    token canopies one at a time and never materialises the
//!    cross-product; equivalent (as a set) to
//!    `remp_ergraph::generate_candidates`.
//! 3. [`plan_shards`] / [`write_shard`] — connected components of the
//!    candidate graph grouped into self-contained `.rshard` files (each
//!    embeds its sub-KBs, pairs, priors and gold).
//! 4. [`process_shard`] — one shard, end to end: rebuild the ER graph,
//!    drive the crowd loop, emit a [`ShardResult`].
//! 5. [`merge_results`] — shard results merge in shard order, so the
//!    outcome is identical for any worker count. The lease-based
//!    coordinator that hands shards to `rempctl shard-worker` processes
//!    is `rempd`'s `/scale` routes in remp-serve (see `SHARDING.md` for
//!    the protocol and the determinism contract).
//! 6. [`run_sharded_local`] — the in-process reference executor the
//!    equivalence tests pin the multi-process path against.

pub mod bench;
pub mod blocking;
pub mod generate;
pub mod plan;
pub mod runner;
pub mod shard;
pub mod spec;
pub mod worker;

pub use bench::{run_scale_bench, ScaleBenchOptions, ScaleBenchReport};
pub use blocking::{stream_candidates, BlockingStats};
pub use generate::{generate_dataset, GenerateReport, KbSide, World};
pub use plan::{
    plan_shards, shard_cap, write_campaign, CampaignManifest, CrowdSpec, PlanMode, ShardPlan,
    MAX_COMPONENT_PAIRS,
};
pub use runner::{merge_results, run_sharded_local, MergedOutcome};
pub use shard::{read_shard, write_shard, Shard, SHARD_EXTENSION};
pub use spec::{mix64, mix_many, unit_f64, ScaleSpec};
pub use worker::{process_shard, ShardResult};
