//! `remp-serve` — the dependency-free crowd-labeling HTTP server.
//!
//! The paper's deployment posts pairwise questions to MTurk and folds
//! the answers back through truth inference (Eq. 17) and relational
//! match propagation (Eq. 11). [`RempSession`](remp_core::RempSession)
//! already inverts the loop for exactly this; `remp-serve` puts a
//! network in the middle: the `rempd` binary hosts **multiple
//! concurrent campaigns**, hands questions to registered workers under
//! expiring leases, aggregates redundant labels, estimates worker
//! quality online, and survives restarts through durable per-campaign
//! state files — the HIT-management layer of crowdsourced ER (CrowdER,
//! Wang et al. 2012/2013), rebuilt on the session API.
//!
//! Layers, bottom to top:
//!
//! * [`clock`] — injectable lease time: [`clock::SystemClock`] in
//!   production, [`clock::ManualClock`] for tests and the `remp-sim`
//!   simulator.
//! * [`http`] — a strict, panic-free HTTP/1.1 subset on `std` sockets.
//! * [`wire`] — the JSON protocol: typed [`wire::ServeError`]s (every
//!   malformed input is a 4xx, duplicate submits are 409), request
//!   accessors and response encoders. Documented in `PROTOCOL.md`.
//! * `lease` — the one lease rule (saturating deadlines, live iff the
//!   deadline is after `now`) behind both question and shard leases.
//! * [`engine`] — per-campaign assignment/aggregation:
//!   [`engine::CampaignEngine`] leases each open question to
//!   `per_question` distinct workers, expires and re-issues abandoned
//!   leases, and submits to the session with online quality estimates
//!   ([`remp_crowd::WorkerQualityEstimator`]).
//! * [`registry`] — one actor thread per campaign (the session borrows
//!   its KBs, so the actor owns both), plus the durable state dir: a
//!   campaign is **base + delta frames + answer tail** — an
//!   `{id}.campaign.json` base state file and the per-campaign [`wal`]
//!   (every accepted answer is fsynced before its 2xx, and every 128
//!   answers a delta frame records only what they changed; restart
//!   folds the deltas into the base and replays the answers past them).
//! * [`router`] — the route table: method + path template → handler,
//!   declared as data.
//! * [`scale`] — the `/scale` routes and the shard coordinator behind
//!   them: `rempd` leases the shards of a sharded [`remp_scale`]
//!   campaign to `rempctl shard-worker` processes and merges results.
//! * [`server`] — the epoll keep-alive readiness loop, the long-poll
//!   dispatcher and the handler pool (sized by
//!   [`remp_par::Parallelism`]).
//! * [`client`] / [`sim`] — the HTTP client, the named-worker
//!   [`sim::WireCrowd`], the in-process [`sim::reference_outcome`] and
//!   the [`sim::drive`] loop that proves an HTTP campaign bit-identical
//!   to the in-process session run.
//!
//! ```no_run
//! use std::sync::atomic::AtomicBool;
//! use remp_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig::default())?;
//! println!("rempd listening on {}", server.local_addr());
//! static STOP: AtomicBool = AtomicBool::new(false);
//! server.run(&STOP)?; // blocks; checkpoints campaigns on stop
//! # Ok::<(), remp_serve::ServeError>(())
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("remp-serve supports Linux only: its serving loop is built on epoll");

pub mod client;
pub mod clock;
mod delta;
pub mod engine;
pub mod http;
mod lease;
pub mod registry;
pub mod router;
pub mod scale;
pub mod server;
pub mod sim;
pub mod wal;
pub mod wire;

pub use client::{ClientError, ServeClient};
pub use clock::{Clock, ManualClock, SystemClock};
pub use engine::{Assignment, CampaignEngine, CrowdPolicy, LeaseCounters, LeaseStats};
pub use registry::{CampaignNotifier, CampaignRequest, CampaignSource, CampaignSpec, Registry};
pub use scale::{ScaleJobs, DEFAULT_LEASE_MS};
pub use server::{Server, ServerConfig};
pub use sim::{drive, drive_n, reference_outcome, CrowdParams, WireCrowd};
pub use wire::{outcome_matches, ServeError, SubmittedRecord};
