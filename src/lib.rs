//! # Remp — Crowdsourced Collective Entity Resolution with Relational Match Propagation
//!
//! A Rust reproduction of Huang, Hu, Bao & Qu (ICDE 2020). Remp resolves
//! entities across two knowledge bases by asking human workers a small
//! number of pairwise questions and *propagating* each confirmed match
//! through the relationship structure to distant entity pairs — including
//! across entity types, which transitivity- and monotonicity-based
//! crowdsourced ER cannot do.
//!
//! ## Quick start: the session API
//!
//! The paper's human-machine loop is asynchronous — questions are posted
//! to a crowd platform and answers trickle back — so the primary
//! interface inverts the control flow: *you* own the loop. A
//! [`core::RempSession`] hands you typed [`core::Question`]s in batches;
//! you collect worker [`crowd::Label`]s however you like (MTurk, an
//! internal tool, a simulation) and submit them back; truth inference
//! (Eq. 17) and relational match propagation (Eq. 11) run incrementally
//! as each answer lands.
//!
//! ```
//! use remp::datasets::{generate, iimb};
//! use remp::core::{evaluate_matches, Remp, RempConfig};
//! use remp::crowd::{LabelSource, SimulatedCrowd};
//!
//! // A two-KB world shaped like the paper's IIMB benchmark, and a
//! // mixed-quality simulated crowd (5 labels per question).
//! let dataset = generate(&iimb(0.1));
//! let mut crowd = SimulatedCrowd::paper_default(42);
//!
//! // Stage 1 (ER-graph construction) runs in `begin`; stages 2–4 run
//! // lazily as the session is driven.
//! let remp = Remp::new(RempConfig::default());
//! let mut session = remp.begin(&dataset.kb1, &dataset.kb2)?;
//! while let Some(batch) = session.next_batch()? {
//!     for question in &batch.questions {
//!         // A real deployment posts `question.context` to workers and
//!         // submits their answers whenever they arrive — even out of
//!         // order, or after a checkpoint/resume round trip.
//!         let (u1, u2) = question.pair;
//!         let labels = crowd.label(dataset.is_match(u1, u2));
//!         session.submit(question.id, labels)?;
//!     }
//! }
//! let outcome = session.finish(); // isolated-pair classifier + results
//!
//! let eval = evaluate_matches(outcome.matches.iter().copied(), &dataset.gold);
//! println!("F1 = {:.3} with {} questions", eval.f1, outcome.questions_asked);
//! assert!(outcome.questions_asked > 0);
//! # Ok::<(), remp::core::RempError>(())
//! ```
//!
//! Long campaigns can pause and resume:
//! [`core::RempSession::checkpoint`] serializes the dynamic state to a
//! small JSON document and [`core::RempSession::resume`] picks the
//! campaign back up from it.
//!
//! ## Convenience path: `Remp::run`
//!
//! When a simulated crowd is all you need (tests, benches, the paper's
//! experiments), [`core::Remp::run`] drains a session against a
//! [`crowd::LabelSource`] in one call:
//!
//! ```
//! use remp::datasets::{generate, iimb};
//! use remp::core::{Remp, RempConfig};
//! use remp::crowd::SimulatedCrowd;
//!
//! let dataset = generate(&iimb(0.1));
//! let mut crowd = SimulatedCrowd::paper_default(42);
//! let remp = Remp::new(RempConfig::default());
//! let outcome = remp.run(
//!     &dataset.kb1,
//!     &dataset.kb2,
//!     &|u1, u2| dataset.is_match(u1, u2),
//!     &mut crowd,
//! );
//! assert!(outcome.questions_asked > 0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`par`] | dependency-free worker pool (`Parallelism`) | — |
//! | [`obs`] | metrics registry, stage spans, structured event log | — |
//! | [`kb`] | knowledge-base substrate | §III-A |
//! | [`simil`] | similarity measures & vectors | §IV-B/D |
//! | [`ergraph`] | ER-graph construction & pruning | §IV |
//! | [`propagation`] | consistency, neighbour & distant propagation | §V, §VI-B |
//! | [`selection`] | submodular question selection | §VI |
//! | [`crowd`] | workers, labels, truth inference | §VII-A |
//! | [`forest`] | random forests (isolated pairs) | §VII-B |
//! | [`core`] | the Remp pipeline, metrics, experiment drivers | §III-B |
//! | [`datasets`] | synthetic dataset presets (Table II shapes) | §VIII |
//! | [`ingest`] | file loaders, `.rkb` snapshots | Table II |
//! | [`serve`] | the `rempd` campaign server, client, wire crowd | §VII-A |
//! | [`sim`] | discrete-tick campaign simulator, adversarial crowds | §VIII |
//! | [`scale`] | million-entity generator, blocked candidates, shards | §VIII-E |
//! | [`baselines`] | PARIS, SiGMa, HIKE, POWER, Corleone | §II, §VIII |
//! | [`bench`](mod@bench) | the paper harness: one function per table/figure | §VIII |
//!
//! The `rempctl` CLI (this package's binary) chains the layers:
//! `export` → `import` → `inspect` → `run` | `drive` | `bench`, and
//! `repro` reruns the paper's tables and figures.

pub use remp_baselines as baselines;
pub use remp_bench as bench;
pub use remp_core as core;
pub use remp_crowd as crowd;
pub use remp_datasets as datasets;
pub use remp_ergraph as ergraph;
pub use remp_forest as forest;
pub use remp_ingest as ingest;
pub use remp_kb as kb;
pub use remp_obs as obs;
pub use remp_par as par;
pub use remp_propagation as propagation;
pub use remp_scale as scale;
pub use remp_selection as selection;
pub use remp_serve as serve;
pub use remp_sim as sim;
pub use remp_simil as simil;
