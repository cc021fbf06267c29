//! `remp-sim` — a discrete-tick campaign simulator with adversarial
//! crowds.
//!
//! The paper's accuracy results (§VIII) assume well-behaved workers;
//! real deployments face churn, latency, drifting quality and outright
//! spam (CrowdER documents how noisy real crowd workers are). This
//! crate stress-tests the serving stack against exactly those
//! conditions: a seeded population of virtual workers — each with an
//! arrival/departure schedule, a per-answer latency distribution, a
//! quality profile that may drift per tick, and optionally adversarial
//! behavior (coin-flip spammers, always-yes/no answerers, coordinated
//! wrong-answer cliques) — drives a real
//! [`CampaignEngine`](remp_serve::CampaignEngine) end to end on
//! **virtual time**: one tick is one millisecond of the lease clock, so
//! lease expiry and re-issue happen deterministically with no sleeps
//! anywhere. The simulator reads the engine's own lease table to decide
//! which worker may take which question; it mirrors none of it.
//!
//! Guarantees:
//!
//! * **Determinism.** Same [`Scenario`] + same seed ⇒ bit-identical
//!   event trace, report and campaign outcome, on every run and under
//!   any `Parallelism` (the pipeline itself is bit-stable across thread
//!   counts).
//! * **Reference equivalence.** The `honest` preset reproduces the
//!   exact RNG stream of [`remp_serve::sim::WireCrowd`], so its outcome
//!   equals [`remp_serve::sim::reference_outcome`] — the simulator is
//!   provably the existing equivalence proof plus time, not a fork of
//!   it.
//!
//! Scenario files, presets and replay rules are documented in
//! `SCENARIOS.md`; `rempctl simulate` is the CLI entry point and also
//! emits the robustness curves (F1 vs spam rate, crowd cost vs churn)
//! committed as `ROBUSTNESS.json`.

pub mod report;
pub mod scenario;
pub mod trace;
pub mod world;

pub use report::{
    churn_curve, robustness_report, spam_curve, EstimatorReport, SimReport, WorkerReport,
};
pub use scenario::{preset, preset_names, Behavior, Cohort, Scenario};
pub use trace::{trace_hash, EventKind, TraceEvent};
pub use world::{run_scenario, run_scenario_with};

use std::fmt;

/// Everything that can go wrong building or running a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The scenario itself is malformed (unknown dataset, zero-sized
    /// cohort, latency ≥ lease, ...).
    BadScenario(String),
    /// The campaign engine rejected something mid-run — a simulator
    /// bug, since the simulator only replays legal request sequences.
    Engine(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadScenario(msg) => write!(f, "bad scenario: {msg}"),
            SimError::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<remp_serve::ServeError> for SimError {
    fn from(e: remp_serve::ServeError) -> SimError {
        SimError::Engine(e.to_string())
    }
}
