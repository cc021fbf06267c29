//! Relational match propagation (paper §V) and inferred-set discovery
//! (§VI-B).
//!
//! Given the ER graph and a labeled match, this crate answers *which other
//! entity pairs can now be inferred, and with what probability*:
//!
//! * [`Consistency`] / [`estimate_consistency`] — the per-relationship-pair
//!   consistency parameters `(ε1, ε2)` (Eq. 3) fitted by maximum likelihood
//!   over latent match counts (Eqs. 4–5). We optimise with hard-EM: the
//!   E-step argmax over the integer latent count is unimodal and closed
//!   form, the M-step is the closed-form ratio `ε_i = ΣL / Σ|N_i|` (see
//!   DESIGN.md §6.1).
//! * [`propagate_to_neighbors`] — the basic case (Eqs. 6–9): posterior
//!   match probabilities of the value-set pairs of one relationship pair,
//!   marginalised over all partial matchings `M_{u1,u2}`; exact enumeration
//!   with a beam-search fallback beyond a configurable budget.
//! * [`ProbErGraph`] — the probabilistic ER graph: every ER-graph edge
//!   weighted with `Pr[m_w | m_v]`, plus distant propagation (Eq. 10) as
//!   shortest paths under `length = −log Pr`, via either the paper's
//!   threshold Floyd–Warshall (Algorithm 2) or an equivalent truncated
//!   Dijkstra.
//! * [`LoopState`] — the incremental, component-sharded owner of the
//!   three artifacts above, recomputing only the changed region each
//!   crowd loop while staying bit-identical to the from-scratch path.
//!
//! ## Dirty-tracking invariants (the incremental engine's contract)
//!
//! [`LoopState`] keeps stage 2 exact under these rules; anything touching
//! the propagation data structures must preserve them:
//!
//! 1. **Labels.** A label's consistency depends only on the seed set. A
//!    label is marked dirty when (a) a new seed contributes a non-empty
//!    observation for it, or (b) a new seed lies between the value sets
//!    of an existing seed under it — detectable as an ER-graph edge from
//!    the existing seed into the new one, carrying the flipped label.
//!    Dirty labels re-run hard-EM over cached observations kept in seed
//!    order; only labels whose re-estimated `(ε1, ε2)` actually changed
//!    propagate dirtiness to vertices.
//! 2. **Vertices.** A vertex's probabilistic edges depend only on static
//!    graph structure, the consistencies of its incident labels, and the
//!    priors of its ER-graph neighbours. A vertex is dirty when an
//!    incident label changed or a neighbour's prior changed; only
//!    vertices whose recomputed edge list differs propagate dirtiness to
//!    their component.
//! 3. **Components.** Probabilistic edges are a subset of ER adjacency
//!    and ER adjacency is materialised in both orientations, so no
//!    propagation path leaves a connected component
//!    ([`remp_ergraph::ComponentIndex`]). A component is dirty when any
//!    member's edge list changed; only its eligible members' inferred
//!    sets are recomputed.
//! 4. **Retirement.** A component whose eligible (unresolved,
//!    non-isolated) pairs are exhausted is retired: its edges and
//!    inferred sets are never recomputed again. Safe because resolutions
//!    are never revoked (retired components cannot reopen) and nothing
//!    reads the stage-2 artifacts of resolved pairs — questions come from
//!    eligible pairs, propagation targets are snapshotted at batch
//!    creation, and termination inspects eligible pairs only. Seeds
//!    inside retired components still feed the (global) label estimates.
//!    For the same reason a source's inferred set is freed by the first
//!    refresh after the source resolves, retired component or not.

mod consistency;
mod distant;
mod loopstate;
mod neighbor;
mod probgraph;

pub use consistency::{estimate_consistency, Consistency, ConsistencyTable, SizeObservation};
pub use distant::{
    inferred_probabilities, inferred_sets_dijkstra, inferred_sets_floyd_warshall, InferredSets,
};
pub use loopstate::{LoopState, PropagationContext, RefreshOutcome, RefreshStats};
pub use neighbor::{propagate_to_neighbors, MatchingCandidate, PropagationConfig};
pub use probgraph::ProbErGraph;
