//! The incremental, component-sharded loop engine.
//!
//! Every human-machine loop of the pipeline re-runs stage 2 — consistency
//! estimation, the probabilistic ER graph, inferred-set discovery — and
//! the from-scratch implementations recompute the whole knowledge base
//! each time even though one answered batch only touches a handful of
//! pairs. [`LoopState`] owns the three stage-2 artifacts and recomputes
//! them *delta-driven*, with outputs **bit-identical** to the from-scratch
//! path ([`LoopState::rebuild_reference`]); the dirty-tracking invariants
//! live in the crate docs ([`crate`]) and below.
//!
//! ## What depends on what
//!
//! * A **label's consistency** depends on the seed set only: each seed
//!   contributes one [`SizeObservation`] per label (value-set sizes are
//!   static; the latent lower bound counts seed matches between the value
//!   sets). A label is dirty when a new seed contributes an observation,
//!   or when a new seed sits between the value sets of an existing seed —
//!   exactly the ER-graph in-edges of the new seed whose source is itself
//!   a seed. Dirty labels re-run hard-EM over their (cached, seed-ordered)
//!   observations; a label only propagates dirtiness further if the
//!   re-estimated parameters actually changed.
//! * A **vertex's probabilistic edges** depend on static graph structure,
//!   the consistencies of its incident labels, and the priors of its
//!   ER-graph neighbours. A vertex is dirty when an incident label's
//!   consistency changed or a neighbour's prior changed; it propagates
//!   dirtiness only if its recomputed edge list differs.
//! * An **inferred set** depends on every edge reachable from its source,
//!   all within the source's connected component (probabilistic edges are
//!   a subset of ER adjacency, which never crosses components). A
//!   component is dirty when any member's edge list changed; all eligible
//!   sources in a dirty component get their rows again, from truncated
//!   Dijkstra over a compact view of the dirty components built once per
//!   refresh (`ComponentView` in `distant.rs`): one search per source, or
//!   one per cluster of pairs joined by near-zero edges.
//!
//! ## Retirement
//!
//! A component with no eligible (unresolved, non-isolated) pairs left is
//! **retired**: its edges and inferred sets are never recomputed again.
//! This is safe because nothing downstream reads them — questions are
//! selected among eligible pairs, propagation targets are snapshotted at
//! batch creation, and termination only inspects eligible pairs. Retired
//! components never reopen: resolutions are never revoked, so a
//! component's eligible count is monotonically non-increasing.
//!
//! The same argument frees memory: a source's inferred set is emptied by
//! the first refresh after the source stops being eligible, so the live
//! rows are exactly those of eligible sources.

use remp_ergraph::{Candidates, ComponentIndex, ErGraph, PairId, RelPairId};
use remp_kb::Kb;
use remp_obs::time_stage;
use remp_par::Parallelism;

use crate::consistency::{index_seeds, seed_observation, SeedIndex};
use crate::distant::{probabilities_within, ComponentView};
use crate::probgraph::vertex_edges;
use crate::{
    estimate_consistency, inferred_sets_dijkstra, ConsistencyTable, InferredSets, ProbErGraph,
    PropagationConfig, SizeObservation,
};

/// The read-only stage-1 artifacts every [`LoopState`] operation works
/// against. The session owns these (they never change after stage 1) and
/// rebuilds the bundle per call; the state only owns what changes.
#[derive(Clone, Copy)]
pub struct PropagationContext<'a> {
    /// Left knowledge base.
    pub kb1: &'a Kb,
    /// Right knowledge base.
    pub kb2: &'a Kb,
    /// The retained candidate pairs with their live priors.
    pub candidates: &'a Candidates,
    /// The ER graph over the retained pairs.
    pub graph: &'a ErGraph,
    /// The connected-component index of the ER graph.
    pub components: &'a ComponentIndex,
}

/// Counters and timings of one [`LoopState::refresh`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RefreshStats {
    /// Whether this refresh rebuilt everything from scratch (the first
    /// refresh, a refresh after [`LoopState::refresh_full`], or every
    /// refresh in full mode).
    pub full_rebuild: bool,
    /// Seeds that joined since the previous refresh.
    pub new_seeds: usize,
    /// Labels whose observation support changed (hard-EM re-runs).
    pub dirty_labels: usize,
    /// Labels whose re-estimated consistency actually changed.
    pub changed_labels: usize,
    /// Vertices whose probabilistic edges were recomputed.
    pub dirty_vertices: usize,
    /// Vertices whose recomputed edge list actually changed.
    pub changed_vertices: usize,
    /// Components whose inferred sets were recomputed.
    pub dirty_components: usize,
    /// Components currently retired (no eligible pair left).
    pub retired_components: usize,
    /// Inferred sets recomputed: the eligible members of dirty
    /// components.
    pub recomputed_sources: usize,
    /// Entries written by this refresh: the summed length of the
    /// recomputed inferred sets.
    pub settled_vertices: usize,
    /// Condensed searches run, one per cluster of near-zero edges that
    /// holds an eligible source (each gives the row of all of them).
    pub cluster_searches: usize,
    /// Sources that ran their own Dijkstra because their cluster's
    /// search met a cluster the rounding guard could not decide.
    pub fallback_sources: usize,
    /// Wall-clock of the consistency stage.
    pub consistency_s: f64,
    /// Wall-clock of the probabilistic-graph stage.
    pub propagation_s: f64,
    /// Wall-clock of the inferred-sets stage.
    pub inferred_s: f64,
}

impl RefreshStats {
    /// Total stage-2 wall-clock of this refresh.
    pub fn stage_total_s(&self) -> f64 {
        self.consistency_s + self.propagation_s + self.inferred_s
    }
}

/// Publishes one refresh's counters to the global metrics registry.
/// Stage timings are already recorded inside `time_stage`; this adds the
/// loop-level dirty-region counters the incremental machinery reports,
/// and the live inferred-set entries the refresh left.
fn record_refresh_metrics(stats: &RefreshStats, inferred: &InferredSets) {
    if !remp_obs::enabled() {
        return;
    }
    let reg = remp_obs::global();
    let mode = if stats.full_rebuild { "full" } else { "incremental" };
    reg.counter(remp_obs::names::LOOPS_TOTAL, "Propagation refreshes run.", &[("mode", mode)])
        .inc();
    reg.counter(
        remp_obs::names::LOOP_DIRTY_VERTICES_TOTAL,
        "Vertices whose probabilistic edges were recomputed across refreshes.",
        &[],
    )
    .add(stats.dirty_vertices as u64);
    reg.counter(
        remp_obs::names::LOOP_RECOMPUTED_SOURCES_TOTAL,
        "Inferred sets recomputed across refreshes.",
        &[],
    )
    .add(stats.recomputed_sources as u64);
    reg.counter(
        remp_obs::names::LOOP_SETTLED_VERTICES_TOTAL,
        "Inferred-set entries written across refreshes.",
        &[],
    )
    .add(stats.settled_vertices as u64);
    reg.counter(
        remp_obs::names::LOOP_CLUSTER_SEARCHES_TOTAL,
        "Condensed searches over clusters of near-zero edges across refreshes.",
        &[],
    )
    .add(stats.cluster_searches as u64);
    reg.counter(
        remp_obs::names::LOOP_FALLBACK_SOURCES_TOTAL,
        "Sources of undecided clusters that ran their own search across refreshes.",
        &[],
    )
    .add(stats.fallback_sources as u64);
    reg.gauge(
        remp_obs::names::PAR_HELPER_THREADS,
        "Persistent helper threads the remp-par pool has spawned.",
        &[],
    )
    .set(remp_par::helper_threads() as f64);
    reg.gauge(
        remp_obs::names::INFERRED_ENTRIES,
        "Live inferred-set entries after the last propagation refresh.",
        &[],
    )
    .set(inferred.total_size() as f64);
}

/// What one refresh changed, for the caller's own caches.
#[derive(Clone, Debug)]
pub struct RefreshOutcome {
    /// Counters and timings.
    pub stats: RefreshStats,
    /// Components whose selection-relevant inputs (inferred sets,
    /// priors, eligibility) may have changed since the previous refresh,
    /// sorted ascending. Question-selection caches for all other
    /// components remain valid.
    pub selection_dirty: Vec<usize>,
}

/// The delta-aware owner of the stage-2 artifacts: [`ConsistencyTable`],
/// [`ProbErGraph`] and [`InferredSets`], kept current across crowd loops
/// by recomputing only what a batch of answers actually touched.
///
/// The caller reports changes through [`apply_seeds`](Self::apply_seeds),
/// [`note_prior_changed`](Self::note_prior_changed) and
/// [`note_resolved`](Self::note_resolved), then calls
/// [`refresh`](Self::refresh) once per loop. Between refreshes the
/// accessors expose artifacts that are bit-identical to
/// [`rebuild_reference`](Self::rebuild_reference) on every label, every
/// vertex of a non-retired component, and the inferred set of every
/// eligible source — the exact slices the pipeline reads
/// ([`check_reference`](Self::check_reference) asserts this, and the
/// `REMP_CHECK_INCREMENTAL=1` session mode runs it every loop). The
/// inferred set of every other source is empty.
#[derive(Clone, Debug)]
pub struct LoopState {
    tau: f64,
    config: PropagationConfig,
    /// Current propagation seeds, sorted ascending, deduplicated.
    seeds: Vec<PairId>,
    /// `seed_set[v]` ⇔ `v ∈ seeds`.
    seed_set: Vec<bool>,
    /// Seed matches indexed by KB1 entity (incrementally maintained).
    seed_index: SeedIndex,
    /// Per-label cache of each seed's observation, one row per label as
    /// a vec sorted by seed id — ascending iteration equals the
    /// from-scratch observation order, lookups are binary searches over
    /// contiguous memory instead of `BTreeMap` node hops.
    obs: Vec<Vec<(u32, SizeObservation)>>,
    cons: ConsistencyTable,
    pg: ProbErGraph,
    inferred: InferredSets,
    /// Per label: the vertices with at least one incident edge of that
    /// label, ascending (static).
    label_vertices: Vec<Vec<PairId>>,
    /// Per vertex: its component id (static copy, so the cheap `note_*`
    /// notifications need no context).
    comp_of: Vec<u32>,
    /// Per vertex: still unresolved and not isolated.
    eligible: Vec<bool>,
    /// Per component: number of eligible members.
    eligible_count: Vec<usize>,
    /// Per component: no eligible member left. Flipped by
    /// [`note_resolved`](Self::note_resolved) the moment a count drops to
    /// zero, so no refresh rescans the counts.
    retired: Vec<bool>,
    /// Number of `true` entries in `retired`.
    retired_count: usize,
    /// Seeds added since the last refresh (sorted on consumption).
    pending_seeds: Vec<PairId>,
    /// Pairs whose prior changed since the last refresh.
    pending_priors: Vec<PairId>,
    /// Components whose selection inputs changed since the last refresh.
    pending_components: Vec<usize>,
    /// False until the incremental caches mirror the seed set; a full
    /// rebuild is performed (and the flag set) by the next `refresh`.
    caches_valid: bool,
}

impl LoopState {
    /// Creates a state over stage-1 output. `initial_seeds` are the seed
    /// matches `M_in`; `eligible` marks the pairs that are unresolved and
    /// non-isolated (all artifacts are lazily built by the first
    /// [`refresh`](Self::refresh)).
    pub fn new(
        ctx: &PropagationContext<'_>,
        tau: f64,
        config: PropagationConfig,
        initial_seeds: &[PairId],
        eligible: Vec<bool>,
    ) -> LoopState {
        let n = ctx.candidates.len();
        assert_eq!(eligible.len(), n, "eligibility must cover every retained pair");
        let num_labels = ctx.graph.num_labels();
        let mut label_vertices: Vec<Vec<PairId>> = vec![Vec::new(); num_labels];
        for v in ctx.candidates.ids() {
            let mut last = None;
            for &(label, _) in ctx.graph.edges_from(v) {
                if last != Some(label) {
                    label_vertices[label.index()].push(v);
                    last = Some(label);
                }
            }
        }
        let mut eligible_count = vec![0usize; ctx.components.len()];
        for (i, &e) in eligible.iter().enumerate() {
            if e {
                eligible_count[ctx.components.component_of(PairId::from_index(i))] += 1;
            }
        }
        let retired: Vec<bool> = eligible_count.iter().map(|&c| c == 0).collect();
        let retired_count = retired.iter().filter(|&&r| r).count();
        let mut state = LoopState {
            tau,
            config,
            seeds: Vec::new(),
            seed_set: vec![false; n],
            seed_index: SeedIndex::default(),
            obs: vec![Vec::new(); num_labels],
            cons: ConsistencyTable::from_entries([]),
            pg: ProbErGraph::empty(n),
            inferred: InferredSets::empty(n, tau),
            label_vertices,
            comp_of: (0..n)
                .map(|i| ctx.components.component_of(PairId::from_index(i)) as u32)
                .collect(),
            eligible,
            eligible_count,
            retired,
            retired_count,
            pending_seeds: Vec::new(),
            pending_priors: Vec::new(),
            pending_components: Vec::new(),
            caches_valid: false,
        };
        state.apply_seeds(initial_seeds);
        state
    }

    /// The current seed set, sorted ascending.
    pub fn seeds(&self) -> &[PairId] {
        &self.seeds
    }

    /// Per-pair eligibility (unresolved and non-isolated).
    pub fn eligible(&self) -> &[bool] {
        &self.eligible
    }

    /// Per-component retirement flags, current as of the last
    /// [`note_resolved`](Self::note_resolved).
    pub fn retired(&self) -> &[bool] {
        &self.retired
    }

    /// The current consistency table (exact for every label).
    pub fn consistencies(&self) -> &ConsistencyTable {
        &self.cons
    }

    /// The current probabilistic ER graph (exact for every vertex of a
    /// non-retired component).
    pub fn prob_graph(&self) -> &ProbErGraph {
        &self.pg
    }

    /// The current inferred sets (exact for every eligible source, empty
    /// for every other).
    pub fn inferred(&self) -> &InferredSets {
        &self.inferred
    }

    /// The inferred set of `q` with each target's `Pr[m_p | m_q]`, sorted
    /// by target: [`crate::inferred_probabilities`] over
    /// [`prob_graph`](Self::prob_graph), with the search's distances
    /// indexed by position in `q`'s component so they need only that
    /// component's width. Exact whenever `q` is eligible (its component's
    /// edges are then current); this is what a session snapshots for each
    /// question it issues.
    pub fn inferred_probabilities(
        &self,
        ctx: &PropagationContext<'_>,
        q: PairId,
    ) -> Vec<(PairId, f64)> {
        let width = ctx.components.members(ctx.components.component_of(q)).len();
        probabilities_within(&self.pg, self.tau, q, width, |v| ctx.components.position_of(v))
    }

    /// Merges newly confirmed matches into the (already sorted) seed set
    /// and queues them for the next [`refresh`](Self::refresh). Pairs
    /// already present are ignored; the merge is linear in the seed
    /// count, never a full rescan-and-resort.
    pub fn apply_seeds(&mut self, new: &[PairId]) {
        let mut fresh: Vec<PairId> =
            new.iter().copied().filter(|&p| !self.seed_set[p.index()]).collect();
        fresh.sort_unstable();
        fresh.dedup();
        if fresh.is_empty() {
            return;
        }
        for &p in &fresh {
            self.seed_set[p.index()] = true;
        }
        let mut merged = Vec::with_capacity(self.seeds.len() + fresh.len());
        let (mut old, mut add) = (self.seeds.iter().peekable(), fresh.iter().peekable());
        loop {
            match (old.peek(), add.peek()) {
                (Some(&&o), Some(&&a)) if o <= a => {
                    merged.push(o);
                    old.next();
                }
                (_, Some(&&a)) => {
                    merged.push(a);
                    add.next();
                }
                (Some(&&o), None) => {
                    merged.push(o);
                    old.next();
                }
                (None, None) => break,
            }
        }
        self.seeds = merged;
        self.pending_seeds.extend(fresh);
    }

    /// Records that `p`'s prior match probability changed (crowd verdict,
    /// propagation, or a hard-question downdate).
    pub fn note_prior_changed(&mut self, p: PairId) {
        self.pending_priors.push(p);
        self.pending_components.push(self.comp_of[p.index()] as usize);
    }

    /// Records that `p` left the unresolved pool. Monotone: once resolved
    /// a pair never becomes eligible again, which is what lets fully
    /// resolved components retire for good. The pair's inferred set is
    /// freed by the next [`refresh`](Self::refresh), off the answer path.
    pub fn note_resolved(&mut self, p: PairId) {
        if !self.eligible[p.index()] {
            return;
        }
        self.eligible[p.index()] = false;
        let c = self.comp_of[p.index()] as usize;
        self.eligible_count[c] -= 1;
        if self.eligible_count[c] == 0 {
            self.retired[c] = true;
            self.retired_count += 1;
        }
        self.pending_components.push(c);
    }

    /// Brings every artifact up to date with the queued deltas,
    /// recomputing only the changed region. The first call (and any call
    /// after [`refresh_full`](Self::refresh_full)) rebuilds everything.
    pub fn refresh(&mut self, ctx: &PropagationContext<'_>, par: &Parallelism) -> RefreshOutcome {
        let rebuild = !self.caches_valid;

        // -- Stage 2a: consistency estimation over dirty labels. --------
        // Each stage runs under `time_stage`: the same single
        // measurement lands in `RefreshStats` (→ `loop_stats` JSON) and
        // in the `remp_stage_seconds{stage}` histogram (→ `/metrics`),
        // so the two surfaces cannot drift apart.
        let ((new_seeds, dirty_labels, changed_labels), consistency_s) =
            time_stage("consistency", || {
                let new_seeds = if rebuild {
                    self.pending_seeds.clear();
                    self.obs = vec![Vec::new(); ctx.graph.num_labels()];
                    self.cons = ConsistencyTable::from_entries([]);
                    self.pg = ProbErGraph::empty(ctx.candidates.len());
                    self.inferred = InferredSets::empty(ctx.candidates.len(), self.tau);
                    self.seed_index = index_seeds(ctx.candidates, &self.seeds);
                    self.seeds.clone()
                } else {
                    let mut pending = std::mem::take(&mut self.pending_seeds);
                    pending.sort_unstable();
                    pending.dedup();
                    for &s in &pending {
                        let (u1, u2) = ctx.candidates.pair(s);
                        self.seed_index.entry(u1).or_default().insert(u2);
                    }
                    pending
                };

                // Which (label, seed) observations must be recomputed: every new
                // seed contributes to every label it has values for, and every
                // existing seed with an ER-graph edge into a new seed gains a
                // latent lower bound under the flipped edge label.
                let num_labels = ctx.graph.num_labels();
                let mut to_update: Vec<Vec<PairId>> = vec![new_seeds.clone(); num_labels];
                if !rebuild {
                    for &s in &new_seeds {
                        for &(label, t) in ctx.graph.edges_from(s) {
                            if self.seed_set[t.index()] {
                                let mut flipped = ctx.graph.label(label);
                                flipped.dir = flipped.dir.flip();
                                let id = ctx
                                    .graph
                                    .label_id(flipped)
                                    .expect("both orientations of a label are interned together");
                                to_update[id.index()].push(t);
                            }
                        }
                    }
                }
                struct LabelJob {
                    label: RelPairId,
                    seeds: Vec<PairId>,
                }
                let jobs: Vec<LabelJob> = to_update
                    .into_iter()
                    .enumerate()
                    .filter(|(_, seeds)| !seeds.is_empty())
                    .map(|(l, mut seeds)| {
                        seeds.sort_unstable();
                        seeds.dedup();
                        LabelJob { label: RelPairId(l as u32), seeds }
                    })
                    .collect();
                type LabelUpdate = Option<(Vec<(u32, SizeObservation)>, crate::Consistency)>;
                let updates: Vec<LabelUpdate> = par.par_map(&jobs, |job| {
                    let label = ctx.graph.label(job.label);
                    let cache = &self.obs[job.label.index()];
                    let mut changed: Vec<(u32, SizeObservation)> = Vec::new();
                    for &s in &job.seeds {
                        let fresh = seed_observation(
                            ctx.kb1,
                            ctx.kb2,
                            ctx.candidates,
                            &self.seed_index,
                            s,
                            label,
                        );
                        // `None` is static (empty value sets stay empty), so a
                        // cached entry can only be replaced, never removed.
                        if let Some(o) = fresh {
                            let cached =
                                cache.binary_search_by_key(&s.0, |e| e.0).ok().map(|i| cache[i].1);
                            if cached != Some(o) {
                                changed.push((s.0, o));
                            }
                        }
                    }
                    if changed.is_empty() {
                        return None;
                    }
                    let merged = merged_observations(cache, &changed);
                    Some((changed, estimate_consistency(&merged)))
                });
                let mut dirty_labels = 0usize;
                let mut changed_labels: Vec<RelPairId> = Vec::new();
                for (job, update) in jobs.iter().zip(updates) {
                    let Some((entries, value)) = update else { continue };
                    dirty_labels += 1;
                    let cache = &mut self.obs[job.label.index()];
                    for (seed, o) in entries {
                        match cache.binary_search_by_key(&seed, |e| e.0) {
                            Ok(i) => cache[i].1 = o,
                            Err(i) => cache.insert(i, (seed, o)),
                        }
                    }
                    if self.cons.set(job.label, value) {
                        changed_labels.push(job.label);
                    }
                }
                (new_seeds, dirty_labels, changed_labels)
            });

        // -- Stage 2b: probabilistic edges of dirty vertices. -----------
        // The dirty vertices and components are sorted, deduplicated id
        // lists built from the changed labels and priors, so after the
        // first refresh this stage costs what the batch touched — never a
        // pass over every retained pair or component.
        let ((dirty_components, dirty_vertices, changed_vertices), propagation_s) =
            time_stage("propagation", || {
                let changed_priors = {
                    let mut priors = std::mem::take(&mut self.pending_priors);
                    priors.sort_unstable();
                    priors.dedup();
                    priors
                };
                let live = |v: &PairId| !self.retired[ctx.components.component_of(*v)];
                let dirty_vertices: Vec<PairId> = if rebuild {
                    ctx.candidates.ids().filter(live).collect()
                } else {
                    let mut dirty: Vec<PairId> = changed_labels
                        .iter()
                        .flat_map(|label| self.label_vertices[label.index()].iter().copied())
                        .filter(live)
                        .collect();
                    // A changed prior dirties the pairs it propagates to: the
                    // pair's ER-graph neighbours (adjacency is symmetric).
                    for &w in &changed_priors {
                        dirty.extend(ctx.graph.edges_from(w).iter().map(|&(_, t)| t).filter(live));
                    }
                    dirty.sort_unstable();
                    dirty.dedup();
                    dirty
                };
                let edge_lists: Vec<Vec<(PairId, f64)>> = par.par_map(&dirty_vertices, |&v| {
                    vertex_edges(
                        ctx.kb1,
                        ctx.kb2,
                        ctx.candidates,
                        ctx.graph,
                        &self.cons,
                        &self.config,
                        v,
                    )
                });
                let mut dirty_components: Vec<usize> = Vec::new();
                for (&v, list) in dirty_vertices.iter().zip(edge_lists) {
                    if self.pg.replace_edges(v, list) {
                        dirty_components.push(ctx.components.component_of(v));
                    }
                }
                let changed_vertices = dirty_components.len();
                if rebuild {
                    // Even unchanged (empty-edge) components need their initial
                    // Dijkstra pass: every source's set contains itself.
                    dirty_components =
                        (0..ctx.components.len()).filter(|&c| !self.retired[c]).collect();
                } else {
                    dirty_components.sort_unstable();
                    dirty_components.dedup();
                }
                (dirty_components, dirty_vertices.len(), changed_vertices)
            });

        // Note: components that just retired stay in this list — the
        // caller's selection cache must still observe the retirement
        // (drop the component's cached questions and reachability).
        let selection_dirty: Vec<usize> = if rebuild {
            self.pending_components.clear();
            (0..ctx.components.len()).collect()
        } else {
            let mut comps = std::mem::take(&mut self.pending_components);
            comps.extend(dirty_components.iter().copied());
            comps.sort_unstable();
            comps.dedup();
            comps
        };

        // -- Stage 2c: inferred sets of dirty components. ---------------
        // First the rows of sources that are no longer eligible are freed
        // (resolutions are never revoked, so no such row is read again):
        // `note_resolved` queued each resolved pair's component, so they
        // all lie in `selection_dirty`. One sequential pass then flattens
        // the dirty components into a position-indexed CSR with each edge
        // length computed once (one buffer for the whole refresh, none
        // per component). The same pass joins the pairs linked both ways
        // by near-zero edges into clusters and condenses them. A
        // component with clusters runs one truncated Dijkstra per cluster
        // holding an eligible source over its condensed graph, and every
        // such source of the cluster gets the row; an exact rounding guard
        // sends a cluster whose search meets an undecided cluster back to
        // per-source Dijkstra over the view, which every component
        // without clusters runs. Scratch is per worker, sized by the
        // largest dirty component, and rows are pair ids. The textbook
        // kernel over the global graph stays the reference
        // (`rebuild_reference`), so `check_reference` compares two
        // independent kernels.
        let (rows, inferred_s) = time_stage("inferred_sets", || {
            for &c in &selection_dirty {
                for &v in ctx.components.members(c) {
                    if !self.eligible[v.index()] {
                        self.inferred.set_row(v, Vec::new());
                    }
                }
            }
            let view = ComponentView::build(
                &self.pg,
                self.tau,
                dirty_components.iter().map(|&c| ctx.components.members(c)),
                |v| ctx.components.position_of(v),
            );
            view.inferred_rows(
                par,
                |q| self.eligible[q.index()],
                |q, row| self.inferred.set_row(q, row),
            )
        });

        self.caches_valid = true;

        let stats = RefreshStats {
            full_rebuild: rebuild,
            new_seeds: new_seeds.len(),
            dirty_labels,
            changed_labels: changed_labels.len(),
            dirty_vertices,
            changed_vertices,
            dirty_components: dirty_components.len(),
            retired_components: self.retired_count,
            recomputed_sources: rows.sources,
            settled_vertices: rows.entries,
            cluster_searches: rows.cluster_searches,
            fallback_sources: rows.fallback_sources,
            consistency_s,
            propagation_s,
            inferred_s,
        };
        record_refresh_metrics(&stats, &self.inferred);
        RefreshOutcome { stats, selection_dirty }
    }

    /// The from-scratch baseline: recomputes every artifact exactly like
    /// the pre-incremental pipeline did each loop, ignoring all caches.
    /// Kept as the reference the incremental path is verified against.
    pub fn refresh_full(
        &mut self,
        ctx: &PropagationContext<'_>,
        par: &Parallelism,
    ) -> RefreshOutcome {
        let (cons, consistency_s) = time_stage("consistency", || {
            ConsistencyTable::estimate(
                ctx.kb1,
                ctx.kb2,
                ctx.candidates,
                ctx.graph,
                &self.seeds,
                par,
            )
        });
        self.cons = cons;
        let (pg, propagation_s) = time_stage("propagation", || {
            ProbErGraph::build(
                ctx.kb1,
                ctx.kb2,
                ctx.candidates,
                ctx.graph,
                &self.cons,
                &self.config,
                par,
            )
        });
        self.pg = pg;
        let ((inferred, settled_vertices), inferred_s) = time_stage("inferred_sets", || {
            let mut inferred = inferred_sets_dijkstra(&self.pg, self.tau, par);
            let settled = inferred.total_size();
            for (i, &e) in self.eligible.iter().enumerate() {
                if !e {
                    inferred.set_row(PairId::from_index(i), Vec::new());
                }
            }
            (inferred, settled)
        });
        self.inferred = inferred;
        // The incremental caches no longer mirror the artifacts; force
        // the next incremental refresh (if any) to rebuild.
        self.caches_valid = false;
        self.pending_seeds.clear();
        self.pending_priors.clear();
        self.pending_components.clear();
        let n = ctx.candidates.len();
        let stats = RefreshStats {
            full_rebuild: true,
            new_seeds: 0,
            dirty_labels: ctx.graph.num_labels(),
            changed_labels: ctx.graph.num_labels(),
            dirty_vertices: n,
            changed_vertices: n,
            dirty_components: ctx.components.len(),
            retired_components: self.retired_count,
            recomputed_sources: n,
            settled_vertices,
            cluster_searches: 0,
            fallback_sources: 0,
            consistency_s,
            propagation_s,
            inferred_s,
        };
        record_refresh_metrics(&stats, &self.inferred);
        RefreshOutcome { stats, selection_dirty: (0..ctx.components.len()).collect() }
    }

    /// Runs the from-scratch stage-2 pipeline on the current seed set and
    /// returns the three artifacts without touching the state.
    pub fn rebuild_reference(
        &self,
        ctx: &PropagationContext<'_>,
        par: &Parallelism,
    ) -> (ConsistencyTable, ProbErGraph, InferredSets) {
        let cons = ConsistencyTable::estimate(
            ctx.kb1,
            ctx.kb2,
            ctx.candidates,
            ctx.graph,
            &self.seeds,
            par,
        );
        let pg = ProbErGraph::build(
            ctx.kb1,
            ctx.kb2,
            ctx.candidates,
            ctx.graph,
            &cons,
            &self.config,
            par,
        );
        let inferred = inferred_sets_dijkstra(&pg, self.tau, par);
        (cons, pg, inferred)
    }

    /// Asserts the incremental artifacts are bit-identical to
    /// [`rebuild_reference`](Self::rebuild_reference) on every slice the
    /// pipeline reads: all labels, all vertices of non-retired
    /// components, and the inferred-set ids of all eligible Dijkstra
    /// sources; that no other source keeps an inferred set; and that the
    /// entry count matches the rows. Returns a description of the first
    /// divergence found.
    pub fn check_reference(
        &self,
        ctx: &PropagationContext<'_>,
        par: &Parallelism,
    ) -> Result<(), String> {
        let (cons, pg, inferred) = self.rebuild_reference(ctx, par);
        let mut live = 0;
        for v in ctx.candidates.ids() {
            let row = self.inferred.inferred(v);
            if !self.eligible[v.index()] && !row.is_empty() {
                return Err(format!("inferred set of resolved {v:?} was not freed: {row:?}"));
            }
            live += row.len();
        }
        if live != self.inferred.total_size() {
            return Err(format!(
                "inferred sets hold {live} entries but count {}",
                self.inferred.total_size()
            ));
        }
        for (label, _) in ctx.graph.labels() {
            let (got, want) = (self.cons.get(label), cons.get(label));
            if got != want {
                return Err(format!(
                    "consistency of label {label:?} diverged: incremental {got:?}, reference {want:?}"
                ));
            }
        }
        for (c, members) in ctx.components.iter() {
            if self.retired[c] {
                continue;
            }
            for &v in members {
                if self.pg.edges_from(v) != pg.edges_from(v) {
                    return Err(format!(
                        "probabilistic edges of {v:?} (component {c}) diverged: \
                         incremental {:?}, reference {:?}",
                        self.pg.edges_from(v),
                        pg.edges_from(v)
                    ));
                }
                if self.eligible[v.index()] && self.inferred.inferred(v) != inferred.inferred(v) {
                    return Err(format!(
                        "inferred set of {v:?} (component {c}) diverged: \
                         incremental {:?}, reference {:?}",
                        self.inferred.inferred(v),
                        inferred.inferred(v)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The cached observations of one label overlaid with fresh entries, in
/// seed order — exactly the observation list the from-scratch estimator
/// would build. Both inputs are sorted by seed id; `changed` wins on
/// collisions.
fn merged_observations(
    cache: &[(u32, SizeObservation)],
    changed: &[(u32, SizeObservation)],
) -> Vec<SizeObservation> {
    let mut out = Vec::with_capacity(cache.len() + changed.len());
    let mut fresh = changed.iter().peekable();
    for &(seed, cached) in cache {
        while let Some(&&(k, o)) = fresh.peek() {
            if k >= seed {
                break;
            }
            out.push(o);
            fresh.next();
        }
        match fresh.peek() {
            Some(&&(k, o)) if k == seed => {
                out.push(o);
                fresh.next();
            }
            _ => out.push(cached),
        }
    }
    out.extend(fresh.map(|&(_, o)| o));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_ergraph::{generate_candidates, ErGraph};
    use remp_kb::{EntityId, KbBuilder, Value};

    const SEQ: &Parallelism = &Parallelism::Sequential;

    fn fixture() -> (Kb, Kb) {
        let mut b1 = KbBuilder::new("kb1");
        let mut b2 = KbBuilder::new("kb2");
        let born1 = b1.add_rel("bornIn");
        let born2 = b2.add_rel("birthPlace");
        let acted1 = b1.add_rel("actedIn");
        let acted2 = b2.add_rel("actedIn");
        let lbl1 = b1.add_attr("label");
        let lbl2 = b2.add_attr("label");
        for (b, born, acted, lbl) in
            [(&mut b1, born1, acted1, lbl1), (&mut b2, born2, acted2, lbl2)]
        {
            let joan = b.add_entity("Joan");
            let nyc = b.add_entity("NYC");
            let cradle = b.add_entity("Cradle");
            let player = b.add_entity("Player");
            let solo = b.add_entity("Solo Star");
            for e in [joan, nyc, cradle, player, solo] {
                let label = ["Joan", "NYC", "Cradle", "Player", "Solo Star"][e.index()];
                b.add_attr_triple(e, lbl, Value::text(label));
            }
            b.add_rel_triple(joan, born, nyc);
            b.add_rel_triple(joan, acted, cradle);
            b.add_rel_triple(joan, acted, player);
        }
        (b1.finish(), b2.finish())
    }

    fn state_over<'a>(
        kb1: &'a Kb,
        kb2: &'a Kb,
    ) -> (Candidates, ErGraph, ComponentIndex, Vec<bool>) {
        let cands = generate_candidates(kb1, kb2, 0.3, SEQ);
        let graph = ErGraph::build(kb1, kb2, &cands);
        let components = ComponentIndex::build(&graph);
        let eligible: Vec<bool> = cands.ids().map(|p| !graph.is_isolated_vertex(p)).collect();
        (cands, graph, components, eligible)
    }

    #[test]
    fn incremental_matches_reference_across_seed_growth() {
        let (kb1, kb2) = fixture();
        let (cands, graph, components, eligible) = state_over(&kb1, &kb2);
        let ctx = PropagationContext {
            kb1: &kb1,
            kb2: &kb2,
            candidates: &cands,
            graph: &graph,
            components: &components,
        };
        let joan = cands.id_of((EntityId(0), EntityId(0))).unwrap();
        let nyc = cands.id_of((EntityId(1), EntityId(1))).unwrap();
        let cradle = cands.id_of((EntityId(2), EntityId(2))).unwrap();

        let mut state = LoopState::new(&ctx, 0.9, PropagationConfig::default(), &[joan], eligible);
        let first = state.refresh(&ctx, SEQ);
        assert!(first.stats.full_rebuild);
        state.check_reference(&ctx, SEQ).expect("initial build matches reference");
        assert_retired_recount(&state, &first);

        // A second loop: one more seed, one prior bumped.
        state.apply_seeds(&[nyc]);
        state.note_prior_changed(cradle);
        let second = state.refresh(&ctx, SEQ);
        assert!(!second.stats.full_rebuild);
        assert_eq!(second.stats.new_seeds, 1);
        state.check_reference(&ctx, SEQ).expect("incremental update matches reference");
        assert_retired_recount(&state, &second);

        // A third loop with no changes at all recomputes nothing.
        let third = state.refresh(&ctx, SEQ);
        assert_eq!(third.stats.dirty_labels, 0);
        assert_eq!(third.stats.dirty_vertices, 0);
        assert_eq!(third.stats.recomputed_sources, 0);
        assert!(third.selection_dirty.is_empty());
        state.check_reference(&ctx, SEQ).expect("no-op refresh stays exact");
        for outcome in [&first, &second, &third] {
            assert_eq!(
                outcome.stats.retired_components,
                components.len() - 1,
                "only Joan's is live"
            );
        }
        assert_retired_recount(&state, &third);

        // Resolve Joan's component one pair per loop: it stays live until
        // its last eligible pair resolves, and the loop it retires in
        // still reports it for the selection cache.
        let joan_comp = components.component_of(joan);
        let mut open: Vec<PairId> = components
            .members(joan_comp)
            .iter()
            .copied()
            .filter(|p| state.eligible()[p.index()])
            .collect();
        assert!(open.len() >= 2, "the fixture's relational component has several eligible pairs");
        while let Some(p) = open.pop() {
            state.note_prior_changed(p);
            state.note_resolved(p);
            let outcome = state.refresh(&ctx, SEQ);
            assert_retired_recount(&state, &outcome);
            assert_eq!(state.retired()[joan_comp], open.is_empty());
            assert!(outcome.selection_dirty.contains(&joan_comp));
            state.check_reference(&ctx, SEQ).expect("resolution loop stays exact");
        }
    }

    /// The incrementally kept retirement flags and count equal a recount
    /// from the per-component eligible counts.
    fn assert_retired_recount(state: &LoopState, outcome: &RefreshOutcome) {
        let recount: Vec<bool> = state.eligible_count.iter().map(|&c| c == 0).collect();
        assert_eq!(state.retired(), recount.as_slice());
        assert_eq!(outcome.stats.retired_components, recount.iter().filter(|&&r| r).count());
    }

    #[test]
    fn resolved_components_retire_and_stay_retired() {
        let (kb1, kb2) = fixture();
        let (cands, graph, components, eligible) = state_over(&kb1, &kb2);
        let ctx = PropagationContext {
            kb1: &kb1,
            kb2: &kb2,
            candidates: &cands,
            graph: &graph,
            components: &components,
        };
        let mut state =
            LoopState::new(&ctx, 0.9, PropagationConfig::default(), &[], eligible.clone());
        state.refresh(&ctx, SEQ);

        // Resolve every eligible pair: every component retires.
        for (i, &e) in eligible.iter().enumerate() {
            if e {
                state.note_resolved(PairId::from_index(i));
            }
        }
        let outcome = state.refresh(&ctx, SEQ);
        assert_eq!(outcome.stats.retired_components, components.len());
        assert!(
            !outcome.selection_dirty.is_empty(),
            "freshly retired components must be reported so selection caches drop them"
        );
        state.check_reference(&ctx, SEQ).expect("retired slices are excluded from the check");

        // Retired components never reopen: further seeds dirty labels but
        // no vertices or components.
        let joan = cands.id_of((EntityId(0), EntityId(0))).unwrap();
        state.apply_seeds(&[joan]);
        let after = state.refresh(&ctx, SEQ);
        assert_eq!(after.stats.dirty_vertices, 0);
        assert_eq!(after.stats.dirty_components, 0);
    }

    #[test]
    fn full_mode_tracks_the_reference_by_construction() {
        let (kb1, kb2) = fixture();
        let (cands, graph, components, eligible) = state_over(&kb1, &kb2);
        let ctx = PropagationContext {
            kb1: &kb1,
            kb2: &kb2,
            candidates: &cands,
            graph: &graph,
            components: &components,
        };
        let joan = cands.id_of((EntityId(0), EntityId(0))).unwrap();
        let mut state = LoopState::new(&ctx, 0.9, PropagationConfig::default(), &[joan], eligible);
        let outcome = state.refresh_full(&ctx, SEQ);
        assert!(outcome.stats.full_rebuild);
        state.check_reference(&ctx, SEQ).expect("full refresh is the reference");
        // Switching to incremental after a full refresh rebuilds caches.
        let next = state.refresh(&ctx, SEQ);
        assert!(next.stats.full_rebuild);
        state.check_reference(&ctx, SEQ).expect("rebuilt caches match");
    }

    #[test]
    fn merged_observations_overlays_in_seed_order() {
        let so = |n: usize| SizeObservation::new(n, n, 0, n);
        let cache = vec![(1, so(1)), (3, so(3)), (5, so(5))];
        let merged = merged_observations(&cache, &[(0, so(10)), (3, so(30)), (7, so(70))]);
        assert_eq!(merged, vec![so(10), so(1), so(30), so(5), so(70)]);
        assert_eq!(merged_observations(&cache, &[]).len(), 3);
    }
}
