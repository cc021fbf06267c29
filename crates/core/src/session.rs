//! The resumable crowd session — the paper's human-machine loop (§III-B,
//! Fig. 2) with the control flow inverted.
//!
//! [`Remp::run`](crate::Remp::run) drives a *simulated* crowd through a
//! closure, but a real deployment posts questions to a crowd platform and
//! answers trickle back asynchronously. [`RempSession`] makes the caller
//! the owner of that loop:
//!
//! ```text
//! let mut session = remp.begin(&kb1, &kb2)?;         // stage 1
//! while let Some(batch) = session.next_batch()? {    // stages 2–3
//!     for q in &batch.questions {
//!         post_to_platform(q);                       // e.g. MTurk HITs
//!     }
//!     for (id, labels) in collect_answers() {
//!         session.submit(id, labels)?;               // stage 4 + Eq. 11
//!     }
//! }
//! let outcome = session.finish();                    // §VII-B classifier
//! ```
//!
//! Truth inference (Eq. 17) and relational propagation (Eq. 11) run
//! *incrementally* as each answer lands; answers within a batch may be
//! submitted in any order, and the final state is identical to the
//! synchronous loop (each question's posterior uses the prior snapshotted
//! at batch creation, exactly as the synchronous loop computed all
//! posteriors before propagating).
//!
//! Long campaigns can stop and resume: [`RempSession::checkpoint`]
//! captures the dynamic state (resolutions, priors, seeds, the open
//! batch) as a small JSON document, and [`RempSession::resume`] rebuilds
//! the session from the checkpoint plus the original knowledge bases —
//! stage 1 is deterministic, so the heavyweight prepared structures are
//! reconstructed rather than stored.

use std::fmt;
use std::time::Instant;

use remp_crowd::{infer_truth, Label, LabelSource, Verdict};
use remp_ergraph::PairId;
use remp_json::Json;
use remp_kb::{EntityId, Kb};
use remp_propagation::{LoopState, PropagationContext, RefreshStats};
use remp_selection::ComponentSelector;

use crate::jsonio::{get, get_bool, get_f64, get_str, get_u64, get_usize, malformed};
use crate::pipeline::{MatchSource, Resolution};
use crate::{classify_isolated, prepare, PreparedEr, RempConfig, RempError, RempOutcome};

/// Environment variable enabling the incremental-equivalence debug mode:
/// when set to `1`, every [`RempSession::next_batch`] asserts the
/// incremental stage-2 state is bit-identical to a from-scratch rebuild
/// ([`LoopState::check_reference`]) and panics on the first divergence.
pub const CHECK_INCREMENTAL_ENV: &str = "REMP_CHECK_INCREMENTAL";

/// Opaque identifier of a posted question, unique within a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuestionId(pub u64);

impl fmt::Display for QuestionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Error returned when a string is not a `q{n}` question id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseQuestionIdError {
    raw: String,
}

impl fmt::Display for ParseQuestionIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid question id {:?} (expected the form \"q0\", \"q17\", ...)", self.raw)
    }
}

impl std::error::Error for ParseQuestionIdError {}

/// Round-trips the [`Display`](fmt::Display) form `q{n}`, so wire
/// protocols can reuse the id format humans already see in logs and
/// error messages instead of inventing a second encoding.
impl std::str::FromStr for QuestionId {
    type Err = ParseQuestionIdError;

    fn from_str(s: &str) -> Result<QuestionId, ParseQuestionIdError> {
        let err = || ParseQuestionIdError { raw: s.to_owned() };
        let digits = s.strip_prefix('q').ok_or_else(err)?;
        // Reject forms Display never produces: empty, signs, leading
        // zeros ("q007" must not alias "q7" on the wire).
        if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0')) {
            return Err(err());
        }
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err());
        }
        digits.parse::<u64>().map(QuestionId).map_err(|_| err())
    }
}

/// Human-readable context a crowd UI shows alongside a question.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuestionContext {
    /// Label of the left entity in its knowledge base.
    pub label1: String,
    /// Label of the right entity in its knowledge base.
    pub label2: String,
    /// Which human-machine loop posted the question (0-based).
    pub loop_index: usize,
}

/// One pairwise question to put before workers.
#[derive(Clone, Debug, PartialEq)]
pub struct Question {
    /// Handle to pass back to [`RempSession::submit`].
    pub id: QuestionId,
    /// The entity pair being asked about.
    pub pair: (EntityId, EntityId),
    /// Current match probability estimate (snapshotted at batch
    /// creation; also the prior of the Eq. 17 posterior).
    pub prior: f64,
    /// Display context.
    pub context: QuestionContext,
}

/// One loop's worth of questions (at most µ of them).
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    /// The loop index that selected this batch (0-based).
    pub loop_index: usize,
    /// The selected questions, in selection (benefit) order.
    pub questions: Vec<Question>,
}

/// What one submitted answer changed.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitOutcome {
    /// The Eq. 17 verdict for the question itself.
    pub verdict: Verdict,
    /// The Eq. 17 posterior match probability.
    pub posterior: f64,
    /// Entity pairs newly resolved through relational propagation
    /// (Eq. 11) because this answer confirmed a match.
    pub propagated: Vec<(EntityId, EntityId)>,
    /// `true` once every question of the open batch is answered — the
    /// session is ready for [`RempSession::next_batch`] again.
    pub batch_complete: bool,
}

/// Where one human-machine loop's stage-2/3 time went, and how much of
/// the graph it actually had to touch — the observability counterpart of
/// the incremental engine ([`RempSession::loop_stats`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoopStat {
    /// The loop whose batch this refresh prepared (0-based; equals the
    /// batch's `loop_index` when one was produced).
    pub loop_index: usize,
    /// Stage-2 counters and timings from the incremental engine.
    pub refresh: RefreshStats,
    /// Wall-clock of question scoring + selection for this loop.
    pub selection_s: f64,
}

impl LoopStat {
    /// Total stage-2 + selection wall-clock of this loop.
    pub fn total_s(&self) -> f64 {
        self.refresh.stage_total_s() + self.selection_s
    }

    /// Encodes the stat for reports (`rempd` campaign status).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("loop".into(), Json::from(self.loop_index)),
            ("full_rebuild".into(), Json::from(self.refresh.full_rebuild)),
            ("new_seeds".into(), Json::from(self.refresh.new_seeds)),
            ("dirty_labels".into(), Json::from(self.refresh.dirty_labels)),
            ("changed_labels".into(), Json::from(self.refresh.changed_labels)),
            ("dirty_vertices".into(), Json::from(self.refresh.dirty_vertices)),
            ("changed_vertices".into(), Json::from(self.refresh.changed_vertices)),
            ("dirty_components".into(), Json::from(self.refresh.dirty_components)),
            ("retired_components".into(), Json::from(self.refresh.retired_components)),
            ("recomputed_sources".into(), Json::from(self.refresh.recomputed_sources)),
            ("settled_vertices".into(), Json::from(self.refresh.settled_vertices)),
            ("cluster_searches".into(), Json::from(self.refresh.cluster_searches)),
            ("fallback_sources".into(), Json::from(self.refresh.fallback_sources)),
            ("consistency_s".into(), Json::from(self.refresh.consistency_s)),
            ("propagation_s".into(), Json::from(self.refresh.propagation_s)),
            ("inferred_s".into(), Json::from(self.refresh.inferred_s)),
            ("selection_s".into(), Json::from(self.selection_s)),
            ("total_s".into(), Json::from(self.total_s())),
        ])
    }
}

/// Bookkeeping for one question of the open batch.
#[derive(Clone, Debug)]
struct PendingQuestion {
    id: u64,
    pair: PairId,
    /// Prior at batch creation: the posterior's prior, regardless of
    /// what same-batch propagation did to the live prior since.
    prior: f64,
    /// Snapshot of this question's inferred set at batch creation, with
    /// each target's `Pr[m_p | m_q]` (the probabilities only reach the
    /// checkpoint; propagation reads the ids).
    inferred: Vec<(PairId, f64)>,
    answered: bool,
}

/// A paused, resumable run of the Remp pipeline (stages 2–4).
///
/// Create with [`Remp::begin`](crate::Remp::begin) /
/// [`Remp::begin_prepared`](crate::Remp::begin_prepared), drive with
/// [`next_batch`](Self::next_batch) / [`submit`](Self::submit), close
/// with [`finish`](Self::finish). The session borrows the two knowledge
/// bases; everything else it owns.
#[derive(Clone, Debug)]
pub struct RempSession<'a> {
    kb1: &'a Kb,
    kb2: &'a Kb,
    config: RempConfig,
    prep: PreparedEr,
    resolution: Vec<Resolution>,
    /// The incremental stage-2 engine; also owns the seed set.
    state: LoopState,
    /// Per-component question-selection cache.
    selector: ComponentSelector,
    /// Matches confirmed in the open batch, merged into the seeds at
    /// finalization (instead of rescanning all resolutions).
    batch_matches: Vec<PairId>,
    /// `false` forces a from-scratch stage-2 rebuild every loop — the
    /// benchmark baseline and a debugging escape hatch.
    incremental: bool,
    /// Assert incremental ≡ from-scratch every loop (see
    /// [`CHECK_INCREMENTAL_ENV`]).
    check_incremental: bool,
    loop_stats: Vec<LoopStat>,
    questions_asked: usize,
    loops: usize,
    drained: bool,
    pending: Vec<PendingQuestion>,
    next_question_id: u64,
}

/// Builds the read-only context the loop engine works against. A macro
/// instead of a method so the borrow stays field-precise: the session
/// mutates `state` and `selector` while the context borrows `prep`.
macro_rules! propagation_ctx {
    ($session:expr) => {
        PropagationContext {
            kb1: $session.kb1,
            kb2: $session.kb2,
            candidates: &$session.prep.candidates,
            graph: &$session.prep.graph,
            components: &$session.prep.components,
        }
    };
}

impl<'a> RempSession<'a> {
    pub(crate) fn new(
        kb1: &'a Kb,
        kb2: &'a Kb,
        config: RempConfig,
        prep: PreparedEr,
    ) -> RempSession<'a> {
        let n = prep.candidates.len();
        RempSession::with_state(kb1, kb2, config, prep, vec![Resolution::Unresolved; n], None)
    }

    /// Shared constructor behind [`new`](Self::new) and
    /// [`resume`](Self::resume): builds the incremental engine over the
    /// given resolutions, seeding from `seeds` (the stage-1 initial
    /// matches when `None`).
    fn with_state(
        kb1: &'a Kb,
        kb2: &'a Kb,
        config: RempConfig,
        prep: PreparedEr,
        resolution: Vec<Resolution>,
        seeds: Option<Vec<PairId>>,
    ) -> RempSession<'a> {
        let eligible: Vec<bool> = resolution
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                r == Resolution::Unresolved && !prep.graph.is_isolated_vertex(PairId::from_index(i))
            })
            .collect();
        let seeds = seeds.unwrap_or_else(|| prep.initial.clone());
        let ctx = PropagationContext {
            kb1,
            kb2,
            candidates: &prep.candidates,
            graph: &prep.graph,
            components: &prep.components,
        };
        let state = LoopState::new(&ctx, config.tau, config.propagation, &seeds, eligible);
        let selector = ComponentSelector::new(prep.components.len(), config.mu);
        RempSession {
            kb1,
            kb2,
            config,
            prep,
            resolution,
            state,
            selector,
            batch_matches: Vec::new(),
            incremental: true,
            check_incremental: false,
            loop_stats: Vec::new(),
            questions_asked: 0,
            loops: 0,
            drained: false,
            pending: Vec::new(),
            next_question_id: 0,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &RempConfig {
        &self.config
    }

    /// Questions asked so far (the paper's `#Q`).
    pub fn questions_asked(&self) -> usize {
        self.questions_asked
    }

    /// Completed human-machine loops so far (the paper's `#L`).
    pub fn loops(&self) -> usize {
        self.loops
    }

    /// Per-pair resolution state (parallel to the retained candidates).
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolution
    }

    /// `true` once no further batch can be produced: the loop converged,
    /// the budget ran out, or `max_loops` was hit.
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Per-loop stage-2/3 timings and dirty-region counters, one entry
    /// per [`next_batch`](Self::next_batch) call that ran propagation
    /// (including the terminating call). This is how `rempctl run` and
    /// `rempd` report where a campaign's compute time goes.
    pub fn loop_stats(&self) -> &[LoopStat] {
        &self.loop_stats
    }

    /// Switches between the incremental engine (default) and a
    /// from-scratch stage-2 rebuild every loop. The two produce
    /// bit-identical campaigns; the full mode exists as the reference
    /// the equivalence suites compare against and a debugging escape
    /// hatch.
    pub fn set_incremental(&mut self, incremental: bool) {
        self.incremental = incremental;
    }

    /// Makes every loop assert incremental ≡ from-scratch
    /// ([`LoopState::check_reference`]), like running under
    /// [`CHECK_INCREMENTAL_ENV`]`=1`. Expensive: for tests and debugging.
    pub fn set_check_incremental(&mut self, check: bool) {
        self.check_incremental = check;
    }

    /// The still-unanswered questions of the open batch.
    pub fn open_questions(&self) -> Vec<QuestionId> {
        self.pending.iter().filter(|p| !p.answered).map(|p| QuestionId(p.id)).collect()
    }

    /// Total questions issued over the session's lifetime; ids `0..n`
    /// have all been handed out (and all but the open batch answered).
    /// External drivers use this to tell "never existed" from "already
    /// answered" without mutating the session.
    pub fn issued_questions(&self) -> u64 {
        self.next_question_id
    }

    /// Full [`Question`] payloads for the still-unanswered questions of
    /// the open batch, in batch order.
    ///
    /// This is what a crowd-serving frontend needs to re-post questions
    /// after [`resume`](Self::resume): the checkpoint stores only raw
    /// pair ids, and this accessor rebuilds the display context from the
    /// knowledge bases.
    pub fn open_question_details(&self) -> Vec<Question> {
        self.pending
            .iter()
            .filter(|p| !p.answered)
            .map(|p| {
                let pair = self.prep.candidates.pair(p.pair);
                Question {
                    id: QuestionId(p.id),
                    pair,
                    prior: p.prior,
                    context: QuestionContext {
                        label1: self.kb1.label(pair.0).to_owned(),
                        label2: self.kb2.label(pair.1).to_owned(),
                        loop_index: self.loops,
                    },
                }
            })
            .collect()
    }

    /// Runs stages 2–3 and selects the next batch of questions.
    ///
    /// Stage 2 is *incremental*: the [`LoopState`] engine re-estimates
    /// only the labels whose seed support changed, rebuilds probabilistic
    /// edges only around changed consistencies and priors, and re-runs
    /// truncated Dijkstra only inside dirty components — with results
    /// bit-identical to a from-scratch rebuild
    /// ([`LoopState::rebuild_reference`]; set [`CHECK_INCREMENTAL_ENV`]
    /// to `1` to assert it every loop). Question selection is likewise
    /// cached per component and rescored only where a batch landed.
    ///
    /// Returns `Ok(None)` when the loop has terminated (the paper's
    /// stopping rule: no unresolved pair is propagation-reachable any
    /// more, the question budget is exhausted, or `max_loops` is hit) —
    /// call [`finish`](Self::finish) then. Errors with
    /// [`RempError::BatchOutstanding`] while the previous batch still
    /// has unanswered questions.
    pub fn next_batch(&mut self) -> Result<Option<Batch>, RempError> {
        let unanswered = self.pending.iter().filter(|p| !p.answered).count();
        if unanswered > 0 {
            return Err(RempError::BatchOutstanding { unanswered });
        }
        debug_assert!(self.pending.is_empty(), "answered batches are finalized eagerly");
        if self.drained {
            return Ok(None);
        }
        if self.loops >= self.config.max_loops {
            self.drained = true;
            return Ok(None);
        }

        // Stage 2: relational match propagation over the changed region,
        // scheduled across the configured worker pool (results are
        // identical in every parallelism mode).
        let par = self.config.parallelism;
        let ctx = propagation_ctx!(self);
        let outcome = if self.incremental {
            self.state.refresh(&ctx, &par)
        } else {
            self.state.refresh_full(&ctx, &par)
        };
        if self.check_incremental
            || std::env::var(CHECK_INCREMENTAL_ENV).is_ok_and(|v| v.trim() == "1")
        {
            if let Err(divergence) = self.state.check_reference(&ctx, &par) {
                panic!(
                    "incremental propagation diverged from the from-scratch reference \
                     at loop {}: {divergence}",
                    self.loops
                );
            }
        }

        // Stage 3: multiple questions selection, rescored only in the
        // components the last batch touched. Isolated vertices are never
        // eligible — the classifier handles them (§VII-B).
        let selection_started = Instant::now();
        // One Instant feeds both the `loop_stats` JSON and the
        // `remp_stage_seconds{stage="selection"}` histogram — the two
        // surfaces can never drift apart.
        let record = |started: Instant| {
            let selection_s = started.elapsed().as_secs_f64();
            remp_obs::record_stage("selection", started, selection_s);
            LoopStat { loop_index: self.loops, refresh: outcome.stats, selection_s }
        };
        // An exhausted question budget drains the session no matter what
        // is still reachable — check it before paying for a scoring pass.
        let remaining = self
            .config
            .max_questions
            .map(|b| b.saturating_sub(self.questions_asked))
            .unwrap_or(usize::MAX);
        let mu = self.config.mu.min(remaining);
        if mu == 0 {
            let stat = record(selection_started);
            self.loop_stats.push(stat);
            self.drained = true;
            return Ok(None);
        }
        if outcome.stats.full_rebuild {
            self.selector.invalidate_all();
        }
        for &c in &outcome.selection_dirty {
            self.selector.invalidate(c);
        }
        self.selector.refresh(
            self.config.strategy,
            &self.prep.components,
            self.state.inferred(),
            self.prep.candidates.priors(),
            self.state.eligible(),
            self.state.retired(),
            &par,
        );
        // The paper stops "when there is no unresolved entity pair that
        // can be inferred by relational match propagation": as long as
        // some unresolved pair is reachable from another, the loop
        // continues; once nothing is reachable any more, remaining pairs
        // go to the classifier instead of the crowd.
        if !self.selector.any_reachable() {
            let stat = record(selection_started);
            self.loop_stats.push(stat);
            self.drained = true;
            return Ok(None);
        }
        let selected = self.selector.select(mu);
        // The inferred sets keep pair ids only; each issued question's
        // snapshot also carries the probabilities, computed here for
        // the ≤ µ selected questions and timed as part of selection.
        let snapshots: Vec<Vec<(PairId, f64)>> =
            selected.iter().map(|&q| self.state.inferred_probabilities(&ctx, q)).collect();
        let stat = record(selection_started);
        self.loop_stats.push(stat);
        if selected.is_empty() {
            // No unresolved pair can be inferred any more.
            self.drained = true;
            return Ok(None);
        }

        let loop_index = self.loops;
        let candidates = &self.prep.candidates;
        let questions = selected
            .into_iter()
            .zip(snapshots)
            .map(|(q, inferred)| {
                let id = self.next_question_id;
                self.next_question_id += 1;
                let pair = candidates.pair(q);
                let prior = candidates.prior(q);
                self.pending.push(PendingQuestion {
                    id,
                    pair: q,
                    prior,
                    inferred,
                    answered: false,
                });
                Question {
                    id: QuestionId(id),
                    pair,
                    prior,
                    context: QuestionContext {
                        label1: self.kb1.label(pair.0).to_owned(),
                        label2: self.kb2.label(pair.1).to_owned(),
                        loop_index,
                    },
                }
            })
            .collect::<Vec<Question>>();
        if remp_obs::enabled() {
            remp_obs::global()
                .counter(
                    remp_obs::names::QUESTIONS_ASKED_TOTAL,
                    "Questions issued to the crowd.",
                    &[],
                )
                .add(questions.len() as u64);
            remp_obs::event(remp_obs::Level::Info, "session", None, || {
                (
                    "batch selected".to_owned(),
                    vec![
                        ("loop", Json::from(loop_index)),
                        ("questions", Json::from(questions.len())),
                    ],
                )
            });
        }
        Ok(Some(Batch { loop_index, questions }))
    }

    /// Ingests the crowd's labels for one question of the open batch.
    ///
    /// Runs Eq. 17 truth inference against the prior snapshotted at batch
    /// creation, updates the pair's resolution, and — on a match verdict —
    /// immediately propagates to the question's inferred set (Eq. 11).
    /// Answers may arrive in any order; once the last one lands the batch
    /// is folded into the seeds and [`next_batch`](Self::next_batch)
    /// becomes available again.
    pub fn submit(
        &mut self,
        id: QuestionId,
        labels: Vec<Label>,
    ) -> Result<SubmitOutcome, RempError> {
        let Some(idx) = self.pending.iter().position(|p| p.id == id.0) else {
            // Ids are issued densely, so anything below the counter was a
            // real question whose batch has been finalized — a duplicate
            // submit, not an unknown id. External drivers (e.g. an HTTP
            // server mapping this to 409 vs 404) rely on the distinction.
            return Err(if id.0 < self.next_question_id {
                RempError::AlreadyAnswered(id)
            } else {
                RempError::UnknownQuestion(id)
            });
        };
        if self.pending[idx].answered {
            return Err(RempError::AlreadyAnswered(id));
        }
        if labels.is_empty() {
            return Err(RempError::EmptyLabels(id));
        }
        // Truth inference + same-batch propagation, under the "submit"
        // stage label of the shared stage histogram.
        let _span = remp_obs::Span::enter("submit");
        if remp_obs::enabled() {
            remp_obs::global()
                .counter(
                    remp_obs::names::ANSWERS_SUBMITTED_TOTAL,
                    "Crowd answers ingested by sessions.",
                    &[],
                )
                .inc();
        }

        let q = self.pending[idx].pair;
        let snapshot_prior = self.pending[idx].prior;
        self.questions_asked += 1;
        let (verdict, posterior) = infer_truth(snapshot_prior, &labels, &self.config.truth);
        let mut propagated = Vec::new();
        match verdict {
            Verdict::Match => {
                // The crowd verdict overrides a same-batch propagation
                // mark, as in the synchronous loop where all verdicts
                // land before any propagation.
                self.resolution[q.index()] = Resolution::Match(MatchSource::Crowd);
                self.prep.candidates.set_prior(q, 1.0);
                self.state.note_prior_changed(q);
                self.state.note_resolved(q);
                self.batch_matches.push(q);
                for i in 0..self.pending[idx].inferred.len() {
                    let p = self.pending[idx].inferred[i].0;
                    if self.resolution[p.index()] == Resolution::Unresolved {
                        self.resolution[p.index()] = Resolution::Match(MatchSource::Inferred);
                        self.prep.candidates.set_prior(p, 1.0);
                        self.state.note_prior_changed(p);
                        self.state.note_resolved(p);
                        self.batch_matches.push(p);
                        propagated.push(self.prep.candidates.pair(p));
                    }
                }
            }
            Verdict::NonMatch => {
                self.resolution[q.index()] = Resolution::NonMatch;
                self.prep.candidates.set_prior(q, 0.0);
                self.state.note_prior_changed(q);
                self.state.note_resolved(q);
            }
            Verdict::Inconsistent => {
                // Hard question: lower its benefit via the prior — unless
                // same-batch propagation already resolved it (then the
                // synchronous loop would also have kept that resolution).
                if self.resolution[q.index()] == Resolution::Unresolved {
                    self.prep.candidates.set_prior(q, posterior);
                    self.state.note_prior_changed(q);
                }
            }
        }
        self.pending[idx].answered = true;

        let batch_complete = self.pending.iter().all(|p| p.answered);
        if batch_complete {
            self.finalize_batch();
        }
        Ok(SubmitOutcome { verdict, posterior, propagated, batch_complete })
    }

    /// Folds a fully answered batch into the loop state: the matches this
    /// batch confirmed (tracked as they landed — no rescan of all n
    /// pairs) are merged into the already-sorted seed set, and the loop
    /// counter advances.
    fn finalize_batch(&mut self) {
        let _span = remp_obs::Span::enter("finalize");
        let mut fresh = std::mem::take(&mut self.batch_matches);
        // A same-batch crowd NonMatch overrides an earlier propagation
        // mark (as in the synchronous loop); only pairs still resolved
        // as matches may seed future propagation.
        fresh.retain(|&p| matches!(self.resolution[p.index()], Resolution::Match(_)));
        self.state.apply_seeds(&fresh);
        self.loops += 1;
        self.pending.clear();
    }

    /// Drains the session against a [`LabelSource`]: posts every batch,
    /// answers each question from `crowd` (whose workers see the hidden
    /// `truth`), and submits the labels — the adapter that keeps the
    /// simulated-crowd path [`Remp::run`](crate::Remp::run) alive on top
    /// of the session API.
    pub fn drive(
        &mut self,
        truth: &dyn Fn(EntityId, EntityId) -> bool,
        crowd: &mut dyn LabelSource,
    ) -> Result<(), RempError> {
        while let Some(batch) = self.next_batch()? {
            for q in &batch.questions {
                let labels = crowd.label(truth(q.pair.0, q.pair.1));
                self.submit(q.id, labels)?;
            }
        }
        Ok(())
    }

    /// Closes the session: classifies the remaining isolated pairs
    /// (§VII-B, if enabled) and returns the final [`RempOutcome`].
    ///
    /// May be called at any point — also before the loop converges, in
    /// which case still-open questions simply stay unresolved.
    pub fn finish(mut self) -> RempOutcome {
        let resolution = std::mem::take(&mut self.resolution);
        self.outcome_from(resolution)
    }

    /// The outcome [`finish`](Self::finish) would return now, without
    /// consuming the session: only the resolutions are copied, so a
    /// server can report a mid-flight campaign without cloning it.
    pub fn outcome(&self) -> RempOutcome {
        self.outcome_from(self.resolution.clone())
    }

    fn outcome_from(&self, mut resolution: Vec<Resolution>) -> RempOutcome {
        if self.config.classify_isolated {
            let predicted = classify_isolated(
                self.kb1,
                self.kb2,
                &self.prep.candidates,
                &self.prep.graph,
                &self.prep.sim_vectors,
                &self.prep.alignment,
                &resolution,
                &self.config,
            );
            for p in predicted {
                if resolution[p.index()] == Resolution::Unresolved {
                    resolution[p.index()] = Resolution::Match(MatchSource::Classifier);
                }
            }
        }

        let n = self.prep.candidates.len();
        let matches: Vec<(EntityId, EntityId)> = (0..n)
            .filter(|&i| matches!(resolution[i], Resolution::Match(_)))
            .map(|i| self.prep.candidates.pair(PairId::from_index(i)))
            .collect();

        RempOutcome {
            matches,
            resolutions: resolution,
            questions_asked: self.questions_asked,
            loops: self.loops,
            candidate_count: self.prep.candidate_count,
            retained_count: n,
            edge_count: self.prep.graph.num_edges(),
        }
    }

    /// Serializes the session's dynamic state for later
    /// [`resume`](Self::resume).
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            config: self.config.clone(),
            kb1_fingerprint: KbFingerprint::of(self.kb1),
            kb2_fingerprint: KbFingerprint::of(self.kb2),
            resolutions: self.resolution.clone(),
            priors: self.prep.candidates.priors().to_vec(),
            seeds: self.state.seeds().iter().map(|p| p.0).collect(),
            questions_asked: self.questions_asked,
            loops: self.loops,
            drained: self.drained,
            next_question_id: self.next_question_id,
            pending: self
                .pending
                .iter()
                .map(|p| PendingCheckpoint {
                    id: p.id,
                    pair: p.pair.0,
                    prior: p.prior,
                    answered: p.answered,
                    inferred: p.inferred.iter().map(|&(t, pr)| (t.0, pr)).collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a session from a checkpoint and the *original* knowledge
    /// bases. Stage 1 is re-run deterministically from the checkpointed
    /// configuration; the checkpoint carries only the dynamic state.
    pub fn resume(
        kb1: &'a Kb,
        kb2: &'a Kb,
        checkpoint: SessionCheckpoint,
    ) -> Result<RempSession<'a>, RempError> {
        checkpoint.config.validate()?;
        KbFingerprint::of(kb1).check("kb1", &checkpoint.kb1_fingerprint)?;
        KbFingerprint::of(kb2).check("kb2", &checkpoint.kb2_fingerprint)?;
        let mut prep = prepare(kb1, kb2, &checkpoint.config);
        let n = prep.candidates.len();
        if n != checkpoint.resolutions.len() || n != checkpoint.priors.len() {
            return Err(RempError::CheckpointMismatch(format!(
                "stage 1 produced {n} retained pairs but the checkpoint has {} resolutions / {} priors",
                checkpoint.resolutions.len(),
                checkpoint.priors.len()
            )));
        }
        let valid_pair = |raw: u32| (raw as usize) < n;
        if !checkpoint.seeds.iter().copied().all(valid_pair)
            || !checkpoint
                .pending
                .iter()
                .all(|p| valid_pair(p.pair) && p.inferred.iter().all(|&(t, _)| valid_pair(t)))
        {
            return Err(RempError::CheckpointMismatch(
                "checkpoint references pair ids outside the retained set".into(),
            ));
        }
        let valid_prior = |p: f64| (0.0..=1.0).contains(&p);
        if !checkpoint.priors.iter().copied().all(valid_prior)
            || !checkpoint.pending.iter().all(|p| valid_prior(p.prior))
        {
            return Err(RempError::CheckpointMismatch(
                "checkpoint contains priors outside [0, 1]".into(),
            ));
        }
        if !checkpoint.pending.is_empty() && checkpoint.pending.iter().all(|p| p.answered) {
            // A live session finalizes a batch the moment its last answer
            // lands, so this state is only reachable through tampering.
            return Err(RempError::MalformedCheckpoint(
                "pending batch is fully answered but was never finalized".into(),
            ));
        }
        for (i, &prior) in checkpoint.priors.iter().enumerate() {
            prep.candidates.set_prior(PairId::from_index(i), prior);
        }
        let mut session = RempSession::with_state(
            kb1,
            kb2,
            checkpoint.config,
            prep,
            checkpoint.resolutions,
            Some(checkpoint.seeds.into_iter().map(PairId).collect()),
        );
        session.questions_asked = checkpoint.questions_asked;
        session.loops = checkpoint.loops;
        session.drained = checkpoint.drained;
        session.pending = checkpoint
            .pending
            .into_iter()
            .map(|p| PendingQuestion {
                id: p.id,
                pair: PairId(p.pair),
                prior: p.prior,
                inferred: p.inferred.into_iter().map(|(t, pr)| (PairId(t), pr)).collect(),
                answered: p.answered,
            })
            .collect();
        session.next_question_id = checkpoint.next_question_id;
        // Matches confirmed by already-answered questions of the open
        // batch are not folded into the seeds until the batch finalizes;
        // reconstruct them so finalization after resume merges exactly
        // what an uninterrupted session would have (pairs already seeded
        // are filtered out by the merge).
        session.batch_matches = session
            .resolution
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Resolution::Match(_)))
            .map(|(i, _)| PairId::from_index(i))
            .collect();
        Ok(session)
    }
}

/// Shape summary guarding against resuming with the wrong KBs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KbFingerprint {
    /// KB name.
    pub name: String,
    /// Entity count.
    pub entities: usize,
    /// Attribute-triple count.
    pub attr_triples: usize,
    /// Relationship-triple count.
    pub rel_triples: usize,
}

impl KbFingerprint {
    fn of(kb: &Kb) -> KbFingerprint {
        KbFingerprint {
            name: kb.name().to_owned(),
            entities: kb.num_entities(),
            attr_triples: kb.num_attr_triples(),
            rel_triples: kb.num_rel_triples(),
        }
    }

    fn check(&self, side: &str, expected: &KbFingerprint) -> Result<(), RempError> {
        if self != expected {
            return Err(RempError::CheckpointMismatch(format!(
                "{side} does not match the checkpointed knowledge base: got {self:?}, checkpoint has {expected:?}"
            )));
        }
        Ok(())
    }
}

/// One pending question as stored in a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingCheckpoint {
    /// Question id.
    pub id: u64,
    /// Raw retained pair id.
    pub pair: u32,
    /// Prior snapshot at batch creation.
    pub prior: f64,
    /// Whether the answer already landed.
    pub answered: bool,
    /// Snapshot of the inferred set: `(raw pair id, probability)`.
    pub inferred: Vec<(u32, f64)>,
}

/// A serialized session: everything [`RempSession::resume`] needs beyond
/// the knowledge bases themselves.
///
/// Serialization is a stable, versioned JSON document produced by
/// [`to_json_string`](Self::to_json_string) — the environment this
/// reproduction builds in has no crates.io access, so the format is
/// implemented on the dependency-free `remp-json` crate rather than
/// serde, with the same shape a serde derive would emit.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCheckpoint {
    /// Full pipeline configuration (stage 1 is re-run from it).
    pub config: RempConfig,
    /// Shape of the left knowledge base.
    pub kb1_fingerprint: KbFingerprint,
    /// Shape of the right knowledge base.
    pub kb2_fingerprint: KbFingerprint,
    /// Per-retained-pair resolution state.
    pub resolutions: Vec<Resolution>,
    /// Per-retained-pair live match probability.
    pub priors: Vec<f64>,
    /// Current propagation seeds (raw pair ids).
    pub seeds: Vec<u32>,
    /// Questions asked so far.
    pub questions_asked: usize,
    /// Completed loops so far.
    pub loops: usize,
    /// Whether the loop already terminated.
    pub drained: bool,
    /// Next fresh question id.
    pub next_question_id: u64,
    /// The open batch, if any.
    pub pending: Vec<PendingCheckpoint>,
}

/// Checkpoint format version written by this build.
pub const CHECKPOINT_VERSION: u64 = 1;

fn fingerprint_json(fp: &KbFingerprint) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::from(fp.name.as_str())),
        ("entities".into(), Json::from(fp.entities)),
        ("attr_triples".into(), Json::from(fp.attr_triples)),
        ("rel_triples".into(), Json::from(fp.rel_triples)),
    ])
}

fn fingerprint_from_json(doc: &Json) -> Result<KbFingerprint, RempError> {
    Ok(KbFingerprint {
        name: get_str(doc, "name")?.to_owned(),
        entities: get_usize(doc, "entities")?,
        attr_triples: get_usize(doc, "attr_triples")?,
        rel_triples: get_usize(doc, "rel_triples")?,
    })
}

impl SessionCheckpoint {
    /// Encodes the checkpoint as a JSON value.
    pub fn to_json(&self) -> Json {
        let resolutions: String = self.resolutions.iter().map(|r| r.code()).collect();
        Json::Obj(vec![
            ("version".into(), Json::UInt(CHECKPOINT_VERSION)),
            ("config".into(), self.config.to_json()),
            ("kb1".into(), fingerprint_json(&self.kb1_fingerprint)),
            ("kb2".into(), fingerprint_json(&self.kb2_fingerprint)),
            ("resolutions".into(), Json::Str(resolutions)),
            ("priors".into(), self.priors.iter().copied().collect()),
            ("seeds".into(), self.seeds.iter().copied().collect()),
            ("questions_asked".into(), Json::from(self.questions_asked)),
            ("loops".into(), Json::from(self.loops)),
            ("drained".into(), Json::from(self.drained)),
            ("next_question_id".into(), Json::from(self.next_question_id)),
            (
                "pending".into(),
                Json::Arr(
                    self.pending
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("id".into(), Json::from(p.id)),
                                ("pair".into(), Json::from(p.pair)),
                                ("prior".into(), Json::from(p.prior)),
                                ("answered".into(), Json::from(p.answered)),
                                (
                                    "inferred".into(),
                                    Json::Arr(
                                        p.inferred
                                            .iter()
                                            .map(|&(t, pr)| {
                                                Json::Arr(vec![Json::from(t), Json::from(pr)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Encodes the checkpoint as a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Encodes the checkpoint as indented JSON — the form to use for
    /// files an operator may need to inspect; decodes identically to
    /// [`to_json_string`](Self::to_json_string).
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Decodes a checkpoint from a JSON value.
    pub fn from_json(doc: &Json) -> Result<SessionCheckpoint, RempError> {
        let version = get_u64(doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(malformed(format!(
                "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let resolutions = get_str(doc, "resolutions")?
            .chars()
            .map(|c| {
                Resolution::from_code(c)
                    .ok_or_else(|| malformed(format!("bad resolution code '{c}'")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let priors = get(doc, "priors")?
            .as_array()
            .ok_or_else(|| malformed("field 'priors' is not an array"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| malformed("non-numeric prior")))
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = get(doc, "seeds")?
            .as_array()
            .ok_or_else(|| malformed("field 'seeds' is not an array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| malformed("bad seed id"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pending = get(doc, "pending")?
            .as_array()
            .ok_or_else(|| malformed("field 'pending' is not an array"))?
            .iter()
            .map(|p| {
                let inferred = get(p, "inferred")?
                    .as_array()
                    .ok_or_else(|| malformed("field 'inferred' is not an array"))?
                    .iter()
                    .map(|entry| {
                        let parts =
                            entry.as_array().ok_or_else(|| malformed("bad inferred entry"))?;
                        match parts {
                            [t, pr] => Ok((
                                t.as_u64()
                                    .and_then(|n| u32::try_from(n).ok())
                                    .ok_or_else(|| malformed("bad inferred target"))?,
                                pr.as_f64().ok_or_else(|| malformed("bad inferred probability"))?,
                            )),
                            _ => Err(malformed("inferred entry is not a pair")),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(PendingCheckpoint {
                    id: get_u64(p, "id")?,
                    pair: u32::try_from(get_u64(p, "pair")?)
                        .map_err(|_| malformed("bad pending pair id"))?,
                    prior: get_f64(p, "prior")?,
                    answered: get_bool(p, "answered")?,
                    inferred,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SessionCheckpoint {
            config: RempConfig::from_json(get(doc, "config")?)?,
            kb1_fingerprint: fingerprint_from_json(get(doc, "kb1")?)?,
            kb2_fingerprint: fingerprint_from_json(get(doc, "kb2")?)?,
            resolutions,
            priors,
            seeds,
            questions_asked: get_usize(doc, "questions_asked")?,
            loops: get_usize(doc, "loops")?,
            drained: get_bool(doc, "drained")?,
            next_question_id: get_u64(doc, "next_question_id")?,
            pending,
        })
    }

    /// Decodes a checkpoint from a JSON string.
    pub fn from_json_str(text: &str) -> Result<SessionCheckpoint, RempError> {
        let doc = Json::parse(text).map_err(|e| malformed(e.to_string()))?;
        SessionCheckpoint::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Remp;
    use remp_crowd::{OracleCrowd, SimulatedCrowd};
    use remp_datasets::{dblp_acm, generate, iimb, imdb_yago, GeneratedDataset};
    use remp_propagation::inferred_probabilities;

    fn oracle_labels(is_match: bool) -> Vec<Label> {
        vec![Label::new(0.999, is_match)]
    }

    #[test]
    fn session_walks_the_loop_by_hand() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();

        let mut batches = 0usize;
        let mut questions = 0usize;
        while let Some(batch) = session.next_batch().unwrap() {
            assert_eq!(batch.loop_index, batches);
            assert!(!batch.questions.is_empty());
            assert!(batch.questions.len() <= session.config().mu);
            batches += 1;
            for q in &batch.questions {
                assert_eq!(q.context.label1, d.kb1.label(q.pair.0));
                assert_eq!(q.context.loop_index, batch.loop_index);
                assert!((0.0..=1.0).contains(&q.prior));
                questions += 1;
                let outcome =
                    session.submit(q.id, oracle_labels(d.is_match(q.pair.0, q.pair.1))).unwrap();
                assert!((0.0..=1.0).contains(&outcome.posterior));
            }
        }
        assert!(session.is_drained());
        assert_eq!(session.questions_asked(), questions);
        assert_eq!(session.loops(), batches);
        let outcome = session.finish();
        assert_eq!(outcome.questions_asked, questions);
        assert!(!outcome.matches.is_empty());
    }

    #[test]
    fn outcome_by_reference_equals_finish_at_every_loop() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        assert!(session.config().classify_isolated, "the classifier path must be covered");
        assert_eq!(session.outcome(), session.clone().finish(), "before the first batch");
        while let Some(batch) = session.next_batch().unwrap() {
            let (first, rest) = batch.questions.split_first().unwrap();
            session
                .submit(first.id, oracle_labels(d.is_match(first.pair.0, first.pair.1)))
                .unwrap();
            assert_eq!(session.outcome(), session.clone().finish(), "mid-batch");
            for q in rest {
                session.submit(q.id, oracle_labels(d.is_match(q.pair.0, q.pair.1))).unwrap();
            }
        }
        let by_reference = session.outcome();
        assert_eq!(by_reference, session.finish(), "after the loop drained");
    }

    #[test]
    fn submit_rejects_bad_input() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let batch = session.next_batch().unwrap().expect("IIMB produces at least one batch");
        let q = batch.questions[0].id;

        assert_eq!(
            session.submit(QuestionId(u64::MAX), oracle_labels(true)),
            Err(RempError::UnknownQuestion(QuestionId(u64::MAX)))
        );
        assert_eq!(session.submit(q, Vec::new()), Err(RempError::EmptyLabels(q)));
        session.submit(q, oracle_labels(true)).unwrap();
        assert_eq!(session.submit(q, oracle_labels(true)), Err(RempError::AlreadyAnswered(q)));
    }

    #[test]
    fn question_id_round_trips_display_form() {
        for id in [QuestionId(0), QuestionId(7), QuestionId(u64::MAX)] {
            let text = id.to_string();
            assert_eq!(text.parse::<QuestionId>(), Ok(id), "{text}");
        }
        for bad in ["", "q", "7", "q-1", "q07", "q1x", "x1", "q18446744073709551616"] {
            assert!(bad.parse::<QuestionId>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn resubmitting_a_finalized_question_is_already_answered() {
        // Regression: a duplicate submit for a question whose batch was
        // already finalized used to surface as UnknownQuestion, which an
        // HTTP frontend would wrongly map to 404 instead of 409.
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let first = session.next_batch().unwrap().unwrap();
        for q in &first.questions {
            session.submit(q.id, oracle_labels(d.is_match(q.pair.0, q.pair.1))).unwrap();
        }
        // The batch is finalized; its ids are gone from the pending set.
        let old = first.questions[0].id;
        assert_eq!(
            session.submit(old, oracle_labels(true)),
            Err(RempError::AlreadyAnswered(old)),
            "finalized questions are duplicates, not unknowns"
        );
        // Ids never handed out stay unknown.
        let fresh = QuestionId(session.issued_questions());
        assert_eq!(
            session.submit(fresh, oracle_labels(true)),
            Err(RempError::UnknownQuestion(fresh))
        );
    }

    #[test]
    fn open_question_details_mirror_the_batch() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let batch = session.next_batch().unwrap().unwrap();
        assert_eq!(session.open_question_details(), batch.questions);
        session.submit(batch.questions[0].id, oracle_labels(true)).unwrap();
        assert_eq!(session.open_question_details(), batch.questions[1..].to_vec());
        assert_eq!(session.issued_questions(), batch.questions.len() as u64);
    }

    #[test]
    fn next_batch_requires_all_answers() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let batch = session.next_batch().unwrap().unwrap();
        assert!(batch.questions.len() > 1, "default µ should select several questions");
        session.submit(batch.questions[0].id, oracle_labels(true)).unwrap();
        let err = session.next_batch().unwrap_err();
        assert_eq!(err, RempError::BatchOutstanding { unanswered: batch.questions.len() - 1 });
        assert_eq!(session.open_questions().len(), batch.questions.len() - 1);
    }

    #[test]
    fn same_batch_non_match_override_never_seeds() {
        // Regression: a pair propagated to Match(Inferred) early in a
        // batch whose own later answer comes back NonMatch is overridden
        // (the crowd wins) — and must NOT be folded into the propagation
        // seeds at finalization, exactly as the old rescan-by-resolution
        // finalize behaved.
        use std::collections::HashSet;
        let d = generate(&iimb(0.25));
        // MaxPr packs same-component questions into one batch (Benefit
        // deliberately scatters), making the override scenario routine.
        let config =
            RempConfig::default().with_strategy(remp_selection::BatchStrategy::MaxPr).with_mu(20);
        let remp = Remp::new(config);
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut overridden = 0usize;
        while let Some(batch) = session.next_batch().unwrap() {
            let mut propagated: HashSet<(remp_kb::EntityId, remp_kb::EntityId)> = HashSet::new();
            for (i, q) in batch.questions.iter().enumerate() {
                // First question of each batch: match; the rest: non-match.
                let says_match = i == 0;
                if !says_match && propagated.contains(&q.pair) {
                    overridden += 1;
                }
                let outcome = session.submit(q.id, oracle_labels(says_match)).unwrap();
                propagated.extend(outcome.propagated.iter().copied());
            }
        }
        assert!(overridden > 0, "scenario must trigger at least one same-batch override");

        let checkpoint = session.checkpoint();
        let initial: HashSet<u32> =
            prepare(&d.kb1, &d.kb2, session.config()).initial.iter().map(|p| p.0).collect();
        for &s in &checkpoint.seeds {
            let still_match = matches!(checkpoint.resolutions[s as usize], Resolution::Match(_));
            assert!(
                still_match || initial.contains(&s),
                "pair p{s} is a seed but is neither an initial match nor resolved as a match"
            );
        }
    }

    #[test]
    fn out_of_order_submission_matches_in_order() {
        let d = generate(&iimb(0.25));
        let remp = Remp::default();
        let drive = |reverse: bool| {
            let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
            while let Some(batch) = session.next_batch().unwrap() {
                let mut questions = batch.questions;
                if reverse {
                    questions.reverse();
                }
                for q in &questions {
                    session.submit(q.id, oracle_labels(d.is_match(q.pair.0, q.pair.1))).unwrap();
                }
            }
            session.finish()
        };
        let forward = drive(false);
        let backward = drive(true);
        assert_eq!(forward, backward);
    }

    #[test]
    fn early_finish_is_allowed() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let batch = session.next_batch().unwrap().unwrap();
        // Answer only the first question, then walk away mid-batch.
        session.submit(batch.questions[0].id, oracle_labels(true)).unwrap();
        let outcome = session.finish();
        assert_eq!(outcome.questions_asked, 1);
        assert_eq!(outcome.loops, 0, "incomplete batches do not count as loops");
    }

    #[test]
    fn drive_equals_run() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut crowd = OracleCrowd::new();
        session.drive(&|a, b| d.is_match(a, b), &mut crowd).unwrap();
        let via_session = session.finish();
        let mut crowd = OracleCrowd::new();
        let via_run = remp.run(&d.kb1, &d.kb2, &|a, b| d.is_match(a, b), &mut crowd);
        assert_eq!(via_session, via_run);
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        // Leave a half-answered batch open so the pending state is
        // exercised too.
        let batch = session.next_batch().unwrap().unwrap();
        session.submit(batch.questions[0].id, oracle_labels(true)).unwrap();

        let checkpoint = session.checkpoint();
        let text = checkpoint.to_json_string();
        let decoded = SessionCheckpoint::from_json_str(&text).unwrap();
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn resume_rejects_wrong_kbs() {
        let d = generate(&iimb(0.2));
        let other = generate(&iimb(0.3));
        let remp = Remp::default();
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let checkpoint = session.checkpoint();
        let err = RempSession::resume(&other.kb1, &other.kb2, checkpoint).unwrap_err();
        assert!(matches!(err, RempError::CheckpointMismatch(_)), "{err}");
    }

    #[test]
    fn resume_rejects_out_of_range_priors() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut checkpoint = session.checkpoint();
        checkpoint.priors[0] = 5.0;
        let err = RempSession::resume(&d.kb1, &d.kb2, checkpoint).unwrap_err();
        assert!(matches!(err, RempError::CheckpointMismatch(_)), "{err}");
    }

    #[test]
    fn resume_rejects_unfinalized_answered_batch() {
        let d = generate(&iimb(0.2));
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let batch = session.next_batch().unwrap().unwrap();
        session.submit(batch.questions[0].id, oracle_labels(true)).unwrap();
        let mut checkpoint = session.checkpoint();
        // Forge the state a live session can never write: every pending
        // question answered but the batch not folded into the seeds.
        for p in &mut checkpoint.pending {
            p.answered = true;
        }
        let err = RempSession::resume(&d.kb1, &d.kb2, checkpoint).unwrap_err();
        assert!(matches!(err, RempError::MalformedCheckpoint(_)), "{err}");
    }

    #[test]
    fn malformed_checkpoints_are_reported() {
        assert!(matches!(
            SessionCheckpoint::from_json_str("not json"),
            Err(RempError::MalformedCheckpoint(_))
        ));
        assert!(matches!(
            SessionCheckpoint::from_json_str("{\"version\": 99}"),
            Err(RempError::MalformedCheckpoint(_))
        ));
    }

    /// Drives a default-config campaign on `d` with a seeded simulated
    /// crowd, calling `check` after every `next_batch` (each runs one
    /// propagation refresh), the terminating call included.
    fn drive_seeded(d: &GeneratedDataset, seed: u64, mut check: impl FnMut(&RempSession<'_>)) {
        let remp = Remp::default();
        let mut session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut crowd = SimulatedCrowd::paper_default(seed);
        while let Some(batch) = session.next_batch().unwrap() {
            check(&session);
            for q in &batch.questions {
                session.submit(q.id, crowd.label(d.is_match(q.pair.0, q.pair.1))).unwrap();
            }
        }
        check(&session);
    }

    /// I-Y, D-A and IIMB at small scale: the presets the propagation
    /// workloads run, shrunk to test size.
    fn small_presets() -> [(&'static str, GeneratedDataset); 3] {
        [
            ("I-Y", generate(&imdb_yago(0.2))),
            ("D-A", generate(&dblp_acm(0.3))),
            ("IIMB", generate(&iimb(0.4))),
        ]
    }

    #[test]
    fn pending_probabilities_equal_the_textbook_kernel() {
        // FNV-1a over every pending question's (id, pair, inferred
        // entries as (target, f64 bits)), per preset; the pins were
        // recorded when the inferred sets still stored the probabilities
        // themselves, so the snapshots (and the checkpoint and WAL bytes
        // made from them) are unchanged by keeping ids only.
        const PINS: [(&str, u64); 3] = [
            ("I-Y", 0x6c41_200b_cfc7_efe1),
            ("D-A", 0x688b_2f1d_77cd_d605),
            ("IIMB", 0xd9cc_9cdd_4edc_d7e1),
        ];
        let bits = |row: &[(PairId, f64)]| -> Vec<(PairId, u64)> {
            row.iter().map(|&(p, pr)| (p, pr.to_bits())).collect()
        };
        for ((name, d), (pin_name, pin)) in small_presets().iter().zip(PINS) {
            assert_eq!(*name, pin_name);
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut fold = |x: u64| {
                for b in x.to_le_bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            };
            let mut questions = 0;
            drive_seeded(d, 7, |session| {
                let tau = session.config.tau;
                for p in &session.pending {
                    let want = inferred_probabilities(session.state.prob_graph(), tau, p.pair);
                    assert_eq!(bits(&p.inferred), bits(&want), "{name}: question q{}", p.id);
                    fold(p.id);
                    fold(u64::from(p.pair.0));
                    for &(t, pr) in &p.inferred {
                        fold(u64::from(t.0));
                        fold(pr.to_bits());
                    }
                    questions += 1;
                }
            });
            assert!(questions > 0, "{name}: the campaign must issue questions");
            assert_eq!(digest, pin, "{name}: pending-question digest moved");
        }
    }

    #[test]
    fn only_eligible_sources_keep_inferred_rows() {
        for (name, d) in &small_presets() {
            drive_seeded(d, 7, |session| {
                let inferred = session.state.inferred();
                let mut live = 0;
                for (i, &eligible) in session.state.eligible().iter().enumerate() {
                    let q = PairId::from_index(i);
                    let row = inferred.inferred(q);
                    if eligible {
                        assert!(row.binary_search(&q).is_ok(), "{name}: {q:?} lost its own entry");
                        live += row.len();
                    } else {
                        assert!(
                            row.is_empty(),
                            "{name}: resolved {q:?} keeps {} entries",
                            row.len()
                        );
                    }
                }
                assert_eq!(inferred.total_size(), live, "{name}: entry count drifted");
            });
        }
    }
}
