//! The campaign engine: leases, answer aggregation and online worker
//! quality, wrapped around one [`RempSession`].
//!
//! This is the HIT-management layer of crowdsourced ER (CrowdER's and
//! Wang et al.'s operational core) rebuilt on the session API:
//!
//! * **Assignment.** Every open question is leased to up to
//!   `per_question` *distinct* workers at a time. A lease expires after
//!   `lease_ms`; expired leases re-enter the pool, so a vanished worker
//!   can never stall a campaign — the question is simply re-issued to
//!   the next worker who asks.
//! * **Aggregation.** Answers accumulate per question; the moment the
//!   `per_question`-th distinct worker answers, the labels are built
//!   from the workers' *current estimated qualities* and submitted to
//!   the session (Eq. 17 + Eq. 11 run inside `submit`).
//! * **Quality.** Workers start at the campaign's qualification quality
//!   and are re-scored online against each inferred verdict
//!   ([`WorkerQualityEstimator`]) — the live replacement for
//!   `SimulatedCrowd`'s oracle qualities.
//!
//! The engine is deliberately free of I/O and clocks: `now_ms` is an
//! argument, which makes lease expiry exactly testable and keeps every
//! outcome-visible decision deterministic given the request sequence.

use remp_core::{Question, QuestionId, RempOutcome, RempSession};
use remp_crowd::{Label, Verdict, WorkerQualityEstimator, WorkerRecord};
use remp_obs::Counter;

use crate::lease::{check_lease_ms, Leases};
use crate::wire::{ServeError, SubmittedRecord};

/// Crowd-facing policy of one campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CrowdPolicy {
    /// Distinct workers (and labels) required per question — the
    /// paper's 5 MTurk assignments per HIT.
    pub per_question: usize,
    /// Qualification quality new workers start at.
    pub qualification: f64,
    /// Pseudo-count weight of the qualification in the online estimate.
    pub quality_weight: f64,
    /// Lease lifetime in milliseconds, at least 1; an unanswered lease
    /// expires and the slot is re-issued.
    pub lease_ms: u64,
}

impl Default for CrowdPolicy {
    fn default() -> CrowdPolicy {
        CrowdPolicy { per_question: 5, qualification: 0.85, quality_weight: 5.0, lease_ms: 60_000 }
    }
}

impl CrowdPolicy {
    /// Validates the policy at campaign creation.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.per_question == 0 {
            return Err(ServeError::bad_request("bad_policy", "per_question must be at least 1"));
        }
        if !(self.qualification > 0.0 && self.qualification < 1.0) {
            return Err(ServeError::bad_request(
                "bad_policy",
                format!("qualification {} must lie in (0, 1)", self.qualification),
            ));
        }
        if !(self.quality_weight.is_finite() && self.quality_weight > 0.0) {
            return Err(ServeError::bad_request(
                "bad_policy",
                format!("quality_weight {} must be positive", self.quality_weight),
            ));
        }
        check_lease_ms(self.lease_ms)
    }
}

/// A question handed to a worker, with its lease deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// The question to put before the worker.
    pub question: Question,
    /// Absolute lease expiry (same clock as `now_ms`).
    pub deadline_ms: u64,
}

/// What an accepted answer did.
#[derive(Clone, Debug, PartialEq)]
pub struct AnswerAck {
    /// Answers collected for the question so far (including this one).
    pub collected: usize,
    /// Required answers.
    pub required: usize,
    /// Present once this answer completed the redundancy and the
    /// question was submitted to the session.
    pub submitted: Option<SubmittedAnswer>,
}

/// Details of a completed submission.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmittedAnswer {
    /// The Eq. 17 verdict.
    pub verdict: Verdict,
    /// The Eq. 17 posterior.
    pub posterior: f64,
    /// Pairs resolved through relational propagation by this verdict.
    pub propagated: usize,
    /// Whether this closed the whole batch.
    pub batch_complete: bool,
}

/// One open question: collected answers plus outstanding leases.
#[derive(Clone, Debug)]
struct OpenSlot {
    question: Question,
    /// `(worker, says_match)` in arrival order.
    answers: Vec<(String, bool)>,
    /// Workers holding a lease on this question.
    leases: Leases,
    /// Leases on this question that expired unanswered.
    expired: u64,
    /// Expired leases already covered by a replacement lease.
    reissued: u64,
}

impl OpenSlot {
    fn new(question: Question) -> OpenSlot {
        let leases = Leases::default();
        OpenSlot { question, answers: Vec::new(), leases, expired: 0, reissued: 0 }
    }

    /// Whether `worker` answered this question or holds a live lease on
    /// it — either way the question is not theirs to take again.
    fn engages(&self, worker: &str, now_ms: u64) -> bool {
        self.answers.iter().any(|(w, _)| w == worker) || self.leases.holds(worker, now_ms)
    }
}

/// Process-lifetime lease counters (see [`CampaignEngine::lease_stats`]).
///
/// Deliberately **not** persisted in campaign state files: they are
/// observability for the running process, and the state-file format
/// stays closed under the strict decoder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases granted, including re-issues.
    pub issued: u64,
    /// Leases that expired unanswered.
    pub expired: u64,
    /// Grants that replaced an expired lease on the same question.
    pub reissued: u64,
}

/// The engine's live lease instruments: the *same cells* back both the
/// `leases` block of `/campaigns/{id}` status JSON (via
/// [`CampaignEngine::lease_stats`]) and the `remp_leases_*_total` series
/// on `/metrics` (the campaign actor registers clones of these handles
/// under its `campaign` label). One source of truth, two read paths.
#[derive(Clone, Debug, Default)]
pub struct LeaseCounters {
    /// Leases granted, including re-issues.
    pub issued: Counter,
    /// Leases that expired unanswered.
    pub expired: Counter,
    /// Grants that replaced an expired lease on the same question.
    pub reissued: Counter,
}

impl LeaseCounters {
    /// Point-in-time copy of the three counters.
    pub fn snapshot(&self) -> LeaseStats {
        LeaseStats {
            issued: self.issued.get(),
            expired: self.expired.get(),
            reissued: self.reissued.get(),
        }
    }
}

/// Aggregate progress snapshot (see [`CampaignEngine::progress`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Progress {
    /// Whether the campaign accepts work right now.
    pub paused: bool,
    /// Whether the loop has terminated and every question is submitted.
    pub complete: bool,
    /// Completed loops.
    pub loops: usize,
    /// Questions submitted to the session.
    pub questions_asked: usize,
    /// Question ids issued so far.
    pub issued: u64,
    /// Per open question: `(id, collected answers, live leases)`.
    pub open: Vec<(QuestionId, usize, usize)>,
    /// Registered workers.
    pub workers: usize,
    /// Lease counters since the engine was constructed.
    pub leases: LeaseStats,
}

/// Lease-based assignment + aggregation around one session.
///
/// All methods take `&mut self`; the registry serializes access by
/// running one engine per campaign actor thread.
pub struct CampaignEngine<'a> {
    session: RempSession<'a>,
    policy: CrowdPolicy,
    estimator: WorkerQualityEstimator,
    open: Vec<OpenSlot>,
    log: Vec<SubmittedRecord>,
    leases: LeaseCounters,
    paused: bool,
    /// Memoized [`outcome`](Self::outcome); invalidated by each
    /// submitted answer so polling `/outcome` between answers is free.
    outcome_cache: Option<RempOutcome>,
}

impl<'a> CampaignEngine<'a> {
    /// Wraps a fresh session.
    pub fn new(session: RempSession<'a>, policy: CrowdPolicy) -> CampaignEngine<'a> {
        let estimator = WorkerQualityEstimator::new(policy.qualification, policy.quality_weight);
        CampaignEngine {
            session,
            policy,
            estimator,
            open: Vec::new(),
            log: Vec::new(),
            leases: LeaseCounters::default(),
            paused: false,
            outcome_cache: None,
        }
    }

    /// Rebuilds an engine around a resumed session: the open batch comes
    /// back from the session itself, saved answers are re-applied (their
    /// leases are gone — the questions simply re-enter the pool for the
    /// missing slots), and worker records are restored.
    pub fn resume(
        session: RempSession<'a>,
        policy: CrowdPolicy,
        workers: Vec<(String, WorkerRecord)>,
        answers: Vec<(u64, String, bool)>,
        log: Vec<SubmittedRecord>,
        paused: bool,
    ) -> Result<CampaignEngine<'a>, ServeError> {
        let mut engine = CampaignEngine::new(session, policy);
        engine.paused = paused;
        engine.log = log;
        for (name, record) in workers {
            engine.estimator.restore(&name, record);
        }
        engine.open =
            engine.session.open_question_details().into_iter().map(OpenSlot::new).collect();
        for (question, worker, says_match) in answers {
            let Some(slot) = engine.open.iter_mut().find(|s| s.question.id.0 == question) else {
                return Err(ServeError::internal(
                    "bad_state",
                    format!("saved answer references unknown open question q{question}"),
                ));
            };
            if slot.answers.iter().any(|(w, _)| *w == worker) {
                return Err(ServeError::internal(
                    "bad_state",
                    format!("saved answers contain a duplicate for q{question} by {worker:?}"),
                ));
            }
            if slot.answers.len() + 1 >= engine.policy.per_question {
                // A full answer set would have been submitted before the
                // checkpoint was written; reaching it here means the
                // state file was tampered with.
                return Err(ServeError::internal(
                    "bad_state",
                    format!("saved answers over-fill open question q{question}"),
                ));
            }
            slot.answers.push((worker, says_match));
        }
        Ok(engine)
    }

    /// The crowd policy.
    pub fn policy(&self) -> &CrowdPolicy {
        &self.policy
    }

    /// Whether the campaign is paused.
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// Pauses assignment and answering (existing leases keep expiring).
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resumes a paused campaign.
    pub fn unpause(&mut self) {
        self.paused = false;
    }

    fn ensure_active(&self) -> Result<(), ServeError> {
        if self.paused {
            return Err(ServeError::conflict("paused", "the campaign is paused"));
        }
        Ok(())
    }

    /// Pulls the next batch out of the session when the open pool is
    /// exhausted. Cheap when there is nothing to do.
    fn refill(&mut self) -> Result<(), ServeError> {
        if !self.open.is_empty() || self.paused {
            return Ok(());
        }
        if !self.session.open_questions().is_empty() {
            // Only reachable right after resume: the session still holds
            // an open batch the engine has not mirrored yet.
            self.open =
                self.session.open_question_details().into_iter().map(OpenSlot::new).collect();
            return Ok(());
        }
        if self.session.is_drained() {
            return Ok(());
        }
        if let Some(batch) = self.session.next_batch().map_err(ServeError::from)? {
            self.open = batch.questions.into_iter().map(OpenSlot::new).collect();
        }
        Ok(())
    }

    fn prune_leases(&mut self, now_ms: u64) {
        for slot in &mut self.open {
            let dropped = slot.leases.prune(now_ms) as u64;
            slot.expired += dropped;
            self.leases.expired.add(dropped);
        }
    }

    /// Leases the next question to `worker`, registering them on first
    /// contact. `Ok(None)` means nothing is available for this worker
    /// right now (everything leased out, already answered by them, or
    /// the campaign is complete).
    pub fn next_for(
        &mut self,
        worker: &str,
        now_ms: u64,
    ) -> Result<Option<Assignment>, ServeError> {
        self.ensure_active()?;
        if worker.is_empty() {
            return Err(ServeError::bad_request("bad_worker", "worker name must be non-empty"));
        }
        self.refill()?;
        self.prune_leases(now_ms);
        self.estimator.register(worker);
        let per_question = self.policy.per_question;
        let Some(slot) = self.open.iter_mut().find(|slot| {
            slot.answers.len() + slot.leases.len() < per_question && !slot.engages(worker, now_ms)
        }) else {
            return Ok(None);
        };
        let deadline_ms = slot.leases.grant(worker, now_ms, self.policy.lease_ms);
        self.leases.issued.inc();
        if slot.reissued < slot.expired {
            // This grant covers one of the slot's expired leases.
            slot.reissued += 1;
            self.leases.reissued.inc();
        }
        Ok(Some(Assignment { question: slot.question.clone(), deadline_ms }))
    }

    /// Ingests one worker's answer.
    ///
    /// The worker must hold a live lease on the question; when this
    /// answer completes the redundancy, labels are built from the
    /// current quality estimates and submitted to the session, and the
    /// workers who answered are re-scored against the verdict.
    pub fn answer(
        &mut self,
        worker: &str,
        id: QuestionId,
        says_match: bool,
        now_ms: u64,
    ) -> Result<AnswerAck, ServeError> {
        self.ensure_active()?;
        self.prune_leases(now_ms);
        let Some(idx) = self.open.iter().position(|s| s.question.id == id) else {
            // Not open: either already submitted (a duplicate — 409) or
            // never issued (404). The session draws the same line.
            return Err(if id.0 < self.session.issued_questions() {
                ServeError::conflict(
                    "already_answered",
                    format!(
                        "question {id} already received its {} answers",
                        self.policy.per_question
                    ),
                )
            } else {
                ServeError::not_found("unknown_question", format!("no question {id}"))
            });
        };
        let slot = &mut self.open[idx];
        if slot.answers.iter().any(|(w, _)| w == worker) {
            return Err(ServeError::conflict(
                "duplicate_answer",
                format!("worker {worker:?} already answered question {id}"),
            ));
        }
        if !slot.leases.release(worker) {
            return Err(ServeError::conflict(
                "no_lease",
                format!(
                    "worker {worker:?} holds no live lease on question {id} (expired or never issued)"
                ),
            ));
        }
        slot.answers.push((worker.to_owned(), says_match));
        let collected = slot.answers.len();
        let required = self.policy.per_question;
        if collected < required {
            return Ok(AnswerAck { collected, required, submitted: None });
        }

        // Redundancy met: build labels from the current estimates, in
        // answer-arrival order, and fold them into the session.
        let slot = self.open.remove(idx);
        let labels: Vec<Label> = slot
            .answers
            .iter()
            .map(|(w, says)| Label::new(self.estimator.estimate(w), *says))
            .collect();
        let outcome = self.session.submit(id, labels).map_err(ServeError::from)?;
        self.outcome_cache = None;
        if outcome.verdict != Verdict::Inconsistent {
            let truth = outcome.verdict == Verdict::Match;
            for (w, says) in &slot.answers {
                self.estimator.score(w, *says == truth);
            }
        }
        self.log.push(SubmittedRecord {
            question: id.0,
            pair: slot.question.pair,
            verdict: outcome.verdict,
        });
        Ok(AnswerAck {
            collected,
            required,
            submitted: Some(SubmittedAnswer {
                verdict: outcome.verdict,
                posterior: outcome.posterior,
                propagated: outcome.propagated.len(),
                batch_complete: outcome.batch_complete,
            }),
        })
    }

    /// Re-applies one logged answer during WAL recovery.
    ///
    /// The original acceptance held a live lease, which the WAL does
    /// not persist (leases are transient, like after checkpoint
    /// resume), so this force-issues one before running the normal
    /// [`answer`](Self::answer) path. Replaying records in logged
    /// (seq) order reproduces every outcome-visible decision exactly:
    /// label construction, quality re-scoring and submission order all
    /// depend only on the accepted-answer sequence. The pause flag is
    /// bypassed — the answer was accepted before the crash, so it must
    /// land again even if the campaign checkpointed as paused.
    pub fn replay_answer(
        &mut self,
        worker: &str,
        id: QuestionId,
        says_match: bool,
        now_ms: u64,
    ) -> Result<AnswerAck, ServeError> {
        let was_paused = self.paused;
        self.paused = false;
        // A replayed answer may belong to the batch after the one the
        // checkpoint left open.
        let refilled = self.refill();
        if let Err(e) = refilled {
            self.paused = was_paused;
            return Err(e);
        }
        self.estimator.register(worker);
        if let Some(slot) = self.open.iter_mut().find(|s| s.question.id == id) {
            if !slot.leases.holds(worker, now_ms) {
                slot.leases.grant(worker, now_ms, self.policy.lease_ms);
            }
        }
        let result = self.answer(worker, id, says_match, now_ms);
        self.paused = was_paused;
        result
    }

    /// The soonest lease expiry across open questions, if any lease is
    /// live. When [`next_for`](Self::next_for) has nothing for a
    /// worker, this is the next moment an assignment could appear
    /// without a new answer arriving — what the server's long-poll
    /// dispatcher uses to schedule a re-check.
    pub fn earliest_lease_deadline(&self) -> Option<u64> {
        self.open.iter().filter_map(|s| s.leases.earliest_deadline()).min()
    }

    /// Whether `worker` holds a live lease on, or has answered, open
    /// question `id` at `now_ms` — the two reasons [`next_for`](Self::next_for)
    /// passes a question by for that worker. `false` for a question
    /// that is not open. Read-only: prunes nothing and counts nothing.
    pub fn is_engaged(&self, worker: &str, id: QuestionId, now_ms: u64) -> bool {
        self.open.iter().find(|s| s.question.id == id).is_some_and(|s| s.engages(worker, now_ms))
    }

    /// Current open questions (refilling from the session if needed),
    /// with collected-answer and live-lease counts.
    pub fn open_questions(
        &mut self,
        now_ms: u64,
    ) -> Result<Vec<(Question, usize, usize)>, ServeError> {
        if !self.paused {
            self.refill()?;
        }
        self.prune_leases(now_ms);
        Ok(self
            .open
            .iter()
            .map(|s| (s.question.clone(), s.answers.len(), s.leases.len()))
            .collect())
    }

    /// Aggregate progress.
    pub fn progress(&mut self, now_ms: u64) -> Result<Progress, ServeError> {
        if !self.paused {
            self.refill()?;
        }
        self.prune_leases(now_ms);
        Ok(Progress {
            paused: self.paused,
            complete: self.is_complete(),
            loops: self.session.loops(),
            questions_asked: self.session.questions_asked(),
            issued: self.session.issued_questions(),
            open: self
                .open
                .iter()
                .map(|s| (s.question.id, s.answers.len(), s.leases.len()))
                .collect(),
            workers: self.estimator.len(),
            leases: self.leases.snapshot(),
        })
    }

    /// Lease counters since this engine was constructed (issued,
    /// expired, re-issued). Not persisted across restarts.
    pub fn lease_stats(&self) -> LeaseStats {
        self.leases.snapshot()
    }

    /// Clonable handles to the live lease instruments — what the
    /// campaign actor registers on the global metrics registry so
    /// `/metrics` exports exactly the numbers the status endpoint
    /// reports.
    pub fn lease_counters(&self) -> LeaseCounters {
        self.leases.clone()
    }

    /// Cheap observability snapshot for the campaign gauges: `(open
    /// questions, questions asked, registered workers, complete)`.
    /// Unlike [`progress`](Self::progress) this neither refills the
    /// pool nor needs a clock, so the actor can refresh gauges after
    /// every message for free.
    pub fn gauge_snapshot(&self) -> (usize, usize, usize, bool) {
        (self.open.len(), self.session.questions_asked(), self.estimator.len(), self.is_complete())
    }

    /// Whether the campaign has drained: not paused, no open question,
    /// and the session will issue no more. Reads state only — it does
    /// not refill, so it reflects the last refill (every
    /// [`next_for`](Self::next_for) and [`progress`](Self::progress)
    /// refills first).
    pub fn is_complete(&self) -> bool {
        !self.paused && self.open.is_empty() && self.session.is_drained()
    }

    /// The final (or provisional) outcome. Works at any point: the
    /// session reports by reference (and, when enabled, the
    /// isolated-pair classifier runs), so an operator can inspect a
    /// mid-flight campaign without consuming it. The result is memoized
    /// until the next answer is submitted, so polling a quiet or
    /// completed campaign runs the classifier once, not once per
    /// request.
    pub fn outcome(&mut self) -> RempOutcome {
        if self.outcome_cache.is_none() {
            self.outcome_cache = Some(self.session.outcome());
        }
        self.outcome_cache.clone().expect("filled above")
    }

    /// Submission log in submit order.
    pub fn log(&self) -> &[SubmittedRecord] {
        &self.log
    }

    /// Worker quality records, in worker-name order.
    pub fn worker_records(&self) -> Vec<(String, WorkerRecord)> {
        self.estimator.records().map(|(n, r)| (n.to_owned(), r.clone())).collect()
    }

    /// `(name, current estimate, record)` per registered worker, in
    /// worker-name order — the status/workers view of the estimator.
    pub fn worker_estimates(&self) -> Vec<(String, f64, WorkerRecord)> {
        self.estimator
            .records()
            .map(|(n, r)| (n.to_owned(), self.estimator.estimate(n), r.clone()))
            .collect()
    }

    /// Current quality estimate for one worker.
    pub fn worker_estimate(&self, worker: &str) -> f64 {
        self.estimator.estimate(worker)
    }

    /// The collected-but-unsubmitted answers, for checkpointing.
    pub fn open_answers(&self) -> Vec<(u64, String, bool)> {
        self.open
            .iter()
            .flat_map(|s| s.answers.iter().map(|(w, says)| (s.question.id.0, w.clone(), *says)))
            .collect()
    }

    /// The session checkpoint for durable storage.
    pub fn session_checkpoint(&self) -> remp_core::SessionCheckpoint {
        self.session.checkpoint()
    }

    /// Per-loop stage-2/3 timings and dirty-region counters of the
    /// underlying session — how `rempd` reports where a campaign's
    /// compute time goes.
    pub fn loop_stats(&self) -> &[remp_core::LoopStat] {
        self.session.loop_stats()
    }
}

/// Compact JSON summary of a campaign's loop stats for the status
/// endpoint: totals plus the last loop's dirty-region counters.
pub fn loop_stats_json(stats: &[remp_core::LoopStat]) -> remp_json::Json {
    use remp_json::Json;
    let total: f64 = stats.iter().map(|s| s.total_s()).sum();
    let mut fields = vec![
        ("propagation_passes".into(), Json::from(stats.len())),
        ("stage_total_s".into(), Json::from(total)),
        (
            "consistency_s".into(),
            Json::from(stats.iter().map(|s| s.refresh.consistency_s).sum::<f64>()),
        ),
        (
            "propagation_s".into(),
            Json::from(stats.iter().map(|s| s.refresh.propagation_s).sum::<f64>()),
        ),
        ("inferred_s".into(), Json::from(stats.iter().map(|s| s.refresh.inferred_s).sum::<f64>())),
        ("selection_s".into(), Json::from(stats.iter().map(|s| s.selection_s).sum::<f64>())),
    ];
    if let Some(last) = stats.last() {
        fields.push(("last".into(), last.to_json()));
    }
    Json::Obj(fields)
}

/// JSON form of [`LeaseStats`] for the status endpoint.
pub fn lease_stats_json(stats: LeaseStats) -> remp_json::Json {
    use remp_json::Json;
    Json::Obj(vec![
        ("issued".into(), Json::from(stats.issued)),
        ("expired".into(), Json::from(stats.expired)),
        ("reissued".into(), Json::from(stats.reissued)),
    ])
}

/// Compact worker-quality summary for the status endpoint: worker
/// count plus min/mean/max of the current estimates (nulls when no
/// worker has registered yet).
pub fn worker_quality_json(workers: &[(String, f64, WorkerRecord)]) -> remp_json::Json {
    use remp_json::Json;
    let n = workers.len();
    let (min, max, sum) = workers
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY, 0.0f64), |(lo, hi, sum), (_, est, _)| {
            (lo.min(*est), hi.max(*est), sum + est)
        });
    let field = |v: f64| if n == 0 { Json::Null } else { Json::from(v) };
    Json::Obj(vec![
        ("count".into(), Json::from(n)),
        ("min".into(), field(min)),
        ("mean".into(), field(sum / (n.max(1)) as f64)),
        ("max".into(), field(max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_core::{Remp, RempConfig};
    use remp_datasets::{generate, tiny, GeneratedDataset};

    fn world() -> GeneratedDataset {
        generate(&tiny(1.0))
    }

    fn policy(per_question: usize, lease_ms: u64) -> CrowdPolicy {
        CrowdPolicy { per_question, lease_ms, ..CrowdPolicy::default() }
    }

    /// Drains an engine with always-correct workers named `w0..wk`.
    fn drain(engine: &mut CampaignEngine<'_>, d: &GeneratedDataset, k: usize) {
        let mut now = 0u64;
        loop {
            let progress = engine.progress(now).unwrap();
            if progress.complete {
                break;
            }
            let mut advanced = false;
            for i in 0..k {
                let worker = format!("w{i}");
                if let Some(a) = engine.next_for(&worker, now).unwrap() {
                    let truth = d.is_match(a.question.pair.0, a.question.pair.1);
                    engine.answer(&worker, a.question.id, truth, now).unwrap();
                    advanced = true;
                }
            }
            assert!(advanced, "no worker made progress; campaign would stall");
            now += 1;
        }
    }

    #[test]
    fn campaign_completes_with_redundant_workers() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(3, 1000));
        drain(&mut engine, &d, 4);
        let outcome = engine.outcome();
        assert!(outcome.questions_asked > 0);
        assert_eq!(engine.log().len(), outcome.questions_asked);
        let progress = engine.progress(0).unwrap();
        assert!(progress.complete);
        assert_eq!(progress.workers, 4);
    }

    #[test]
    fn distinct_workers_are_enforced_per_question() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(2, 1000));
        let a = engine.next_for("w0", 0).unwrap().unwrap();
        // Same worker asking again is routed to a different question (or
        // none), never the one they already hold.
        if let Some(b) = engine.next_for("w0", 0).unwrap() {
            assert_ne!(a.question.id, b.question.id);
        }
        engine.answer("w0", a.question.id, true, 0).unwrap();
        // And having answered, they can neither lease nor answer it again.
        let err = engine.answer("w0", a.question.id, true, 0).unwrap_err();
        assert_eq!(err.code, "duplicate_answer");
        assert_eq!(err.status, 409);
    }

    #[test]
    fn answers_require_a_live_lease() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(2, 100));
        let a = engine.next_for("w0", 0).unwrap().unwrap();
        // A worker who never leased gets a typed conflict.
        let err = engine.answer("w1", a.question.id, true, 0).unwrap_err();
        assert_eq!((err.status, err.code), (409, "no_lease"));
        // The lease expires at deadline; a late answer is the same conflict.
        let err = engine.answer("w0", a.question.id, true, a.deadline_ms).unwrap_err();
        assert_eq!((err.status, err.code), (409, "no_lease"));
    }

    #[test]
    fn expired_leases_reissue_and_the_outcome_is_unchanged() {
        let d = world();
        let remp = Remp::new(RempConfig::default());

        // Reference: no losses, workers w0/w1 answer everything.
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut reference = CampaignEngine::new(session, policy(2, 1000));
        drain(&mut reference, &d, 2);

        // Lossy run: a ghost worker takes the very first lease of every
        // batch and vanishes; after expiry the question re-enters the
        // pool and the same two reliable workers finish the campaign.
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut lossy = CampaignEngine::new(session, policy(2, 50));
        let mut now = 0u64;
        let first = lossy.next_for("ghost", now).unwrap().expect("campaign opens with questions");
        now = first.deadline_ms; // ghost's lease is now expired
        loop {
            if lossy.progress(now).unwrap().complete {
                break;
            }
            let mut advanced = false;
            for worker in ["w0", "w1"] {
                if let Some(a) = lossy.next_for(worker, now).unwrap() {
                    let truth = d.is_match(a.question.pair.0, a.question.pair.1);
                    lossy.answer(worker, a.question.id, truth, now).unwrap();
                    advanced = true;
                }
            }
            assert!(advanced, "expired lease failed to re-enter the pool");
            now += 1;
        }
        // The ghost never answered: resolutions, matches and question
        // order are identical to the lossless run.
        assert_eq!(lossy.outcome(), reference.outcome());
        assert_eq!(lossy.log(), reference.log());

        // The counters tell the loss story: the ghost's lease expired
        // and its question was re-issued; the clean run saw neither.
        let stats = lossy.lease_stats();
        assert_eq!(stats.expired, 1, "exactly the ghost's lease expired");
        assert_eq!(stats.reissued, 1, "the ghost's question was re-issued once");
        assert_eq!(stats.issued, reference.lease_stats().issued + 1);
        let clean = reference.lease_stats();
        assert_eq!((clean.expired, clean.reissued), (0, 0));
        assert_eq!(clean.issued as usize, reference.log().len() * 2, "2 leases per question");
    }

    #[test]
    fn closed_questions_conflict_and_fresh_ids_are_unknown() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(1, 1000));
        let a = engine.next_for("w0", 0).unwrap().unwrap();
        engine.answer("w0", a.question.id, true, 0).unwrap();
        // per_question = 1, so the question is closed: 409 for anyone.
        let err = engine.answer("w1", a.question.id, true, 0).unwrap_err();
        assert_eq!((err.status, err.code), (409, "already_answered"));
        // An id that was never issued is 404.
        let err = engine.answer("w1", QuestionId(u64::MAX), true, 0).unwrap_err();
        assert_eq!((err.status, err.code), (404, "unknown_question"));
    }

    #[test]
    fn pause_blocks_work_and_resume_restores_it() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(2, 1000));
        let a = engine.next_for("w0", 0).unwrap().unwrap();
        engine.pause();
        assert_eq!(engine.next_for("w1", 0).unwrap_err().code, "paused");
        assert_eq!(engine.answer("w0", a.question.id, true, 0).unwrap_err().code, "paused");
        assert!(engine.progress(0).unwrap().paused);
        engine.unpause();
        engine.answer("w0", a.question.id, true, 0).unwrap();
    }

    #[test]
    fn quality_estimates_move_with_agreement() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(3, 1000));
        let q0 = engine.policy().qualification;
        // w0 and w1 answer truthfully, `liar` always inverts; after a few
        // questions the estimator separates them.
        let mut submitted = 0;
        let mut now = 0;
        while submitted < 3 {
            let mut advanced = false;
            for worker in ["w0", "w1", "liar"] {
                if let Some(a) = engine.next_for(worker, now).unwrap() {
                    let truth = d.is_match(a.question.pair.0, a.question.pair.1);
                    let says = if worker == "liar" { !truth } else { truth };
                    let ack = engine.answer(worker, a.question.id, says, now).unwrap();
                    if ack.submitted.is_some() {
                        submitted += 1;
                    }
                    advanced = true;
                }
            }
            assert!(advanced);
            now += 1;
        }
        assert!(engine.worker_estimate("w0") > q0, "{}", engine.worker_estimate("w0"));
        assert!(engine.worker_estimate("liar") < q0, "{}", engine.worker_estimate("liar"));
    }

    #[test]
    fn checkpoint_resume_mid_question_preserves_the_campaign() {
        let d = world();
        let remp = Remp::new(RempConfig::default());

        // Reference run, uninterrupted.
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut reference = CampaignEngine::new(session, policy(2, 1000));
        drain(&mut reference, &d, 2);

        // Interrupted run: stop mid-question (one of two answers in).
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(2, 1000));
        let a = engine.next_for("w0", 0).unwrap().unwrap();
        let truth = d.is_match(a.question.pair.0, a.question.pair.1);
        engine.answer("w0", a.question.id, truth, 0).unwrap();

        let checkpoint = engine.session_checkpoint();
        let workers = engine.worker_records();
        let answers = engine.open_answers();
        let log = engine.log().to_vec();
        drop(engine);

        let session = RempSession::resume(&d.kb1, &d.kb2, checkpoint).unwrap();
        let mut resumed =
            CampaignEngine::resume(session, policy(2, 1000), workers, answers, log, false).unwrap();
        // w0's answer survived: w0 cannot answer again, w1 completes it.
        let err = engine_answer_via_lease(&mut resumed, "w0", 1);
        assert_eq!(err.unwrap_err().code, "duplicate_answer");
        drain(&mut resumed, &d, 2);
        assert_eq!(resumed.outcome(), reference.outcome());
        assert_eq!(resumed.log(), reference.log());
    }

    #[test]
    fn replayed_answers_reproduce_the_campaign() {
        let d = world();
        let remp = Remp::new(RempConfig::default());

        // Reference run, recording every accepted answer with its
        // engine-clock timestamp — exactly what the WAL persists.
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut reference = CampaignEngine::new(session, policy(2, 1000));
        let mut accepted: Vec<(String, u64, bool, u64)> = Vec::new();
        let mut now = 0u64;
        loop {
            if reference.progress(now).unwrap().complete {
                break;
            }
            let mut advanced = false;
            for i in 0..2 {
                let worker = format!("w{i}");
                if let Some(a) = reference.next_for(&worker, now).unwrap() {
                    let truth = d.is_match(a.question.pair.0, a.question.pair.1);
                    reference.answer(&worker, a.question.id, truth, now).unwrap();
                    accepted.push((worker, a.question.id.0, truth, now));
                    advanced = true;
                }
            }
            assert!(advanced);
            now += 1;
        }
        assert!(!accepted.is_empty());

        // Replaying the log on a fresh engine reproduces the campaign
        // bit-identically — no leases, no worker polling.
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut replayed = CampaignEngine::new(session, policy(2, 1000));
        for (worker, question, says, at) in &accepted {
            replayed.replay_answer(worker, QuestionId(*question), *says, *at).unwrap();
        }
        assert_eq!(replayed.outcome(), reference.outcome());
        assert_eq!(replayed.log(), reference.log());
        assert!(replayed.progress(now).unwrap().complete);
    }

    #[test]
    fn earliest_lease_deadline_tracks_live_leases() {
        let d = world();
        let remp = Remp::new(RempConfig::default());
        let session = remp.begin(&d.kb1, &d.kb2).unwrap();
        let mut engine = CampaignEngine::new(session, policy(2, 1000));
        assert_eq!(engine.earliest_lease_deadline(), None);
        let a = engine.next_for("w0", 10).unwrap().unwrap();
        assert_eq!(engine.earliest_lease_deadline(), Some(a.deadline_ms));
        let b = engine.next_for("w1", 25).unwrap().unwrap();
        assert_eq!(engine.earliest_lease_deadline(), Some(a.deadline_ms.min(b.deadline_ms)));
    }

    /// Tries to lease + answer the first open question as `worker`.
    fn engine_answer_via_lease(
        engine: &mut CampaignEngine<'_>,
        worker: &str,
        now: u64,
    ) -> Result<AnswerAck, ServeError> {
        let open = engine.open_questions(now).unwrap();
        let id = open.first().expect("an open question").0.id;
        engine.answer(worker, id, true, now)
    }
}
