//! The tick engine: virtual workers driving a real
//! [`CampaignEngine`] on virtual time.
//!
//! One tick is one millisecond of the engine's lease clock. Each tick
//! runs a fixed phase order — drift, arrivals, departures, deliveries,
//! assignments, completion check — and every random decision (worker
//! quality, pick order, answer content, latency) comes from a single
//! `StdRng` seeded by the scenario, which is what makes replay
//! bit-identical.
//!
//! **One lease table.** Whether a worker holds a live lease on, or has
//! answered, a question is asked of the engine itself
//! ([`CampaignEngine::is_engaged`]); the simulator keeps no copy of the
//! engine's leases, so it cannot drift from the engine's expiry rule.
//!
//! **Reference equivalence.** The assignment loop is deliberately the
//! same sampling process as [`WireCrowd`](remp_serve::WireCrowd):
//! repeatedly draw a uniform worker index and *consume the draw* when
//! the worker is ineligible (busy, gone, already answered or leased on
//! the target question). For a single always-on zero-latency honest
//! cohort this visits the identical RNG stream — index draws
//! interleaved with one `gen_bool(quality)` per accepted answer — so
//! the `honest` preset reproduces
//! [`reference_outcome`](remp_serve::sim::reference_outcome) exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remp_core::{evaluate_matches, QuestionId, Remp, RempConfig};
use remp_datasets::{generate, preset_by_name, GeneratedDataset};
use remp_par::Parallelism;
use remp_serve::wire::verdict_code;
use remp_serve::CampaignEngine;

use crate::report::{EstimatorReport, SimReport, WorkerReport};
use crate::scenario::{Behavior, Scenario};
use crate::trace::{trace_hash, EventKind, TraceEvent};
use crate::SimError;

/// Runs a scenario to completion (or stall / tick cap) and reports.
pub fn run_scenario(scenario: &Scenario) -> Result<SimReport, SimError> {
    run_scenario_with(scenario, None)
}

/// [`run_scenario`] with an explicit pipeline parallelism — the hook
/// the determinism tests use to prove the trace is bit-identical under
/// `Parallelism::Sequential` and `Parallelism::Fixed(4)`.
pub fn run_scenario_with(
    scenario: &Scenario,
    parallelism: Option<Parallelism>,
) -> Result<SimReport, SimError> {
    scenario.validate()?;
    let spec = preset_by_name(&scenario.dataset, scenario.scale).ok_or_else(|| {
        SimError::BadScenario(format!("unknown dataset preset {:?}", scenario.dataset))
    })?;
    let d = generate(&spec);
    let mut config = RempConfig::default();
    if let Some(budget) = scenario.budget {
        config = config.with_budget(budget);
    }
    if let Some(mu) = scenario.mu {
        config = config.with_mu(mu);
    }
    if let Some(parallelism) = parallelism {
        config = config.with_parallelism(parallelism);
    }
    let session = Remp::new(config)
        .begin(&d.kb1, &d.kb2)
        .map_err(|e| SimError::BadScenario(format!("campaign would not open: {e}")))?;
    let engine = CampaignEngine::new(session, scenario.policy());
    World::build(scenario, &d, engine).run()
}

/// One virtual worker.
struct SimWorker {
    name: String,
    cohort: usize,
    behavior: Behavior,
    /// Current true quality (honest behaviors only; drifts per tick).
    quality: f64,
    arrive: u64,
    leave: Option<u64>,
    arrived: bool,
    active: bool,
    /// Holds a lease and owes a queued answer.
    busy: bool,
}

/// An accepted assignment whose answer has not been delivered yet.
struct Pending {
    worker: usize,
    question: QuestionId,
    says: bool,
    due: u64,
}

struct World<'a, 'kb> {
    scenario: &'a Scenario,
    d: &'a GeneratedDataset,
    engine: CampaignEngine<'kb>,
    rng: StdRng,
    workers: Vec<SimWorker>,
    pending: Vec<Pending>,
    events: Vec<TraceEvent>,
    delivered: u64,
    rejected: u64,
    dropped: u64,
    arrived: usize,
    left: usize,
    /// Last tick anything happened (arrival, lease, delivery) — the
    /// stall detector's anchor.
    last_progress: u64,
    /// Global tick/delivery counters (`remp_sim_*_total`), held as
    /// handles so the hot loop never takes the registry lock. `None`
    /// when observability is disabled; recording never feeds back into
    /// any simulation decision.
    obs_ticks: Option<remp_obs::Counter>,
    obs_delivered: Option<remp_obs::Counter>,
}

impl<'a, 'kb> World<'a, 'kb> {
    fn build(
        scenario: &'a Scenario,
        d: &'a GeneratedDataset,
        engine: CampaignEngine<'kb>,
    ) -> World<'a, 'kb> {
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let mut workers = Vec::with_capacity(scenario.pool_size());
        for (cohort, c) in scenario.cohorts.iter().enumerate() {
            for i in 0..c.count {
                // Honest qualities are drawn here, in cohort order —
                // for a single honest cohort this is WireCrowd::new's
                // exact quality stream. Other behaviors draw nothing.
                let quality = match c.behavior {
                    Behavior::Honest { min_quality, max_quality, .. } => {
                        rng.gen_range(min_quality..=max_quality)
                    }
                    _ => 0.0,
                };
                workers.push(SimWorker {
                    // Global pool index: names stay unique across
                    // cohorts, and a single cohort named `w` yields
                    // w0..wN-1 — WireCrowd's names.
                    name: format!("{}{}", c.name, workers.len()),
                    cohort,
                    behavior: c.behavior,
                    quality,
                    arrive: c.arrive_tick + i as u64 * c.arrive_stagger,
                    leave: c.leave_tick,
                    arrived: false,
                    active: false,
                    busy: false,
                });
            }
        }
        let (obs_ticks, obs_delivered) = if remp_obs::enabled() {
            let reg = remp_obs::global();
            (
                Some(reg.counter(
                    remp_obs::names::SIM_TICKS_TOTAL,
                    "Simulator ticks executed across all runs.",
                    &[],
                )),
                Some(reg.counter(
                    remp_obs::names::SIM_DELIVERED_TOTAL,
                    "Simulated answers accepted by the engine across all runs.",
                    &[],
                )),
            )
        } else {
            (None, None)
        };
        World {
            scenario,
            d,
            engine,
            rng,
            workers,
            pending: Vec::new(),
            events: Vec::new(),
            delivered: 0,
            rejected: 0,
            dropped: 0,
            arrived: 0,
            left: 0,
            last_progress: 0,
            obs_ticks,
            obs_delivered,
        }
    }

    fn run(mut self) -> Result<SimReport, SimError> {
        let max_latency = self.scenario.cohorts.iter().map(|c| c.latency.1).max().unwrap_or(0);
        // Nothing can change state later than one lease lifetime plus
        // one latency window after the last event; past that the run
        // is provably stuck.
        let grace = self.scenario.lease_ticks + max_latency + 2;
        let mut complete = false;
        let mut stalled = false;
        let mut tick = 0u64;
        loop {
            if tick >= self.scenario.max_ticks {
                break;
            }
            if let Some(c) = &self.obs_ticks {
                c.inc();
            }
            self.drift(tick);
            self.arrivals_and_departures(tick);
            self.deliver_due(tick)?;
            self.assign(tick)?;
            if self.engine.progress(tick)?.complete {
                complete = true;
                break;
            }
            let future_arrival = self.workers.iter().any(|w| !w.arrived);
            if !future_arrival && tick.saturating_sub(self.last_progress) > grace {
                stalled = true;
                self.events.push(TraceEvent { tick, kind: EventKind::Stalled });
                break;
            }
            tick += 1;
        }
        Ok(self.report(tick, complete, stalled))
    }

    /// Per-tick additive quality drift. Skips tick 0 so qualities start
    /// exactly as drawn.
    fn drift(&mut self, tick: u64) {
        if tick == 0 {
            return;
        }
        for w in &mut self.workers {
            if let Behavior::Honest { drift_per_tick, .. } = w.behavior {
                if drift_per_tick != 0.0 {
                    w.quality = (w.quality + drift_per_tick).clamp(0.02, 0.98);
                }
            }
        }
    }

    fn arrivals_and_departures(&mut self, tick: u64) {
        for i in 0..self.workers.len() {
            if !self.workers[i].arrived && tick >= self.workers[i].arrive {
                self.workers[i].arrived = true;
                self.workers[i].active = true;
                self.arrived += 1;
                self.last_progress = tick;
                let worker = self.workers[i].name.clone();
                self.events.push(TraceEvent { tick, kind: EventKind::Arrive { worker } });
            }
            if self.workers[i].active && self.workers[i].leave.is_some_and(|t| tick >= t) {
                self.workers[i].active = false;
                self.workers[i].busy = false;
                let before = self.pending.len();
                self.pending.retain(|p| p.worker != i);
                let dropped = before - self.pending.len();
                self.dropped += dropped as u64;
                self.left += 1;
                let worker = self.workers[i].name.clone();
                self.events.push(TraceEvent { tick, kind: EventKind::Leave { worker, dropped } });
            }
        }
    }

    /// Delivers every queued answer that has come due, in queue order.
    fn deliver_due(&mut self, tick: u64) -> Result<(), SimError> {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].due > tick {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            self.deliver(p, tick)?;
        }
        Ok(())
    }

    /// Hands one answer to the engine and records the effect. Late
    /// answers (lease expired, question re-closed) become typed
    /// `Reject` events — the engine's 4xx is simulation data, not an
    /// error.
    fn deliver(&mut self, p: Pending, tick: u64) -> Result<(), SimError> {
        self.workers[p.worker].busy = false;
        let worker = self.workers[p.worker].name.clone();
        match self.engine.answer(&worker, p.question, p.says, tick) {
            Ok(ack) => {
                self.delivered += 1;
                if let Some(c) = &self.obs_delivered {
                    c.inc();
                }
                self.last_progress = tick;
                self.events.push(TraceEvent {
                    tick,
                    kind: EventKind::Answer { worker, question: p.question.0, says: p.says },
                });
                if let Some(sub) = ack.submitted {
                    self.events.push(TraceEvent {
                        tick,
                        kind: EventKind::Submit {
                            question: p.question.0,
                            verdict: verdict_code(sub.verdict).to_owned(),
                            propagated: sub.propagated,
                        },
                    });
                }
            }
            Err(e) if e.status == 409 || e.status == 404 => {
                self.rejected += 1;
                self.events.push(TraceEvent {
                    tick,
                    kind: EventKind::Reject {
                        worker,
                        question: p.question.0,
                        code: e.code.to_owned(),
                    },
                });
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// The assignment loop: while some open question has both free
    /// capacity and an eligible worker, sample a worker uniformly
    /// (consuming draws on ineligible picks, exactly like WireCrowd's
    /// distinct-worker rejection sampling), lease, and decide the
    /// answer and its latency on the spot.
    fn assign(&mut self, tick: u64) -> Result<(), SimError> {
        let per_question = self.scenario.per_question;
        loop {
            let opens = self.engine.open_questions(tick)?;
            let Some((question, _, _)) = opens.into_iter().find(|(q, collected, leased)| {
                collected + leased < per_question
                    && (0..self.workers.len()).any(|i| self.eligible(i, q.id, tick))
            }) else {
                return Ok(());
            };
            let pool = self.workers.len();
            let mut attempts = 0usize;
            let widx = loop {
                attempts += 1;
                if attempts > 1_000_000 {
                    return Err(SimError::Engine("worker sampling diverged".into()));
                }
                let i = self.rng.gen_range(0..pool);
                if self.eligible(i, question.id, tick) {
                    break i;
                }
            };
            let worker = self.workers[widx].name.clone();
            let Some(assignment) = self.engine.next_for(&worker, tick)? else {
                return Err(SimError::Engine(format!(
                    "engine refused worker {worker:?} the simulator deemed eligible"
                )));
            };
            if assignment.question.id != question.id {
                return Err(SimError::Engine(format!(
                    "engine assigned {} where the simulator expected {}",
                    assignment.question.id, question.id
                )));
            }
            self.last_progress = tick;
            self.events.push(TraceEvent {
                tick,
                kind: EventKind::Lease { worker, question: question.id.0 },
            });
            // The answer's content is decided the moment the worker
            // accepts the assignment; only its delivery is delayed.
            let truth = self.d.is_match(question.pair.0, question.pair.1);
            let says = self.draw_answer(widx, truth);
            let (lo, hi) = self.scenario.cohorts[self.workers[widx].cohort].latency;
            // A degenerate latency range consumes no randomness — this
            // keeps zero-latency cohorts on WireCrowd's exact stream.
            let latency = if lo == hi { lo } else { self.rng.gen_range(lo..=hi) };
            if latency == 0 {
                self.deliver(
                    Pending { worker: widx, question: question.id, says, due: tick },
                    tick,
                )?;
            } else {
                self.workers[widx].busy = true;
                self.pending.push(Pending {
                    worker: widx,
                    question: question.id,
                    says,
                    due: tick + latency,
                });
            }
        }
    }

    /// Whether worker `i` may take question `q` now: present, not
    /// owing an answer, and — per the engine's own lease table —
    /// neither answering nor having answered `q`.
    fn eligible(&self, i: usize, q: QuestionId, tick: u64) -> bool {
        let w = &self.workers[i];
        w.active && !w.busy && !self.engine.is_engaged(&w.name, q, tick)
    }

    fn draw_answer(&mut self, widx: usize, truth: bool) -> bool {
        match self.workers[widx].behavior {
            Behavior::Honest { .. } => {
                let correct = self.rng.gen_bool(self.workers[widx].quality);
                if correct {
                    truth
                } else {
                    !truth
                }
            }
            Behavior::Coin => self.rng.gen_bool(0.5),
            Behavior::AlwaysYes => true,
            Behavior::AlwaysNo => false,
            Behavior::Colluder => !truth,
        }
    }

    fn report(mut self, ticks: u64, complete: bool, stalled: bool) -> SimReport {
        let outcome = self.engine.outcome();
        let eval = evaluate_matches(outcome.matches.iter().copied(), &self.d.gold);
        let records: std::collections::BTreeMap<String, (f64, u64, u64)> = self
            .engine
            .worker_estimates()
            .into_iter()
            .map(|(name, estimate, r)| (name, (estimate, r.scored, r.agreed)))
            .collect();
        let workers: Vec<WorkerReport> = self
            .workers
            .iter()
            .map(|w| {
                let (estimate, scored, agreed) =
                    records.get(&w.name).copied().unwrap_or((self.scenario.qualification, 0, 0));
                WorkerReport {
                    name: w.name.clone(),
                    cohort: self.scenario.cohorts[w.cohort].name.clone(),
                    behavior: w.behavior.code(),
                    true_quality: w.behavior.is_honest().then_some(w.quality),
                    estimate,
                    scored,
                    agreed,
                }
            })
            .collect();
        let estimator = EstimatorReport::from_workers(&workers);
        let trace_hash = trace_hash(&self.events);
        SimReport {
            scenario: self.scenario.name.clone(),
            dataset: self.scenario.dataset.clone(),
            seed: self.scenario.seed,
            ticks,
            complete,
            stalled,
            questions_asked: outcome.questions_asked,
            loops: outcome.loops,
            answers_delivered: self.delivered,
            answers_rejected: self.rejected,
            answers_dropped: self.dropped,
            leases: self.engine.lease_stats(),
            workers_total: self.workers.len(),
            workers_arrived: self.arrived,
            workers_left: self.left,
            outcome,
            eval,
            estimator,
            workers,
            trace: self.events,
            trace_hash,
        }
    }
}
