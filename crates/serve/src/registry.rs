//! The campaign registry: one actor thread per campaign, durable state
//! files, and the request fan-in the HTTP layer talks to.
//!
//! [`RempSession`] borrows its knowledge bases, so each campaign runs on
//! a dedicated **actor thread** that owns the KBs, the session and the
//! [`CampaignEngine`] outright — no self-referential structs, no locks
//! around `&mut` session state. The HTTP handlers send typed
//! [`CampaignRequest`]s over a channel and block on the reply; the actor
//! processes them strictly in arrival order, which is also what makes
//! campaign behaviour deterministic for a deterministic client.
//!
//! Durability is **base + delta frames + answer tail**. The base is one
//! pretty-printed JSON state file per campaign (`{id}.campaign.json`,
//! format version [`STATE_VERSION`]): the session checkpoint plus the
//! crowd-side state the session does not know about (collected answers,
//! worker records, the submission log). On top rides the per-campaign
//! WAL (`{id}.wal`, [`crate::wal`]):
//!
//! * every accepted answer is fsynced into it as an answer record
//!   *before* the 2xx reply, so a `kill -9` loses nothing acknowledged;
//! * every 128 answers (`WAL_COMPACT_EVERY`) the actor appends a delta
//!   frame (the `delta` module): only the state those answers changed,
//!   diffed against the image the base and the earlier frames fold to.
//!
//! The actor writes a new base, and then empties the WAL, only at
//! creation (genesis), when the WAL has outgrown the base, and on
//! `Checkpoint` (graceful shutdown included). Each base write fsyncs the
//! staged file, renames it, and fsyncs the directory before the WAL is
//! reset, so a power loss cannot leave a reset WAL behind a base that
//! never reached the disk. All base writes and delta frames come from
//! the actor, in order, so each frame is diffed against exactly the
//! state on disk. A new `rempd` process pointed at the same directory
//! resumes every campaign by loading the base, folding the delta frames
//! past its `answer_seq`, and replaying the answer records past the
//! last folded frame — mid-batch, mid-question, even mid-record (torn
//! tails are truncated). A frame that does not extend the base and the
//! frame before it fails the resume with a typed `broken_chain` error.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use remp_core::{QuestionId, Remp, RempConfig, RempSession, SessionCheckpoint};
use remp_crowd::WorkerRecord;
use remp_datasets::{generate, preset_by_name};
use remp_ingest::load_kb;
use remp_json::Json;
use remp_kb::Kb;

use crate::clock::{Clock, SystemClock};
use crate::delta::{encode_delta, recover, CampaignImage};
use crate::engine::{CampaignEngine, CrowdPolicy};
use crate::wal::{wal_path, Wal, WalRecord, MAX_DELTA};
use crate::wire::{question_json, verdict_code, ServeError, SubmittedRecord};

/// The campaign's footprint on the global metrics registry: the
/// engine-owned lease counters exposed under a `campaign` label, plus
/// four gauges the actor refreshes after every message. Dropped (all
/// series removed) when the actor stops, so a dead campaign does not
/// linger on `/metrics`.
struct CampaignObs {
    id: String,
    open: remp_obs::Gauge,
    asked: remp_obs::Gauge,
    workers: remp_obs::Gauge,
    complete: remp_obs::Gauge,
}

impl CampaignObs {
    fn register(id: &str, engine: &CampaignEngine<'_>) -> CampaignObs {
        use remp_obs::names;
        let reg = remp_obs::global();
        let labels: &[(&str, &str)] = &[("campaign", id)];
        let lc = engine.lease_counters();
        reg.register_counter(
            names::LEASES_ISSUED_TOTAL,
            "Leases granted, including re-issues.",
            labels,
            &lc.issued,
        );
        reg.register_counter(
            names::LEASES_EXPIRED_TOTAL,
            "Leases that expired unanswered.",
            labels,
            &lc.expired,
        );
        reg.register_counter(
            names::LEASES_REISSUED_TOTAL,
            "Grants that replaced an expired lease on the same question.",
            labels,
            &lc.reissued,
        );
        let gauge = |name: &str, help: &str| {
            let g = remp_obs::Gauge::new();
            reg.register_gauge(name, help, labels, &g);
            g
        };
        let obs = CampaignObs {
            id: id.to_owned(),
            open: gauge(
                names::CAMPAIGN_OPEN_QUESTIONS,
                "Questions currently open (leasable or collecting answers).",
            ),
            asked: gauge(
                names::CAMPAIGN_QUESTIONS_ASKED,
                "Questions submitted to the session so far.",
            ),
            workers: gauge(names::CAMPAIGN_WORKERS, "Workers registered with the campaign."),
            complete: gauge(names::CAMPAIGN_COMPLETE, "1 once the campaign has drained, else 0."),
        };
        obs.refresh(engine);
        obs
    }

    fn refresh(&self, engine: &CampaignEngine<'_>) {
        let (open, asked, workers, complete) = engine.gauge_snapshot();
        self.open.set(open as f64);
        self.asked.set(asked as f64);
        self.workers.set(workers as f64);
        self.complete.set(if complete { 1.0 } else { 0.0 });
    }

    fn deregister(self) {
        remp_obs::global().remove_label_value("campaign", &self.id);
    }
}

/// Wakes the server's long-poll dispatcher. A waiter parking and
/// shutdown always wake it; campaign events that could let a parked
/// `/next` succeed (an accepted answer, which may complete a question
/// and open the next batch, or a pause/resume) wake it only while a
/// waiter is parked, so answers with no long-poll parked leave the
/// dispatcher asleep (only its tick runs). An epoch + condvar: the
/// dispatcher records the epoch it has seen and blocks until it moves
/// past.
#[derive(Debug, Default)]
pub struct CampaignNotifier {
    state: Mutex<NotifyState>,
    cond: Condvar,
    /// Waiters parked and not yet answered.
    parked: AtomicUsize,
}

/// The epoch, and which reasons bumped it since the dispatcher last woke.
#[derive(Debug, Default)]
struct NotifyState {
    epoch: u64,
    pending: [bool; 3],
}

/// Why the long-poll dispatcher was woken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// A waiter parked.
    Park,
    /// A campaign event while waiters were parked.
    Event,
    /// The server or the registry is shutting down.
    Shutdown,
}

/// What [`CampaignNotifier::wait_past`] woke up to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wakeup {
    /// The epoch at wake-up; pass it to the next `wait_past`.
    pub epoch: u64,
    /// Why the epoch moved, or `None` when the wait timed out. When
    /// several causes coalesce, shutdown wins over an event, and an
    /// event over a park.
    pub reason: Option<WakeReason>,
}

impl CampaignNotifier {
    /// The current epoch; pass to [`wait_past`](Self::wait_past).
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("notifier poisoned").epoch
    }

    /// Bumps the epoch and wakes the waiting dispatcher.
    pub fn notify(&self, reason: WakeReason) {
        let mut state = self.state.lock().expect("notifier poisoned");
        state.epoch += 1;
        state.pending[reason as usize] = true;
        drop(state);
        self.cond.notify_all();
    }

    /// A campaign event: [`notify`](Self::notify)s only while a waiter
    /// is parked. Call it after the event's state change, from the
    /// thread that made it: a waiter counted later is re-polled by the
    /// dispatcher anyway, since parking always notifies.
    pub fn campaign_event(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            self.notify(WakeReason::Event);
        }
    }

    /// Counts a waiter in, before it becomes visible to the dispatcher.
    pub fn waiter_parked(&self) {
        self.parked.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts an answered waiter out.
    pub fn waiter_released(&self) {
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until the epoch moves past `seen` or `timeout` elapses.
    pub fn wait_past(&self, seen: u64, timeout: std::time::Duration) -> Wakeup {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("notifier poisoned");
        while state.epoch <= seen {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Wakeup { epoch: state.epoch, reason: None };
            }
            let (guard, _) = self.cond.wait_timeout(state, left).expect("notifier poisoned");
            state = guard;
        }
        let pending = std::mem::take(&mut state.pending);
        let reason = [WakeReason::Shutdown, WakeReason::Event, WakeReason::Park]
            .into_iter()
            .find(|&reason| pending[reason as usize]);
        Wakeup { epoch: state.epoch, reason }
    }
}

/// Process-global WAL instruments every campaign actor reports into:
/// counters for `/metrics` plus the live on-disk byte total `/healthz`
/// shows as serving pressure.
#[derive(Clone)]
struct WalObs {
    records: remp_obs::Counter,
    bytes: remp_obs::Counter,
    delta_frames: remp_obs::Counter,
    delta_bytes: remp_obs::Counter,
    /// Base writes, one counter per [`BaseReason`].
    base_writes: [remp_obs::Counter; 3],
    live_bytes: Arc<AtomicU64>,
}

impl WalObs {
    fn new() -> WalObs {
        use remp_obs::names;
        let reg = remp_obs::global();
        let base_writes = BaseReason::ALL.map(|reason| {
            reg.counter(
                names::STATE_BASE_WRITES_TOTAL,
                "Campaign base state files written, by reason.",
                &[("reason", reason.label())],
            )
        });
        WalObs {
            records: reg.counter(
                names::WAL_RECORDS_TOTAL,
                "Answer records appended to campaign write-ahead logs.",
                &[],
            ),
            bytes: reg.counter(
                names::WAL_BYTES_TOTAL,
                "Bytes appended to campaign write-ahead logs.",
                &[],
            ),
            delta_frames: reg.counter(
                names::WAL_DELTA_FRAMES_TOTAL,
                "Delta frames appended to campaign write-ahead logs.",
                &[],
            ),
            delta_bytes: reg.counter(
                names::WAL_DELTA_BYTES_TOTAL,
                "Bytes of delta frames appended to campaign write-ahead logs.",
                &[],
            ),
            base_writes,
            live_bytes: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Why the actor wrote a new base state file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BaseReason {
    /// The campaign was just created.
    Genesis,
    /// The WAL grew past the base (or no base could be diffed against).
    Outgrown,
    /// A `Checkpoint` request — `checkpoint_all` and graceful shutdown.
    Checkpoint,
}

impl BaseReason {
    const ALL: [BaseReason; 3] =
        [BaseReason::Genesis, BaseReason::Outgrown, BaseReason::Checkpoint];

    fn label(self) -> &'static str {
        match self {
            BaseReason::Genesis => "genesis",
            BaseReason::Outgrown => "outgrown",
            BaseReason::Checkpoint => "checkpoint",
        }
    }
}

/// Version tag of the campaign state-file format.
pub const STATE_VERSION: u64 = 1;

/// Where a campaign's knowledge bases come from.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignSource {
    /// A named synthetic preset (deterministic: the same preset+scale
    /// regenerates the same KBs on every host).
    Preset {
        /// Preset name (e.g. `TINY`, `IIMB`).
        preset: String,
        /// World-size multiplier.
        scale: f64,
    },
    /// Two server-side KB files (`.nt`, CSV directory, or `.rkb`).
    Files {
        /// First KB path.
        kb1: PathBuf,
        /// Second KB path.
        kb2: PathBuf,
    },
}

impl CampaignSource {
    fn to_json(&self) -> Json {
        match self {
            CampaignSource::Preset { preset, scale } => Json::Obj(vec![
                ("kind".into(), Json::from("preset")),
                ("preset".into(), Json::from(preset.as_str())),
                ("scale".into(), Json::from(*scale)),
            ]),
            CampaignSource::Files { kb1, kb2 } => Json::Obj(vec![
                ("kind".into(), Json::from("files")),
                ("kb1".into(), Json::from(kb1.display().to_string())),
                ("kb2".into(), Json::from(kb2.display().to_string())),
            ]),
        }
    }

    fn from_json(doc: &Json) -> Result<CampaignSource, ServeError> {
        let bad = |msg: &str| ServeError::internal("bad_state", format!("campaign source: {msg}"));
        match doc.get("kind").and_then(Json::as_str) {
            Some("preset") => Ok(CampaignSource::Preset {
                preset: doc
                    .get("preset")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing preset"))?
                    .to_owned(),
                scale: doc
                    .get("scale")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("missing scale"))?,
            }),
            Some("files") => Ok(CampaignSource::Files {
                kb1: PathBuf::from(
                    doc.get("kb1").and_then(Json::as_str).ok_or_else(|| bad("missing kb1"))?,
                ),
                kb2: PathBuf::from(
                    doc.get("kb2").and_then(Json::as_str).ok_or_else(|| bad("missing kb2"))?,
                ),
            }),
            _ => Err(bad("unknown kind")),
        }
    }

    fn load(&self) -> Result<(Kb, Kb), ServeError> {
        match self {
            CampaignSource::Preset { preset, scale } => {
                let spec = preset_by_name(preset, *scale).ok_or_else(|| {
                    ServeError::bad_request("unknown_preset", format!("no preset {preset:?}"))
                })?;
                let d = generate(&spec);
                Ok((d.kb1, d.kb2))
            }
            CampaignSource::Files { kb1, kb2 } => {
                let load = |path: &Path, name: &str| {
                    load_kb(path, name).map_err(|e| {
                        ServeError::bad_request("bad_kb", format!("{}: {e}", path.display()))
                    })
                };
                Ok((load(kb1, "kb1")?.kb, load(kb2, "kb2")?.kb))
            }
        }
    }
}

/// Everything needed to (re)start a campaign actor.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Operator-chosen display name.
    pub name: String,
    /// KB source.
    pub source: CampaignSource,
    /// Pipeline configuration.
    pub config: RempConfig,
    /// Crowd policy.
    pub policy: CrowdPolicy,
}

/// A base state file read back for resume.
struct Base {
    image: CampaignImage,
    /// The file's size — the WAL may grow to this before the actor
    /// writes a new base.
    bytes: u64,
}

/// Operations the HTTP layer can ask of a campaign actor.
pub enum CampaignRequest {
    /// Lease the next question for a worker.
    Next {
        /// Requesting worker.
        worker: String,
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// Record one worker's answer.
    Answer {
        /// Answering worker.
        worker: String,
        /// The question being answered.
        question: QuestionId,
        /// The worker's label.
        says_match: bool,
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// Aggregate status.
    Status {
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// The open questions with progress counts.
    Questions {
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// Per-worker quality estimates and score records.
    Workers,
    /// The (provisional) outcome plus submission log.
    Outcome,
    /// Stop handing out or accepting work.
    Pause,
    /// Resume a paused campaign.
    Resume,
    /// Serialize the full campaign state (state-file body); with a
    /// state directory, also write it as the campaign's new base.
    Checkpoint,
    /// Terminate the actor thread.
    Stop,
}

struct Call {
    request: CampaignRequest,
    reply: Sender<Result<Json, ServeError>>,
}

/// Client handle to one campaign actor.
struct CampaignHandle {
    name: String,
    tx: Sender<Call>,
    join: Option<JoinHandle<()>>,
}

/// The set of live campaigns plus the durable state directory.
pub struct Registry {
    state_dir: Option<PathBuf>,
    clock: Arc<dyn Clock>,
    started: std::time::Instant,
    inner: Mutex<RegistryInner>,
    scale: crate::scale::ScaleJobs,
    notifier: Arc<CampaignNotifier>,
    wal_obs: WalObs,
}

struct RegistryInner {
    campaigns: BTreeMap<String, CampaignHandle>,
}

/// Fresh campaign ids (`c0`, `c1`, …) come from a process-global
/// counter: the metrics registry and event ring are process-global and
/// keyed by campaign id, so two registries in one process (test
/// binaries open many) must never host two live campaigns with the
/// same id.
static NEXT_CAMPAIGN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Milliseconds since the Unix epoch — the default lease clock.
///
/// Kept as a free function for callers that stamp requests themselves;
/// a registry reads its own injected [`Clock`] via
/// [`Registry::now_ms`].
pub fn now_ms() -> u64 {
    SystemClock.now_ms()
}

impl Registry {
    /// Creates a registry on the wall clock; with a state directory,
    /// campaigns checkpointed by a previous process are resumed
    /// immediately.
    pub fn open(state_dir: Option<PathBuf>) -> Result<Registry, ServeError> {
        Registry::open_with_clock(state_dir, Arc::new(SystemClock))
    }

    /// [`Registry::open`] with an injected lease clock — the hook the
    /// mock-clock tests and the `remp-sim` simulator use to run lease
    /// expiry on virtual time.
    pub fn open_with_clock(
        state_dir: Option<PathBuf>,
        clock: Arc<dyn Clock>,
    ) -> Result<Registry, ServeError> {
        let registry = Registry {
            state_dir,
            clock,
            started: std::time::Instant::now(),
            inner: Mutex::new(RegistryInner { campaigns: BTreeMap::new() }),
            scale: crate::scale::ScaleJobs::default(),
            notifier: Arc::new(CampaignNotifier::default()),
            wal_obs: WalObs::new(),
        };
        if let Some(dir) = registry.state_dir.clone() {
            fs::create_dir_all(&dir).map_err(|e| {
                ServeError::internal("state_dir", format!("{}: {e}", dir.display()))
            })?;
            let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
                .map_err(|e| ServeError::internal("state_dir", format!("{}: {e}", dir.display())))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name().is_some_and(|n| n.to_string_lossy().ends_with(".campaign.json"))
                })
                .collect();
            entries.sort();
            for path in entries {
                // One unresumable file (moved KB source, truncated JSON
                // from a hard kill) must not take the healthy campaigns
                // down with it: skip it, leave it on disk for forensics,
                // and keep serving.
                if let Err(e) = registry.resume_from_file(&path) {
                    eprintln!("rempd: skipping unresumable state file {}: {e}", path.display());
                }
            }
        }
        Ok(registry)
    }

    /// The current reading of this registry's lease clock.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// The sharded-campaign coordinators behind the `/scale` routes.
    pub fn scale_jobs(&self) -> &crate::scale::ScaleJobs {
        &self.scale
    }

    /// The long-poll notifier — while a `/next` is parked, campaign
    /// actors bump it on every event that could unblock it (accepted
    /// answer, pause flip); shutdown always bumps it, and the server's
    /// dispatcher waits on it.
    pub fn notifier(&self) -> Arc<CampaignNotifier> {
        Arc::clone(&self.notifier)
    }

    /// Long-poll `/next` requests parked on this registry's server and
    /// not yet answered.
    pub(crate) fn longpoll_waiters(&self) -> usize {
        self.notifier.parked.load(Ordering::SeqCst)
    }

    /// Total on-disk bytes across the live campaigns' answer WALs —
    /// the `/healthz` serving-pressure number.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_obs.live_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Wall-clock seconds since this registry was opened — the
    /// `/healthz` uptime.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Ids of the live campaigns, with their display names.
    pub fn list(&self) -> Vec<(String, String)> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.campaigns.iter().map(|(id, h)| (id.clone(), h.name.clone())).collect()
    }

    /// Creates a campaign and waits until its actor loaded the KBs,
    /// opened the session and, with a state directory, wrote the
    /// genesis base (so creation errors surface synchronously).
    pub fn create(&self, spec: CampaignSpec) -> Result<String, ServeError> {
        spec.policy.validate()?;
        spec.config.validate().map_err(|e| ServeError::bad_request("bad_config", e.to_string()))?;
        let id =
            format!("c{}", NEXT_CAMPAIGN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        self.spawn(id.clone(), spec, None)?;
        Ok(id)
    }

    fn resume_from_file(&self, path: &Path) -> Result<(), ServeError> {
        let text = fs::read_to_string(path)
            .map_err(|e| ServeError::internal("state_file", format!("{}: {e}", path.display())))?;
        let (id, spec, image) = decode_state_file(&text).map_err(|mut e| {
            e.message = format!("{}: {}", path.display(), e.message);
            e
        })?;
        let resume = Base { image, bytes: text.len() as u64 };
        {
            let inner = self.inner.lock().expect("registry poisoned");
            if inner.campaigns.contains_key(&id) {
                return Err(ServeError::internal(
                    "state_file",
                    format!("duplicate campaign id {id:?} in state directory"),
                ));
            }
            // Keep fresh ids clear of resumed ones.
            if let Some(n) = id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()) {
                NEXT_CAMPAIGN_ID.fetch_max(n + 1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.spawn(id, spec, Some(resume))
    }

    fn spawn(
        &self,
        id: String,
        spec: CampaignSpec,
        resume: Option<Base>,
    ) -> Result<(), ServeError> {
        let (tx, rx) = mpsc::channel::<Call>();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), ServeError>>();
        let actor_spec = spec.clone();
        let actor_id = id.clone();
        let shared = ActorShared {
            state_dir: self.state_dir.clone(),
            notifier: Arc::clone(&self.notifier),
            wal: self.wal_obs.clone(),
        };
        let join = std::thread::Builder::new()
            .name(format!("campaign-{id}"))
            .spawn(move || {
                campaign_actor(&actor_id, actor_spec, resume, shared, ready_tx, rx);
                release_freed_memory();
            })
            .map_err(|e| ServeError::internal("spawn", e.to_string()))?;
        match ready_rx.recv() {
            Ok(Ok(())) => {
                let mut inner = self.inner.lock().expect("registry poisoned");
                inner
                    .campaigns
                    .insert(id, CampaignHandle { name: spec.name, tx, join: Some(join) });
                Ok(())
            }
            Ok(Err(e)) => {
                let _ = join.join();
                Err(e)
            }
            Err(_) => {
                let _ = join.join();
                Err(ServeError::internal("spawn", "campaign actor died during startup"))
            }
        }
    }

    /// Sends one request to a campaign actor and waits for the reply.
    pub fn call(&self, id: &str, request: CampaignRequest) -> Result<Json, ServeError> {
        let tx = {
            let inner = self.inner.lock().expect("registry poisoned");
            let handle = inner.campaigns.get(id).ok_or_else(|| {
                ServeError::not_found("unknown_campaign", format!("no campaign {id:?}"))
            })?;
            handle.tx.clone()
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(Call { request, reply: reply_tx })
            .map_err(|_| ServeError::internal("campaign_dead", format!("campaign {id} stopped")))?;
        reply_rx
            .recv()
            .map_err(|_| ServeError::internal("campaign_dead", format!("campaign {id} stopped")))?
    }

    /// Writes every campaign's full state file as its new base (and
    /// empties its WAL); returns how many were saved. A no-op without a
    /// state directory.
    ///
    /// Best-effort per campaign: one failing write (full disk,
    /// permissions) does not stop the others from being saved — the
    /// error reported is the first one encountered, after every
    /// campaign has been attempted. Each file lands atomically (fsynced
    /// temp file + rename + directory fsync), so a crash mid-write can
    /// never leave a truncated state file behind.
    pub fn checkpoint_all(&self) -> Result<usize, ServeError> {
        if self.state_dir.is_none() {
            return Ok(0);
        }
        let ids: Vec<String> = self.list().into_iter().map(|(id, _)| id).collect();
        let mut saved = 0;
        let mut first_error: Option<ServeError> = None;
        for id in ids {
            match self.call(&id, CampaignRequest::Checkpoint) {
                Ok(_) => saved += 1,
                Err(e) => {
                    eprintln!("rempd: failed to checkpoint campaign {id}: {e}");
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            None => Ok(saved),
            Some(e) => Err(e),
        }
    }

    /// Checkpoints (when durable) and stops every campaign actor.
    ///
    /// The actors are always stopped and joined, even when some
    /// checkpoints could not be written — a shutdown must not leave
    /// threads behind because a disk filled up.
    pub fn shutdown(&self) -> Result<usize, ServeError> {
        let checkpointed = self.checkpoint_all();
        let handles: Vec<CampaignHandle> = {
            let mut inner = self.inner.lock().expect("registry poisoned");
            std::mem::take(&mut inner.campaigns).into_values().collect()
        };
        for mut handle in handles {
            let (reply_tx, _reply_rx) = mpsc::channel();
            let _ = handle.tx.send(Call { request: CampaignRequest::Stop, reply: reply_tx });
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
        // Unblock any long-poll waiter still parked on a campaign.
        self.notifier.notify(WakeReason::Shutdown);
        checkpointed
    }
}

/// Atomically and durably writes `{id}.campaign.json`: the staged file
/// is fsynced before the rename and the directory after it, so once
/// this returns the base survives a power loss, and the WAL it folds
/// may be reset. Returns the file's size.
fn write_state_file(dir: &Path, id: &str, body: &Json) -> Result<u64, ServeError> {
    use std::io::Write;
    let path = dir.join(format!("{id}.campaign.json"));
    let staging = dir.join(format!(".{id}.campaign.json.tmp"));
    let io_err = |p: &Path, e: std::io::Error| {
        ServeError::internal("state_file", format!("{}: {e}", p.display()))
    };
    let text = body.to_pretty_string();
    let mut file = fs::File::create(&staging).map_err(|e| io_err(&staging, e))?;
    file.write_all(text.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| io_err(&staging, e))?;
    drop(file);
    fs::rename(&staging, &path).map_err(|e| io_err(&path, e))?;
    crate::wal::sync_dir(dir).map_err(|e| io_err(dir, e))?;
    Ok(text.len() as u64)
}

// ---- the actor --------------------------------------------------------

/// Hands freed heap pages back to the OS once a campaign actor is done.
/// A campaign's KBs and session are tens of MB in the actor thread's
/// malloc arena, and glibc keeps freed arena pages resident: without
/// this, a server that hosts campaigns one after another grows by a
/// campaign's footprint per arena until every arena has held one.
#[cfg(target_env = "gnu")]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator already holds as free.
    unsafe { malloc_trim(0) };
}

#[cfg(not(target_env = "gnu"))]
fn release_freed_memory() {}

/// Accepted answers between compactions. Each compaction appends one
/// delta frame, so replay-on-restart re-applies at most this many
/// answers per campaign regardless of campaign length.
const WAL_COMPACT_EVERY: u64 = 128;

/// Registry-owned resources every actor shares.
struct ActorShared {
    state_dir: Option<PathBuf>,
    notifier: Arc<CampaignNotifier>,
    wal: WalObs,
}

/// Per-actor durability state threaded through request handling.
struct ActorDurability {
    wal: Option<Wal>,
    /// Monotone count of accepted answers — the WAL record seq.
    answer_seq: u64,
    /// Appends since the last delta frame or base.
    since_compact: u64,
    /// Bytes this actor last folded into the shared live-bytes total.
    reported_bytes: u64,
    /// What the base plus the WAL's delta frames fold to — the state
    /// the next delta is diffed against. `None` until a base is on disk.
    image: Option<CampaignImage>,
    /// `answer_seq` of the base on disk.
    base_seq: u64,
    /// Size of the base on disk; the WAL may grow to this.
    base_bytes: u64,
}

/// Reconciles this actor's WAL size into the shared live-bytes gauge.
fn sync_wal_bytes(shared: &WalObs, d: &mut ActorDurability) {
    use std::sync::atomic::Ordering;
    let now = d.wal.as_ref().map_or(0, Wal::bytes);
    match now.cmp(&d.reported_bytes) {
        std::cmp::Ordering::Greater => {
            shared.live_bytes.fetch_add(now - d.reported_bytes, Ordering::Relaxed);
        }
        std::cmp::Ordering::Less => {
            shared.live_bytes.fetch_sub(d.reported_bytes - now, Ordering::Relaxed);
        }
        std::cmp::Ordering::Equal => {}
    }
    d.reported_bytes = now;
}

/// Writes `image` as the campaign's new base, then empties the WAL it
/// folds, and makes `image` what the next delta is diffed against.
/// Returns the state-file body.
fn write_base(
    id: &str,
    spec: &CampaignSpec,
    dir: &Path,
    image: CampaignImage,
    reason: BaseReason,
    shared: &ActorShared,
    d: &mut ActorDurability,
) -> Result<Json, ServeError> {
    let body = encode_state(id, spec, &image);
    let bytes = write_state_file(dir, id, &body)?;
    if let Some(wal) = d.wal.as_mut() {
        // A failed reset leaves frames the new base already holds; the
        // next replay skips them by seq.
        if let Err(e) = wal.reset() {
            eprintln!("rempd: campaign {id}: failed to empty the WAL behind a new base: {e}");
        }
    }
    let wal_bytes = d.wal.as_ref().map_or(0, Wal::bytes);
    shared.wal.base_writes[reason as usize].inc();
    remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
        (
            "base state file written".to_owned(),
            vec![
                ("reason", Json::from(reason.label())),
                ("answer_seq", Json::from(image.answer_seq)),
                ("bytes", Json::from(bytes)),
                ("wal_bytes", Json::from(wal_bytes)),
            ],
        )
    });
    d.base_seq = image.answer_seq;
    d.base_bytes = bytes;
    d.image = Some(image);
    d.since_compact = 0;
    sync_wal_bytes(&shared.wal, d);
    Ok(body)
}

/// Compaction, every [`WAL_COMPACT_EVERY`] accepted answers: appends a
/// delta frame holding what changed since the last image, or writes a
/// new base when the WAL would outgrow the current one. Best-effort: a
/// failed write keeps the last durable image and retries on the next
/// answer; the answer records stay in the WAL either way.
fn maybe_compact(
    id: &str,
    spec: &CampaignSpec,
    engine: &CampaignEngine<'_>,
    shared: &ActorShared,
    d: &mut ActorDurability,
) {
    if d.since_compact < WAL_COMPACT_EVERY {
        return;
    }
    let (Some(dir), Some(wal)) = (&shared.state_dir, d.wal.as_mut()) else { return };
    let current = CampaignImage::capture(engine, d.answer_seq);
    let delta = d.image.as_ref().and_then(|prev| encode_delta(prev, &current, d.base_seq));
    match delta {
        Some(body)
            if body.len() <= MAX_DELTA && wal.bytes() + body.len() as u64 <= d.base_bytes =>
        {
            match wal.append_delta(&body) {
                Ok(appended) => {
                    shared.wal.delta_frames.inc();
                    shared.wal.delta_bytes.add(appended);
                    d.image = Some(current);
                    d.since_compact = 0;
                    sync_wal_bytes(&shared.wal, d);
                }
                Err(e) => eprintln!("rempd: campaign {id}: appending delta frame failed: {e}"),
            }
        }
        _ => {
            if let Err(e) = write_base(id, spec, dir, current, BaseReason::Outgrown, shared, d) {
                eprintln!("rempd: campaign {id}: writing a new base failed, keeping WAL: {e}");
            }
        }
    }
}

/// A resumed campaign's state after folding its WAL.
struct Recovered {
    /// The base with every delta frame folded in.
    image: CampaignImage,
    /// `answer_seq` of the base on disk.
    base_seq: u64,
    /// Size of the base on disk.
    base_bytes: u64,
    /// Answer records past the last folded frame, in order.
    tail: Vec<WalRecord>,
}

/// Opens the campaign's WAL and recovers from it: for a resumed
/// campaign, the base with every delta frame folded in plus the answer
/// records past them; for a fresh one, an emptied log (a stale log left
/// under the same id by an earlier process must not be inherited).
fn open_wal(
    id: &str,
    path: &Path,
    resume: Option<Base>,
) -> Result<(Wal, Option<Recovered>), ServeError> {
    let wal_err = |msg: String| ServeError::internal("wal", format!("{}: {msg}", path.display()));
    let (mut wal, replay) = Wal::open(path).map_err(|e| wal_err(e.to_string()))?;
    if let Some(dropped) = replay.truncated_tail {
        eprintln!("rempd: campaign {id}: truncated {dropped} torn WAL byte(s) left by a crash");
    }
    let Some(base) = resume else {
        if !replay.frames.is_empty() {
            wal.reset().map_err(|e| wal_err(format!("resetting stale WAL: {e}")))?;
        }
        return Ok((wal, None));
    };
    let base_seq = base.image.answer_seq;
    let (image, tail) = recover(base.image, replay.frames, path)?;
    Ok((wal, Some(Recovered { image, base_seq, base_bytes: base.bytes, tail })))
}

fn campaign_actor(
    id: &str,
    spec: CampaignSpec,
    resume: Option<Base>,
    shared: ActorShared,
    ready: Sender<Result<(), ServeError>>,
    rx: Receiver<Call>,
) {
    // Load/own the KBs, then borrow them for the session — the entire
    // reason this runs on its own thread.
    let loaded = spec.source.load();
    let (kb1, kb2) = match loaded {
        Ok(kbs) => kbs,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    let resumed = resume.is_some();
    let mut durability = ActorDurability {
        wal: None,
        answer_seq: 0,
        since_compact: 0,
        reported_bytes: 0,
        image: None,
        base_seq: 0,
        base_bytes: 0,
    };
    // Fold the WAL into the base before building the engine, and replay
    // its answer tail before signalling ready, so resume errors surface
    // synchronously and no request can race the replay.
    let mut recovered = None;
    if let Some(dir) = &shared.state_dir {
        match open_wal(id, &wal_path(dir, id), resume) {
            Ok((wal, r)) => {
                durability.wal = Some(wal);
                recovered = r;
            }
            Err(e) => {
                let _ = ready.send(Err(e));
                return;
            }
        }
    }
    let engine = match &recovered {
        None => Remp::new(spec.config.clone())
            .begin(&kb1, &kb2)
            .map_err(|e| ServeError::bad_request("bad_config", e.to_string()))
            .map(|session| CampaignEngine::new(session, spec.policy.clone())),
        Some(r) => {
            let state = r.image.clone();
            RempSession::resume(&kb1, &kb2, state.session)
                .map_err(|e| ServeError::internal("bad_state", e.to_string()))
                .and_then(|session| {
                    CampaignEngine::resume(
                        session,
                        spec.policy.clone(),
                        state.workers,
                        state.answers,
                        state.log,
                        state.paused,
                    )
                })
        }
    };
    let mut engine = match engine {
        Ok(engine) => engine,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    if let Some(r) = recovered {
        durability.answer_seq = r.image.answer_seq;
        durability.base_seq = r.base_seq;
        durability.base_bytes = r.base_bytes;
        durability.image = Some(r.image);
        let replayed = r.tail.len();
        for record in r.tail {
            if let Err(e) = engine.replay_answer(
                &record.worker,
                QuestionId(record.question),
                record.says_match,
                record.now_ms,
            ) {
                let _ = ready.send(Err(ServeError::internal(
                    "wal",
                    format!("campaign {id}: replaying answer seq {}: {}", record.seq, e.message),
                )));
                return;
            }
            durability.answer_seq = record.seq;
            durability.since_compact += 1;
        }
        if replayed > 0 {
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                (
                    "WAL answers replayed over base and deltas".to_owned(),
                    vec![("replayed", Json::from(replayed))],
                )
            });
        }
    } else if let Some(dir) = &shared.state_dir {
        // Genesis: a crash before the first compaction needs a base for
        // WAL replay to land on. Its directory fsync also makes the new
        // WAL file's directory entry durable.
        let image = CampaignImage::capture(&engine, durability.answer_seq);
        if let Err(e) =
            write_base(id, &spec, dir, image, BaseReason::Genesis, &shared, &mut durability)
        {
            eprintln!("rempd: failed to write genesis base for {id}: {e}");
        }
    }
    sync_wal_bytes(&shared.wal, &mut durability);

    if ready.send(Ok(())).is_err() {
        return;
    }
    // Observability is observation-only: registration and the per-message
    // gauge refresh never influence engine decisions.
    let obs = remp_obs::enabled().then(|| CampaignObs::register(id, &engine));
    remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
        (
            if resumed {
                "campaign resumed from checkpoint".to_owned()
            } else {
                "campaign started".to_owned()
            },
            vec![("name", Json::from(spec.name.as_str()))],
        )
    });

    while let Ok(Call { request, reply }) = rx.recv() {
        if matches!(request, CampaignRequest::Stop) {
            let _ = reply.send(Ok(Json::Null));
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                ("campaign stopped".to_owned(), Vec::new())
            });
            if let Some(obs) = obs {
                obs.deregister();
            }
            durability.wal = None;
            sync_wal_bytes(&shared.wal, &mut durability);
            return;
        }
        // These can unblock a parked long-poll `/next` (or tell it to
        // fail fast); after a successful one, wake the dispatcher if
        // it holds waiters.
        let wakes_waiters = matches!(
            request,
            CampaignRequest::Answer { .. } | CampaignRequest::Resume | CampaignRequest::Pause
        );
        let response = handle_request(id, &spec, &mut engine, request, &shared, &mut durability);
        let succeeded = response.is_ok();
        let _ = reply.send(response);
        if let Some(obs) = &obs {
            obs.refresh(&engine);
        }
        if succeeded && wakes_waiters {
            maybe_compact(id, &spec, &engine, &shared, &mut durability);
            shared.notifier.campaign_event();
        }
    }
    durability.wal = None;
    sync_wal_bytes(&shared.wal, &mut durability);
    if let Some(obs) = obs {
        obs.deregister();
    }
}

fn handle_request(
    id: &str,
    spec: &CampaignSpec,
    engine: &mut CampaignEngine<'_>,
    request: CampaignRequest,
    shared: &ActorShared,
    durability: &mut ActorDurability,
) -> Result<Json, ServeError> {
    match request {
        CampaignRequest::Next { worker, now_ms } => {
            let assignment = engine.next_for(&worker, now_ms)?;
            let complete = engine.is_complete();
            // With nothing assignable right now, tell the caller (and
            // the long-poll dispatcher) when a lease expiry could
            // change that.
            let retry_at_ms = if assignment.is_none() && !complete {
                engine.earliest_lease_deadline()
            } else {
                None
            };
            Ok(Json::Obj(vec![
                (
                    "assignment".into(),
                    match &assignment {
                        None => Json::Null,
                        Some(a) => question_json(&a.question),
                    },
                ),
                (
                    "deadline_ms".into(),
                    assignment.as_ref().map_or(Json::Null, |a| Json::from(a.deadline_ms)),
                ),
                ("complete".into(), Json::from(complete)),
                ("retry_at_ms".into(), retry_at_ms.map_or(Json::Null, Json::from)),
            ]))
        }
        CampaignRequest::Answer { worker, question, says_match, now_ms } => {
            let ack = engine.answer(&worker, question, says_match, now_ms)?;
            // The answer is accepted: make it durable before anything
            // is acknowledged. A failed append is a 500 — the engine
            // holds the answer, but the client must not treat it as
            // safely recorded.
            durability.answer_seq += 1;
            if let Some(wal) = durability.wal.as_mut() {
                let record = WalRecord {
                    seq: durability.answer_seq,
                    question: question.0,
                    worker: worker.clone(),
                    says_match,
                    now_ms,
                };
                match wal.append(&record) {
                    Ok(appended) => {
                        shared.wal.records.inc();
                        shared.wal.bytes.add(appended);
                        durability.since_compact += 1;
                    }
                    Err(e) => {
                        let path = wal.path().display().to_string();
                        return Err(ServeError::internal(
                            "wal",
                            format!("{path}: appending answer record: {e}"),
                        ));
                    }
                }
                sync_wal_bytes(&shared.wal, durability);
            }
            if let Some(s) = &ack.submitted {
                remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                    (
                        "question submitted".to_owned(),
                        vec![
                            ("question", Json::from(question.to_string())),
                            ("verdict", Json::from(verdict_code(s.verdict))),
                            ("posterior", Json::from(s.posterior)),
                            ("propagated", Json::from(s.propagated)),
                            ("batch_complete", Json::from(s.batch_complete)),
                        ],
                    )
                });
            }
            Ok(Json::Obj(vec![
                ("question".into(), Json::from(question.to_string())),
                ("collected".into(), Json::from(ack.collected)),
                ("required".into(), Json::from(ack.required)),
                (
                    "submitted".into(),
                    match ack.submitted {
                        None => Json::Null,
                        Some(s) => Json::Obj(vec![
                            ("verdict".into(), Json::from(verdict_code(s.verdict))),
                            ("posterior".into(), Json::from(s.posterior)),
                            ("propagated".into(), Json::from(s.propagated)),
                            ("batch_complete".into(), Json::from(s.batch_complete)),
                        ]),
                    },
                ),
            ]))
        }
        CampaignRequest::Status { now_ms } => {
            let p = engine.progress(now_ms)?;
            Ok(Json::Obj(vec![
                ("name".into(), Json::from(spec.name.as_str())),
                ("paused".into(), Json::from(p.paused)),
                ("complete".into(), Json::from(p.complete)),
                ("loops".into(), Json::from(p.loops)),
                ("questions_asked".into(), Json::from(p.questions_asked)),
                ("issued".into(), Json::from(p.issued)),
                ("open".into(), Json::from(p.open.len())),
                ("workers".into(), Json::from(p.workers)),
                ("per_question".into(), Json::from(engine.policy().per_question)),
                ("leases".into(), crate::engine::lease_stats_json(p.leases)),
                (
                    "worker_quality".into(),
                    crate::engine::worker_quality_json(&engine.worker_estimates()),
                ),
                ("loop_stats".into(), crate::engine::loop_stats_json(engine.loop_stats())),
            ]))
        }
        CampaignRequest::Questions { now_ms } => {
            let open = engine.open_questions(now_ms)?;
            Ok(Json::Obj(vec![(
                "questions".into(),
                Json::Arr(
                    open.into_iter()
                        .map(|(q, collected, leases)| {
                            let mut doc = question_json(&q);
                            if let Json::Obj(fields) = &mut doc {
                                fields.push(("collected".into(), Json::from(collected)));
                                fields.push(("leases".into(), Json::from(leases)));
                            }
                            doc
                        })
                        .collect(),
                ),
            )]))
        }
        CampaignRequest::Workers => {
            let workers = engine.worker_estimates();
            Ok(Json::Obj(vec![
                ("count".into(), Json::from(workers.len())),
                (
                    "workers".into(),
                    Json::Arr(
                        workers
                            .into_iter()
                            .map(|(name, estimate, r)| {
                                Json::Obj(vec![
                                    ("name".into(), Json::from(name)),
                                    ("estimate".into(), Json::from(estimate)),
                                    ("qualification".into(), Json::from(r.qualification)),
                                    ("scored".into(), Json::from(r.scored)),
                                    ("agreed".into(), Json::from(r.agreed)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        CampaignRequest::Outcome => {
            let outcome = engine.outcome();
            Ok(crate::wire::outcome_json(&outcome, engine.log()))
        }
        CampaignRequest::Pause => {
            engine.pause();
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                ("campaign paused".to_owned(), Vec::new())
            });
            Ok(Json::Obj(vec![("paused".into(), Json::from(true))]))
        }
        CampaignRequest::Resume => {
            engine.unpause();
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                ("campaign resumed".to_owned(), Vec::new())
            });
            Ok(Json::Obj(vec![("paused".into(), Json::from(false))]))
        }
        CampaignRequest::Checkpoint => {
            let image = CampaignImage::capture(engine, durability.answer_seq);
            match &shared.state_dir {
                Some(dir) => {
                    write_base(id, spec, dir, image, BaseReason::Checkpoint, shared, durability)
                }
                None => Ok(encode_state(id, spec, &image)),
            }
        }
        CampaignRequest::Stop => unreachable!("handled by the actor loop"),
    }
}

// ---- state files ------------------------------------------------------

/// The state-file body for `image`, stamped with the campaign id so the
/// file is self-describing.
fn encode_state(id: &str, spec: &CampaignSpec, image: &CampaignImage) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::UInt(STATE_VERSION)),
        ("id".into(), Json::from(id)),
        ("name".into(), Json::from(spec.name.as_str())),
        ("source".into(), spec.source.to_json()),
        (
            "policy".into(),
            Json::Obj(vec![
                ("per_question".into(), Json::from(spec.policy.per_question)),
                ("qualification".into(), Json::from(spec.policy.qualification)),
                ("quality_weight".into(), Json::from(spec.policy.quality_weight)),
                ("lease_ms".into(), Json::from(spec.policy.lease_ms)),
            ]),
        ),
        ("paused".into(), Json::from(image.paused)),
        ("answer_seq".into(), Json::UInt(image.answer_seq)),
        (
            "workers".into(),
            Json::Arr(
                image
                    .workers
                    .iter()
                    .map(|(name, r)| {
                        Json::Obj(vec![
                            ("name".into(), Json::from(name.as_str())),
                            ("qualification".into(), Json::from(r.qualification)),
                            ("scored".into(), Json::from(r.scored)),
                            ("agreed".into(), Json::from(r.agreed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "answers".into(),
            Json::Arr(
                image
                    .answers
                    .iter()
                    .map(|(q, w, says)| {
                        Json::Arr(vec![Json::from(*q), Json::from(w.as_str()), Json::from(*says)])
                    })
                    .collect(),
            ),
        ),
        ("log".into(), Json::Arr(image.log.iter().map(SubmittedRecord::to_json).collect())),
        ("session".into(), image.session.to_json()),
    ])
}

/// Decodes a state file written next to an `{id}.campaign.json` name.
fn decode_state_file(text: &str) -> Result<(String, CampaignSpec, CampaignImage), ServeError> {
    let bad = |msg: String| ServeError::internal("state_file", msg);
    let doc = Json::parse(text).map_err(|e| bad(format!("not JSON: {e}")))?;
    let version = doc.get("version").and_then(Json::as_u64);
    if version != Some(STATE_VERSION) {
        return Err(bad(format!("unsupported state version {version:?}")));
    }
    let id =
        doc.get("id").and_then(Json::as_str).ok_or_else(|| bad("missing id".into()))?.to_owned();
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing name".into()))?
        .to_owned();
    let source =
        CampaignSource::from_json(doc.get("source").ok_or_else(|| bad("missing source".into()))?)?;
    let policy_doc = doc.get("policy").ok_or_else(|| bad("missing policy".into()))?;
    let policy = CrowdPolicy {
        per_question: policy_doc
            .get("per_question")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing per_question".into()))?,
        qualification: policy_doc
            .get("qualification")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing qualification".into()))?,
        quality_weight: policy_doc
            .get("quality_weight")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing quality_weight".into()))?,
        lease_ms: policy_doc
            .get("lease_ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing lease_ms".into()))?,
    };
    policy.validate()?;
    let paused = doc.get("paused").and_then(Json::as_bool).unwrap_or(false);
    // Additive: pre-WAL state files have no answer_seq, meaning no WAL
    // record is folded in yet.
    let answer_seq = doc.get("answer_seq").and_then(Json::as_u64).unwrap_or(0);
    let workers = doc
        .get("workers")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing workers".into()))?
        .iter()
        .map(|w| {
            Ok((
                w.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("worker without name".into()))?
                    .to_owned(),
                WorkerRecord {
                    qualification: w
                        .get("qualification")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("worker without qualification".into()))?,
                    scored: w
                        .get("scored")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("worker without scored".into()))?,
                    agreed: w
                        .get("agreed")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("worker without agreed".into()))?,
                },
            ))
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    let answers = doc
        .get("answers")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing answers".into()))?
        .iter()
        .map(|entry| {
            let parts = entry.as_array().ok_or_else(|| bad("malformed answer entry".into()))?;
            match parts {
                [q, w, says] => Ok((
                    q.as_u64().ok_or_else(|| bad("bad answer question".into()))?,
                    w.as_str().ok_or_else(|| bad("bad answer worker".into()))?.to_owned(),
                    says.as_bool().ok_or_else(|| bad("bad answer label".into()))?,
                )),
                _ => Err(bad("answer entry is not a triple".into())),
            }
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    let log = doc
        .get("log")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing log".into()))?
        .iter()
        .map(SubmittedRecord::from_json)
        .collect::<Result<Vec<_>, ServeError>>()?;
    let session = SessionCheckpoint::from_json(
        doc.get("session").ok_or_else(|| bad("missing session".into()))?,
    )
    .map_err(|e| bad(e.to_string()))?;
    let spec = CampaignSpec { name, source, config: session.config.clone(), policy };
    Ok((id, spec, CampaignImage { session, workers, answers, log, paused, answer_seq }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalFrame;
    use remp_datasets::{generate, tiny};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            source: CampaignSource::Preset { preset: "TINY".into(), scale: 1.0 },
            config: RempConfig::default(),
            policy: CrowdPolicy { per_question: 2, ..CrowdPolicy::default() },
        }
    }

    #[test]
    fn campaign_events_wake_the_dispatcher_only_while_a_waiter_is_parked() {
        use std::time::Duration;
        let notifier = CampaignNotifier::default();
        let seen = notifier.epoch();
        notifier.campaign_event();
        assert_eq!(notifier.epoch(), seen, "nothing parked: an event is not a wake-up");
        assert_eq!(
            notifier.wait_past(seen, Duration::from_millis(1)),
            Wakeup { epoch: seen, reason: None }
        );

        notifier.waiter_parked();
        notifier.notify(WakeReason::Park);
        let woke = notifier.wait_past(seen, Duration::from_secs(5));
        assert_eq!(woke.reason, Some(WakeReason::Park), "parking always wakes");
        notifier.campaign_event();
        notifier.notify(WakeReason::Park);
        let woke = notifier.wait_past(woke.epoch, Duration::from_secs(5));
        assert_eq!(woke.reason, Some(WakeReason::Event), "an event outranks a coalesced park");

        notifier.waiter_released();
        notifier.campaign_event();
        assert_eq!(notifier.epoch(), woke.epoch, "released: events are quiet again");
        notifier.notify(WakeReason::Shutdown);
        let woke = notifier.wait_past(woke.epoch, Duration::from_secs(5));
        assert_eq!(woke.reason, Some(WakeReason::Shutdown), "shutdown always wakes");
    }

    #[test]
    fn create_call_and_stop_round_trip() {
        let registry = Registry::open(None).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        assert_eq!(registry.list(), vec![(id.clone(), "tiny".to_owned())]);

        let status = registry.call(&id, CampaignRequest::Status { now_ms: 0 }).unwrap();
        assert_eq!(status.get("complete").and_then(Json::as_bool), Some(false));
        assert_eq!(status.get("per_question").and_then(Json::as_usize), Some(2));

        let next =
            registry.call(&id, CampaignRequest::Next { worker: "w0".into(), now_ms: 0 }).unwrap();
        assert!(next.get("assignment").unwrap().get("id").is_some());

        // Leasing the first question forced the first propagation pass;
        // the status now reports where that time went.
        let status = registry.call(&id, CampaignRequest::Status { now_ms: 0 }).unwrap();
        let stats = status.get("loop_stats").expect("loop stats in status");
        assert_eq!(stats.get("propagation_passes").and_then(Json::as_usize), Some(1));
        assert!(stats.get("last").and_then(|l| l.get("full_rebuild")).is_some());

        assert_eq!(
            registry.call("nope", CampaignRequest::Status { now_ms: 0 }).unwrap_err().status,
            404
        );
        registry.shutdown().unwrap();
    }

    #[test]
    fn bad_sources_fail_synchronously() {
        let registry = Registry::open(None).unwrap();
        let mut spec = tiny_spec();
        spec.source = CampaignSource::Preset { preset: "NOPE".into(), scale: 1.0 };
        assert_eq!(registry.create(spec).unwrap_err().code, "unknown_preset");
        let mut spec = tiny_spec();
        spec.source = CampaignSource::Files {
            kb1: PathBuf::from("/definitely/not/here.nt"),
            kb2: PathBuf::from("/definitely/not/here.nt"),
        };
        assert_eq!(registry.create(spec).unwrap_err().code, "bad_kb");
        registry.shutdown().unwrap();
    }

    #[test]
    fn state_files_survive_a_registry_restart() {
        let dir =
            std::env::temp_dir().join(format!("remp-serve-registry-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let d = generate(&tiny(1.0));
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        // Take a lease and answer once so there is mid-question state.
        let next =
            registry.call(&id, CampaignRequest::Next { worker: "w0".into(), now_ms: 0 }).unwrap();
        let qid: QuestionId = next
            .get("assignment")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_str)
            .unwrap()
            .parse()
            .unwrap();
        let u1 = next.get("assignment").and_then(|a| a.get("u1")).and_then(Json::as_usize).unwrap();
        let u2 = next.get("assignment").and_then(|a| a.get("u2")).and_then(Json::as_usize).unwrap();
        let truth =
            d.is_match(remp_kb::EntityId::from_index(u1), remp_kb::EntityId::from_index(u2));
        registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap();
        assert_eq!(registry.shutdown().unwrap(), 1);

        // A fresh registry on the same directory resumes the campaign,
        // including the half-answered question.
        let registry = Registry::open(Some(dir.clone())).unwrap();
        assert_eq!(registry.list().len(), 1, "campaign resumed from its state file");
        let err = registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap_err();
        assert_eq!(err.code, "duplicate_answer", "w0's pre-restart answer was restored");
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unresumable_state_files_are_skipped_not_fatal() {
        let dir =
            std::env::temp_dir().join(format!("remp-serve-badstate-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        // One healthy campaign checkpointed…
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        registry.shutdown().unwrap();
        // …plus a file truncated by a hard kill and one that is not JSON.
        fs::write(dir.join("c9.campaign.json"), "{\"version\": 1, \"id\": \"c9\"").unwrap();
        fs::write(dir.join("c8.campaign.json"), "not json at all").unwrap();

        // The healthy campaign must come back; the wrecked ones are
        // skipped (left on disk for forensics), not fatal.
        let registry = Registry::open(Some(dir.clone())).unwrap();
        assert_eq!(registry.list().len(), 1);
        assert_eq!(registry.list()[0].0, id);
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_recovers_answers_the_checkpoint_never_saw() {
        let dir = std::env::temp_dir().join(format!("remp-serve-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let d = generate(&tiny(1.0));
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        // create() wrote the genesis checkpoint; keep a copy so we can
        // roll the checkpoint back to before the answer, like a crash
        // that never reached a compaction would.
        let state_path = dir.join(format!("{id}.campaign.json"));
        let genesis = fs::read(&state_path).unwrap();
        assert!(registry.wal_bytes() > 0, "WAL header exists on disk");

        let next =
            registry.call(&id, CampaignRequest::Next { worker: "w0".into(), now_ms: 0 }).unwrap();
        let qid: QuestionId = next
            .get("assignment")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_str)
            .unwrap()
            .parse()
            .unwrap();
        let u1 = next.get("assignment").and_then(|a| a.get("u1")).and_then(Json::as_usize).unwrap();
        let u2 = next.get("assignment").and_then(|a| a.get("u2")).and_then(Json::as_usize).unwrap();
        let truth =
            d.is_match(remp_kb::EntityId::from_index(u1), remp_kb::EntityId::from_index(u2));
        registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap();
        let wal_after_answer = registry.wal_bytes();
        // The crash image: genesis base plus the answer in the WAL. The
        // graceful shutdown below folds the answer into a new base and
        // empties the WAL, so keep the log as the crash left it.
        let wal_file = dir.join(format!("{id}.wal"));
        let mut wal_bytes = fs::read(&wal_file).unwrap();
        registry.shutdown().unwrap();

        // Put the crash image back and tack torn garbage onto the WAL —
        // the crash-recovery worst case.
        fs::write(&state_path, &genesis).unwrap();
        wal_bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        fs::write(&wal_file, &wal_bytes).unwrap();

        let registry = Registry::open(Some(dir.clone())).unwrap();
        assert_eq!(registry.list().len(), 1, "campaign resumed");
        assert_eq!(registry.wal_bytes(), wal_after_answer, "torn tail truncated, record kept");
        let err = registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap_err();
        assert_eq!(err.code, "duplicate_answer", "w0's WAL-only answer was replayed");
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What [`drive_and_check_folds`] saw.
    struct FoldRun {
        answers: u64,
        /// `answer_seq`s at which a compaction wrote a base instead of
        /// appending a delta frame.
        outgrown: Vec<u64>,
        /// The base and the WAL frames on disk at the last compaction.
        base: CampaignImage,
        frames: Vec<WalFrame>,
    }

    /// Drives a durable registry and an in-process mirror engine through
    /// the same oracle campaign on D-A ×1. After every compaction the
    /// state dir — base plus folded delta frames — must equal a fresh
    /// `encode_state` of the mirror at the same `answer_seq`, field for
    /// field. With `checkpoint_at`, `checkpoint_all` runs once that many
    /// answers are in.
    fn drive_and_check_folds(
        tag: &str,
        per_question: usize,
        checkpoint_at: Option<u64>,
    ) -> FoldRun {
        let dir =
            std::env::temp_dir().join(format!("remp-serve-fold-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let d = generate(&remp_datasets::dblp_acm(1.0));
        let policy = CrowdPolicy { per_question, ..CrowdPolicy::default() };
        let spec = CampaignSpec {
            name: tag.into(),
            source: CampaignSource::Preset { preset: "D-A".into(), scale: 1.0 },
            config: RempConfig::default(),
            policy: policy.clone(),
        };
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(spec.clone()).unwrap();
        let session = Remp::new(RempConfig::default()).begin(&d.kb1, &d.kb2).unwrap();
        let mut mirror = CampaignEngine::new(session, policy);
        let base_path = dir.join(format!("{id}.campaign.json"));
        let wal_file = wal_path(&dir, &id);
        let read_base = || decode_state_file(&fs::read_to_string(&base_path).unwrap()).unwrap().2;
        let workers: Vec<String> = (0..per_question).map(|w| format!("w{w}")).collect();
        let mut run =
            FoldRun { answers: 0, outgrown: Vec::new(), base: read_base(), frames: Vec::new() };
        // Answers since the last base or delta frame.
        let mut since = 0;
        loop {
            let mut answered = false;
            for w in &workers {
                let next = registry
                    .call(&id, CampaignRequest::Next { worker: w.clone(), now_ms: 0 })
                    .unwrap();
                let Some(a) = mirror.next_for(w, 0).unwrap() else {
                    assert_eq!(next.get("assignment"), Some(&Json::Null));
                    continue;
                };
                let served =
                    next.get("assignment").and_then(|a| a.get("id")).and_then(Json::as_str);
                assert_eq!(served, Some(a.question.id.to_string().as_str()));
                let truth = d.is_match(a.question.pair.0, a.question.pair.1);
                let answer = CampaignRequest::Answer {
                    worker: w.clone(),
                    question: a.question.id,
                    says_match: truth,
                    now_ms: 0,
                };
                registry.call(&id, answer).unwrap();
                mirror.answer(w, a.question.id, truth, 0).unwrap();
                answered = true;
                run.answers += 1;
                since += 1;
                let seq = run.answers;
                if checkpoint_at == Some(seq) {
                    assert_eq!(registry.checkpoint_all().unwrap(), 1);
                    assert_eq!(read_base().answer_seq, seq, "checkpoint wrote a base");
                    assert_eq!(registry.wal_bytes(), 8, "and emptied the WAL behind it");
                    since = 0;
                }
                if since < WAL_COMPACT_EVERY {
                    continue;
                }
                since = 0;
                // The actor compacts after replying; a later call waits
                // for it.
                registry.call(&id, CampaignRequest::Workers).unwrap();
                run.base = read_base();
                if run.base.answer_seq == seq {
                    run.outgrown.push(seq);
                }
                let (wal, replay) = Wal::open(&wal_file).unwrap();
                drop(wal);
                run.frames = replay.frames;
                let (folded, tail) =
                    recover(run.base.clone(), run.frames.clone(), &wal_file).unwrap();
                assert!(tail.is_empty(), "the compaction at {seq} folded every answer");
                let fresh = encode_state(&id, &spec, &CampaignImage::capture(&mirror, seq));
                let want = decode_state_file(&fresh.to_pretty_string()).unwrap().2;
                assert_eq!(folded.answer_seq, want.answer_seq, "at {seq}");
                assert_eq!(folded.session, want.session, "session at {seq}");
                assert_eq!(folded.workers, want.workers, "workers at {seq}");
                assert_eq!(folded.answers, want.answers, "open answers at {seq}");
                assert_eq!(folded.log, want.log, "log at {seq}");
                assert_eq!(folded.paused, want.paused, "paused at {seq}");
            }
            if !answered {
                break;
            }
        }
        assert!(mirror.progress(0).unwrap().complete, "the mirror campaign drained");
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
        run
    }

    fn deltas(frames: &[WalFrame]) -> usize {
        frames.iter().filter(|f| matches!(f, WalFrame::Delta(_))).count()
    }

    #[test]
    fn folded_deltas_equal_the_full_image_at_every_compaction() {
        let run = drive_and_check_folds("pq3", 3, None);
        assert_eq!(run.answers, 390, "D-A x1 asks 130 questions");
        assert!(run.outgrown.is_empty(), "three deltas stay under the base: {:?}", run.outgrown);
        assert_eq!(deltas(&run.frames), 3, "one delta frame per 128 answers");

        // Without the first delta frame the second no longer extends
        // what the base folds to: recovery refuses the chain.
        let mut broken = run.frames;
        let first = broken.iter().position(|f| matches!(f, WalFrame::Delta(_))).unwrap();
        broken.remove(first);
        let err = recover(run.base, broken, Path::new("c0.wal")).unwrap_err();
        assert_eq!(err.code, "broken_chain", "{err}");
    }

    #[test]
    fn deltas_after_a_mid_campaign_checkpoint_extend_the_new_base() {
        let run = drive_and_check_folds("ckpt", 3, Some(100));
        assert_eq!(run.base.answer_seq, 100, "the checkpoint is the base the last deltas extend");
        assert_eq!(deltas(&run.frames), 2, "frames at 228 and 356");
        assert!(run.outgrown.is_empty());
    }

    #[test]
    fn a_wal_that_outgrows_its_base_is_folded_into_a_new_base() {
        let outgrown = || {
            let reg = remp_obs::global();
            let help = "Campaign base state files written, by reason.";
            reg.counter(remp_obs::names::STATE_BASE_WRITES_TOTAL, help, &[("reason", "outgrown")])
                .get()
        };
        let before = outgrown();
        let run = drive_and_check_folds("pq15", 15, None);
        assert_eq!(run.answers, 1950);
        assert!(!run.outgrown.is_empty(), "1,950 answers outgrow a D-A x1 base");
        assert!(outgrown() >= before + run.outgrown.len() as u64, "each base write is counted");
        assert!(deltas(&run.frames) < 15, "frames before the last new base were dropped");
    }
}
