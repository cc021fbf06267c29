//! `serve-da`: the path crowd workers touch. An embedded `Server` (the
//! rempd code) with a state dir hosts a D-A campaign; a client thread
//! with one keep-alive `ServeClient` loops through its workers:
//! `GET /next?wait_ms=` (long-poll), then `POST /answers` with the
//! oracle label. The traced run adds two such clients long-polling side
//! by side, and replays one single-threaded
//! request sequence one layer lower each time: HTTP, `Registry::call`,
//! a bare `CampaignEngine`, plus `Wal::append` and `checkpoint_all`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use remp_core::{evaluate_matches, Parallelism, QuestionId, Remp, RempConfig};
use remp_datasets::{generate, preset_by_name, GeneratedDataset};
use remp_ingest::{load_snapshot, write_snapshot};
use remp_json::Json;
use remp_kb::{EntityId, Kb};
use remp_serve::wal::{Wal, WalRecord};
use remp_serve::wire::outcome_json;
use remp_serve::{
    reference_outcome, CampaignEngine, CampaignRequest, CampaignSource, CampaignSpec, CrowdParams,
    CrowdPolicy, Registry, ServeClient, Server, ServerConfig,
};

use crate::stats::{median, ms_since, nproc, peak_rss_mb, pooled_percentile};
use crate::trace::{Attribution, Tracer};
use crate::{Check, Options, Report};

const PRESET: &str = "D-A";
const SCALE: f64 = 8.0;
const PER_QUESTION: usize = 5;
/// Distinct worker identities, split evenly between the client threads;
/// any one client can fill every question's `PER_QUESTION` answers.
const WORKERS: usize = 10;
/// Client threads of the measured load. One client: with two on two
/// CPUs (alongside the handler pool and the actor), `campaign_s` spread
/// 25% and p90 answer latency 57% across ten runs, from scheduling alone.
/// The traced run adds a two-client long-polling run for its counts.
const CLIENTS: usize = 1;
const WAIT_MS: u64 = 2_000;
/// Served campaigns a run makes at the least; each is also a set-up
/// sample.
const MIN_RUNS: usize = 3;
const WAL_APPENDS: usize = 256;
const CHECKPOINTS: usize = 5;

fn config() -> RempConfig {
    RempConfig::default().with_parallelism(Parallelism::Fixed(nproc()))
}

fn policy() -> CrowdPolicy {
    CrowdPolicy { per_question: PER_QUESTION, ..CrowdPolicy::default() }
}

/// The generated KBs, written as `.rkb` snapshots the server loads, and
/// the run's seed.
struct Inputs {
    d: GeneratedDataset,
    kb1_path: PathBuf,
    kb2_path: PathBuf,
    kb1: Kb,
    kb2: Kb,
    seed: u64,
}

impl Inputs {
    fn truth(&self, u1: u64, u2: u64) -> bool {
        self.d.is_match(EntityId(u1 as u32), EntityId(u2 as u32))
    }

    /// Client `t`'s workers (of `clients`), in the order it cycles
    /// through them: the seed sets where each cycle starts, and so which
    /// workers answer which questions and how clients interleave.
    fn client_workers(&self, t: usize, clients: usize) -> Vec<String> {
        let per = WORKERS / clients;
        (0..per).map(|i| worker(t * per + (i + self.seed as usize + t) % per)).collect()
    }
}

/// The world is the preset's own at every seed, like the campaign
/// workloads'; with an oracle crowd the seed sets the load's interleaving.
fn make_inputs(opts: &Options) -> Result<Inputs, String> {
    let (preset, scale) = if opts.toy { ("TINY", 1.0) } else { (PRESET, SCALE) };
    let spec = preset_by_name(preset, scale).ok_or_else(|| format!("no preset {preset}"))?;
    let d = generate(&spec);
    let mut paths = Vec::new();
    for (name, kb) in [("kb1", &d.kb1), ("kb2", &d.kb2)] {
        let path = opts.work_dir.join(format!("{name}.rkb"));
        let ids: Vec<String> = (0..kb.num_entities()).map(|i| format!("{name}:{i}")).collect();
        write_snapshot(kb, &ids, &path).map_err(|e| e.to_string())?;
        paths.push(path);
    }
    let load = |p: &Path| load_snapshot(p).map(|l| l.kb).map_err(|e| e.to_string());
    let (kb1, kb2) = (load(&paths[0])?, load(&paths[1])?);
    let [kb1_path, kb2_path] = <[PathBuf; 2]>::try_from(paths).expect("two paths");
    Ok(Inputs { d, kb1_path, kb2_path, kb1, kb2, seed: opts.seed })
}

fn create_body(inputs: &Inputs) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::from("bench")),
        ("kb1".into(), Json::from(inputs.kb1_path.display().to_string())),
        ("kb2".into(), Json::from(inputs.kb2_path.display().to_string())),
        ("threads".into(), Json::from(nproc().to_string())),
        ("per_question".into(), Json::from(PER_QUESTION)),
    ])
}

/// Runs `f` against a freshly bound server on a fresh state dir, then
/// stops the server and waits for it. `f` gets the address and the
/// instant just before binding.
fn with_server<T>(
    state_dir: &Path,
    f: impl FnOnce(&str, Instant) -> Result<T, String>,
) -> Result<T, String> {
    let t0 = Instant::now();
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: Some(state_dir.to_path_buf()),
        parallelism: Parallelism::Fixed(nproc()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    /// Stops the server when dropped, also while unwinding from a panic
    /// in `f`, so the scope below can always join it.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&stop));
        let out = {
            let _stop = StopOnDrop(&stop);
            f(&addr, t0)
        };
        let served = handle.join().map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| format!("server: {e}"))?;
        out
    });
    let _ = std::fs::remove_dir_all(state_dir);
    out
}

fn create(client: &ServeClient, inputs: &Inputs) -> Result<String, String> {
    let doc = client.post("/campaigns", &create_body(inputs)).map_err(|e| e.to_string())?;
    doc.get("id").and_then(Json::as_str).map(str::to_owned).ok_or("create without id".into())
}

fn worker(i: usize) -> String {
    format!("w{i}")
}

/// An assignment's `(question, u1, u2, loop)`.
fn assignment(doc: &Json) -> Option<(String, u64, u64, u64)> {
    let a = doc.get("assignment").filter(|a| !matches!(a, Json::Null))?;
    Some((
        a.get("id")?.as_str()?.to_owned(),
        a.get("u1")?.as_u64()?,
        a.get("u2")?.as_u64()?,
        a.get("loop")?.as_u64()?,
    ))
}

fn answer_body(worker: &str, question: &str, says_match: bool) -> Json {
    Json::Obj(vec![
        ("worker".into(), Json::from(worker)),
        ("question".into(), Json::from(question)),
        ("says_match".into(), Json::from(says_match)),
    ])
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    next_ms: Vec<f64>,
    answer_ms: Vec<f64>,
    empty_next: u64,
    requests: u64,
    failed: u64,
    errors: Vec<String>,
    /// Loop index → when the answer that completed it was sent.
    completed_at: BTreeMap<u64, Instant>,
    /// Loop index → when its first assignment arrived.
    first_at: BTreeMap<u64, Instant>,
}

/// One client thread's closed loop over its workers.
fn client_loop(
    client: &ServeClient,
    id: &str,
    inputs: &Inputs,
    workers: &[String],
    mut pending: Option<(String, u64, u64, u64)>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut idle_rounds = 0;
    'campaign: loop {
        let mut assigned_this_round = false;
        for w in workers {
            let (question, u1, u2, loop_index) = match pending.take() {
                Some(a) => a,
                None => {
                    let t = Instant::now();
                    log.requests += 1;
                    let doc = match client
                        .get(&format!("/campaigns/{id}/next?worker={w}&wait_ms={WAIT_MS}"))
                    {
                        Ok(doc) => doc,
                        Err(e) => {
                            log.failed += 1;
                            log.errors.push(e.to_string());
                            continue;
                        }
                    };
                    log.next_ms.push(ms_since(t));
                    match assignment(&doc) {
                        Some(a) => a,
                        None => {
                            log.empty_next += 1;
                            if doc.get("complete").and_then(Json::as_bool) == Some(true) {
                                break 'campaign;
                            }
                            continue;
                        }
                    }
                }
            };
            assigned_this_round = true;
            log.first_at.entry(loop_index).or_insert_with(Instant::now);
            let t = Instant::now();
            log.requests += 1;
            let body = answer_body(w, &question, inputs.truth(u1, u2));
            match client.post(&format!("/campaigns/{id}/answers"), &body) {
                Ok(ack) => {
                    log.answer_ms.push(ms_since(t));
                    let closed = ack
                        .get("submitted")
                        .and_then(|s| s.get("batch_complete"))
                        .and_then(Json::as_bool);
                    if closed == Some(true) {
                        log.completed_at.insert(loop_index, t);
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(e.to_string());
                }
            }
        }
        // A campaign that stops handing out work without completing
        // would spin forever. A whole round of long-polls returning
        // nothing means no other client answered for `WAIT_MS` per
        // worker; give up after three.
        idle_rounds = if assigned_this_round { 0 } else { idle_rounds + 1 };
        if idle_rounds > 3 || log.failed > 100 {
            log.errors.push("campaign stopped making progress".into());
            log.failed += 1;
            break;
        }
    }
    log
}

/// One measured serving campaign.
struct ServeRun {
    setup_s: f64,
    campaign_s: f64,
    outcome: Json,
    logs: Vec<ClientLog>,
    keepalive_reuse: u64,
}

/// Bind, create, first assignment; then `clients` client threads to
/// completion.
fn serve_once(inputs: &Inputs, state_dir: &Path, clients: usize) -> Result<ServeRun, String> {
    with_server(state_dir, |addr, t0| {
        let client = ServeClient::new(addr);
        let id = create(&client, inputs)?;
        // The first assignment goes to the worker client 0 starts with.
        let first_worker = &inputs.client_workers(0, clients)[0];
        let first = client
            .get(&format!("/campaigns/{id}/next?worker={first_worker}"))
            .map_err(|e| e.to_string())?;
        let first = assignment(&first).ok_or("no first assignment")?;
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let client = client.clone();
                    let workers = inputs.client_workers(t, clients);
                    let pending = (t == 0).then(|| first.clone());
                    let (id, inputs) = (&id, inputs);
                    s.spawn(move || client_loop(&client, id, inputs, &workers, pending))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let outcome = client.get(&format!("/campaigns/{id}/outcome")).map_err(|e| e.to_string())?;
        let campaign_s = t1.elapsed().as_secs_f64();
        Ok(ServeRun { setup_s, campaign_s, outcome, logs, keepalive_reuse: client.reuse_count() })
    })
}

/// The in-process oracle campaign on the same KBs: matches, resolutions,
/// counts, and the submission log in question order.
fn reference(inputs: &Inputs, seed: u64) -> Result<Json, String> {
    let params = CrowdParams {
        workers: WORKERS,
        min_quality: 1.0,
        max_quality: 1.0,
        per_question: PER_QUESTION,
        seed,
    };
    let (outcome, log) =
        reference_outcome(&inputs.kb1, &inputs.kb2, &config(), &policy(), &params, &|a, b| {
            inputs.d.is_match(a, b)
        })
        .map_err(|e| e.to_string())?;
    Ok(comparable(&outcome_json(&outcome, &log)))
}

/// The outcome fields that must not depend on how connections
/// interleave; the log is put in question order.
fn comparable(doc: &Json) -> Json {
    let mut log: Vec<Json> =
        doc.get("log").and_then(Json::as_array).map(<[Json]>::to_vec).unwrap_or_default();
    log.sort_by_key(|e| e.as_array().and_then(|a| a.first()).and_then(Json::as_u64));
    let field = |k: &str| doc.get(k).cloned().unwrap_or(Json::Null);
    Json::Obj(vec![
        ("matches".into(), field("matches")),
        ("resolutions".into(), field("resolutions")),
        ("questions_asked".into(), field("questions_asked")),
        ("loops".into(), field("loops")),
        ("log".into(), Json::Arr(log)),
    ])
}

fn f1_of(doc: &Json, d: &GeneratedDataset) -> f64 {
    let matches =
        doc.get("matches").and_then(Json::as_array).unwrap_or(&[]).iter().filter_map(|m| {
            let m = m.as_array()?;
            Some((EntityId(m.first()?.as_u64()? as u32), EntityId(m.get(1)?.as_u64()? as u32)))
        });
    evaluate_matches(matches, &d.gold).f1
}

/// Batch stalls: a loop's completing answer sent → the next loop's first
/// assignment received, over every loop both ends were seen for.
fn stalls(logs: &[ClientLog]) -> Vec<f64> {
    let mut completed: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut first: BTreeMap<u64, Instant> = BTreeMap::new();
    for log in logs {
        for (&l, &t) in &log.completed_at {
            completed.entry(l).and_modify(|e| *e = (*e).min(t)).or_insert(t);
        }
        for (&l, &t) in &log.first_at {
            first.entry(l).and_modify(|e| *e = (*e).min(t)).or_insert(t);
        }
    }
    completed
        .iter()
        .filter_map(|(l, &done)| first.get(&(l + 1)).map(|&next| next.duration_since(done)))
        .map(|d| d.as_secs_f64() * 1e3)
        .collect()
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let inputs = make_inputs(opts)?;
    let mut report = Report::default();
    report.param("preset", if opts.toy { "TINY" } else { PRESET });
    report.param("scale", if opts.toy { 1.0 } else { SCALE });
    report.param("per_question", PER_QUESTION);
    report.param("client_threads", CLIENTS);
    report.param("workers", WORKERS);
    report.param("wait_ms", WAIT_MS);
    report.param("server_threads", nproc());
    report.param("load", "closed loop: each worker waits for its reply");

    let roundtrip = (0..inputs.d.kb1.num_entities())
        .all(|i| inputs.kb1.label(EntityId(i as u32)) == inputs.d.kb1.label(EntityId(i as u32)));
    report.checks.push(Check::new("snapshot keeps entity ids", roundtrip, "kb1 labels by id"));
    let expected = reference(&inputs, opts.seed)?;

    if opts.trace {
        return traced(opts, &inputs, &expected, report);
    }

    let started = Instant::now();
    let mut runs = Vec::new();
    loop {
        let state_dir = opts.work_dir.join(format!("state{}", runs.len()));
        let run = serve_once(&inputs, &state_dir, CLIENTS)?;
        runs.push(run);
        if runs.len() >= MIN_RUNS && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();

    report.checks.push(Check::new(
        "every served outcome equals the in-process oracle",
        runs.iter().all(|r| comparable(&r.outcome) == expected),
        format!("{} runs", runs.len()),
    ));
    let logs = || runs.iter().flat_map(|r| &r.logs);
    if let Some(e) = logs().flat_map(|l| &l.errors).next() {
        report.param("first_error", e.as_str());
    }
    let per_run = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<Vec<f64>> {
        runs.iter().map(|r| r.logs.iter().flat_map(f).copied().collect()).collect()
    };
    let (next, answer) = (per_run(|l| &l.next_ms), per_run(|l| &l.answer_ms));
    let batch: Vec<Vec<f64>> = runs.iter().map(|r| stalls(&r.logs)).collect();
    let answers = |r: &ServeRun| r.logs.iter().map(|l| l.answer_ms.len()).sum::<usize>() as f64;
    let first = &runs[0];
    report.attempted = logs().map(|l| l.requests).sum::<u64>() + 2 * runs.len() as u64;
    report.failed = logs().map(|l| l.failed).sum();
    let campaign_s: Vec<f64> = runs.iter().map(|r| r.campaign_s).collect();
    report.series("setup_s", &setups);
    report.series("campaign_s", &campaign_s);
    report.metric("setup_s", median(&setups));
    report.metric("campaign_s", median(&campaign_s));
    report.metric(
        "questions",
        first.outcome.get("questions_asked").and_then(Json::as_f64).unwrap_or(0.0),
    );
    report.metric("f1", f1_of(&first.outcome, &inputs.d));
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("batch_p50_ms", pooled_percentile(&batch, 50.0));
    report.metric("batch_p90_ms", pooled_percentile(&batch, 90.0));
    report.metric(
        "answers_per_s",
        median(&runs.iter().map(|r| answers(r) / r.campaign_s).collect::<Vec<_>>()),
    );
    report.metric("answer_p50_ms", pooled_percentile(&answer, 50.0));
    report.metric("next_p50_ms", pooled_percentile(&next, 50.0));
    let count = |s: &[Vec<f64>]| s.iter().map(Vec::len).sum::<usize>();
    report.samples = vec![
        ("setup_s", setups.len()),
        ("campaign_s", runs.len()),
        ("batch_ms", count(&batch)),
        ("answer_ms", count(&answer)),
        ("next_ms", count(&next)),
    ];
    Ok(report)
}

/// One request of the single-threaded replay sequence.
#[derive(Clone, Debug)]
enum Request {
    /// `/next` for a worker, and the question it was assigned (if any).
    Next {
        worker: String,
        assigned: Option<u64>,
    },
    Answer {
        worker: String,
        question: u64,
        says_match: bool,
    },
}

/// The single-threaded HTTP drive: every `/next` without long-poll,
/// every assignment answered at once. Returns the served outcome, the
/// request sequence and `(setup_s, campaign_s)`.
fn drive_single(
    inputs: &Inputs,
    state_dir: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<(Json, Vec<Request>, f64, f64), String> {
    fn span(tr: &mut Option<&mut Tracer>, name: &'static str, t: Instant) {
        if let Some(tr) = tr.as_deref_mut() {
            tr.record(name, t);
        }
    }
    with_server(state_dir, |addr, t0| {
        if let Some(tr) = tr.as_deref_mut() {
            tr.record_between("serve.bind", t0, Instant::now());
        }
        let client = ServeClient::new(addr);
        let t = Instant::now();
        let id = create(&client, inputs)?;
        span(&mut tr, "serve.create", t);
        let workers: Vec<String> = (0..WORKERS).map(worker).collect();
        let mut seq = Vec::new();
        let mut setup_s = None;
        let mut t1 = Instant::now();
        let mut idle = 0;
        'campaign: loop {
            for w in &workers {
                let t = Instant::now();
                let doc = client
                    .get(&format!("/campaigns/{id}/next?worker={w}"))
                    .map_err(|e| e.to_string())?;
                span(&mut tr, "serve.http_next", t);
                let a = assignment(&doc);
                seq.push(Request::Next {
                    worker: w.clone(),
                    assigned: a.as_ref().and_then(|a| a.0.parse::<QuestionId>().ok()).map(|q| q.0),
                });
                if setup_s.is_none() {
                    setup_s = Some(t0.elapsed().as_secs_f64());
                    t1 = Instant::now();
                }
                let Some((question, u1, u2, _)) = a else {
                    if doc.get("complete").and_then(Json::as_bool) == Some(true) {
                        break 'campaign;
                    }
                    idle += 1;
                    if idle > 2 * workers.len() {
                        return Err("single-threaded drive stopped making progress".into());
                    }
                    continue;
                };
                idle = 0;
                let says_match = inputs.truth(u1, u2);
                let t = Instant::now();
                client
                    .post(
                        &format!("/campaigns/{id}/answers"),
                        &answer_body(w, &question, says_match),
                    )
                    .map_err(|e| e.to_string())?;
                span(&mut tr, "serve.http_answer", t);
                let question = question.parse::<QuestionId>().map_err(|e| e.to_string())?.0;
                seq.push(Request::Answer { worker: w.clone(), question, says_match });
            }
        }
        let t = Instant::now();
        let outcome = client.get(&format!("/campaigns/{id}/outcome")).map_err(|e| e.to_string())?;
        span(&mut tr, "serve.outcome", t);
        let campaign_s = t1.elapsed().as_secs_f64();
        Ok((outcome, seq, setup_s.unwrap_or(0.0), campaign_s))
    })
}

/// Per-request times of one replay: `(next_ms, answer_ms)` lists.
type Times = (Vec<f64>, Vec<f64>);

fn check_assigned(got: Option<u64>, want: Option<u64>) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("replay diverged: assigned {got:?}, recorded {want:?}"))
    }
}

/// The sequence through `Registry::call` on a durable registry; then
/// `checkpoint_all` timings and the state-file size.
fn replay_registry(
    inputs: &Inputs,
    seq: &[Request],
    state_dir: &Path,
) -> Result<(Times, Vec<f64>, u64), String> {
    let registry = Registry::open(Some(state_dir.to_path_buf())).map_err(|e| e.to_string())?;
    let spec = CampaignSpec {
        name: "bench".into(),
        source: CampaignSource::Files {
            kb1: inputs.kb1_path.clone(),
            kb2: inputs.kb2_path.clone(),
        },
        config: config(),
        policy: policy(),
    };
    let id = registry.create(spec).map_err(|e| e.to_string())?;
    let (mut next_ms, mut answer_ms) = (Vec::new(), Vec::new());
    for req in seq {
        let t = Instant::now();
        match req {
            Request::Next { worker, assigned } => {
                let doc = registry
                    .call(
                        &id,
                        CampaignRequest::Next { worker: worker.clone(), now_ms: registry.now_ms() },
                    )
                    .map_err(|e| e.to_string())?;
                next_ms.push(ms_since(t));
                let got =
                    assignment(&doc).and_then(|a| a.0.parse::<QuestionId>().ok()).map(|q| q.0);
                check_assigned(got, *assigned)?;
            }
            Request::Answer { worker, question, says_match } => {
                registry
                    .call(
                        &id,
                        CampaignRequest::Answer {
                            worker: worker.clone(),
                            question: QuestionId(*question),
                            says_match: *says_match,
                            now_ms: registry.now_ms(),
                        },
                    )
                    .map_err(|e| e.to_string())?;
                answer_ms.push(ms_since(t));
            }
        }
    }
    let mut checkpoint_ms = Vec::new();
    for _ in 0..CHECKPOINTS {
        let t = Instant::now();
        registry.checkpoint_all().map_err(|e| e.to_string())?;
        checkpoint_ms.push(ms_since(t));
    }
    let state_bytes = std::fs::metadata(state_dir.join(format!("{id}.campaign.json")))
        .map(|m| m.len())
        .unwrap_or(0);
    registry.shutdown().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(state_dir);
    Ok(((next_ms, answer_ms), checkpoint_ms, state_bytes))
}

/// Stage split of the bare engine's `next_batch` calls.
#[derive(Default)]
struct StageSplit {
    consistency_s: f64,
    edges_s: f64,
    inferred_s: f64,
    select_s: f64,
    dirty_vertices: usize,
    recomputed_sources: usize,
}

/// The sequence on a bare `CampaignEngine` (no actor, no WAL).
fn replay_engine(inputs: &Inputs, seq: &[Request]) -> Result<(Times, StageSplit), String> {
    let session = Remp::new(config()).begin(&inputs.kb1, &inputs.kb2).map_err(|e| e.to_string())?;
    let mut engine = CampaignEngine::new(session, policy());
    let now_ms = remp_serve::registry::now_ms();
    let (mut next_ms, mut answer_ms) = (Vec::new(), Vec::new());
    for req in seq {
        let t = Instant::now();
        match req {
            Request::Next { worker, assigned } => {
                let a = engine.next_for(worker, now_ms).map_err(|e| e.to_string())?;
                next_ms.push(ms_since(t));
                check_assigned(a.map(|a| a.question.id.0), *assigned)?;
            }
            Request::Answer { worker, question, says_match } => {
                engine
                    .answer(worker, QuestionId(*question), *says_match, now_ms)
                    .map_err(|e| e.to_string())?;
                answer_ms.push(ms_since(t));
            }
        }
    }
    let mut split = StageSplit::default();
    for s in engine.loop_stats() {
        split.consistency_s += s.refresh.consistency_s;
        split.edges_s += s.refresh.propagation_s;
        split.inferred_s += s.refresh.inferred_s;
        split.select_s += s.selection_s;
        split.dirty_vertices += s.refresh.dirty_vertices;
        split.recomputed_sources += s.refresh.recomputed_sources;
    }
    Ok(((next_ms, answer_ms), split))
}

/// `Wal::append` with fsync: per-append milliseconds and bytes per frame.
fn wal_appends(path: &Path) -> Result<(Vec<f64>, f64), String> {
    let (mut wal, _) = Wal::open(path).map_err(|e| e.to_string())?;
    let start_bytes = wal.bytes();
    let mut ms = Vec::with_capacity(WAL_APPENDS);
    for seq in 1..=WAL_APPENDS as u64 {
        let record = WalRecord {
            seq,
            question: seq / PER_QUESTION as u64,
            worker: worker(seq as usize % 10),
            says_match: seq % 3 == 0,
            now_ms: remp_serve::registry::now_ms(),
        };
        let t = Instant::now();
        wal.append(&record).map_err(|e| e.to_string())?;
        ms.push(ms_since(t));
    }
    let per_frame = (wal.bytes() - start_bytes) as f64 / WAL_APPENDS as f64;
    drop(wal);
    let _ = std::fs::remove_file(path);
    Ok((ms, per_frame))
}

fn traced(
    opts: &Options,
    inputs: &Inputs,
    expected: &Json,
    mut report: Report,
) -> Result<Report, String> {
    // Two long-polling clients (at most nproc), for the long-poll and
    // keep-alive counts and the check that interleaving keeps the outcome.
    let clients = nproc().min(2);
    let two = serve_once(inputs, &opts.work_dir.join("state-two"), clients)?;
    report.checks.push(Check::new(
        &format!("{clients} clients served outcome equals in-process oracle"),
        comparable(&two.outcome) == *expected,
        "",
    ));
    report.metric("serve.empty_next", two.logs.iter().map(|l| l.empty_next).sum::<u64>() as f64);
    report.metric("serve.keepalive_reuse", two.keepalive_reuse as f64);

    let (_, _, plain_setup, plain_campaign) =
        drive_single(inputs, &opts.work_dir.join("state-plain"), None)?;
    let mut tr = Tracer::new();
    let (outcome, seq, setup_s, campaign_s) =
        drive_single(inputs, &opts.work_dir.join("state-traced"), Some(&mut tr))?;
    report.checks.push(Check::new(
        "single-client served outcome equals in-process oracle",
        comparable(&outcome) == *expected,
        "",
    ));
    let ((reg_next, reg_answer), checkpoint_ms, state_bytes) =
        replay_registry(inputs, &seq, &opts.work_dir.join("state-registry"))?;
    let ((eng_next, eng_answer), split) = replay_engine(inputs, &seq)?;
    let (wal_ms, wal_frame) = wal_appends(&opts.work_dir.join("bench.wal"))?;
    report.attempted = seq.len() as u64;

    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let (http_next, n_next) = tr.total("serve.http_next");
    let (http_answer, n_answer) = tr.total("serve.http_answer");
    report.metric("serve.http_next_ms", http_next * 1e3 / n_next.max(1) as f64);
    report.metric("serve.http_answer_ms", http_answer * 1e3 / n_answer.max(1) as f64);
    report.metric("serve.registry_next_ms", mean(&reg_next));
    report.metric("serve.registry_answer_ms", mean(&reg_answer));
    report.metric("serve.engine_next_ms", mean(&eng_next));
    report.metric("serve.engine_answer_ms", mean(&eng_answer));
    report.metric("serve.wal_append_ms", median(&wal_ms));
    report.metric("serve.wal_bytes", wal_frame);
    report.metric("serve.checkpoint_ms", median(&checkpoint_ms));
    report.metric("serve.state_bytes", state_bytes as f64);
    report.metric("propagation.consistency_s", split.consistency_s);
    report.metric("propagation.edges_s", split.edges_s);
    report.metric("propagation.inferred_s", split.inferred_s);
    report.metric("propagation.dirty_vertices", split.dirty_vertices as f64);
    report.metric("propagation.recomputed_sources", split.recomputed_sources as f64);
    report.metric("selection.select_s", split.select_s);

    // Each client span splits into the layers below it by the replays
    // of the same sequence: HTTP = client − registry, actor + WAL =
    // registry − engine, engine = engine − its own stage split.
    let stages = split.consistency_s + split.edges_s + split.inferred_s + split.select_s;
    let (reg, eng) = (sum(&reg_next) + sum(&reg_answer), sum(&eng_next) + sum(&eng_answer));
    let rows = vec![
        ("serve.bind".to_owned(), tr.total("serve.bind").0),
        ("serve.create".to_owned(), tr.total("serve.create").0),
        ("serve.http".to_owned(), http_next + http_answer - reg),
        ("serve.actor_wal".to_owned(), reg - eng),
        ("serve.engine".to_owned(), eng - stages),
        ("propagation.consistency".to_owned(), split.consistency_s),
        ("propagation.edges".to_owned(), split.edges_s),
        ("propagation.inferred".to_owned(), split.inferred_s),
        ("selection.select".to_owned(), split.select_s),
        ("serve.outcome".to_owned(), tr.total("serve.outcome").0),
    ];
    let total = setup_s + campaign_s;
    report.param("replayed_requests", seq.len());
    report.attribute(
        Attribution { total_s: total, rows },
        (total / (plain_setup + plain_campaign) - 1.0) * 100.0,
    );
    report.spans = Some(tr.to_json());
    Ok(report)
}
