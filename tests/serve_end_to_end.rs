//! End-to-end tests of the `rempd` campaign server: an HTTP campaign
//! must be **bit-identical** to the same campaign run through
//! `RempSession` in process — including across a mid-campaign server
//! restart — and the server must answer malformed traffic with typed
//! errors, never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use remp::core::RempConfig;
use remp::datasets::{generate, tiny, GeneratedDataset};
use remp::ingest::FileDataset;
use remp::kb::EntityId;
use remp::serve::{
    drive, drive_n, outcome_matches, reference_outcome, ClientError, CrowdParams, CrowdPolicy,
    ManualClock, ServeClient, Server, ServerConfig, WireCrowd,
};
use remp_json::Json;

/// A test server: bound on a free port, stopped and joined on drop.
struct TestServer {
    client: ServeClient,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start(state_dir: Option<PathBuf>) -> TestServer {
        TestServer::start_config(ServerConfig { state_dir, ..ServerConfig::default() })
    }

    /// A server whose lease clock is the given [`ManualClock`] — tests
    /// advance time by hand instead of sleeping.
    fn start_on_clock(clock: Arc<ManualClock>) -> TestServer {
        TestServer::start_config(ServerConfig { clock, ..ServerConfig::default() })
    }

    fn start_config(mut config: ServerConfig) -> TestServer {
        config.addr = "127.0.0.1:0".into();
        let server = Server::bind(&config).expect("bind test server");
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            server.run(&stop_flag).expect("server run");
        });
        TestServer { client: ServeClient::new(addr.to_string()), stop, join: Some(join) }
    }

    /// Graceful stop: drains handlers, checkpoints campaigns, joins.
    fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            join.join().expect("server thread");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/tiny")
        .join(name)
        .display()
        .to_string()
}

fn create_preset_campaign(client: &ServeClient, per_question: usize, name: &str) -> String {
    let created = client
        .post(
            "/campaigns",
            &Json::Obj(vec![
                ("name".into(), Json::from(name)),
                ("preset".into(), Json::from("TINY")),
                ("per_question".into(), Json::from(per_question)),
            ]),
        )
        .expect("create campaign");
    created.get("id").and_then(Json::as_str).expect("campaign id").to_owned()
}

#[test]
fn http_campaign_from_files_is_bit_identical_to_in_process() {
    // The campaign runs on the committed fixture files: the server loads
    // them through POST /campaigns, the client loads the same files for
    // the gold standard — exactly the `rempctl drive` deployment shape.
    let dataset = FileDataset::load(
        "tiny",
        Path::new(&fixture("kb1.nt")),
        Path::new(&fixture("kb2.nt")),
        Path::new(&fixture("gold.tsv")),
    )
    .expect("fixture dataset");
    let params = CrowdParams { per_question: 3, ..CrowdParams::paper_default(11) };

    let server = TestServer::start(None);
    let created = server
        .client
        .post(
            "/campaigns",
            &Json::Obj(vec![
                ("name".into(), Json::from("files")),
                ("kb1".into(), Json::from(fixture("kb1.nt"))),
                ("kb2".into(), Json::from(fixture("kb2.nt"))),
                ("per_question".into(), Json::from(3usize)),
            ]),
        )
        .expect("create campaign");
    let id = created.get("id").and_then(Json::as_str).unwrap().to_owned();

    let mut crowd = WireCrowd::new(&params);
    let truth = |a: EntityId, b: EntityId| dataset.is_match(a, b);
    let driven = drive(&server.client, &id, &mut crowd, &truth).expect("drive to completion");
    assert!(!driven.is_empty());
    let wire_outcome = server.client.get(&format!("/campaigns/{id}/outcome")).unwrap();
    server.shutdown();

    // The in-process ground truth: same KBs, same config, same seeded
    // crowd stream, same online quality estimation — no server.
    let policy = CrowdPolicy { per_question: 3, ..CrowdPolicy::default() };
    let (reference, log) = reference_outcome(
        &dataset.kb1,
        &dataset.kb2,
        &RempConfig::default(),
        &policy,
        &params,
        &truth,
    )
    .expect("reference run");
    assert_eq!(driven.len(), reference.questions_asked, "same question count");
    outcome_matches(&wire_outcome, &reference, &log)
        .expect("wire outcome must be bit-identical to the in-process run");
}

#[test]
fn restart_mid_campaign_preserves_bit_identical_outcome() {
    let d = generate(&tiny(1.0));
    let truth = |a: EntityId, b: EntityId| d.is_match(a, b);
    let params = CrowdParams { per_question: 3, ..CrowdParams::paper_default(23) };
    let state_dir = tmp_dir("restart");

    // Phase 1: drive four questions, then SIGTERM-equivalent shutdown
    // (the run loop checkpoints every campaign into the state dir).
    let server = TestServer::start(Some(state_dir.clone()));
    let id = create_preset_campaign(&server.client, 3, "restartable");
    let mut crowd = WireCrowd::new(&params);
    let first = drive_n(&server.client, &id, &mut crowd, &truth, Some(4)).expect("partial drive");
    assert_eq!(first.len(), 4);
    server.shutdown();
    assert!(
        state_dir.join(format!("{id}.campaign.json")).exists(),
        "shutdown must write the campaign state file"
    );

    // Phase 2: a new server process (new port) resumes the campaign from
    // its state file; the same crowd — whose RNG state carried across the
    // restart — finishes it.
    let server = TestServer::start(Some(state_dir.clone()));
    let status = server.client.get(&format!("/campaigns/{id}")).expect("resumed campaign status");
    assert_eq!(status.get("questions_asked").and_then(Json::as_usize), Some(4));
    let rest = drive(&server.client, &id, &mut crowd, &truth).expect("drive to completion");
    let wire_outcome = server.client.get(&format!("/campaigns/{id}/outcome")).unwrap();
    server.shutdown();

    let policy = CrowdPolicy { per_question: 3, ..CrowdPolicy::default() };
    let (reference, log) =
        reference_outcome(&d.kb1, &d.kb2, &RempConfig::default(), &policy, &params, &truth)
            .expect("reference run");
    assert_eq!(first.len() + rest.len(), reference.questions_asked);
    outcome_matches(&wire_outcome, &reference, &log)
        .expect("restarted campaign must stay bit-identical to the uninterrupted in-process run");
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn concurrent_campaigns_complete_independently() {
    // Two campaigns on one server, driven from two threads at once with
    // interleaved workers; each must match its own in-process reference.
    let d = generate(&tiny(1.0));
    let server = TestServer::start(None);
    let ids = [
        create_preset_campaign(&server.client, 2, "alpha"),
        create_preset_campaign(&server.client, 2, "beta"),
    ];
    let seeds = [5u64, 6u64];

    let outcomes: Vec<(Json, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .zip(seeds)
            .map(|(id, seed)| {
                let client = server.client.clone();
                let d = &d;
                scope.spawn(move || {
                    let params =
                        CrowdParams { per_question: 2, ..CrowdParams::paper_default(seed) };
                    let mut crowd = WireCrowd::new(&params);
                    let truth = |a: EntityId, b: EntityId| d.is_match(a, b);
                    let driven = drive(&client, id, &mut crowd, &truth).expect("drive");
                    let outcome = client.get(&format!("/campaigns/{id}/outcome")).unwrap();
                    (outcome, driven.len())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("drive thread")).collect()
    });

    let listing = server.client.get("/campaigns").unwrap();
    assert_eq!(
        listing.get("campaigns").and_then(Json::as_array).map(<[Json]>::len),
        Some(2),
        "both campaigns listed"
    );
    server.shutdown();

    let policy = CrowdPolicy { per_question: 2, ..CrowdPolicy::default() };
    let truth = |a: EntityId, b: EntityId| d.is_match(a, b);
    for ((wire, driven), seed) in outcomes.iter().zip(seeds) {
        let params = CrowdParams { per_question: 2, ..CrowdParams::paper_default(seed) };
        let (reference, log) =
            reference_outcome(&d.kb1, &d.kb2, &RempConfig::default(), &policy, &params, &truth)
                .expect("reference");
        assert_eq!(*driven, reference.questions_asked, "seed {seed}");
        outcome_matches(wire, &reference, &log)
            .unwrap_or_else(|e| panic!("campaign with seed {seed} diverged: {e}"));
    }
}

#[test]
fn malformed_requests_get_typed_errors_and_never_kill_the_server() {
    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 2, "hardened");

    // Lease one real question so the conflict cases are reachable.
    let next = server.client.get(&format!("/campaigns/{id}/next?worker=w0")).unwrap();
    let qid = next
        .get("assignment")
        .and_then(|a| a.get("id"))
        .and_then(Json::as_str)
        .expect("an assignment")
        .to_owned();
    let answer = |worker: &str, question: &str, says: bool| {
        server.client.post(
            &format!("/campaigns/{id}/answers"),
            &Json::Obj(vec![
                ("worker".into(), Json::from(worker)),
                ("question".into(), Json::from(question)),
                ("says_match".into(), Json::from(says)),
            ]),
        )
    };
    answer("w0", &qid, true).expect("legitimate answer");

    // Each abuse gets the documented status + code, not a dead socket.
    let cases: Vec<(&str, u16, Option<&str>)> = vec![
        ("double answer", 409, Some("duplicate_answer")),
        ("wrong worker", 409, Some("no_lease")),
        ("unknown campaign", 404, Some("unknown_campaign")),
        ("unknown question", 404, Some("unknown_question")),
        ("bad question id", 400, Some("bad_question_id")),
        ("bad json body", 400, Some("bad_json")),
        ("missing worker", 400, Some("missing_worker")),
        ("unknown route", 404, Some("unknown_route")),
        ("bad method", 405, Some("method_not_allowed")),
        ("broken request line", 400, None),
    ];
    for (what, want_status, want_code) in cases {
        let err = match what {
            "double answer" => answer("w0", &qid, true).unwrap_err(),
            "wrong worker" => answer("never-leased", &qid, true).unwrap_err(),
            "unknown campaign" => server.client.get("/campaigns/zzz").unwrap_err(),
            "unknown question" => answer("w0", "q999999", true).unwrap_err(),
            "bad question id" => answer("w0", "seventeen", true).unwrap_err(),
            "bad json body" => {
                let (status, doc) = server
                    .client
                    .request_raw("POST", &format!("/campaigns/{id}/answers"), Some(b"{nope"))
                    .unwrap();
                assert_eq!(status, 400, "{what}");
                assert_eq!(
                    doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
                    Some("bad_json"),
                    "{what}"
                );
                continue;
            }
            "missing worker" => server.client.get(&format!("/campaigns/{id}/next")).unwrap_err(),
            "unknown route" => server.client.get("/campaigns/c0/teapot").unwrap_err(),
            "bad method" => {
                let (status, _) =
                    server.client.request("PUT", &format!("/campaigns/{id}"), None).unwrap();
                assert_eq!(status, 405, "{what}");
                continue;
            }
            "broken request line" => {
                // Raw garbage straight onto the socket.
                use std::io::{Read, Write};
                let mut stream = std::net::TcpStream::connect(server.client.addr()).unwrap();
                stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
                let mut out = String::new();
                stream.read_to_string(&mut out).unwrap();
                assert!(out.starts_with("HTTP/1.1 400"), "{what}: {out}");
                continue;
            }
            _ => unreachable!(),
        };
        assert_eq!(err.status(), Some(want_status), "{what}: {err}");
        if let Some(code) = want_code {
            assert_eq!(err.code(), Some(code), "{what}: {err}");
        }
    }

    // After all of that the server is still healthy and the campaign
    // still makes progress.
    let health = server.client.get("/healthz").unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let next = server.client.get(&format!("/campaigns/{id}/next?worker=w1")).unwrap();
    assert!(next.get("assignment").is_some());
    server.shutdown();
}

#[test]
fn lease_expiry_reissues_questions_over_http() {
    // The server runs on an injected manual clock: lease expiry is
    // driven by `clock.advance`, not by real sleeps — zero flake risk
    // on a slow runner, and the test is instant.
    let clock = Arc::new(ManualClock::new(0));
    let server = TestServer::start_on_clock(Arc::clone(&clock));
    let campaign = |lease_ms: u64| {
        let created = server
            .client
            .post(
                "/campaigns",
                &Json::Obj(vec![
                    ("preset".into(), Json::from("TINY")),
                    ("per_question".into(), Json::from(1usize)),
                    ("lease_ms".into(), Json::from(lease_ms)),
                ]),
            )
            .unwrap();
        created.get("id").and_then(Json::as_str).unwrap().to_owned()
    };
    let lease_of = |id: &str, worker: &str| {
        server
            .client
            .get(&format!("/campaigns/{id}/next?worker={worker}"))
            .unwrap()
            .get("assignment")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };

    // Part 1 — a *live* lease is exclusive. The lease is generous (60 s,
    // unlosable even on a crawling CI runner), per_question = 1: while
    // the ghost holds the first question, nobody else may get it.
    let id = campaign(60_000);
    let held = lease_of(&id, "ghost").expect("ghost gets the first question");
    assert_ne!(lease_of(&id, "w0"), Some(held), "a live lease must not be double-issued");

    // Part 2 — an *expired* lease re-enters the pool. A fresh campaign
    // with a 60 ms lease: the ghost takes the first question, vanishes,
    // and once the (virtual) clock passes the deadline the question
    // goes to the next worker.
    let id = campaign(60);
    let qid = lease_of(&id, "ghost").expect("ghost gets the first question");
    clock.advance(90);

    // Expired: the question re-enters the pool and w1 can take it...
    let retry = server.client.get(&format!("/campaigns/{id}/next?worker=w1")).unwrap();
    assert_eq!(
        retry.get("assignment").and_then(|a| a.get("id")).and_then(Json::as_str),
        Some(qid.as_str()),
        "expired lease must be re-issued"
    );
    // ...while the ghost's late answer is a typed conflict.
    let late = server
        .client
        .post(
            &format!("/campaigns/{id}/answers"),
            &Json::Obj(vec![
                ("worker".into(), Json::from("ghost")),
                ("question".into(), Json::from(qid.as_str())),
                ("says_match".into(), Json::from(true)),
            ]),
        )
        .unwrap_err();
    assert_eq!((late.status(), late.code()), (Some(409), Some("no_lease")));
    // The replacement worker's answer lands.
    let ack = server
        .client
        .post(
            &format!("/campaigns/{id}/answers"),
            &Json::Obj(vec![
                ("worker".into(), Json::from("w1")),
                ("question".into(), Json::from(qid.as_str())),
                ("says_match".into(), Json::from(true)),
            ]),
        )
        .unwrap();
    assert!(ack.get("submitted").is_some_and(|s| !matches!(s, Json::Null)));

    // The status reports the lease story: ghost + w1 issued, the
    // ghost's lease expired, and the question was re-issued once.
    let status = server.client.get(&format!("/campaigns/{id}")).unwrap();
    let leases = status.get("leases").expect("lease counters in status");
    assert_eq!(leases.get("issued").and_then(Json::as_u64), Some(2));
    assert_eq!(leases.get("expired").and_then(Json::as_u64), Some(1));
    assert_eq!(leases.get("reissued").and_then(Json::as_u64), Some(1));
    let quality = status.get("worker_quality").expect("worker quality summary in status");
    assert_eq!(quality.get("count").and_then(Json::as_usize), Some(2));
    assert!(quality.get("mean").and_then(Json::as_f64).is_some());

    // The workers endpoint lists both, with their estimator records.
    let workers = server.client.get(&format!("/campaigns/{id}/workers")).unwrap();
    assert_eq!(workers.get("count").and_then(Json::as_usize), Some(2));
    let names: Vec<&str> = workers
        .get("workers")
        .and_then(Json::as_array)
        .expect("workers array")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, vec!["ghost", "w1"]);

    // Part 3 — a zero lease would expire the moment it is granted, so
    // no answer could ever land: campaigns and scale jobs refuse it.
    let zero = server
        .client
        .post(
            "/campaigns",
            &Json::Obj(vec![
                ("preset".into(), Json::from("TINY")),
                ("lease_ms".into(), Json::from(0u64)),
            ]),
        )
        .unwrap_err();
    assert_eq!((zero.status(), zero.code()), (Some(400), Some("bad_policy")));
    let zero = server
        .client
        .post(
            "/scale/jobs",
            &Json::Obj(vec![
                ("dir".into(), Json::from("/nonexistent/scale-campaign")),
                ("lease_ms".into(), Json::from(0u64)),
            ]),
        )
        .unwrap_err();
    assert_eq!((zero.status(), zero.code()), (Some(400), Some("bad_policy")));
    server.shutdown();
}

#[test]
fn pause_and_resume_gate_work_over_http() {
    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 2, "pausable");
    server.client.post(&format!("/campaigns/{id}/pause"), &Json::Obj(vec![])).unwrap();
    let err = server.client.get(&format!("/campaigns/{id}/next?worker=w0")).unwrap_err();
    assert_eq!((err.status(), err.code()), (Some(409), Some("paused")));
    let status = server.client.get(&format!("/campaigns/{id}")).unwrap();
    assert_eq!(status.get("paused").and_then(Json::as_bool), Some(true));
    server.client.post(&format!("/campaigns/{id}/resume"), &Json::Obj(vec![])).unwrap();
    let next = server.client.get(&format!("/campaigns/{id}/next?worker=w0")).unwrap();
    assert!(next.get("assignment").is_some_and(|a| !matches!(a, Json::Null)));
    server.shutdown();
}

#[test]
fn pretty_responses_parse_identically() {
    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 2, "pretty");
    let plain = server.client.get(&format!("/campaigns/{id}")).unwrap();
    let pretty = server.client.get(&format!("/campaigns/{id}?pretty=1")).unwrap();
    assert_eq!(plain, pretty, "?pretty=1 changes whitespace, not content");
    server.shutdown();
}

#[test]
fn metrics_events_and_healthz_expose_live_campaign_state() {
    use remp::obs::{names, Exposition};

    let d = generate(&tiny(1.0));
    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 2, "observed");

    // The enriched health document.
    let health = server.client.get("/healthz").expect("healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert!(health.get("version").and_then(Json::as_str).is_some_and(|v| !v.is_empty()));
    assert!(health.get("uptime_s").and_then(Json::as_f64).is_some_and(|s| s >= 0.0));
    assert!(health.get("campaigns").and_then(Json::as_u64).is_some_and(|n| n >= 1));
    assert_eq!(health.get("observability").and_then(Json::as_bool), Some(true));

    // Drive the campaign to completion so every family has data.
    let params = CrowdParams { per_question: 2, ..CrowdParams::paper_default(9) };
    let mut crowd = WireCrowd::new(&params);
    let truth = |a: EntityId, b: EntityId| d.is_match(a, b);
    let driven = drive(&server.client, &id, &mut crowd, &truth).expect("drive");
    let status = server.client.get(&format!("/campaigns/{id}")).unwrap();

    // /metrics parses as Prometheus text exposition, and the gauges and
    // lease counters labelled with this campaign carry exactly the
    // numbers the status endpoint reports (single source of truth).
    // Global (unlabelled) totals are shared with concurrently running
    // tests, so only per-campaign series are asserted by value.
    let (code, text) = server.client.get_text("/metrics").expect("scrape");
    assert_eq!(code, 200);
    let expo = Exposition::parse(&text).expect("valid exposition");
    let by_campaign = |name: &str| expo.value(name, &[("campaign", &id)]);
    assert_eq!(
        by_campaign(names::CAMPAIGN_QUESTIONS_ASKED),
        status.get("questions_asked").and_then(Json::as_f64)
    );
    assert_eq!(by_campaign(names::CAMPAIGN_OPEN_QUESTIONS), Some(0.0));
    assert_eq!(by_campaign(names::CAMPAIGN_COMPLETE), Some(1.0));
    let leases = status.get("leases").expect("lease block");
    for (metric, key) in [
        (names::LEASES_ISSUED_TOTAL, "issued"),
        (names::LEASES_EXPIRED_TOTAL, "expired"),
        (names::LEASES_REISSUED_TOTAL, "reissued"),
    ] {
        assert_eq!(by_campaign(metric), leases.get(key).and_then(Json::as_f64), "{metric}");
    }
    for family in [
        names::HTTP_REQUESTS_TOTAL,
        names::HTTP_REQUEST_SECONDS,
        names::STAGE_SECONDS,
        names::QUESTIONS_ASKED_TOTAL,
        names::ANSWERS_SUBMITTED_TOTAL,
    ] {
        assert!(expo.has_family(family), "family {family} missing from the scrape");
    }

    // The campaign's structured event ring: a start event plus one
    // "question submitted" per driven question, scoped to this id.
    let events = server.client.get(&format!("/campaigns/{id}/events?limit=1000")).unwrap();
    assert_eq!(events.get("campaign").and_then(Json::as_str), Some(id.as_str()));
    let entries = events.get("events").and_then(Json::as_array).expect("events array");
    assert!(entries.iter().all(|e| e.get("campaign").and_then(Json::as_str) == Some(&id)));
    let submitted = entries
        .iter()
        .filter(|e| e.get("msg").and_then(Json::as_str) == Some("question submitted"))
        .count();
    assert_eq!(submitted, driven.len(), "one submit event per completed question");
    assert!(entries
        .iter()
        .any(|e| e.get("msg").and_then(Json::as_str) == Some("campaign started")));

    // Events for an unknown campaign are a typed 404, like every route.
    let err = server.client.get("/campaigns/nope/events").unwrap_err();
    assert_eq!((err.status(), err.code()), (Some(404), Some("unknown_campaign")));
    server.shutdown();
}

#[test]
fn keep_alive_connections_are_reused_and_reported() {
    use remp::obs::{names, Exposition};

    let server = TestServer::start(None);
    create_preset_campaign(&server.client, 2, "reused");
    let before = server.client.reuse_count();
    for _ in 0..5 {
        server.client.get("/healthz").expect("healthz over keep-alive");
    }
    assert_eq!(
        server.client.reuse_count(),
        before + 5,
        "five more requests on one client must reuse one connection five times"
    );

    // The server counted the reuse too, and exposes serving pressure.
    let (_, text) = server.client.get_text("/metrics").expect("scrape");
    let expo = Exposition::parse(&text).expect("valid exposition");
    assert!(
        expo.value(names::HTTP_KEEPALIVE_REUSE_TOTAL, &[]).is_some_and(|v| v >= 5.0),
        "remp_http_keepalive_reuse_total must count the reused requests"
    );
    assert!(
        expo.value(names::HTTP_CONNECTIONS_OPEN, &[]).is_some_and(|v| v >= 1.0),
        "remp_http_connections_open must count this client's socket"
    );
    assert!(expo.value(names::LONGPOLL_WAITERS, &[]).is_some(), "waiter gauge registered");

    let health = server.client.get("/healthz").unwrap();
    assert!(health.get("connections_open").and_then(Json::as_u64).is_some_and(|n| n >= 1));
    assert_eq!(health.get("longpoll_waiters").and_then(Json::as_u64), Some(0));
    assert_eq!(health.get("wal_bytes").and_then(Json::as_u64), Some(0), "no state dir, no WAL");
    server.shutdown();
}

/// Leases every open question to `w0` so nothing is assignable to
/// anyone else, and returns the held question ids.
fn lease_everything(server: &TestServer, id: &str) -> Vec<String> {
    let mut held = Vec::new();
    loop {
        let next = server.client.get(&format!("/campaigns/{id}/next?worker=w0")).unwrap();
        match next.get("assignment") {
            Some(Json::Null) | None => break,
            Some(a) => held.push(a.get("id").and_then(Json::as_str).unwrap().to_owned()),
        }
    }
    held
}

#[test]
fn long_poll_parks_until_an_answer_frees_a_question() {
    use std::time::Duration;

    let server = TestServer::start(None);
    // per_question = 1: one worker can hold every open question.
    let id = create_preset_campaign(&server.client, 1, "longpoll");
    let held = lease_everything(&server, &id);
    assert!(!held.is_empty());

    // w1 has nothing to take; with wait_ms it parks server-side
    // instead of getting an instant null.
    let poll_client = server.client.clone();
    let poll_id = id.clone();
    let waiter = std::thread::spawn(move || {
        poll_client.get(&format!("/campaigns/{poll_id}/next?worker=w1&wait_ms=20000")).unwrap()
    });
    let mut parked = false;
    for _ in 0..200 {
        let health = server.client.get("/healthz").unwrap();
        if health.get("longpoll_waiters").and_then(Json::as_u64) == Some(1) {
            parked = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(parked, "the long-poll must park, not busy-wait a handler");

    // w0's answers complete questions and open new ones; the notifier
    // wakes the dispatcher, which hands one to the parked w1.
    let mut woken = false;
    'answers: for question in &held {
        server
            .client
            .post(
                &format!("/campaigns/{id}/answers"),
                &Json::Obj(vec![
                    ("worker".into(), Json::from("w0")),
                    ("question".into(), Json::from(question.as_str())),
                    ("says_match".into(), Json::from(true)),
                ]),
            )
            .expect("answer while a long-poll is parked");
        for _ in 0..100 {
            if waiter.is_finished() {
                woken = true;
                break 'answers;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(woken, "an accepted answer must wake the parked long-poll");
    let doc = waiter.join().expect("long-poll thread");
    if doc.get("complete").and_then(Json::as_bool) == Some(false) {
        assert!(
            doc.get("assignment").is_some_and(|a| !matches!(a, Json::Null)),
            "woken with work: {doc}"
        );
    }
    server.shutdown();
}

#[test]
fn long_poll_returns_the_empty_answer_after_the_wait_expires() {
    use std::time::{Duration, Instant};

    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 1, "expiring");
    let held = lease_everything(&server, &id);
    assert!(!held.is_empty());

    let t0 = Instant::now();
    let doc = server.client.get(&format!("/campaigns/{id}/next?worker=w1&wait_ms=300")).unwrap();
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "an unanswerable long-poll must hold for the requested wait"
    );
    assert!(matches!(doc.get("assignment"), Some(Json::Null)), "{doc}");
    assert_eq!(doc.get("complete").and_then(Json::as_bool), Some(false));
    assert!(
        doc.get("retry_at_ms").and_then(Json::as_u64).is_some(),
        "with live leases the response must carry the earliest retry hint: {doc}"
    );
    server.shutdown();
}

#[test]
fn idle_connections_time_out_without_consuming_a_handler() {
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::Duration;

    use remp::par::Parallelism;

    // Two handlers, eight silent sockets: if an idle connection cost a
    // handler thread, /healthz below would stall for the read timeout.
    let server = TestServer::start_config(ServerConfig {
        parallelism: Parallelism::Fixed(2),
        keepalive_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let idlers: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(server.client.addr()).expect("connect an idle socket"))
        .collect();

    let t0 = std::time::Instant::now();
    for _ in 0..5 {
        let health = server.client.get("/healthz").expect("healthz with idlers connected");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "idle sockets must not starve the handler pool");

    // Past the keep-alive timeout the server reaps them: EOF, not hang.
    for mut socket in idlers {
        socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 1];
        let n = socket.read(&mut buf);
        assert!(matches!(n, Ok(0)), "idle socket must be closed by the server, got {n:?}");
    }
    server.shutdown();
}

/// Reads one HTTP response from `reader`: the head up to the blank line,
/// then a `content-length` body. Returns (head, body).
fn read_one_response(reader: &mut impl std::io::BufRead) -> std::io::Result<(String, String)> {
    let mut head = String::new();
    loop {
        let before = head.len();
        if reader.read_line(&mut head)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if head[before..] == *"\r\n" {
            break;
        }
    }
    let length = head
        .lines()
        .find_map(|line| {
            line.to_ascii_lowercase().strip_prefix("content-length:")?.trim().parse().ok()
        })
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((head, String::from_utf8(body).expect("UTF-8 body")))
}

/// `ServerConfig::read_timeout` bounds a client that stalls mid-request:
/// with both handlers holding half a request line, a third client's
/// `/healthz` is still answered once the timeout frees them, and each
/// stalled socket ends (400 or EOF) instead of pinning its handler.
#[test]
fn stalled_requests_end_at_the_read_timeout() {
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    use remp::par::Parallelism;

    let server = TestServer::start_config(ServerConfig {
        parallelism: Parallelism::Fixed(2),
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    // One at a time, so each half-written request is claimed by its own
    // handler wake-up and both handlers end up holding one.
    let stallers: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut socket = TcpStream::connect(server.client.addr()).expect("connect a staller");
            socket.write_all(b"GET /healthz HT").unwrap();
            std::thread::sleep(Duration::from_millis(100));
            socket
        })
        .collect();

    let t0 = Instant::now();
    let mut socket = TcpStream::connect(server.client.addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    socket.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
    let (head, body) = read_one_response(&mut BufReader::new(&socket))
        .expect("stalled clients must not hold the handlers past the read timeout");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(body.contains("\"ok\""), "{body}");
    assert!(t0.elapsed() < Duration::from_secs(5));

    for mut staller in stallers {
        staller.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut response = Vec::new();
        let ended = staller.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response);
        assert!(
            ended.is_ok() && (response.is_empty() || response.starts_with("HTTP/1.1 400 ")),
            "a stalled socket must end with a 400 or EOF, got {ended:?}: {response}"
        );
    }
    server.shutdown();
}

/// `ServerConfig::max_connections` is backpressure: at the cap the
/// listener stops accepting, so a further client waits unanswered while
/// the held sockets stay open, and is served as soon as one closes.
#[test]
fn the_connection_cap_holds_new_clients_until_a_socket_closes() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    // A cap of 1 is clamped to 8.
    const CAP: u64 = 8;
    let server =
        TestServer::start_config(ServerConfig { max_connections: 1, ..ServerConfig::default() });
    let open = || {
        let health = server.client.get("/healthz").expect("healthz");
        health.get("connections_open").and_then(Json::as_u64).expect("connections_open")
    };
    // The test client's own keep-alive socket counts against the cap.
    let baseline = open();
    let mut idlers: Vec<TcpStream> = (baseline..CAP)
        .map(|_| TcpStream::connect(server.client.addr()).expect("connect an idle socket"))
        .collect();
    let t0 = Instant::now();
    while open() < CAP {
        assert!(t0.elapsed() < Duration::from_secs(5), "the idle sockets were never accepted");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(open(), CAP);
    // Let the accept loop see the cap before the next client knocks.
    std::thread::sleep(Duration::from_millis(200));

    let mut further = TcpStream::connect(server.client.addr()).expect("connect past the cap");
    further.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
    further.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    let mut reader = BufReader::new(further.try_clone().unwrap());
    let early = read_one_response(&mut reader);
    assert!(
        early.as_ref().is_err_and(|e| matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )),
        "a client past the cap must wait while the idle sockets stay open, got {early:?}"
    );

    drop(idlers.pop());
    further.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t1 = Instant::now();
    let (head, _body) =
        read_one_response(&mut reader).expect("a closed socket must make room for the next client");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(t1.elapsed() < Duration::from_secs(2), "answered only after {:?}", t1.elapsed());
    server.shutdown();
}

/// A handler claims one ready socket per wake-up, so a client that
/// stalls mid-request holds only its own socket: with a staller and a
/// complete `/healthz` ready together, `/healthz` goes to the other
/// handler and is answered long before the 5 s read timeout.
#[test]
fn a_stalled_client_holds_only_its_own_socket() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    use remp::par::Parallelism;

    let server = TestServer::start_config(ServerConfig {
        parallelism: Parallelism::Fixed(2),
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let addr = server.client.addr();
    // Hold both handlers: each occupier pipelines a whole request and
    // half of a second one, so the handler that answers the first stays
    // on the socket, reading the rest.
    let mut occupiers: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut socket = TcpStream::connect(addr).expect("connect an occupier");
            socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            socket
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\nGET /healthz HT")
                .unwrap();
            read_one_response(&mut BufReader::new(&socket)).expect("the first request is answered");
            socket
        })
        .collect();

    // With no handler free, both sockets are parked ready, in this order.
    let staller = {
        let mut socket = TcpStream::connect(addr).expect("connect the staller");
        socket.write_all(b"GET /healthz HT").unwrap();
        socket
    };
    let mut client = TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    client.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
    // Let the accept loop park both before a handler comes free.
    std::thread::sleep(Duration::from_millis(300));

    let t0 = Instant::now();
    for occupier in &mut occupiers {
        occupier.write_all(b"TP/1.1\r\nhost: test\r\n\r\n").unwrap();
    }
    let (head, _body) = read_one_response(&mut BufReader::new(&client))
        .expect("a stalled client must not hold a ready /healthz");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "/healthz waited {:?} behind the staller",
        t0.elapsed()
    );
    drop(staller);
    server.shutdown();
}

/// The connection cap holds under a burst: the listener stops accepting
/// at the cap even with more clients in its backlog, so no `/healthz`
/// ever sees more than the cap open, and every client of the burst is
/// answered once earlier ones close.
#[test]
fn a_connection_burst_never_exceeds_the_cap() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Barrier;
    use std::time::Duration;

    // A cap of 1 is clamped to 8.
    const CAP: u64 = 8;
    const CLIENTS: usize = 30;
    let server =
        TestServer::start_config(ServerConfig { max_connections: 1, ..ServerConfig::default() });
    let addr = server.client.addr();
    let connected = Barrier::new(CLIENTS);
    let open_seen: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut socket = TcpStream::connect(addr).expect("connect");
                    socket.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                    connected.wait();
                    socket
                        .write_all(
                            b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n",
                        )
                        .unwrap();
                    let (head, body) = read_one_response(&mut BufReader::new(&socket))
                        .expect("every client of the burst is answered");
                    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
                    let doc = Json::parse(&body).expect("a JSON body");
                    doc.get("connections_open").and_then(Json::as_u64).expect("connections_open")
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    assert!(
        open_seen.iter().all(|&open| open <= CAP),
        "connections_open went past the cap of {CAP}: {open_seen:?}"
    );
    server.shutdown();
}

/// Pipelined requests are answered in order, and a long-poll never
/// parks while a request is already buffered behind it: the `/next`
/// that would wait 2 s answers at once so the `/healthz` behind it is
/// not held up (or lost with the parked socket's read buffer).
#[test]
fn pipelined_requests_are_answered_in_order_without_parking() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 1, "pipelined");
    assert!(!lease_everything(&server, &id).is_empty());

    let mut socket = TcpStream::connect(server.client.addr()).expect("connect");
    socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let requests = format!(
        "GET /campaigns/{id}/next?worker=w&wait_ms=2000 HTTP/1.1\r\nhost: test\r\n\r\n\
         GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n"
    );
    let t0 = Instant::now();
    socket.write_all(requests.as_bytes()).unwrap();
    let mut reader = BufReader::new(&socket);
    let (head, body) = read_one_response(&mut reader).expect("the /next response");
    let first_after = t0.elapsed();
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    let next = Json::parse(&body).expect("JSON /next body");
    assert!(matches!(next.get("assignment"), Some(Json::Null)), "nothing is assignable: {next}");
    assert!(
        first_after < Duration::from_secs(1),
        "a long-poll with a pipelined request behind it must answer at once, took {first_after:?}"
    );
    let (head, body) = read_one_response(&mut reader).expect("the pipelined /healthz response");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    let health = Json::parse(&body).expect("JSON /healthz body");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"), "{health}");
    server.shutdown();
}

/// F1 the swarm must reach on TINY with gold answers. It read 0.873 in
/// each of thirty runs, on the server before and after the swarm test
/// was added, however the swarm's answers interleaved.
const SWARM_F1_FLOOR: f64 = 0.87;

/// The gold answer to an assignment from `GET .../next`.
fn gold_answer(d: &GeneratedDataset, worker: &str, assignment: &Json) -> Json {
    let entity =
        |key: &str| EntityId(assignment.get(key).and_then(Json::as_u64).expect("entity id") as u32);
    let question = assignment.get("id").and_then(Json::as_str).expect("question id");
    Json::Obj(vec![
        ("worker".into(), Json::from(worker)),
        ("question".into(), Json::from(question)),
        ("says_match".into(), Json::from(d.is_match(entity("u1"), entity("u2")))),
    ])
}

/// The concurrent crowd: 32 workers long-poll one TINY campaign (three
/// labels per question) and answer each assignment with the gold label
/// until the campaign reports complete. A holder leases one question
/// of the first batch beforehand, so the swarm fills every other slot
/// and parks; the holder answers once several workers are parked. A
/// refused answer must be a typed 4xx, nothing may fail with a 5xx or
/// a broken connection, every asked question takes exactly three
/// accepted answers, and the answers, not the dispatcher's periodic
/// tick, release the parked long-polls.
#[test]
fn a_long_polling_swarm_completes_a_campaign() {
    use std::time::{Duration, Instant};

    use remp::core::evaluate_matches;
    use remp::obs::{names, Exposition};

    const WORKERS: usize = 32;
    let d = generate(&tiny(1.0));
    let server = TestServer::start(None);
    let id = create_preset_campaign(&server.client, 3, "swarm");
    let answers = format!("/campaigns/{id}/answers");
    // Process-global and monotonic: other tests can only add to it.
    let event_wakeups = || {
        let (_, text) = server.client.get_text("/metrics").expect("scrape");
        let expo = Exposition::parse(&text).expect("valid exposition");
        expo.value(names::LONGPOLL_DISPATCHER_WAKEUPS_TOTAL, &[("reason", "event")])
            .expect("wake-up counter registered at bind")
    };
    let events_before = event_wakeups();
    let held = server.client.get(&format!("/campaigns/{id}/next?worker=holder")).unwrap();
    let mut held = Some(gold_answer(&d, "holder", held.get("assignment").expect("assignment")));
    let start = Instant::now();

    let (tallies, peak_waiters) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|i| {
                let (client, id, answers, d) = (server.client.clone(), &id, &answers, &d);
                scope.spawn(move || {
                    let worker = format!("w{i:02}");
                    let (mut accepted, mut refused) = (0u64, 0u64);
                    loop {
                        assert!(
                            start.elapsed() < Duration::from_secs(120),
                            "{worker}: the campaign never completed"
                        );
                        let doc = client
                            .get(&format!("/campaigns/{id}/next?worker={worker}&wait_ms=2000"))
                            .unwrap_or_else(|e| panic!("{worker}: /next failed: {e}"));
                        if doc.get("complete").and_then(Json::as_bool) == Some(true) {
                            return (accepted, refused);
                        }
                        let Some(a) = doc.get("assignment").filter(|a| !matches!(a, Json::Null))
                        else {
                            continue;
                        };
                        match client.post(answers, &gold_answer(d, &worker, a)) {
                            Ok(_) => accepted += 1,
                            Err(ClientError::Api { status: 400..=499, code, .. })
                                if code != "unknown" =>
                            {
                                refused += 1
                            }
                            Err(e) => panic!("{worker}: answer failed: {e}"),
                        }
                    }
                })
            })
            .collect();
        let mut peak = 0;
        while workers.iter().any(|w| !w.is_finished()) {
            let health = server.client.get("/healthz").expect("healthz during the swarm");
            let parked = health.get("longpoll_waiters").and_then(Json::as_u64).unwrap_or(0);
            peak = peak.max(parked);
            if parked >= 2 || start.elapsed() > Duration::from_secs(30) {
                if let Some(answer) = held.take() {
                    server.client.post(&answers, &answer).expect("the holder's answer");
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let tallies: Vec<(u64, u64)> =
            workers.into_iter().map(|w| w.join().expect("swarm worker")).collect();
        (tallies, peak)
    });

    let accepted: u64 = 1 + tallies.iter().map(|t| t.0).sum::<u64>();
    let status = server.client.get(&format!("/campaigns/{id}")).unwrap();
    let asked = status.get("questions_asked").and_then(Json::as_u64).expect("questions_asked");
    assert!(held.is_none(), "the campaign completed without the holder's answer");
    assert_eq!(accepted, asked * 3, "every asked question takes exactly three answers");
    assert!(peak_waiters >= 2, "the swarm must park several long-polls at once ({peak_waiters})");
    assert!(
        event_wakeups() > events_before,
        "answers must wake the dispatcher for the parked long-polls, not leave them to its tick"
    );

    let outcome = server.client.get(&format!("/campaigns/{id}/outcome")).unwrap();
    let matches = outcome.get("matches").and_then(Json::as_array).expect("matches");
    let pairs = matches.iter().map(|pair| match pair.as_array() {
        Some([a, b]) => {
            let entity = |v: &Json| EntityId(v.as_u64().expect("entity id") as u32);
            (entity(a), entity(b))
        }
        _ => panic!("malformed match {pair}"),
    });
    let f1 = evaluate_matches(pairs, &d.gold).f1;
    assert!(f1 >= SWARM_F1_FLOOR, "swarm F1 {f1:.3} is below the floor {SWARM_F1_FLOOR}");
    server.shutdown();
}

/// The server side of `Connection: close`: 32 concurrent raw clients ask
/// for `/healthz` with `Connection: close`, and one more speaks bare
/// HTTP/1.0, whose default is close. Each gets one 200 that says
/// `connection: close` and then EOF, and the server's open-connection
/// count returns to where it started.
#[test]
fn connection_close_requests_get_one_response_then_eof() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let server = TestServer::start(None);
    let open = || {
        let health = server.client.get("/healthz").expect("healthz");
        health.get("connections_open").and_then(Json::as_u64).expect("connections_open")
    };
    let before = open();
    let one_shot = |request: &'static str| {
        let mut socket = TcpStream::connect(server.client.addr()).expect("connect");
        socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        socket.write_all(request.as_bytes()).unwrap();
        let mut response = Vec::new();
        socket.read_to_end(&mut response).expect("the server must close after its response");
        String::from_utf8(response).expect("UTF-8 response")
    };
    let responses: Vec<String> = std::thread::scope(|scope| {
        let mut clients: Vec<_> = (0..32)
            .map(|_| {
                scope.spawn(|| {
                    one_shot("GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n")
                })
            })
            .collect();
        clients.push(scope.spawn(|| one_shot("GET /healthz HTTP/1.0\r\n\r\n")));
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });

    for response in &responses {
        let (head, body) = response.split_once("\r\n\r\n").expect("a complete response");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        assert!(
            head.lines().any(|line| line.eq_ignore_ascii_case("connection: close")),
            "the response must announce the close: {head}"
        );
        let doc = Json::parse(body).unwrap_or_else(|e| panic!("one JSON body, then EOF: {e}"));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    }
    let t0 = Instant::now();
    while open() != before && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(open(), before, "every closed connection must leave the open count");
    server.shutdown();
}
