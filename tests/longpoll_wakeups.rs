//! When the `rempd` long-poll dispatcher wakes, read from its
//! `remp_longpoll_dispatcher_wakeups_total{reason}` counter: an answer
//! that frees a question must wake it for a parked `/next` (not leave
//! the waiter to the dispatcher's periodic tick), and answers with
//! nothing parked must not wake it at all.
//!
//! The counter lives in the process-global metrics registry, so the
//! tests in this file hold one lock while they run: no other server in
//! the process can move it under them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use remp::obs::{names, Exposition};
use remp::serve::{ServeClient, Server, ServerConfig};
use remp_json::Json;

static SERIAL: Mutex<()> = Mutex::new(());

struct TestServer {
    client: ServeClient,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start() -> TestServer {
        let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
        let server = Server::bind(&config).expect("bind test server");
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            server.run(&stop_flag).expect("server run");
        });
        TestServer { client: ServeClient::new(addr.to_string()), stop, join: Some(join) }
    }

    /// Dispatcher wake-ups so far with this `reason` label.
    fn wakeups(&self, reason: &str) -> f64 {
        let (_, text) = self.client.get_text("/metrics").expect("scrape");
        let expo = Exposition::parse(&text).expect("valid exposition");
        expo.value(names::LONGPOLL_DISPATCHER_WAKEUPS_TOTAL, &[("reason", reason)])
            .expect("wake-up counter registered at bind")
    }

    /// A TINY campaign where one worker can hold every open question.
    fn create_campaign(&self, name: &str) -> String {
        let created = self
            .client
            .post(
                "/campaigns",
                &Json::Obj(vec![
                    ("name".into(), Json::from(name)),
                    ("preset".into(), Json::from("TINY")),
                    ("per_question".into(), Json::from(1usize)),
                ]),
            )
            .expect("create campaign");
        created.get("id").and_then(Json::as_str).expect("campaign id").to_owned()
    }

    /// Non-waiting `/next`: the assigned question id, if any.
    fn next(&self, id: &str, worker: &str) -> Option<String> {
        let doc = self.client.get(&format!("/campaigns/{id}/next?worker={worker}")).unwrap();
        doc.get("assignment").and_then(|a| a.get("id")).and_then(Json::as_str).map(str::to_owned)
    }

    fn answer(&self, id: &str, worker: &str, question: &str) {
        self.client
            .post(
                &format!("/campaigns/{id}/answers"),
                &Json::Obj(vec![
                    ("worker".into(), Json::from(worker)),
                    ("question".into(), Json::from(question)),
                    ("says_match".into(), Json::from(true)),
                ]),
            )
            .expect("answer accepted");
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

/// Polls `probe` until it holds or `limit` passes.
fn eventually(limit: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    probe()
}

#[test]
fn the_answer_not_the_tick_releases_a_parked_long_poll() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = TestServer::start();
    let id = server.create_campaign("wake-on-answer");
    // w0 holds the whole open batch, so w1 has nothing to take.
    let mut held = Vec::new();
    while let Some(question) = server.next(&id, "w0") {
        held.push(question);
    }
    let last = held.pop().expect("TINY opens at least one question");

    let poll_client = server.client.clone();
    let poll_id = id.clone();
    let waiter = std::thread::spawn(move || {
        poll_client.get(&format!("/campaigns/{poll_id}/next?worker=w1&wait_ms=20000")).unwrap()
    });
    assert!(
        eventually(Duration::from_secs(5), || {
            let health = server.client.get("/healthz").unwrap();
            health.get("longpoll_waiters").and_then(Json::as_u64) == Some(1)
        }),
        "the long-poll must park"
    );
    // Every answer but the last leaves the batch incomplete: nothing
    // frees up for w1.
    for question in &held {
        server.answer(&id, "w0", question);
    }
    assert!(!waiter.is_finished(), "nothing was assignable to w1 before the batch completed");

    // The last answer completes the batch. The actor bumps the notifier
    // before it can serve the dispatcher's next poll, so that wake is
    // counted as an event however the dispatcher's tick falls; a lost
    // wake-up would leave the waiter to the tick and the count flat.
    let before = server.wakeups("event");
    server.answer(&id, "w0", &last);
    let doc = waiter.join().expect("long-poll thread");
    assert!(
        doc.get("complete").and_then(Json::as_bool) == Some(true)
            || doc.get("assignment").is_some_and(|a| !matches!(a, Json::Null)),
        "the released long-poll carries work or the completion: {doc}"
    );
    assert!(
        eventually(Duration::from_secs(2), || server.wakeups("event") > before),
        "the answer that freed a question must wake the dispatcher (event count stayed {before})"
    );
}

#[test]
fn answers_with_nothing_parked_never_wake_the_dispatcher() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = TestServer::start();
    let id = server.create_campaign("no-waiters");
    let (events, parks) = (server.wakeups("event"), server.wakeups("park"));

    let mut answered = 0;
    while answered < 40 {
        let Some(question) = server.next(&id, "w0") else { break };
        server.answer(&id, "w0", &question);
        answered += 1;
    }
    assert!(answered >= 5, "the campaign must take answers ({answered})");
    assert_eq!(server.wakeups("event"), events, "no waiter was parked, so no event wake-up");
    assert_eq!(server.wakeups("park"), parks, "no long-poll parked");
}
