//! Crash-durability tests: `rempd` is SIGKILLed mid-campaign — no
//! graceful shutdown, no final checkpoint — and a fresh process on the
//! same `--state-dir` must fold the WAL's delta frames into the base,
//! replay its answer tail, and finish the campaign **bit-identical** to
//! an uninterrupted in-process run. Variants kill after two delta
//! frames, hand-write a torn final answer record or tear the final
//! delta frame (the shapes a crash mid-`write` leaves behind), and
//! rewrite the WAL in the answers-only version-1 format.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use remp_core::RempConfig;
use remp_datasets::{generate, preset_by_name};
use remp_ingest::framing::fnv1a64;
use remp_json::Json;
use remp_serve::{
    drive, drive_n, outcome_matches, reference_outcome, CrowdParams, CrowdPolicy, ServeClient,
    WireCrowd,
};

/// A `rempd` child process on a free port; the bound address is parsed
/// from its startup banner. Killed (not shut down) on drop so a failed
/// assertion never leaks a daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(state_dir: &PathBuf) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rempd"))
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .args(["--threads", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rempd");
        let stdout = child.stdout.take().expect("rempd stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines.next().expect("rempd exited before binding").expect("rempd stdout");
            if let Some(rest) = line.strip_prefix("rempd listening on http://") {
                break rest.trim().to_owned();
            }
        };
        // Keep draining the banner lines so the child never blocks on a
        // full pipe; rempd logs nothing per-request.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Daemon { child, addr }
    }

    fn client(&self) -> ServeClient {
        ServeClient::new(self.addr.clone())
    }

    /// SIGKILL — the point of the test: no signal handler runs, no
    /// checkpoint is written, the WAL is all that survives.
    fn kill(mut self) {
        self.child.kill().expect("kill rempd");
        self.child.wait().expect("reap rempd");
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remp-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_campaign(client: &ServeClient, preset: &str, per_question: usize, name: &str) -> String {
    let created = client
        .post(
            "/campaigns",
            &Json::Obj(vec![
                ("name".into(), Json::from(name)),
                ("preset".into(), Json::from(preset)),
                ("per_question".into(), Json::from(per_question)),
            ]),
        )
        .expect("create campaign");
    created.get("id").and_then(Json::as_str).expect("campaign id").to_owned()
}

/// `(offset, payload length, kind byte)` of every frame of a version-2
/// WAL file.
fn frames(bytes: &[u8]) -> Vec<(usize, usize, u8)> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos + 12 < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos, len, bytes[pos + 12]));
        pos += 12 + len;
    }
    out
}

const ANSWER: u8 = 1;
const DELTA: u8 = 2;

/// What to do to the WAL between the kill and the restart.
#[derive(Clone, Copy, PartialEq)]
enum Mangle {
    /// Nothing: recover from the crash image as it is.
    None,
    /// Append a frame whose length prefix promises more bytes than were
    /// flushed — a crash mid-append of an answer record.
    TornAnswer,
    /// Cut the final delta frame in half — a crash mid-compaction.
    TornDelta,
    /// Rewrite the log in the answers-only version-1 format.
    VersionOne,
}

/// Drives `partial` questions of a `preset` campaign, SIGKILLs the
/// daemon, mangles the WAL, restarts, finishes the campaign with the
/// *same* crowd RNG, and asserts the outcome bit-identical to the
/// in-process reference. Returns nothing — every guarantee is an
/// assertion.
fn crash_and_recover(
    tag: &str,
    preset: &str,
    per_question: usize,
    partial: usize,
    min_deltas: usize,
    mangle: Mangle,
) {
    let d = generate(&preset_by_name(preset, 1.0).expect("preset"));
    let truth = |a, b| d.is_match(a, b);
    let params = CrowdParams { per_question, ..CrowdParams::paper_default(41) };
    let state_dir = tmp_dir(tag);

    // Phase 1: a real rempd process, killed -9 after `partial` questions.
    let daemon = Daemon::spawn(&state_dir);
    let client = daemon.client();
    let id = create_campaign(&client, preset, per_question, tag);
    let mut crowd = WireCrowd::new(&params);
    let first = drive_n(&client, &id, &mut crowd, &truth, Some(partial)).expect("partial drive");
    assert_eq!(first.len(), partial);
    // The actor compacts after replying to an answer; a status request
    // queues behind that, so every compaction due is on disk.
    client.get(&format!("/campaigns/{id}")).expect("status");
    daemon.kill();

    let wal_path = state_dir.join(format!("{id}.wal"));
    let mut wal = std::fs::read(&wal_path).expect("WAL exists after kill -9");
    let wal_before = wal.len();
    assert!(wal_before > 8, "accepted answers must be in the WAL before the 2xx");
    let on_disk = frames(&wal);
    let deltas = on_disk.iter().filter(|f| f.2 == DELTA).count();
    assert!(deltas >= min_deltas, "{deltas} delta frame(s) before the kill, want {min_deltas}");

    match mangle {
        Mangle::None => {}
        Mangle::TornAnswer => {
            wal.extend_from_slice(&200u32.to_le_bytes());
            wal.extend_from_slice(&[0xAB; 11]);
        }
        Mangle::TornDelta => {
            let &(at, len, kind) = on_disk.last().expect("frames");
            assert_eq!(kind, DELTA, "the campaign stopped right after a compaction");
            wal.truncate(at + 12 + len / 2);
        }
        Mangle::VersionOne => {
            let mut v1 = b"RWAL".to_vec();
            v1.extend_from_slice(&1u32.to_le_bytes());
            for &(at, len, kind) in &on_disk {
                assert_eq!(kind, ANSWER, "version 1 held answer records only");
                let payload = &wal[at + 13..at + 12 + len];
                v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                v1.extend_from_slice(&fnv1a64(payload).to_le_bytes());
                v1.extend_from_slice(payload);
            }
            wal = v1;
        }
    }
    std::fs::write(&wal_path, &wal).expect("rewrite WAL");

    // Phase 2: a fresh process on the same state dir recovers the WAL.
    let daemon = Daemon::spawn(&state_dir);
    let client = daemon.client();
    let status = client.get(&format!("/campaigns/{id}")).expect("recovered campaign status");
    assert_eq!(
        status.get("questions_asked").and_then(Json::as_usize),
        Some(partial),
        "recovery must restore every answered question"
    );
    let recovered = std::fs::read(&wal_path).expect("WAL after recovery");
    match mangle {
        Mangle::TornAnswer | Mangle::TornDelta => assert!(
            recovered.len() < wal.len(),
            "recovery must truncate the torn tail, not keep it"
        ),
        Mangle::VersionOne => {
            assert_eq!(recovered[4..8], 2u32.to_le_bytes(), "the log was rewritten as version 2")
        }
        Mangle::None => {}
    }

    let rest = drive(&client, &id, &mut crowd, &truth).expect("drive to completion");
    assert!(!rest.is_empty(), "campaign still had open questions at the crash");
    let wire_outcome = client.get(&format!("/campaigns/{id}/outcome")).expect("outcome");
    daemon.kill();

    let policy = CrowdPolicy { per_question, ..CrowdPolicy::default() };
    let (reference, log) =
        reference_outcome(&d.kb1, &d.kb2, &RempConfig::default(), &policy, &params, &truth)
            .expect("reference run");
    assert_eq!(first.len() + rest.len(), reference.questions_asked);
    outcome_matches(&wire_outcome, &reference, &log)
        .expect("campaign recovered from kill -9 must stay bit-identical to the in-process run");
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn kill_dash_nine_mid_campaign_recovers_bit_identical() {
    crash_and_recover("kill9", "TINY", 3, 4, 0, Mangle::None);
}

#[test]
fn torn_final_wal_record_is_truncated_and_the_campaign_still_recovers() {
    crash_and_recover("torn", "TINY", 3, 4, 0, Mangle::TornAnswer);
}

#[test]
fn kill_dash_nine_after_two_delta_frames_recovers_bit_identical() {
    // 90 questions × 3 answers: delta frames at 128 and 256, then 14
    // answers of tail.
    crash_and_recover("kill9-deltas", "D-A", 3, 90, 2, Mangle::None);
}

#[test]
fn torn_final_delta_frame_is_truncated_and_the_campaign_still_recovers() {
    // 64 questions × 4 answers end on the compaction at 256: tearing
    // that frame leaves the frame at 128 plus answers 129–256.
    crash_and_recover("torn-delta", "D-A", 4, 64, 2, Mangle::TornDelta);
}

#[test]
fn version_one_wal_is_upgraded_and_the_campaign_still_recovers() {
    crash_and_recover("wal-v1", "TINY", 3, 4, 0, Mangle::VersionOne);
}
