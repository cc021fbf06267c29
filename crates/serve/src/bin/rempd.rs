//! `rempd` — the crowd-campaign server daemon.
//!
//! ```text
//! rempd --addr 127.0.0.1:8787 --state-dir ./campaigns
//! ```
//!
//! Runs until SIGTERM/SIGINT (or the process is killed), then shuts
//! down gracefully: in-flight requests finish, every campaign is
//! checkpointed into the state directory, and the campaign actors are
//! joined. Start a new `rempd` on the same `--state-dir` and every
//! campaign resumes where it stopped — mid-batch, even mid-question.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use remp_par::Parallelism;
use remp_serve::{Server, ServerConfig};

const USAGE: &str = "\
rempd — crowd-campaign HTTP server (see crates/serve/PROTOCOL.md)

USAGE:
    rempd [--addr HOST:PORT] [--state-dir DIR] [--threads N|auto|sequential]

OPTIONS:
    --addr HOST:PORT    bind address                [127.0.0.1:8787]
    --state-dir DIR     durable campaign state; campaigns checkpointed
                        there on shutdown are resumed on the next start
    --threads POLICY    HTTP handler pool size      [auto]

Observability: GET /metrics serves Prometheus text exposition and
GET /campaigns/ID/events the recent structured events; REMP_OBS=0
disables instrumentation, REMP_LOG=debug|info|warn|error sets the
stderr event-log level (default: warn; debug includes an access log).
";

/// Tripped by SIGTERM/SIGINT; [`Server::run`] watches it.
static STOP: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that set [`STOP`].
fn install_signal_handlers() {
    extern "C" fn request_stop(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    // libc is already linked by std; SIGTERM = 15, SIGINT = 2.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `request_stop` is async-signal-safe: it only stores to an
    // atomic.
    unsafe {
        signal(15, request_stop);
        signal(2, request_stop);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("rempd: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut config = ServerConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?.to_owned(),
            "--state-dir" => config.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--threads" => {
                let raw = value("--threads")?;
                config.parallelism = Parallelism::from_label(raw)
                    .ok_or_else(|| format!("--threads: unknown policy {raw:?}\n\n{USAGE}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }

    install_signal_handlers();
    let server = Server::bind(&config).map_err(|e| e.to_string())?;
    let resumed = server.registry().list();
    println!("rempd listening on http://{}", server.local_addr());
    match &config.state_dir {
        Some(dir) => println!("rempd state directory: {}", dir.display()),
        None => println!("rempd running without durable state (--state-dir to enable)"),
    }
    for (id, name) in resumed {
        println!("rempd resumed campaign {id} ({name})");
    }
    let saved = server.run(&STOP).map_err(|e| e.to_string())?;
    println!("rempd shut down cleanly; {saved} campaign(s) checkpointed");
    Ok(())
}
