//! `crowdbench` — one benchmark for the Remp crowd loop.
//!
//! ```text
//! crowdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!            [--size full|toy] [--expect-digest D]
//! ```
//!
//! Runs one workload (`campaign-da`, `campaign-iy`, `serve-da`,
//! `scale-1e5`) in this process, checks its outputs, writes a report to
//! `.crowdbench/` and prints one JSON result object as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics of an
//! untraced run; `--trace 1` runs the workload once more with the
//! benchmark's spans on and reports the per-layer metrics plus the
//! attribution table. A failed correctness check prints the result with
//! `"correct": false` and exits with code 1. See README.md.

mod campaign;
mod scale;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use remp_json::Json;

use crate::trace::Attribution;

/// The workloads, each the only one where some layer does most of the work.
pub const WORKLOADS: [&str; 4] = ["campaign-da", "campaign-iy", "serve-da", "scale-1e5"];

/// End-to-end metrics (untraced runs), with units. Every workload reports
/// every one; README.md defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("questions", "count"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("answer_p50_ms", "ms"),
    ("next_p50_ms", "ms"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ergraph.candidates_s", "s"),
    ("ergraph.attr_alignment_s", "s"),
    ("ergraph.sim_vectors_s", "s"),
    ("ergraph.prune_s", "s"),
    ("ergraph.graph_s", "s"),
    ("ergraph.candidates", "count"),
    ("ergraph.retained", "count"),
    ("ergraph.components", "count"),
    ("core.begin_s", "s"),
    ("core.next_batch_s", "s"),
    ("core.next_batch_calls", "count"),
    ("core.submit_s", "s"),
    ("core.submit_calls", "count"),
    ("core.finish_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.inferred_per_question", "ratio"),
    ("propagation.consistency_s", "s"),
    ("propagation.edges_s", "s"),
    ("propagation.inferred_s", "s"),
    ("propagation.dirty_vertices", "count"),
    ("propagation.recomputed_sources", "count"),
    ("selection.select_s", "s"),
    ("crowd.label_s", "s"),
    ("crowd.labels", "count"),
    ("serve.http_next_ms", "ms"),
    ("serve.http_answer_ms", "ms"),
    ("serve.registry_next_ms", "ms"),
    ("serve.registry_answer_ms", "ms"),
    ("serve.engine_next_ms", "ms"),
    ("serve.engine_answer_ms", "ms"),
    ("serve.wal_append_ms", "ms"),
    ("serve.wal_bytes", "bytes"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.state_bytes", "bytes"),
    ("serve.empty_next", "count"),
    ("serve.keepalive_reuse", "count"),
    ("scale.generate_s", "s"),
    ("ingest.load_snapshot_s", "s"),
    ("scale.blocking_s", "s"),
    ("scale.components_s", "s"),
    ("scale.shard_write_s", "s"),
    ("scale.shard_read_s", "s"),
    ("scale.shard_run_s", "s"),
    ("scale.merge_s", "s"),
    ("scale.pairs", "count"),
    ("scale.shard_bytes", "bytes"),
    ("scale.shard0.pairs", "count"),
    ("scale.shard0.loops", "count"),
    ("scale.shard0.questions", "count"),
    ("scale.shard1.pairs", "count"),
    ("scale.shard1.loops", "count"),
    ("scale.shard1.questions", "count"),
    ("scale.shard2.pairs", "count"),
    ("scale.shard2.loops", "count"),
    ("scale.shard2.questions", "count"),
    ("scale.shard3.pairs", "count"),
    ("scale.shard3.loops", "count"),
    ("scale.shard3.questions", "count"),
    ("scale.shard4.pairs", "count"),
    ("scale.shard4.loops", "count"),
    ("scale.shard4.questions", "count"),
    ("scale.shard_straggler", "ratio"),
    ("scale.plan_us_per_pair", "us"),
    ("scale.run_ms_per_question", "ms"),
    ("trace.total_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Shards whose per-shard counts get their own per-layer rows.
pub const SHARD_ROWS: usize = 5;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes (TINY preset, 2 000-entity scale world) for smoke runs.
    pub toy: bool,
    /// Overrides the pinned outcome digest the correctness gate expects.
    pub expect_digest: Option<u64>,
    /// Scratch space inside the checkout, removed when the run ends.
    pub work_dir: PathBuf,
}

impl Options {
    /// The digest an outcome must equal, if one is pinned for this run:
    /// the `--expect-digest` override, else `pinned` at full size.
    pub fn expected_digest(&self, pinned: u64) -> Option<u64> {
        self.expect_digest.or((!self.toy).then_some(pinned))
    }
}

pub const DEFAULT_SEED: u64 = 42;

/// One correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.to_owned(), ok, detail: detail.into() }
    }

    /// Passes when `got == want`.
    pub fn equal<T: PartialEq + std::fmt::Debug>(name: &str, got: T, want: T) -> Check {
        let ok = got == want;
        Check::new(name, ok, format!("got {got:?}, want {want:?}"))
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Workload parameters, for the report file.
    pub params: Vec<(String, Json)>,
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind percentile metrics.
    pub samples: Vec<(&'static str, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub attribution: Option<Attribution>,
    /// The traced run's spans.
    pub spans: Option<Json>,
}

impl Report {
    pub fn param(&mut self, name: &str, value: impl Into<Json>) {
        self.params.push((name.to_owned(), value.into()));
    }

    /// Records every sample behind a median, for the report file.
    pub fn series(&mut self, name: &str, values: &[f64]) {
        self.param(name, Json::Arr(values.iter().map(|&v| Json::from(v)).collect()));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Adds the attribution table and its summary rows.
    pub fn attribute(&mut self, attribution: Attribution, overhead_pct: f64) {
        self.metric("trace.total_s", attribution.total_s);
        self.metric("trace.unattributed_s", attribution.unattributed_s());
        self.metric("trace.unattributed_pct", attribution.unattributed_pct());
        self.metric("trace.overhead_pct", overhead_pct);
        self.attribution = Some(attribution);
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        toy: false,
        expect_digest: None,
        work_dir: PathBuf::new(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--size" => {
                opts.toy = match value()?.as_str() {
                    "full" => false,
                    "toy" => true,
                    other => return Err(format!("--size takes full or toy, got {other:?}")),
                }
            }
            "--expect-digest" => {
                opts.expect_digest =
                    Some(value()?.parse().map_err(|e| format!("--expect-digest: {e}"))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}; one of {WORKLOADS:?}", opts.workload));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

/// First line of a command's standard output, or `"unknown"`. Git does
/// not look for a repository above the working directory, so a checkout
/// that is not a repository reads `unknown` instead of a parent's commit.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_json(opts: &Options, loadavg: &str) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::from(opts.workload.as_str())),
        ("seed".into(), Json::from(opts.seed)),
        ("seconds".into(), Json::from(opts.seconds)),
        ("trace".into(), Json::from(opts.trace)),
        ("size".into(), Json::from(if opts.toy { "toy" } else { "full" })),
        ("nproc".into(), Json::from(stats::nproc())),
        ("git_commit".into(), Json::from(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc".into(), Json::from(command_line("rustc", &["--version"]))),
        ("loadavg_at_start".into(), Json::from(loadavg)),
    ])
}

/// The metrics object of the result line: every name of `catalogue`,
/// in order, 0 where the workload has no value.
fn metrics_json(catalogue: &[(&str, &str)], report: &Report) -> Json {
    Json::Obj(
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value =
                    report.metrics.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::from(value)),
                        ("unit".into(), Json::from(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn run_workload(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "campaign-da" => campaign::run(opts, campaign::DA),
        "campaign-iy" => campaign::run(opts, campaign::IY),
        "serve-da" => serve::run(opts),
        "scale-1e5" => scale::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let mut opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("crowdbench: {e}");
            return ExitCode::from(2);
        }
    };
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned());
    let out_dir = PathBuf::from(".crowdbench");
    opts.work_dir = out_dir.join(format!("work-{}-{}", opts.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("crowdbench: creating {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }

    let result = run_workload(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let mut report = result.unwrap_or_else(|e| Report {
        checks: vec![Check::new("workload ran", false, e)],
        ..Report::default()
    });
    let correct = report.checks.iter().all(|c| c.ok);
    report.attempted = report.attempted.max(1);
    if !correct {
        report.failed = report.attempted;
    }
    // A failed check counts every operation of the run as failed.
    let ok_frac = 1.0 - report.failed as f64 / report.attempted as f64;
    report.metric("ok_frac", ok_frac);

    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = metrics_json(catalogue, &report);
    let doc = Json::Obj(vec![
        ("host".into(), host_json(&opts, &loadavg)),
        ("params".into(), Json::Obj(report.params.clone())),
        (
            "checks".into(),
            Json::Arr(
                report
                    .checks
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("name".into(), Json::from(c.name.as_str())),
                            ("ok".into(), Json::from(c.ok)),
                            ("detail".into(), Json::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".into(), metrics.clone()),
        (
            "samples".into(),
            Json::Obj(report.samples.iter().map(|&(n, c)| (n.to_owned(), Json::from(c))).collect()),
        ),
        (
            "attribution".into(),
            report.attribution.as_ref().map_or(Json::Null, Attribution::to_json),
        ),
        ("spans".into(), report.spans.take().unwrap_or(Json::Null)),
    ]);
    let report_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&report_path, doc.to_pretty_string()) {
        eprintln!("crowdbench: writing {}: {e}", report_path.display());
    }

    eprintln!(
        "crowdbench {} seed {} ({} CPUs, load {loadavg}); report in {}",
        opts.workload,
        opts.seed,
        stats::nproc(),
        report_path.display()
    );
    for c in &report.checks {
        eprintln!("  check {:<40} {}  {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    for &(name, unit) in catalogue {
        if let Some(v) = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64) {
            eprintln!("  {name:<32} {v:>14.6} {unit}");
        }
    }
    if let Some(a) = &report.attribution {
        for line in a.lines() {
            eprintln!("  {line}");
        }
    }

    let result = Json::Obj(vec![
        ("correct".into(), Json::from(correct)),
        ("attempted".into(), Json::from(report.attempted)),
        ("failed".into(), Json::from(report.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
