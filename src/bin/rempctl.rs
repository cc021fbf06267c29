//! `rempctl` — turn knowledge-base files into crowd campaigns.
//!
//! ```text
//! rempctl export --preset TINY --out fixtures/        # synthetic → text
//! rempctl import fixtures/kb1.nt fixtures/kb1.rkb     # text → snapshot
//! rempctl inspect fixtures/kb1.rkb                    # Table II stats
//! rempctl run --kb1 fixtures/kb1.rkb --kb2 fixtures/kb2.rkb \
//!             --gold fixtures/gold.tsv                # full campaign
//! ```
//!
//! Argument parsing is hand-rolled (the build environment has no
//! crates.io access, consistent with the rest of the workspace).

use std::collections::HashMap;
use std::io::{IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use remp_core::{evaluate_matches, run_on_dataset, Parallelism, RempConfig};
use remp_crowd::{LabelSource, OracleCrowd, SimulatedCrowd};
use remp_datasets::{generate, preset_by_name};
use remp_ingest::{
    export_dataset, load_gold, load_kb, load_snapshot, snapshot_stats, write_snapshot,
    ExportFormat, FileDataset,
};
use remp_json::Json;
use remp_kb::EntityId;
use remp_obs::{names, Exposition};
use remp_scale::{
    generate_dataset, process_shard, run_scale_bench, run_sharded_local, write_campaign, CrowdSpec,
    MergedOutcome, PlanMode, ScaleBenchOptions, ScaleSpec,
};
use remp_serve::{
    drive, outcome_matches, reference_outcome, CrowdParams, CrowdPolicy, ServeClient, Server,
    ServerConfig, WireCrowd, DEFAULT_LEASE_MS,
};
use remp_sim::{preset, preset_names, Scenario, SimReport};

const USAGE: &str = "\
rempctl — knowledge-base ingestion and file-backed Remp campaigns

USAGE:
    rempctl export --preset NAME --out DIR [--scale X] [--format nt|csv]
        Generate a synthetic preset (IIMB, D-A, I-Y, D-Y, TINY) and write
        it as loadable text files: two KBs plus gold.tsv.

    rempctl import INPUT OUTPUT.rkb [--name NAME]
        Parse a text KB (a .nt file or a CSV table directory) and write a
        binary .rkb snapshot that loads back without re-parsing.

    rempctl inspect PATH...
        Load KBs (.nt, CSV directory, or .rkb) and print Table II-style
        statistics plus load timings.

    rempctl run --kb1 PATH --kb2 PATH --gold PATH [options]
        Run a full crowd campaign on file-backed KBs via the session API.
        Crowd options:
            --oracle            perfect labels (ground truth)
            --workers N         simulated worker pool size   [100]
            --quality MIN,MAX   worker quality bounds        [0.8,0.99]
            --per-question N    labels per question          [5]
            --seed N            crowd RNG seed               [42]
        Campaign options:
            --budget N          max questions (default: unlimited)
            --mu N              questions per loop (default: config)
            --threads N         worker threads for the pipeline stages
                                (default: auto — REMP_THREADS or all cores)
            --trace-out PATH    write a spans.jsonl stage trace of the
                                campaign for offline timeline analysis

    rempctl drive --url HOST:PORT --kb1 PATH --kb2 PATH --gold PATH
                  [--campaign ID] [--name NAME] [--verify]
                  [--workers N] [--quality MIN,MAX] [--per-question N]
                  [--seed N] [--budget N] [--mu N]
        Drive a campaign on a running server with a seeded simulated
        crowd *over the wire*: create the campaign (or attach with
        --campaign), lease questions worker by worker, answer from the
        local gold standard, and print the final metrics. With
        --verify, also run the identical campaign in process and fail
        unless the server's resolutions, question order and submission
        log are bit-identical.

    rempctl simulate SCENARIO [--seed N] [--threads POLICY] [--out PATH]
                     [--trace PATH] [--min-f1 X] [--max-questions N]
                     [--require-complete]
    rempctl simulate --sweep spam|churn|all [--seed N] [--out PATH]
    rempctl simulate --list
        Run a discrete-tick campaign simulation with a virtual crowd —
        worker churn, latency, drifting quality, spammers and colluding
        cliques — entirely on virtual time (no sleeps, no server).
        SCENARIO is a built-in preset name (--list) or a scenario JSON
        file (see crates/sim/SCENARIOS.md). Same scenario + same seed
        reproduce a bit-identical event trace; --trace writes it as
        JSONL. --out writes the run report as JSON. --min-f1,
        --max-questions and --require-complete turn the run into a CI
        gate. --sweep instead runs the robustness curves (F1 vs spam
        rate, crowd cost vs churn) and writes them to --out
        [ROBUSTNESS.json].

    rempctl scale-gen --entities N --out DIR [--seed N] [--match-rate X]
                      [--mean-degree X] [--rels N] [--vocab N]
                      [--label-noise X] [--name NAME]
        Stream a seeded synthetic two-KB world of N entities per KB
        (power-law relationship degrees, X overlap) straight to
        kb1.rkb / kb2.rkb / gold.tsv without ever materialising a KB in
        memory — the out-of-core path to 10^5..10^6-entity campaigns.

    rempctl scale-plan --dir DIR [--shards N] [--full | --max-block N]
                       [--budget N] [--seed N] [--name NAME] [--oracle]
                       [--workers N] [--quality MIN,MAX] [--per-question N]
                       [--kb1 PATH] [--kb2 PATH] [--gold PATH]
        Split a campaign into self-contained shard files
        (shard-*.rshard + campaign.json in DIR). The default streaming
        planner walks token blocks canopy-at-a-time (--max-block caps
        |b1|*|b2| per block [200000]) and groups relationally adjacent
        pairs; --full instead runs the exact in-memory pipeline
        (small campaigns only). KB/gold paths default to the
        scale-gen layout under DIR.

    rempctl scale-run --dir DIR [--workers N] [--url HOST:PORT]
                      [--out PATH] [--lease-ms N]
        Run every shard of the campaign in DIR and merge. --workers 0
        (default) runs in process; --workers N > 0 starts an embedded
        coordinator (or uses the rempd at --url) and spawns N separate
        `rempctl shard-worker` OS processes that lease shards over
        HTTP. Both paths produce bit-identical merged outcomes. --out
        writes the merged outcome JSON.

    rempctl shard-worker --url HOST:PORT --job ID [--worker NAME]
                         [--poll-ms N]
        One worker process: poll the coordinator for shard leases,
        process each shard deterministically, post results back, exit
        when the job reports done. Spawned by scale-run; also usable
        against a long-running rempd across machines.

    rempctl top --url HOST:PORT [--interval SECS] [--iterations N]
        Live dashboard for a running server: scrape /metrics and
        /healthz and render a refreshing per-campaign table — open
        questions, lease counters, request-latency quantiles and the
        hottest pipeline stages. Reads only; never advances a
        campaign. --iterations 0 (the default) polls every --interval
        seconds [2] until interrupted; --iterations 1 prints a single
        snapshot.

    rempctl metrics --url HOST:PORT [--require NAME,NAME,...]
        Scrape /metrics, verify it parses as Prometheus text
        exposition, and with --require exit non-zero unless every
        listed metric family is present — the CI well-formedness gate.

    rempctl bench [--points N,N,...] [--budget N] [--seed N]
                  [--max-rss-mb MB] [--out PATH] [--work-dir DIR]
                  [--keep-artifacts]
        The scale bench: for each point, generate a world of N entities
        per KB out of core, plan a streamed sharded campaign, run every
        shard and record wall-clock per stage plus the process peak RSS
        (remp_peak_rss_bytes). Writes BENCH_scale.json [--out]. With
        --max-rss-mb, exit non-zero when any point's peak RSS exceeds
        the bound — the CI bounded-memory gate. Default points:
        10000,100000.

Observability: metrics, spans and the event log are on by default.
REMP_OBS=0 disables all instrumentation; REMP_LOG=debug|info|warn|error
sets the stderr event-log level (default: warn).
";

enum CliError {
    Usage(String),
    Failed(String),
    /// Stdout's reader went away (`rempctl run ... | head -3`): the
    /// command ends quietly, with exit status 0.
    Closed,
}

impl CliError {
    /// Classifies a failed write to stdout.
    fn stdout(e: std::io::Error) -> CliError {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError::Closed
        } else {
            CliError::Failed(format!("writing to stdout: {e}"))
        }
    }
}

/// `println!` for command output, in a function returning
/// `Result<_, CliError>`: a failed write returns [`CliError::stdout`]
/// instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(CliError::stdout)?
    };
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> CliError {
        CliError::Failed(e.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("rempctl: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("rempctl: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A verb's handler.
type Command = fn(&Opts) -> Result<(), CliError>;

/// Every verb, its handler and the options it accepts (space-separated,
/// without the leading `--`). Any other option is a usage error: a typo
/// like `run --budgt 30` must not quietly run a campaign with no budget.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("export", cmd_export, "preset out scale format"),
    ("import", cmd_import, "name"),
    ("inspect", cmd_inspect, ""),
    (
        "run",
        cmd_run,
        "kb1 kb2 gold oracle workers quality per-question seed budget mu threads trace-out",
    ),
    (
        "drive",
        cmd_drive,
        "url kb1 kb2 gold campaign name verify workers quality per-question seed budget mu",
    ),
    (
        "simulate",
        cmd_simulate,
        "seed threads out trace min-f1 max-questions require-complete sweep list",
    ),
    (
        "scale-gen",
        cmd_scale_gen,
        "entities out seed match-rate mean-degree rels vocab label-noise name",
    ),
    (
        "scale-plan",
        cmd_scale_plan,
        "dir shards full max-block budget seed name oracle workers quality per-question \
         kb1 kb2 gold",
    ),
    ("scale-run", cmd_scale_run, "dir workers url out lease-ms"),
    ("shard-worker", cmd_shard_worker, "url job worker poll-ms"),
    ("top", cmd_top, "url interval iterations"),
    ("metrics", cmd_metrics, "url require"),
    ("bench", cmd_bench, "points budget seed max-rss-mb out work-dir keep-artifacts"),
];

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        out!("{USAGE}");
        return Ok(());
    }
    let Some(&(verb, run, accepted)) = COMMANDS.iter().find(|(verb, ..)| verb == command) else {
        return Err(CliError::Usage(format!("unknown command {command:?}")));
    };
    run(&Opts::parse(verb, accepted, rest)?)
}

// ---- argument parsing -------------------------------------------------

/// Switches that take no value.
const SWITCHES: [&str; 6] =
    ["--oracle", "--verify", "--require-complete", "--list", "--full", "--keep-artifacts"];

struct Opts {
    positional: Vec<String>,
    named: HashMap<String, String>,
}

impl Opts {
    /// Parses `args` for `verb`, refusing any option not in `accepted`
    /// before it can swallow the next argument as its value.
    fn parse(verb: &str, accepted: &str, args: &[String]) -> Result<Opts, CliError> {
        let mut positional = Vec::new();
        let mut named = HashMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if !accepted.split(' ').any(|known| known == key) {
                    return Err(CliError::Usage(format!("{verb} does not take --{key}")));
                }
                if SWITCHES.contains(&arg.as_str()) {
                    named.insert(key.to_owned(), String::new());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| CliError::Usage(format!("option --{key} needs a value")))?;
                    named.insert(key.to_owned(), value.clone());
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Opts { positional, named })
    }

    fn required(&self, key: &str) -> Result<&str, CliError> {
        self.named
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}")))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => {
                raw.parse().map_err(|_| CliError::Usage(format!("--{key}: cannot parse {raw:?}")))
            }
        }
    }
}

// ---- commands ---------------------------------------------------------

fn cmd_export(opts: &Opts) -> Result<(), CliError> {
    let preset = opts.required("preset")?;
    let out = PathBuf::from(opts.required("out")?);
    let scale: f64 = opts.parsed("scale", 1.0)?;
    let format = match opts.get("format").unwrap_or("nt") {
        "nt" | "ntriples" => ExportFormat::NTriples,
        "csv" => ExportFormat::Csv,
        other => return Err(CliError::Usage(format!("unknown format {other:?}"))),
    };
    let spec = preset_by_name(preset, scale)
        .ok_or_else(|| CliError::Usage(format!("unknown preset {preset:?}")))?;
    let started = Instant::now();
    let dataset = generate(&spec);
    let paths = export_dataset(&dataset, &out, format)?;
    out!("exported {} (scale {scale}) in {:.1?}", dataset.name, started.elapsed());
    out!("  {}", dataset.kb1.stats());
    out!("  {}", dataset.kb2.stats());
    out!("  {} gold matches", dataset.num_gold());
    out!("  kb1:  {}", paths.kb1.display());
    out!("  kb2:  {}", paths.kb2.display());
    out!("  gold: {}", paths.gold.display());
    Ok(())
}

fn cmd_import(opts: &Opts) -> Result<(), CliError> {
    let [input, output] = opts.positional.as_slice() else {
        return Err(CliError::Usage("import needs exactly INPUT and OUTPUT.rkb".into()));
    };
    let input = Path::new(input);
    let name = match opts.get("name") {
        Some(n) => n.to_owned(),
        None => default_name(input),
    };
    let started = Instant::now();
    let loaded = load_kb(input, &name)?;
    let parsed_in = started.elapsed();
    let started = Instant::now();
    write_snapshot(&loaded.kb, &loaded.external_ids, Path::new(output))?;
    out!(
        "parsed {} in {parsed_in:.1?}, snapshot written in {:.1?}",
        input.display(),
        started.elapsed()
    );
    out!("  {}", loaded.kb.stats());
    out!("  {output}");
    Ok(())
}

fn cmd_inspect(opts: &Opts) -> Result<(), CliError> {
    if opts.positional.is_empty() {
        return Err(CliError::Usage("inspect needs at least one PATH".into()));
    }
    for raw in &opts.positional {
        let path = Path::new(raw);
        let started = Instant::now();
        // Snapshots stream through the section-at-a-time `RkbSections`
        // reader: stats for a million-entity `.rkb` print at O(section)
        // memory, without materialising the KB.
        if path.extension().is_some_and(|e| e == "rkb") {
            let stats = snapshot_stats(path)?;
            out!("{} (streamed in {:.1?})", path.display(), started.elapsed());
            out!("  {stats}");
        } else {
            let loaded = load_kb(path, &default_name(path))?;
            out!("{} (loaded in {:.1?})", path.display(), started.elapsed());
            out!("  {}", loaded.kb.stats());
        }
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), CliError> {
    let kb1 = Path::new(opts.required("kb1")?);
    let kb2 = Path::new(opts.required("kb2")?);
    let gold = Path::new(opts.required("gold")?);

    let started = Instant::now();
    let dataset = FileDataset::load("file-backed", kb1, kb2, gold)?.into_generated();
    out!("loaded campaign in {:.1?}", started.elapsed());
    out!("  {}", dataset.kb1.stats());
    out!("  {}", dataset.kb2.stats());
    out!("  {} gold matches", dataset.gold.len());

    let mut config = RempConfig::default();
    if let Some(budget) = opts.get("budget") {
        let budget: usize = budget
            .parse()
            .map_err(|_| CliError::Usage(format!("--budget: cannot parse {budget:?}")))?;
        config = config.with_budget(budget);
    }
    if let Some(mu) = opts.get("mu") {
        let mu: usize =
            mu.parse().map_err(|_| CliError::Usage(format!("--mu: cannot parse {mu:?}")))?;
        config = config.with_mu(mu);
    }
    if let Some(threads) = opts.get("threads") {
        let parallelism = Parallelism::from_label(threads).ok_or_else(|| {
            CliError::Usage(format!(
                "--threads: expected a worker count, 'sequential' or 'auto', got {threads:?}"
            ))
        })?;
        config = config.with_parallelism(parallelism);
    }

    let mut crowd: Box<dyn LabelSource> = if opts.get("oracle").is_some() {
        Box::new(OracleCrowd::new())
    } else {
        let workers: usize = opts.parsed("workers", 100)?;
        let per_question: usize = opts.parsed("per-question", 5)?;
        let seed: u64 = opts.parsed("seed", 42)?;
        let quality = opts.get("quality").unwrap_or("0.8,0.99");
        let (min_q, max_q): (f64, f64) = quality
            .split_once(',')
            .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
            .ok_or_else(|| {
                CliError::Usage(format!("--quality: expected MIN,MAX, got {quality:?}"))
            })?;
        // Validate up front: SimulatedCrowd::new asserts on bad bounds,
        // and a typo should get a usage message, not a panic.
        if !(0.0..=1.0).contains(&min_q) || !(0.0..=1.0).contains(&max_q) || min_q > max_q {
            return Err(CliError::Usage(format!(
                "--quality: bounds must satisfy 0 ≤ MIN ≤ MAX ≤ 1, got {quality:?}"
            )));
        }
        if workers == 0 || per_question == 0 {
            return Err(CliError::Usage("--workers and --per-question must be at least 1".into()));
        }
        Box::new(SimulatedCrowd::new(workers, min_q, max_q, per_question, seed))
    };

    let trace_out = trace_out_begin(opts);
    let started = Instant::now();
    let result = run_on_dataset(&dataset, &config, crowd.as_mut());
    out!("campaign finished in {:.1?}", started.elapsed());
    out!("  questions asked : {} ({} labels)", result.questions, crowd.labels_collected());
    out!("  loops           : {}", result.loops);
    out!(
        "  precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        100.0 * result.eval.precision,
        100.0 * result.eval.recall,
        100.0 * result.eval.f1
    );
    print_loop_stats(&result.loop_stats)?;
    if let Some(path) = trace_out {
        trace_out_finish(path)?;
    }
    Ok(())
}

/// Starts a span collection when `--trace-out` was given, forcing
/// observability on so there is something to collect.
fn trace_out_begin(opts: &Opts) -> Option<&str> {
    let path = opts.get("trace-out")?;
    if !remp_obs::enabled() {
        remp_obs::set_enabled(true);
    }
    remp_obs::trace_begin();
    Some(path)
}

/// Drains the active span collection into a `spans.jsonl` file.
fn trace_out_finish(path: &str) -> Result<(), CliError> {
    let spans = remp_obs::trace_take();
    std::fs::write(path, remp_obs::spans_to_jsonl(&spans))?;
    out!("  wrote {} spans to {path}", spans.len());
    Ok(())
}

/// Where the campaign's compute time went: stage-2/3 totals plus how much
/// of the graph the incremental engine actually touched per loop.
fn print_loop_stats(stats: &[remp_core::LoopStat]) -> Result<(), CliError> {
    let Some(first) = stats.first() else { return Ok(()) };
    let total: f64 = stats.iter().map(|s| s.total_s()).sum();
    let consistency: f64 = stats.iter().map(|s| s.refresh.consistency_s).sum();
    let propagation: f64 = stats.iter().map(|s| s.refresh.propagation_s).sum();
    let inferred: f64 = stats.iter().map(|s| s.refresh.inferred_s).sum();
    let selection: f64 = stats.iter().map(|s| s.selection_s).sum();
    out!(
        "  stage 2+3       : {total:.2}s total (consistency {consistency:.2}s, \
         propagation {propagation:.2}s, inferred sets {inferred:.2}s, selection {selection:.2}s)"
    );
    out!(
        "  first loop      : {:.3}s full build ({} vertices, {} sources)",
        first.total_s(),
        first.refresh.dirty_vertices,
        first.refresh.recomputed_sources
    );
    if stats.len() > 1 {
        let tail = &stats[1..];
        let mean_s = tail.iter().map(|s| s.total_s()).sum::<f64>() / tail.len() as f64;
        let mean_vertices =
            tail.iter().map(|s| s.refresh.dirty_vertices).sum::<usize>() / tail.len();
        let mean_sources =
            tail.iter().map(|s| s.refresh.recomputed_sources).sum::<usize>() / tail.len();
        let mean_settled =
            tail.iter().map(|s| s.refresh.settled_vertices).sum::<usize>() / tail.len();
        let retired = stats.last().map(|s| s.refresh.retired_components).unwrap_or(0);
        out!(
            "  later loops     : {mean_s:.3}s avg incremental (avg {mean_vertices} dirty \
             vertices, {mean_sources} sources settling {mean_settled} vertices; \
             {retired} components retired at the end)"
        );
    }
    Ok(())
}

fn cmd_drive(opts: &Opts) -> Result<(), CliError> {
    let url = opts.required("url")?;
    let kb1 = opts.required("kb1")?.to_owned();
    let kb2 = opts.required("kb2")?.to_owned();
    let gold = Path::new(opts.required("gold")?);
    let params = CrowdParams {
        workers: opts.parsed("workers", 100)?,
        per_question: opts.parsed("per-question", 5)?,
        seed: opts.parsed("seed", 42)?,
        ..parse_quality_bounds(opts)?
    };
    if params.workers < params.per_question || params.per_question == 0 {
        return Err(CliError::Usage(
            "--workers must be at least --per-question (and both at least 1)".into(),
        ));
    }

    // The client side of the campaign: the gold standard is the hidden
    // truth the simulated workers answer from.
    let started = Instant::now();
    let dataset = FileDataset::load("drive", Path::new(&kb1), Path::new(&kb2), gold)?;
    out!(
        "loaded local gold standard in {:.1?} ({} matches)",
        started.elapsed(),
        dataset.num_gold()
    );

    if opts.get("verify").is_some() && opts.get("campaign").is_some() {
        // The in-process reference replays the campaign from scratch with
        // this invocation's config and crowd seed; attaching to an
        // existing campaign (created who-knows-how, possibly mid-flight)
        // would make the comparison diverge spuriously.
        return Err(CliError::Usage(
            "--verify only works for campaigns this invocation creates; drop --campaign".into(),
        ));
    }

    let client = ServeClient::new(url);
    let campaign = match opts.get("campaign") {
        Some(id) => id.to_owned(),
        None => {
            let mut body = vec![
                ("name".to_owned(), Json::from(opts.get("name").unwrap_or("drive"))),
                ("kb1".to_owned(), Json::from(kb1.as_str())),
                ("kb2".to_owned(), Json::from(kb2.as_str())),
                ("per_question".to_owned(), Json::from(params.per_question)),
            ];
            if let Some(budget) = opts.get("budget") {
                let budget: u64 = budget
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--budget: cannot parse {budget:?}")))?;
                body.push(("budget".to_owned(), Json::from(budget)));
            }
            if let Some(mu) = opts.get("mu") {
                let mu: u64 = mu
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--mu: cannot parse {mu:?}")))?;
                body.push(("mu".to_owned(), Json::from(mu)));
            }
            let created = client
                .post("/campaigns", &Json::Obj(body))
                .map_err(|e| CliError::Failed(e.to_string()))?;
            created
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| CliError::Failed("server did not return a campaign id".into()))?
                .to_owned()
        }
    };
    out!("driving campaign {campaign} on http://{}", client.addr());

    let started = Instant::now();
    let mut crowd = WireCrowd::new(&params);
    let truth = |a: EntityId, b: EntityId| dataset.is_match(a, b);
    let driven = drive(&client, &campaign, &mut crowd, &truth)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let outcome_doc = client
        .get(&format!("/campaigns/{campaign}/outcome"))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    out!("campaign completed over the wire in {:.1?}", started.elapsed());
    out!("  questions answered : {}", driven.len());

    let matches = decode_matches(&outcome_doc)?;
    let eval = evaluate_matches(matches.iter().copied(), &dataset.gold);
    out!(
        "  precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        100.0 * eval.precision,
        100.0 * eval.recall,
        100.0 * eval.f1
    );

    // The server-side crowd health counters the campaign accumulated.
    let status = client
        .get(&format!("/campaigns/{campaign}"))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    if let Some(leases) = status.get("leases") {
        let n = |key: &str| leases.get(key).and_then(Json::as_u64).unwrap_or(0);
        out!(
            "  leases          : {} issued, {} expired, {} re-issued",
            n("issued"),
            n("expired"),
            n("reissued")
        );
    }
    if let Some(quality) = status.get("worker_quality") {
        let f = |key: &str| quality.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        out!(
            "  worker quality  : {} workers, estimates {:.3} min / {:.3} mean / {:.3} max",
            quality.get("count").and_then(Json::as_u64).unwrap_or(0),
            f("min"),
            f("mean"),
            f("max")
        );
    }

    if opts.get("verify").is_some() {
        let started = Instant::now();
        let mut config = RempConfig::default();
        if opts.get("budget").is_some() {
            config = config.with_budget(opts.parsed("budget", 0usize)?);
        }
        if opts.get("mu").is_some() {
            let mu = opts.parsed("mu", config.mu)?;
            config = config.with_mu(mu);
        }
        let policy = CrowdPolicy { per_question: params.per_question, ..CrowdPolicy::default() };
        let (reference, log) =
            reference_outcome(&dataset.kb1, &dataset.kb2, &config, &policy, &params, &truth)
                .map_err(|e| CliError::Failed(e.to_string()))?;
        outcome_matches(&outcome_doc, &reference, &log).map_err(|divergence| {
            CliError::Failed(format!(
                "HTTP campaign diverged from the in-process run: {divergence}"
            ))
        })?;
        out!(
            "  VERIFIED in {:.1?}: wire outcome is bit-identical to the in-process session run",
            started.elapsed()
        );
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), CliError> {
    if opts.get("list").is_some() {
        out!("built-in scenario presets (rempctl simulate NAME):");
        for name in preset_names() {
            out!("  {name}");
        }
        return Ok(());
    }
    let seed: u64 = opts.parsed("seed", 42)?;
    if let Some(sweep) = opts.get("sweep") {
        return cmd_simulate_sweep(sweep, seed, opts);
    }
    let Some(spec) = opts.positional.first() else {
        return Err(CliError::Usage(
            "simulate needs a SCENARIO (a preset name or a scenario file), --sweep, or --list"
                .into(),
        ));
    };

    // Preset names win; anything else is a scenario file.
    let scenario = match preset(spec, seed) {
        Some(scenario) => scenario,
        None => {
            let text = std::fs::read_to_string(spec)
                .map_err(|e| CliError::Failed(format!("cannot read scenario {spec:?}: {e}")))?;
            let mut scenario =
                Scenario::parse(&text).map_err(|e| CliError::Failed(e.to_string()))?;
            if opts.get("seed").is_some() {
                scenario.seed = seed;
            }
            scenario
        }
    };
    let parallelism = match opts.get("threads") {
        None => None,
        Some(raw) => Some(Parallelism::from_label(raw).ok_or_else(|| {
            CliError::Usage(format!(
                "--threads: expected a worker count, 'sequential' or 'auto', got {raw:?}"
            ))
        })?),
    };

    let started = Instant::now();
    let report = remp_sim::run_scenario_with(&scenario, parallelism)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    out!(
        "simulated scenario {:?} (seed {}) in {:.1?}",
        report.scenario,
        report.seed,
        started.elapsed()
    );
    print_sim_report(&report)?;

    if let Some(path) = opts.get("trace") {
        let mut lines = String::new();
        for event in &report.trace {
            lines.push_str(&event.to_json().to_string());
            lines.push('\n');
        }
        std::fs::write(path, lines)?;
        out!("  wrote trace to {path} ({} events)", report.trace.len());
    }
    if let Some(out) = opts.get("out") {
        std::fs::write(out, report.to_json(false).to_pretty_string())?;
        out!("  wrote report to {out}");
    }

    // CI gates: turn robustness expectations into exit codes.
    if opts.get("require-complete").is_some() && !report.complete {
        return Err(CliError::Failed(format!(
            "campaign did not complete within {} ticks (stalled: {})",
            scenario.max_ticks, report.stalled
        )));
    }
    if let Some(floor) = opts.get("min-f1") {
        let floor: f64 = floor
            .parse()
            .map_err(|_| CliError::Usage(format!("--min-f1: cannot parse {floor:?}")))?;
        if report.eval.f1 < floor {
            return Err(CliError::Failed(format!(
                "F1 {:.3} is below the required floor {floor}",
                report.eval.f1
            )));
        }
    }
    if let Some(cap) = opts.get("max-questions") {
        let cap: usize = cap
            .parse()
            .map_err(|_| CliError::Usage(format!("--max-questions: cannot parse {cap:?}")))?;
        if report.questions_asked > cap {
            return Err(CliError::Failed(format!(
                "{} questions asked, over the cap of {cap}",
                report.questions_asked
            )));
        }
    }
    Ok(())
}

fn print_sim_report(report: &SimReport) -> Result<(), CliError> {
    out!(
        "  outcome         : {} ({} ticks, {} loops, {} questions)",
        if report.complete {
            "complete"
        } else if report.stalled {
            "STALLED"
        } else {
            "tick cap reached"
        },
        report.ticks,
        report.loops,
        report.questions_asked
    );
    out!(
        "  crowd           : {} workers ({} arrived, {} left); answers {} delivered, \
         {} rejected, {} dropped",
        report.workers_total,
        report.workers_arrived,
        report.workers_left,
        report.answers_delivered,
        report.answers_rejected,
        report.answers_dropped
    );
    out!(
        "  leases          : {} issued, {} expired, {} re-issued",
        report.leases.issued,
        report.leases.expired,
        report.leases.reissued
    );
    out!(
        "  precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        100.0 * report.eval.precision,
        100.0 * report.eval.recall,
        100.0 * report.eval.f1
    );
    if let Some(err) = report.estimator.honest_mean_abs_error {
        out!("  estimator       : mean |estimate - truth| = {err:.3} over honest workers");
    }
    if let Some(max) = report.estimator.adversary_max_estimate {
        out!("  estimator       : highest adversary estimate {max:.3}");
    }
    out!("  trace           : {} events, hash {:016x}", report.trace.len(), report.trace_hash);
    Ok(())
}

fn cmd_simulate_sweep(sweep: &str, seed: u64, opts: &Opts) -> Result<(), CliError> {
    let started = Instant::now();
    let doc = match sweep {
        "spam" => Json::Obj(vec![
            ("version".to_owned(), Json::from(1u64)),
            ("seed".to_owned(), Json::from(seed)),
            ("spam_curve".to_owned(), remp_sim::spam_curve(seed).map_err(fail)?),
        ]),
        "churn" => Json::Obj(vec![
            ("version".to_owned(), Json::from(1u64)),
            ("seed".to_owned(), Json::from(seed)),
            ("churn_curve".to_owned(), remp_sim::churn_curve(seed).map_err(fail)?),
        ]),
        "all" => remp_sim::robustness_report(seed).map_err(fail)?,
        other => {
            return Err(CliError::Usage(format!(
                "--sweep: expected spam, churn or all, got {other:?}"
            )))
        }
    };
    out!("robustness sweep {sweep:?} (seed {seed}) finished in {:.1?}", started.elapsed());
    for (key, label, x_key) in [
        ("spam_curve", "F1 vs spam rate", "spam_fraction"),
        ("churn_curve", "cost vs churn", "churn_fraction"),
    ] {
        let Some(points) = doc.get(key).and_then(Json::as_array) else { continue };
        out!("  {label}:");
        for point in points {
            let x = point.get(x_key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let f1 = point.get("f1").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let answers = point.get("answers").and_then(Json::as_u64).unwrap_or(0);
            out!("    {x:>5.2}  F1 {:>5.1}%  {answers} answers", 100.0 * f1);
        }
    }
    let out = opts.get("out").unwrap_or("ROBUSTNESS.json");
    std::fs::write(out, doc.to_pretty_string())?;
    out!("  wrote {out}");
    Ok(())
}

fn fail(e: remp_sim::SimError) -> CliError {
    CliError::Failed(e.to_string())
}

fn parse_quality_bounds(opts: &Opts) -> Result<CrowdParams, CliError> {
    let quality = opts.get("quality").unwrap_or("0.8,0.99");
    let (min_q, max_q): (f64, f64) = quality
        .split_once(',')
        .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)))
        .ok_or_else(|| CliError::Usage(format!("--quality: expected MIN,MAX, got {quality:?}")))?;
    if !(0.0..=1.0).contains(&min_q) || !(0.0..=1.0).contains(&max_q) || min_q > max_q {
        return Err(CliError::Usage(format!(
            "--quality: bounds must satisfy 0 ≤ MIN ≤ MAX ≤ 1, got {quality:?}"
        )));
    }
    Ok(CrowdParams { min_quality: min_q, max_quality: max_q, ..CrowdParams::paper_default(0) })
}

fn decode_matches(outcome_doc: &Json) -> Result<Vec<(EntityId, EntityId)>, CliError> {
    outcome_doc
        .get("matches")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::Failed("outcome without a matches array".into()))?
        .iter()
        .map(|pair| {
            let entity = |v: &Json| v.as_u64().and_then(|n| u32::try_from(n).ok());
            match pair.as_array() {
                Some([a, b]) => entity(a)
                    .zip(entity(b))
                    .map(|(a, b)| (EntityId(a), EntityId(b)))
                    .ok_or_else(|| CliError::Failed("non-numeric match entry".into())),
                _ => Err(CliError::Failed("malformed match entry".into())),
            }
        })
        .collect()
}

/// One `/metrics` scrape, parsed — shared by `top` and `metrics`.
fn scrape_metrics(client: &ServeClient) -> Result<Exposition, CliError> {
    let (status, text) =
        client.get_text("/metrics").map_err(|e| CliError::Failed(e.to_string()))?;
    if status != 200 {
        return Err(CliError::Failed(format!("GET /metrics answered HTTP {status}")));
    }
    Exposition::parse(&text)
        .map_err(|e| CliError::Failed(format!("/metrics is not valid text exposition: {e}")))
}

fn cmd_top(opts: &Opts) -> Result<(), CliError> {
    let client = ServeClient::new(opts.required("url")?);
    let interval: f64 = opts.parsed("interval", 2.0)?;
    let iterations: u64 = opts.parsed("iterations", 0)?;
    let clear_screen = std::io::stdout().is_terminal();
    let mut round = 0u64;
    loop {
        round += 1;
        let expo = scrape_metrics(&client)?;
        let health = client.get("/healthz").map_err(|e| CliError::Failed(e.to_string()))?;
        if clear_screen {
            // Home the cursor and wipe the previous frame.
            write!(std::io::stdout(), "\x1b[H\x1b[2J").map_err(CliError::stdout)?;
        } else if round > 1 {
            out!();
        }
        print_top(client.addr(), &expo, &health)?;
        if iterations != 0 && round >= iterations {
            break;
        }
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.1)));
    }
    Ok(())
}

/// One `top` frame: server header, per-campaign table, hottest stages.
fn print_top(addr: &str, expo: &Exposition, health: &Json) -> Result<(), CliError> {
    let version = health.get("version").and_then(Json::as_str).unwrap_or("?");
    let uptime = health.get("uptime_s").and_then(Json::as_f64).unwrap_or(0.0);
    let series = health.get("metric_series").and_then(Json::as_u64).unwrap_or(0);
    let quantile = |q: f64| match expo.histogram_quantile(names::HTTP_REQUEST_SECONDS, &[], q) {
        Some(v) => format!("{:.1}ms", 1e3 * v),
        None => "-".to_owned(),
    };
    let peak_rss = match expo.value(names::PEAK_RSS_BYTES, &[]) {
        Some(bytes) => format!(" · peak rss {:.0} MiB", bytes / (1024.0 * 1024.0)),
        None => String::new(),
    };
    out!(
        "rempd {version} on {addr} · up {uptime:.0}s · {:.0} requests \
         (p50 {} / p99 {}) · {series} metric series{peak_rss}",
        expo.total(names::HTTP_REQUESTS_TOTAL),
        quantile(0.5),
        quantile(0.99)
    );

    // Serving pressure, straight from /healthz: open sockets, how many
    // of them are parked long-polls, and un-compacted answer WAL.
    let pressure = |key: &str| health.get(key).and_then(Json::as_u64).unwrap_or(0);
    out!(
        "  serving: {} connections open · {} long-poll waiters · {} WAL bytes · \
         {:.0} keep-alive reuses",
        pressure("connections_open"),
        pressure("longpoll_waiters"),
        pressure("wal_bytes"),
        expo.total(names::HTTP_KEEPALIVE_REUSE_TOTAL),
    );

    // Every campaign the registry exports gauges for, in id order.
    let mut ids: Vec<&str> = expo
        .samples
        .iter()
        .filter(|s| s.name == names::CAMPAIGN_OPEN_QUESTIONS)
        .filter_map(|s| s.label("campaign"))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        out!("  no campaigns (or the server runs with REMP_OBS=0)");
    } else {
        out!(
            "  {:<20} {:>6} {:>7} {:>8} {:>8} {:>8} {:>9}  STATE",
            "CAMPAIGN",
            "OPEN",
            "ASKED",
            "WORKERS",
            "ISSUED",
            "EXPIRED",
            "REISSUED"
        );
        for id in ids {
            let val = |name: &str| expo.value(name, &[("campaign", id)]).unwrap_or(0.0);
            let state = if val(names::CAMPAIGN_COMPLETE) >= 1.0 { "complete" } else { "running" };
            out!(
                "  {:<20} {:>6.0} {:>7.0} {:>8.0} {:>8.0} {:>8.0} {:>9.0}  {state}",
                id,
                val(names::CAMPAIGN_OPEN_QUESTIONS),
                val(names::CAMPAIGN_QUESTIONS_ASKED),
                val(names::CAMPAIGN_WORKERS),
                val(names::LEASES_ISSUED_TOTAL),
                val(names::LEASES_EXPIRED_TOTAL),
                val(names::LEASES_REISSUED_TOTAL),
            );
        }
    }

    // Where server-side compute time goes, hottest stages first.
    let sum_name = format!("{}_sum", names::STAGE_SECONDS);
    let count_name = format!("{}_count", names::STAGE_SECONDS);
    let mut stages: Vec<(&str, f64, f64)> = expo
        .samples
        .iter()
        .filter(|s| s.name == sum_name)
        .filter_map(|s| {
            let stage = s.label("stage")?;
            let calls = expo.value(&count_name, &[("stage", stage)]).unwrap_or(0.0);
            Some((stage, s.value, calls))
        })
        .collect();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !stages.is_empty() {
        out!("  hottest stages:");
        for (stage, total_s, calls) in stages.iter().take(5) {
            out!("    {stage:<20} {total_s:>9.3}s over {calls:>6.0} calls");
        }
    }
    Ok(())
}

fn cmd_metrics(opts: &Opts) -> Result<(), CliError> {
    let client = ServeClient::new(opts.required("url")?);
    let expo = scrape_metrics(&client)?;
    out!(
        "scraped http://{}/metrics: {} samples across {} typed families",
        client.addr(),
        expo.samples.len(),
        expo.types.len()
    );
    if let Some(list) = opts.get("require") {
        let required: Vec<&str> =
            list.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        let missing: Vec<&str> =
            required.iter().copied().filter(|name| !expo.has_family(name)).collect();
        if !missing.is_empty() {
            return Err(CliError::Failed(format!(
                "missing metric families: {}",
                missing.join(", ")
            )));
        }
        out!("  all {} required families present", required.len());
    }
    Ok(())
}

// ---- scale: out-of-core generation, sharding, multi-process runs ------

fn cmd_scale_gen(opts: &Opts) -> Result<(), CliError> {
    let entities: usize = opts
        .required("entities")?
        .parse()
        .map_err(|_| CliError::Usage("--entities: expected a positive integer".into()))?;
    let out = PathBuf::from(opts.required("out")?);
    let mut spec = ScaleSpec::new(opts.get("name").unwrap_or("scale"), entities);
    spec.seed = opts.parsed("seed", spec.seed)?;
    spec.match_rate = opts.parsed("match-rate", spec.match_rate)?;
    spec.mean_degree = opts.parsed("mean-degree", spec.mean_degree)?;
    spec.rels = opts.parsed("rels", spec.rels)?;
    spec.vocab = opts.parsed("vocab", spec.vocab)?;
    spec.label_noise = opts.parsed("label-noise", spec.label_noise)?;
    spec.validate().map_err(CliError::Usage)?;

    let started = Instant::now();
    let report = generate_dataset(&spec, &out)?;
    out!(
        "generated {} entities per KB in {:.1?} (seed {}, vocab {})",
        report.entities,
        started.elapsed(),
        spec.seed,
        spec.effective_vocab()
    );
    out!(
        "  {} gold pairs; {} + {} relationship triples",
        report.gold_pairs,
        report.rel_triples.0,
        report.rel_triples.1
    );
    for name in ["kb1.rkb", "kb2.rkb", "gold.tsv"] {
        let path = out.join(name);
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        out!("  {} ({:.1} MiB)", path.display(), bytes as f64 / (1024.0 * 1024.0));
    }
    Ok(())
}

fn cmd_scale_plan(opts: &Opts) -> Result<(), CliError> {
    let dir = PathBuf::from(opts.required("dir")?);
    let kb1_path = opts.get("kb1").map(PathBuf::from).unwrap_or_else(|| dir.join("kb1.rkb"));
    let kb2_path = opts.get("kb2").map(PathBuf::from).unwrap_or_else(|| dir.join("kb2.rkb"));
    let gold_path = opts.get("gold").map(PathBuf::from).unwrap_or_else(|| dir.join("gold.tsv"));
    let shards: usize = opts.parsed("shards", 4)?;
    let seed: u64 = opts.parsed("seed", 42)?;
    let name = opts.get("name").unwrap_or("scale").to_owned();

    let started = Instant::now();
    let kb1 = load_snapshot(&kb1_path)?;
    let kb2 = load_snapshot(&kb2_path)?;
    let (ids1, ids2) = (kb1.id_map(), kb2.id_map());
    let gold = load_gold(&gold_path, &ids1, &ids2)?;
    drop(ids1);
    drop(ids2);
    out!(
        "loaded {} + {} entities, {} gold pairs in {:.1?}",
        kb1.kb.num_entities(),
        kb2.kb.num_entities(),
        gold.len(),
        started.elapsed()
    );

    let mut config = RempConfig::default();
    if let Some(budget) = opts.get("budget") {
        let budget: usize = budget
            .parse()
            .map_err(|_| CliError::Usage(format!("--budget: cannot parse {budget:?}")))?;
        config = config.with_budget(budget);
    }
    let mode = if opts.get("full").is_some() {
        PlanMode::Full
    } else {
        PlanMode::Stream { max_block: opts.parsed("max-block", 200_000usize)? }
    };
    let crowd = if opts.get("oracle").is_some() {
        CrowdSpec::Oracle
    } else {
        let params = parse_quality_bounds(opts)?;
        CrowdSpec::Simulated {
            workers: opts.parsed("workers", 100)?,
            min_quality: params.min_quality,
            max_quality: params.max_quality,
            per_question: opts.parsed("per-question", 5)?,
        }
    };

    let started = Instant::now();
    let manifest =
        write_campaign(&dir, &name, &kb1, &kb2, &gold, &config, &crowd, seed, &mode, shards)?;
    out!(
        "planned {} shard(s) in {:.1?} ({} mode)",
        manifest.shards.len(),
        started.elapsed(),
        manifest.mode
    );
    out!(
        "  {} candidate pairs scored, {} retained into shards, {} gold pairs",
        manifest.candidate_count,
        manifest.pairs_total,
        manifest.gold_total
    );
    out!("  {}", dir.join("campaign.json").display());
    Ok(())
}

fn cmd_scale_run(opts: &Opts) -> Result<(), CliError> {
    let dir = PathBuf::from(opts.required("dir")?);
    let workers: usize = opts.parsed("workers", 0)?;

    let started = Instant::now();
    let merged = if workers == 0 {
        run_sharded_local(&dir).map_err(CliError::Failed)?
    } else {
        run_sharded_processes(&dir, workers, opts)?
    };
    out!(
        "campaign {} merged in {:.1?} ({} shards)",
        merged.campaign,
        started.elapsed(),
        merged.shards
    );
    print_merged(&merged)?;
    if let Some(path) = opts.get("out") {
        std::fs::write(path, merged.to_json().to_pretty_string())?;
        out!("  wrote {path}");
    }
    Ok(())
}

fn print_merged(m: &MergedOutcome) -> Result<(), CliError> {
    out!(
        "  {} candidate pairs, {} matches ({} of {} gold)",
        m.pairs_total,
        m.matches_total,
        m.gold_matched,
        m.gold_total
    );
    out!("  {} questions over {} loops", m.questions_total, m.loops_total);
    out!(
        "  precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        100.0 * m.precision,
        100.0 * m.recall,
        100.0 * m.f1
    );
    out!(
        "  digests: outcome {:016x}, transcript {:016x}, eval {:016x}",
        m.outcome_digest,
        m.transcript_digest,
        m.eval_digest
    );
    Ok(())
}

/// The multi-process path: an embedded coordinator (or the rempd at
/// `--url`), `workers` separate `rempctl shard-worker` OS processes,
/// and the merged outcome fetched back over HTTP.
fn run_sharded_processes(
    dir: &Path,
    workers: usize,
    opts: &Opts,
) -> Result<MergedOutcome, CliError> {
    let lease_ms: u64 = opts.parsed("lease-ms", DEFAULT_LEASE_MS)?;
    // Workers and a possibly pre-existing rempd must agree on the
    // campaign path, whatever directory each process runs in.
    let dir =
        dir.canonicalize().map_err(|e| CliError::Failed(format!("{}: {e}", dir.display())))?;

    let mut embedded: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)> = None;
    let addr = match opts.get("url") {
        Some(url) => url.to_owned(),
        None => {
            let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
            let server = Server::bind(&config).map_err(|e| CliError::Failed(e.to_string()))?;
            let addr = server.local_addr().to_string();
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let join = std::thread::spawn(move || {
                let _ = server.run(&flag);
            });
            embedded = Some((stop, join));
            addr
        }
    };

    let result = (|| {
        let client = ServeClient::new(addr.clone());
        let created = client
            .post(
                "/scale/jobs",
                &Json::Obj(vec![
                    ("dir".to_owned(), Json::from(dir.display().to_string())),
                    ("lease_ms".to_owned(), Json::from(lease_ms)),
                ]),
            )
            .map_err(|e| CliError::Failed(e.to_string()))?;
        let job = created
            .get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| CliError::Failed("coordinator did not return a job id".into()))?
            .to_owned();
        let total = created.get("total").and_then(Json::as_u64).unwrap_or(0);
        out!(
            "coordinating job {job} on http://{addr}: {total} shard(s), \
             {workers} worker process(es)"
        );

        let exe = std::env::current_exe()?;
        let mut children = Vec::new();
        for i in 0..workers {
            let child = std::process::Command::new(&exe)
                .args(["shard-worker", "--url", &addr, "--job", &job])
                .args(["--worker", &format!("proc{i}")])
                .spawn()
                .map_err(|e| CliError::Failed(format!("spawning shard-worker: {e}")))?;
            children.push(child);
        }
        for mut child in children {
            let status = child.wait()?;
            if !status.success() {
                return Err(CliError::Failed(format!("a shard-worker process failed ({status})")));
            }
        }

        let outcome = client
            .get(&format!("/scale/jobs/{job}/outcome"))
            .map_err(|e| CliError::Failed(e.to_string()))?;
        MergedOutcome::from_json(&outcome).map_err(CliError::Failed)
    })();

    if let Some((stop, join)) = embedded {
        stop.store(true, Ordering::SeqCst);
        let _ = join.join();
    }
    result
}

fn cmd_shard_worker(opts: &Opts) -> Result<(), CliError> {
    let client = ServeClient::new(opts.required("url")?);
    let job = opts.required("job")?.to_owned();
    let default_worker = format!("worker-{}", std::process::id());
    let worker = opts.get("worker").unwrap_or(&default_worker).to_owned();
    let poll_ms: u64 = opts.parsed("poll-ms", 200)?;

    let mut processed = 0usize;
    loop {
        let next = client
            .post(
                &format!("/scale/jobs/{job}/next"),
                &Json::Obj(vec![("worker".to_owned(), Json::from(worker.as_str()))]),
            )
            .map_err(|e| CliError::Failed(e.to_string()))?;
        let Some(shard) = next.get("shard").and_then(Json::as_u64) else {
            if next.get("done").and_then(Json::as_bool).unwrap_or(false) {
                break;
            }
            // Everything pending is leased elsewhere; wait for a
            // reclaim or for the job to finish.
            std::thread::sleep(Duration::from_millis(poll_ms.max(10)));
            continue;
        };
        let path = next
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| CliError::Failed("lease without a shard path".into()))?
            .to_owned();

        // Heartbeat in the background while the shard computes, so a
        // long shard never loses its lease mid-flight.
        let stop = Arc::new(AtomicBool::new(false));
        let beat = {
            let (stop, client, job, worker) =
                (Arc::clone(&stop), client.clone(), job.clone(), worker.clone());
            std::thread::spawn(move || {
                let mut ticks = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(250));
                    ticks += 1;
                    if ticks.is_multiple_of(40) {
                        let _ = client.post(
                            &format!("/scale/jobs/{job}/heartbeat"),
                            &Json::Obj(vec![
                                ("worker".to_owned(), Json::from(worker.as_str())),
                                ("shard".to_owned(), Json::from(shard)),
                            ]),
                        );
                    }
                }
            })
        };
        let started = Instant::now();
        let result = process_shard(Path::new(&path));
        stop.store(true, Ordering::SeqCst);
        let _ = beat.join();
        let result = result.map_err(CliError::Failed)?;

        let ack = client
            .post(&format!("/scale/jobs/{job}/result"), &result.to_json())
            .map_err(|e| CliError::Failed(e.to_string()))?;
        processed += 1;
        out!(
            "[{worker}] shard {shard}: {} pairs, {} questions in {:.1?} (accepted: {})",
            result.pairs,
            result.questions_asked,
            started.elapsed(),
            ack.get("accepted").and_then(Json::as_bool).unwrap_or(false)
        );
    }
    out!("[{worker}] done ({processed} shard(s) processed)");
    Ok(())
}

fn cmd_bench(opts: &Opts) -> Result<(), CliError> {
    let mut options = ScaleBenchOptions::default();
    if let Some(raw) = opts.get("points") {
        options.points = raw
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("--points: cannot parse {p:?}")))
            })
            .collect::<Result<_, _>>()?;
        if options.points.is_empty() {
            return Err(CliError::Usage("--points: needs at least one entity count".into()));
        }
    }
    options.seed = opts.parsed("seed", options.seed)?;
    options.budget = opts.parsed("budget", options.budget)?;
    if let Some(mb) = opts.get("max-rss-mb") {
        options.max_rss_mb = Some(
            mb.parse()
                .map_err(|_| CliError::Usage(format!("--max-rss-mb: cannot parse {mb:?}")))?,
        );
    }
    if let Some(dir) = opts.get("work-dir") {
        options.work_dir = Some(PathBuf::from(dir));
    }
    options.keep_artifacts = opts.get("keep-artifacts").is_some();
    let out = opts.get("out").unwrap_or("BENCH_scale.json");

    let started = Instant::now();
    let report = run_scale_bench(&options).map_err(CliError::Failed)?;
    out!("scale bench finished in {:.1?}", started.elapsed());
    for p in &report.points {
        let rss = match p.peak_rss_bytes {
            Some(bytes) => format!("{:.0} MiB", bytes as f64 / (1024.0 * 1024.0)),
            None => "unreadable".to_owned(),
        };
        out!(
            "  {:>9} entities: {:>9} pairs / {:>3} shards; gen {:.1}s, plan {:.1}s, \
             run {:.1}s; {} questions, F1 {:.3}; peak rss {rss}",
            p.entities,
            p.pairs,
            p.shards,
            p.gen_seconds,
            p.plan_seconds,
            p.run_seconds,
            p.questions,
            p.f1
        );
    }
    std::fs::write(out, report.to_json().to_pretty_string())?;
    out!("  wrote {out}");
    if let Some(mb) = options.max_rss_mb {
        if !report.rss_ok {
            return Err(CliError::Failed(format!(
                "peak RSS exceeded the {mb} MiB bound (see {out})"
            )));
        }
        out!("  bounded-RSS gate passed (every point <= {mb} MiB)");
    }
    Ok(())
}

fn default_name(path: &Path) -> String {
    path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_else(|| "kb".to_owned())
}
