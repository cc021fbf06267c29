//! `scale-1e5`: a remp-scale stream campaign at 10⁵ entities per KB —
//! `generate_dataset` → `load_snapshot` → `write_campaign` → every shard
//! read and run (the body of `run_sharded_local`, shard by shard) →
//! `merge_results`. Stream mode, `max_block` 200 000, shards from
//! `shards_for`, budget 200 per shard, oracle crowd.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use remp_ingest::{load_snapshot, LoadedKb};
use remp_json::Json;
use remp_kb::EntityId;
use remp_scale::bench::{bench_config, shards_for};
use remp_scale::worker::run_shard;
use remp_scale::{
    generate_dataset, merge_results, plan_shards, read_shard, stream_candidates, write_campaign,
    CampaignManifest, CrowdSpec, MergedOutcome, PlanMode, ScaleSpec, ShardResult, World,
};

use crate::stats::{median, nproc, peak_rss_mb, pooled_percentile};
use crate::trace::{Attribution, Tracer};
use crate::{Check, Options, Report, SHARD_ROWS};

const ENTITIES: usize = 100_000;
const TOY_ENTITIES: usize = 2_000;
const BUDGET: usize = 200;
const MAX_BLOCK: usize = 200_000;
/// Merged outcome digest and F1 at seed 42 (as in `BENCH_scale.json`).
const PINNED_DIGEST: u64 = 15_775_300_563_200_718_476;
const PINNED_F1: f64 = 0.4335;
const MIN_SETUPS: usize = 3;

fn mode() -> PlanMode {
    PlanMode::Stream { max_block: MAX_BLOCK }
}

/// One set-up: the campaign directory is ready to run.
struct Setup {
    setup_s: f64,
    manifest: CampaignManifest,
}

/// Generate, load, plan and write shards into `dir`. With a tracer, each
/// step is a span, and blocking and planning are timed again on their
/// own (outside the set-up time) to split `write_campaign`.
fn set_up(inputs: &Inputs, dir: &Path, mut tr: Option<&mut Tracer>) -> Result<Setup, String> {
    fn step<T>(
        tr: &mut Option<&mut Tracer>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        match tr.as_deref_mut() {
            Some(tr) => tr.span(name, None, f),
            None => (f(), 0),
        }
    }
    let Inputs { spec, gold, campaign_seed } = inputs;
    let entities = spec.entities;
    let config = bench_config(BUDGET);
    let t0 = Instant::now();
    step(&mut tr, "scale.generate", || generate_dataset(spec, dir))
        .0
        .map_err(|e| format!("generate: {e}"))?;
    let load = |name: &str| load_snapshot(&dir.join(name)).map_err(|e| format!("load: {e}"));
    let (kbs, _) =
        step(&mut tr, "ingest.load_snapshot", || -> Result<(LoadedKb, LoadedKb), String> {
            Ok((load("kb1.rkb")?, load("kb2.rkb")?))
        });
    let (kb1, kb2) = kbs?;
    let (manifest, write_span) = step(&mut tr, "scale.shard_write", || {
        write_campaign(
            dir,
            &spec.name,
            &kb1,
            &kb2,
            gold,
            &config,
            &CrowdSpec::Oracle,
            *campaign_seed,
            &mode(),
            shards_for(entities),
        )
    });
    let manifest = manifest.map_err(|e| format!("plan: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    if let Some(tr) = tr {
        // Blocking is the first step of planning; the difference of the
        // two is component planning. Each is timed twice, interleaved,
        // and the faster kept, so host noise does not swamp the difference.
        let (mut blocking_s, mut plan_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..2 {
            let t = Instant::now();
            let threshold = config.label_sim_threshold;
            stream_candidates(&kb1.kb, &kb2.kb, threshold, MAX_BLOCK, &mut |_, _| {});
            blocking_s = blocking_s.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let plan = plan_shards(&kb1.kb, &kb2.kb, &config, &mode(), shards_for(entities));
            plan_s = plan_s.min(t.elapsed().as_secs_f64());
            drop(plan);
        }
        tr.child(write_span, "scale.blocking", blocking_s);
        tr.child(write_span, "scale.components", plan_s - blocking_s);
    }
    Ok(Setup { setup_s, manifest })
}

/// One shard's read and run.
struct ShardTimes {
    read_ms: f64,
    run_ms: f64,
    result: ShardResult,
}

/// One campaign run over a written directory.
struct CampaignRun {
    campaign_s: f64,
    merged: MergedOutcome,
    shards: Vec<ShardTimes>,
}

/// Reads and runs every shard in shard order, round-tripping each
/// result through its wire form, then merges — `run_sharded_local`,
/// one call at a time.
fn run_campaign(dir: &Path, mut tr: Option<&mut Tracer>) -> Result<CampaignRun, String> {
    let t1 = Instant::now();
    let manifest = CampaignManifest::load(dir).map_err(|e| e.to_string())?;
    let mut shards = Vec::with_capacity(manifest.shards.len());
    for path in manifest.shard_paths(dir) {
        let t = Instant::now();
        let shard = read_shard(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let read_end = Instant::now();
        let result = run_shard(&shard)?;
        let doc = Json::parse(&result.to_json().to_string()).map_err(|e| e.to_string())?;
        let result = ShardResult::from_json(&doc)?;
        let run_end = Instant::now();
        drop(shard);
        if let Some(tr) = tr.as_deref_mut() {
            tr.record_between("scale.shard_read", t, read_end);
            tr.record_between("scale.shard_run", read_end, run_end);
        }
        shards.push(ShardTimes {
            read_ms: (read_end - t).as_secs_f64() * 1e3,
            run_ms: (run_end - read_end).as_secs_f64() * 1e3,
            result,
        });
    }
    let t = Instant::now();
    let results: Vec<ShardResult> = shards.iter().map(|s| s.result.clone()).collect();
    let merged = merge_results(&manifest.campaign, &results, manifest.gold_total);
    if let Some(tr) = tr {
        tr.record("scale.merge", t);
    }
    Ok(CampaignRun { campaign_s: t1.elapsed().as_secs_f64(), merged, shards })
}

/// The scale world, its gold standard, and the campaign seed.
struct Inputs {
    spec: ScaleSpec,
    gold: HashSet<(EntityId, EntityId)>,
    campaign_seed: u64,
}

/// The world is the seed-42 world of `BENCH_scale.json` at every run
/// seed: across world seeds the per-shard times moved by a third. The
/// run's seed is the campaign seed the shard crowd seeds derive from;
/// the oracle crowd answers the same under any of them, so the pinned
/// digest holds at every seed.
fn outcome_checks(report: &mut Report, opts: &Options, merged: &MergedOutcome, label: &str) {
    if let Some(want) = opts.expected_digest(PINNED_DIGEST) {
        report.checks.push(Check::equal(
            &format!("{label} outcome digest"),
            merged.outcome_digest,
            want,
        ));
    }
    if !opts.toy {
        report.checks.push(Check::new(
            &format!("{label} F1"),
            (merged.f1 - PINNED_F1).abs() < 5e-5,
            format!("got {:.6}, want {PINNED_F1}", merged.f1),
        ));
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let entities = if opts.toy { TOY_ENTITIES } else { ENTITIES };
    let spec = ScaleSpec {
        seed: crate::DEFAULT_SEED,
        ..ScaleSpec::new(format!("scale-{entities}"), entities)
    };
    let gold = {
        let world = World::new(&spec);
        (0..world.shared() as u32).map(|i| (EntityId(i), EntityId(i))).collect()
    };
    let inputs = Inputs { spec, gold, campaign_seed: opts.seed };
    let mut report = Report::default();
    report.param("world_seed", crate::DEFAULT_SEED);
    report.param("entities_per_kb", entities);
    report.param("mode", format!("stream, max_block {MAX_BLOCK}"));
    report.param("shards", shards_for(entities));
    report.param("budget_per_shard", BUDGET);
    report.param("crowd", "oracle");
    report.param("threads", nproc());

    if opts.trace {
        return traced(opts, &inputs, report);
    }

    let dir = opts.work_dir.join("campaign");
    let mut setups = Vec::new();
    let mut pairs = Vec::new();
    for i in 0..MIN_SETUPS {
        let target = if i == 0 { dir.clone() } else { opts.work_dir.join(format!("setup{i}")) };
        let setup = set_up(&inputs, &target, None)?;
        setups.push(setup.setup_s);
        pairs.push(setup.manifest.pairs_total);
        if i > 0 {
            let _ = std::fs::remove_dir_all(&target);
        }
    }
    report.checks.push(Check::new(
        "every set-up plans the same pairs",
        pairs.iter().all(|&p| p == pairs[0]),
        format!("{pairs:?}"),
    ));

    let started = Instant::now();
    let mut runs = Vec::new();
    loop {
        runs.push(run_campaign(&dir, None)?);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let first = &runs[0].merged;
    outcome_checks(&mut report, opts, first, "run 0");
    report.checks.push(Check::new(
        "every run equals run 0",
        runs.iter().all(|r| r.merged.outcome_digest == first.outcome_digest),
        format!("{} runs", runs.len()),
    ));

    let per_shard = |f: fn(&ShardTimes) -> f64| -> Vec<Vec<f64>> {
        runs.iter().map(|r| r.shards.iter().map(f).collect()).collect()
    };
    let loop_ms = per_shard(|s| s.run_ms / s.result.loops.max(1) as f64);
    let (run_ms, read_ms) = (per_shard(|s| s.run_ms), per_shard(|s| s.read_ms));
    report.attempted =
        runs.iter().map(|r| r.shards.len() as u64 + 1).sum::<u64>() + MIN_SETUPS as u64;
    report.param("campaigns", runs.len());
    report.param("pairs", pairs[0]);
    report.param("outcome_digest", first.outcome_digest);
    let campaign_s: Vec<f64> = runs.iter().map(|r| r.campaign_s).collect();
    report.series("setup_s", &setups);
    report.series("campaign_s", &campaign_s);
    report.metric("setup_s", median(&setups));
    report.metric("campaign_s", median(&campaign_s));
    report.metric("questions", first.questions_total as f64);
    report.metric("f1", first.f1);
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("batch_p50_ms", pooled_percentile(&loop_ms, 50.0));
    report.metric("batch_p90_ms", pooled_percentile(&loop_ms, 90.0));
    report.metric(
        "answers_per_s",
        median(
            &runs
                .iter()
                .map(|r| r.merged.questions_total as f64 / r.campaign_s)
                .collect::<Vec<_>>(),
        ),
    );
    report.metric("answer_p50_ms", pooled_percentile(&run_ms, 50.0));
    report.metric("next_p50_ms", pooled_percentile(&read_ms, 50.0));
    let shards = runs.iter().map(|r| r.shards.len()).sum::<usize>();
    report.samples = vec![
        ("setup_s", setups.len()),
        ("campaign_s", runs.len()),
        ("batch_ms", shards),
        ("answer_ms", shards),
        ("next_ms", shards),
    ];
    Ok(report)
}

fn traced(opts: &Options, inputs: &Inputs, mut report: Report) -> Result<Report, String> {
    let plain_dir = opts.work_dir.join("plain");
    let plain_setup = set_up(inputs, &plain_dir, None)?;
    let plain = run_campaign(&plain_dir, None)?;
    let _ = std::fs::remove_dir_all(&plain_dir);
    outcome_checks(&mut report, opts, &plain.merged, "untraced");

    let mut tr = Tracer::new();
    let dir = opts.work_dir.join("traced");
    let setup = set_up(inputs, &dir, Some(&mut tr))?;
    let run = run_campaign(&dir, Some(&mut tr))?;
    report.checks.push(Check::equal(
        "traced outcome equals untraced",
        run.merged.outcome_digest,
        plain.merged.outcome_digest,
    ));
    report.attempted = run.shards.len() as u64 + 1;

    let t = |name: &str| tr.total(name).0;
    let (blocking, components) = (t("scale.blocking"), t("scale.components"));
    let write_self = t("scale.shard_write") - blocking - components;
    let pairs = setup.manifest.pairs_total;
    let shard_bytes: u64 = setup
        .manifest
        .shard_paths(&dir)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    report.metric("scale.generate_s", t("scale.generate"));
    report.metric("ingest.load_snapshot_s", t("ingest.load_snapshot"));
    report.metric("scale.blocking_s", blocking);
    report.metric("scale.components_s", components);
    report.metric("scale.shard_write_s", write_self);
    report.metric("scale.shard_read_s", t("scale.shard_read"));
    report.metric("scale.shard_run_s", t("scale.shard_run"));
    report.metric("scale.merge_s", t("scale.merge"));
    report.metric("scale.pairs", pairs as f64);
    report.metric("scale.shard_bytes", shard_bytes as f64);
    const SHARD_METRICS: [[&str; 3]; SHARD_ROWS] = [
        ["scale.shard0.pairs", "scale.shard0.loops", "scale.shard0.questions"],
        ["scale.shard1.pairs", "scale.shard1.loops", "scale.shard1.questions"],
        ["scale.shard2.pairs", "scale.shard2.loops", "scale.shard2.questions"],
        ["scale.shard3.pairs", "scale.shard3.loops", "scale.shard3.questions"],
        ["scale.shard4.pairs", "scale.shard4.loops", "scale.shard4.questions"],
    ];
    for (names, s) in SHARD_METRICS.iter().zip(&run.shards) {
        report.metric(names[0], s.result.pairs as f64);
        report.metric(names[1], s.result.loops as f64);
        report.metric(names[2], s.result.questions_asked as f64);
    }
    let run_ms: Vec<f64> = run.shards.iter().map(|s| s.run_ms).collect();
    let slowest = run_ms.iter().copied().fold(0.0, f64::max);
    report.metric("scale.shard_straggler", slowest / median(&run_ms));
    report.metric("scale.plan_us_per_pair", (blocking + components) * 1e6 / pairs.max(1) as f64);
    report.metric(
        "scale.run_ms_per_question",
        t("scale.shard_run") * 1e3 / run.merged.questions_total.max(1) as f64,
    );

    let total = setup.setup_s + run.campaign_s;
    report.attribute(
        Attribution { total_s: total, rows: tr.self_times() },
        (total / (plain_setup.setup_s + plain.campaign_s) - 1.0) * 100.0,
    );
    report.spans = Some(tr.to_json());
    Ok(report)
}
