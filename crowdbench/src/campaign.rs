//! `campaign-da` and `campaign-iy`: the crowd loop in process —
//! `Remp::begin` → `next_batch`/`submit` → `finish` against a seeded
//! `SimulatedCrowd`.

use std::time::Instant;

use remp_core::{
    evaluate_matches, Batch, MatchSource, Parallelism, PreparedEr, Remp, RempConfig, Resolution,
};
use remp_crowd::{LabelSource, SimulatedCrowd};
use remp_datasets::{generate, preset_by_name, GeneratedDataset};
use remp_ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, prune,
    ComponentIndex, ErGraph, PairId,
};
use remp_simil::SimVec;

use crate::stats::{median, ms_since, nproc, peak_rss_mb, pooled_percentile, Digest};
use crate::trace::{Attribution, Tracer};
use crate::{Check, Options, Report};

/// One campaign workload's shape.
pub struct Shape {
    pub preset: &'static str,
    pub scale: f64,
    /// Outcome digest of each panel crowd's campaign at full size,
    /// recorded from 1-thread runs.
    pub pinned_digests: [u64; CROWDS],
    /// Rounds of the crowd panel a run makes at the least.
    pub min_rounds: usize,
}

/// D-A ×16: ≈200 loops over many small components, no dominant layer.
/// Its per-loop percentiles need two rounds a run to hold steady.
pub const DA: Shape = Shape {
    preset: "D-A",
    scale: 16.0,
    min_rounds: 2,
    pinned_digests: [
        6_623_468_521_002_134_741,
        14_189_388_534_437_302_961,
        15_873_067_602_135_744_705,
    ],
};

/// I-Y ×2: propagation reach — truncated-Dijkstra inferred sets dominate.
/// Its few long loops are steady from one round a run.
pub const IY: Shape = Shape {
    preset: "I-Y",
    scale: 2.0,
    min_rounds: 1,
    pinned_digests: [
        14_371_043_215_376_884_961,
        18_228_778_792_287_252_023,
        14_371_043_215_376_884_961,
    ],
};

/// Panel digests at toy size (the TINY preset, for both shapes).
const TOY_DIGESTS: [u64; CROWDS] = [16_330_315_366_077_673_709; CROWDS];

/// The crowd: 100 workers, qualities uniform in [0.8, 0.99], 5 labels
/// per question.
const CROWD: (usize, f64, f64, usize) = (100, 0.8, 0.99, 5);

/// The crowd panel: fixed draws of the crowd, run in whole rounds. The
/// run reports the median #Q and F1 over the panel, and every campaign is
/// also a set-up sample. The panel is the same at every seed:
/// one I-Y crowd's F1 is 0.80 or 0.92 depending on the draw, a spread no
/// regression bound could absorb. The run's seed sets the order the
/// panel runs in, and so which crowd the 1-thread check replays.
const CROWDS: usize = 3;

/// Panel crowd `k`.
fn crowd(k: usize) -> SimulatedCrowd {
    let (workers, lo, hi, per_question) = CROWD;
    let seed = (crate::DEFAULT_SEED ^ 0xc40d).wrapping_add((k as u64) << 32);
    SimulatedCrowd::new(workers, lo, hi, per_question, seed)
}

/// One campaign's measurements.
struct Run {
    setup_s: f64,
    campaign_s: f64,
    questions: usize,
    labels: usize,
    inferred: usize,
    f1: f64,
    digest: u64,
    stall_ms: Vec<f64>,
    next_ms: Vec<f64>,
    answer_ms: Vec<f64>,
    ops: u64,
}

/// Digest of question order (id, pair) followed by the final matches.
fn outcome_digest(asked: &Digest, outcome: &remp_core::RempOutcome) -> u64 {
    let mut d = *asked;
    d.word(outcome.questions_asked as u64);
    for &(a, b) in &outcome.matches {
        d.word(u64::from(a.0) << 32 | u64::from(b.0));
    }
    d.value()
}

fn note_batch(digest: &mut Digest, batch: &Batch) {
    for q in &batch.questions {
        digest.word(q.id.0);
        digest.word(u64::from(q.pair.0 .0) << 32 | u64::from(q.pair.1 .0));
    }
}

fn inferred_count(resolutions: &[Resolution]) -> usize {
    resolutions.iter().filter(|r| **r == Resolution::Match(MatchSource::Inferred)).count()
}

/// One untraced campaign through the production entry point.
fn run_once(d: &GeneratedDataset, par: Parallelism, k: usize) -> Result<Run, String> {
    let remp = Remp::new(RempConfig::default().with_parallelism(par));
    let mut crowd = crowd(k);
    let err = |e: remp_core::RempError| e.to_string();
    let mut asked = Digest::new();
    let (mut stall_ms, mut next_ms, mut answer_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = 0u64;

    let t0 = Instant::now();
    let mut session = remp.begin(&d.kb1, &d.kb2).map_err(err)?;
    let mut batch = session.next_batch().map_err(err)?;
    let setup_s = t0.elapsed().as_secs_f64();
    ops += 1;
    let t1 = Instant::now();
    while let Some(b) = batch {
        note_batch(&mut asked, &b);
        let mut last_answer = Instant::now();
        for q in &b.questions {
            let labels = crowd.label(d.is_match(q.pair.0, q.pair.1));
            last_answer = Instant::now();
            session.submit(q.id, labels).map_err(err)?;
            answer_ms.push(ms_since(last_answer));
            ops += 1;
        }
        let asked_at = Instant::now();
        batch = session.next_batch().map_err(err)?;
        next_ms.push(ms_since(asked_at));
        stall_ms.push(ms_since(last_answer));
        ops += 1;
    }
    let outcome = session.finish();
    let campaign_s = t1.elapsed().as_secs_f64();

    Ok(Run {
        setup_s,
        campaign_s,
        questions: outcome.questions_asked,
        labels: crowd.labels_collected(),
        inferred: inferred_count(&outcome.resolutions),
        f1: evaluate_matches(outcome.matches.iter().copied(), &d.gold).f1,
        digest: outcome_digest(&asked, &outcome),
        stall_ms,
        next_ms,
        answer_ms,
        ops,
    })
}

/// Counters the traced campaign reports besides its spans.
struct TracedCounts {
    candidates: usize,
    retained: usize,
    components: usize,
    labels: usize,
    dirty_vertices: usize,
    recomputed_sources: usize,
}

/// The same campaign with a span around each call into a layer: stage 1
/// function by function (as `prepare` runs it), `begin_prepared`, every
/// `next_batch` (split by `loop_stats` into propagation and selection),
/// every crowd label, every `submit`, and `finish`.
fn run_traced(
    d: &GeneratedDataset,
    par: Parallelism,
    k: usize,
    tr: &mut Tracer,
) -> Result<(Run, TracedCounts), String> {
    let config = RempConfig::default().with_parallelism(par);
    let remp = Remp::new(config.clone());
    let (kb1, kb2) = (&d.kb1, &d.kb2);
    let mut crowd = crowd(k);
    let err = |e: remp_core::RempError| e.to_string();
    let mut asked = Digest::new();
    let mut counts = TracedCounts {
        candidates: 0,
        retained: 0,
        components: 0,
        labels: 0,
        dirty_vertices: 0,
        recomputed_sources: 0,
    };

    let t0 = Instant::now();
    let pre = tr.time("ergraph.candidates", || {
        generate_candidates(kb1, kb2, config.label_sim_threshold, &par)
    });
    let (initial_full, alignment) = tr.time("ergraph.attr_alignment", || {
        let initial = initial_matches(kb1, kb2, &pre);
        let alignment = match_attributes(kb1, kb2, &pre, &initial, &config.attr);
        (initial, alignment)
    });
    let vectors_full = tr.time("ergraph.sim_vectors", || {
        build_sim_vectors(kb1, kb2, &pre, &alignment, config.literal_threshold, &par)
    });
    let retained = tr.time("ergraph.prune", || prune(&pre, &vectors_full, config.knn_k, &par));
    let (candidates, sim_vectors, initial, graph, components) = tr.time("ergraph.graph", || {
        let (candidates, mapping) = pre.restrict(&retained);
        let mut sim_vectors = vec![SimVec::new(Vec::new()); candidates.len()];
        for &old in &retained {
            sim_vectors[mapping[&old].index()] = vectors_full[old.index()].clone();
        }
        let initial: Vec<PairId> =
            initial_full.iter().filter_map(|old| mapping.get(old).copied()).collect();
        let graph = ErGraph::build(kb1, kb2, &candidates);
        let components = ComponentIndex::build(&graph);
        (candidates, sim_vectors, initial, graph, components)
    });
    counts.candidates = pre.len();
    counts.retained = candidates.len();
    counts.components = components.len();
    let prep = PreparedEr {
        candidates,
        candidate_count: pre.len(),
        pre_candidates: pre,
        initial,
        alignment,
        sim_vectors,
        graph,
        components,
    };
    let mut session = tr.time("core.begin", || remp.begin_prepared(kb1, kb2, prep)).map_err(err)?;

    let mut seen_stats = 0;
    let mut next_batch = |session: &mut remp_core::RempSession<'_>, tr: &mut Tracer| {
        let (batch, span) = tr.span("core.next_batch", None, || session.next_batch());
        for s in &session.loop_stats()[seen_stats..] {
            tr.child(span, "propagation.consistency", s.refresh.consistency_s);
            tr.child(span, "propagation.edges", s.refresh.propagation_s);
            tr.child(span, "propagation.inferred", s.refresh.inferred_s);
            tr.child(span, "selection.select", s.selection_s);
            counts.dirty_vertices += s.refresh.dirty_vertices;
            counts.recomputed_sources += s.refresh.recomputed_sources;
        }
        seen_stats = session.loop_stats().len();
        batch
    };

    let mut batch = next_batch(&mut session, tr).map_err(err)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut ops = 1u64;
    while let Some(b) = batch {
        note_batch(&mut asked, &b);
        for q in &b.questions {
            let labels = tr.time("crowd.label", || crowd.label(d.is_match(q.pair.0, q.pair.1)));
            tr.time("core.submit", || session.submit(q.id, labels)).map_err(err)?;
            ops += 1;
        }
        batch = next_batch(&mut session, tr).map_err(err)?;
        ops += 1;
    }
    let outcome = tr.time("core.finish", || session.finish());
    let campaign_s = t1.elapsed().as_secs_f64();
    counts.labels = crowd.labels_collected();

    let run = Run {
        setup_s,
        campaign_s,
        questions: outcome.questions_asked,
        labels: counts.labels,
        inferred: inferred_count(&outcome.resolutions),
        f1: evaluate_matches(outcome.matches.iter().copied(), &d.gold).f1,
        digest: outcome_digest(&asked, &outcome),
        stall_ms: Vec::new(),
        next_ms: Vec::new(),
        answer_ms: Vec::new(),
        ops,
    };
    Ok((run, counts))
}

pub fn run(opts: &Options, shape: Shape) -> Result<Report, String> {
    let scale = if opts.toy { 1.0 } else { shape.scale };
    let preset = if opts.toy { "TINY" } else { shape.preset };
    // The world is the preset's own (its built-in generator seed): across
    // generator seeds I-Y ×2 asks anywhere from 110 to 270 questions, a
    // spread no regression bound could absorb.
    let spec = preset_by_name(preset, scale).ok_or_else(|| format!("no preset {preset}"))?;
    let d = generate(&spec);
    let par = Parallelism::Fixed(nproc());

    let mut report = Report::default();
    report.param("preset", preset);
    report.param("scale", scale);
    report.param("world_seed", spec.seed);
    report.param("threads", nproc());
    report.param("kb1_entities", d.kb1.num_entities());
    report.param("kb2_entities", d.kb2.num_entities());
    report.param("gold", d.num_gold());
    let (workers, lo, hi, per_question) = CROWD;
    report.param("crowd", format!("{workers} workers, quality {lo}-{hi}, {per_question} labels"));
    report.param("config", "RempConfig::default()");

    // The seed picks the crowd the run starts with. Every campaign must
    // equal its crowd's pinned digest, recorded from 1-thread runs; the
    // traced run also replays the first crowd on one thread live.
    let first = (opts.seed % CROWDS as u64) as usize;
    let pinned = if opts.toy { TOY_DIGESTS } else { shape.pinned_digests };
    let want = |k: usize| match opts.expect_digest {
        Some(d) if k == first => d,
        _ => pinned[k],
    };
    report.param("first_crowd", first);

    if opts.trace {
        let reference = run_once(&d, Parallelism::Sequential, first)?;
        let untraced = run_once(&d, par, first)?;
        let mut tr = Tracer::new();
        let (traced, counts) = run_traced(&d, par, first, &mut tr)?;
        report.checks.push(Check::equal("1-thread digest", reference.digest, want(first)));
        report.checks.push(Check::equal(
            &format!("{} threads equals 1 thread", nproc()),
            untraced.digest,
            reference.digest,
        ));
        report.checks.push(Check::equal("traced equals 1 thread", traced.digest, reference.digest));
        report.attempted = traced.ops;
        traced_metrics(&mut report, &tr, &traced, &counts);
        let total = traced.setup_s + traced.campaign_s;
        let untraced_total = untraced.setup_s + untraced.campaign_s;
        report.attribute(
            Attribution { total_s: total, rows: tr.self_times() },
            (total / untraced_total - 1.0) * 100.0,
        );
        report.spans = Some(tr.to_json());
        return Ok(report);
    }

    let started = Instant::now();
    let mut runs = Vec::new();
    // Whole rounds of the panel, so every crowd weighs the same in a
    // median, and at least `min_rounds` of them, so a slower host does not
    // halve a run's samples.
    while runs.len() % CROWDS != 0
        || runs.len() < shape.min_rounds * CROWDS
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        runs.push(run_once(&d, par, (first + runs.len()) % CROWDS)?);
    }
    let mismatched: Vec<usize> =
        (0..runs.len()).filter(|&i| runs[i].digest != want((first + i) % CROWDS)).collect();
    report.checks.push(Check::new(
        &format!("{} threads: every campaign equals its crowd's pinned digest", nproc()),
        mismatched.is_empty(),
        format!("{} campaigns; mismatched {mismatched:?}", runs.len()),
    ));
    let per_run = |f: fn(&Run) -> &Vec<f64>| runs.iter().map(f).cloned().collect::<Vec<_>>();
    let (stall, next, answer) =
        (per_run(|r| &r.stall_ms), per_run(|r| &r.next_ms), per_run(|r| &r.answer_ms));
    let crowds = &runs[..CROWDS];
    report.attempted = runs.iter().map(|r| r.ops).sum();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let campaign_s: Vec<f64> = runs.iter().map(|r| r.campaign_s).collect();
    let questions: Vec<f64> = crowds.iter().map(|r| r.questions as f64).collect();
    let f1: Vec<f64> = crowds.iter().map(|r| r.f1).collect();
    report.series("setup_s", &setups);
    report.series("campaign_s", &campaign_s);
    report.series("questions", &questions);
    report.series("f1", &f1);
    report.metric("setup_s", median(&setups));
    report.metric("campaign_s", median(&campaign_s));
    report.metric("questions", median(&questions));
    report.metric("f1", median(&f1));
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("batch_p50_ms", pooled_percentile(&stall, 50.0));
    report.metric("batch_p90_ms", pooled_percentile(&stall, 90.0));
    report.metric(
        "answers_per_s",
        median(&runs.iter().map(|r| r.labels as f64 / r.campaign_s).collect::<Vec<_>>()),
    );
    report.metric("answer_p50_ms", pooled_percentile(&answer, 50.0));
    report.metric("next_p50_ms", pooled_percentile(&next, 50.0));
    let count = |s: &[Vec<f64>]| s.iter().map(Vec::len).sum::<usize>();
    report.samples = vec![
        ("setup_s", setups.len()),
        ("campaign_s", runs.len()),
        ("batch_ms", count(&stall)),
        ("answer_ms", count(&answer)),
        ("next_ms", count(&next)),
    ];
    Ok(report)
}

fn traced_metrics(report: &mut Report, tr: &Tracer, run: &Run, counts: &TracedCounts) {
    let t = |name: &str| tr.total(name).0;
    for (metric, span) in [
        ("ergraph.candidates_s", "ergraph.candidates"),
        ("ergraph.attr_alignment_s", "ergraph.attr_alignment"),
        ("ergraph.sim_vectors_s", "ergraph.sim_vectors"),
        ("ergraph.prune_s", "ergraph.prune"),
        ("ergraph.graph_s", "ergraph.graph"),
        ("core.begin_s", "core.begin"),
        ("core.next_batch_s", "core.next_batch"),
        ("core.submit_s", "core.submit"),
        ("core.finish_s", "core.finish"),
        ("propagation.consistency_s", "propagation.consistency"),
        ("propagation.edges_s", "propagation.edges"),
        ("propagation.inferred_s", "propagation.inferred"),
        ("selection.select_s", "selection.select"),
        ("crowd.label_s", "crowd.label"),
    ] {
        report.metric(metric, t(span));
    }
    let stage_s = t("propagation.consistency")
        + t("propagation.edges")
        + t("propagation.inferred")
        + t("selection.select");
    report.metric("core.unattributed_s", t("core.next_batch") - stage_s);
    report.metric("core.next_batch_calls", tr.total("core.next_batch").1 as f64);
    report.metric("core.submit_calls", tr.total("core.submit").1 as f64);
    report.metric(
        "core.inferred_per_question",
        if run.questions > 0 { run.inferred as f64 / run.questions as f64 } else { 0.0 },
    );
    report.metric("ergraph.candidates", counts.candidates as f64);
    report.metric("ergraph.retained", counts.retained as f64);
    report.metric("ergraph.components", counts.components as f64);
    report.metric("propagation.dirty_vertices", counts.dirty_vertices as f64);
    report.metric("propagation.recomputed_sources", counts.recomputed_sources as f64);
    report.metric("crowd.labels", counts.labels as f64);
}
