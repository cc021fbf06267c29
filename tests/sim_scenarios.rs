//! remp-sim acceptance tests: reference equivalence, bit-identical
//! replay, and adversarial-preset behavior.

use remp::core::RempConfig;
use remp::datasets::{generate, tiny};
use remp::par::Parallelism;
use remp::serve::sim::{reference_outcome, CrowdParams};
use remp::serve::wire::verdict_code;
use remp::sim::{preset, preset_names, run_scenario, run_scenario_with, EventKind};

/// The `honest` preset is WireCrowd on virtual time: same worker pool,
/// same RNG stream, same outcome — the simulator inherits the serve
/// crate's equivalence proof rather than forking it.
#[test]
fn honest_preset_matches_the_reference_outcome() {
    let seed = 42;
    let scenario = preset("honest", seed).unwrap();
    let report = run_scenario(&scenario).expect("honest preset runs");
    assert!(report.complete, "an always-on honest crowd finishes the campaign");
    assert!(!report.stalled);
    assert_eq!(report.answers_rejected, 0, "instant answers never miss a lease");
    assert_eq!(
        report.leases,
        remp::serve::LeaseStats { issued: report.answers_delivered, expired: 0, reissued: 0 }
    );

    let d = generate(&tiny(scenario.scale));
    let (outcome, log) = reference_outcome(
        &d.kb1,
        &d.kb2,
        &RempConfig::default(),
        &scenario.policy(),
        &CrowdParams::paper_default(seed),
        &|a, b| d.is_match(a, b),
    )
    .expect("reference runs");

    assert_eq!(report.outcome, outcome, "same matches, resolutions and counters");

    // The trace's submissions replay the reference log question for
    // question, verdict for verdict.
    let submits: Vec<(u64, String)> = report
        .trace
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Submit { question, verdict, .. } => Some((*question, verdict.clone())),
            _ => None,
        })
        .collect();
    let reference: Vec<(u64, String)> =
        log.iter().map(|r| (r.question, verdict_code(r.verdict).to_owned())).collect();
    assert_eq!(submits, reference);
}

/// Every built-in preset's trace at seed 42, pinned. Repeat-equality
/// alone would pass a shifted RNG stream or a changed lease decision;
/// these hashes catch both.
#[test]
fn preset_traces_are_pinned_at_seed_42() {
    const PINS: [(&str, u64); 5] = [
        ("honest", 0xab211f49637e2899),
        ("spam-flood", 0x866f9557f783a7ee),
        ("churn-storm", 0xe7bdf450dff0181e),
        ("colluders", 0xe72fb57b502a30f3),
        ("drift", 0xece64b9b7903c96a),
    ];
    assert_eq!(preset_names(), PINS.map(|(name, _)| name), "a preset without a pin");
    for (name, pin) in PINS {
        let report = run_scenario(&preset(name, 42).unwrap()).unwrap();
        assert_eq!(report.trace_hash, pin, "{name}: trace hash {:#018x}", report.trace_hash);
    }
}

/// Same seed + same scenario ⇒ the same report, bit for bit — across
/// repeated runs and across pipeline thread counts.
#[test]
fn replay_is_bit_identical_across_runs_and_parallelism() {
    for name in ["honest", "spam-flood", "churn-storm"] {
        let scenario = preset(name, 7).unwrap();
        let a = run_scenario(&scenario).unwrap();
        let b = run_scenario(&scenario).unwrap();
        assert_eq!(a, b, "{name}: repeat runs must be identical");
        assert_eq!(a.trace_hash, b.trace_hash);

        let seq = run_scenario_with(&scenario, Some(Parallelism::Sequential)).unwrap();
        let par = run_scenario_with(&scenario, Some(Parallelism::Fixed(4))).unwrap();
        assert_eq!(seq, par, "{name}: the trace must not depend on thread count");

        let other = preset(name, 8).unwrap();
        let c = run_scenario(&other).unwrap();
        assert_ne!(a.trace_hash, c.trace_hash, "{name}: the seed must matter");
    }
}

/// Every preset runs to a decision on virtual time — no sleeps, no
/// wall-clock — and the adversarial ones exercise what they claim to.
#[test]
fn presets_run_and_adversaries_leave_their_mark() {
    for name in preset_names() {
        let scenario = preset(name, 3).unwrap();
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.complete, "{name}: campaign must finish (got {} ticks)", report.ticks);
        assert!(report.questions_asked > 0, "{name}");
        assert_eq!(
            report.questions_asked, report.outcome.questions_asked,
            "{name}: report and outcome agree"
        );
        assert!(report.eval.f1 > 0.5, "{name}: f1 {} collapsed", report.eval.f1);
    }

    // Churn makes workers walk out on live leases: some expire, and the
    // engine re-issues those question slots to the relief shift.
    let churn = run_scenario(&preset("churn-storm", 3).unwrap()).unwrap();
    assert!(churn.workers_left > 0);
    assert!(churn.answers_dropped > 0, "leavers drop in-flight answers");
    assert!(churn.leases.expired > 0, "abandoned leases expire");
    assert!(churn.leases.reissued > 0, "expired slots are re-leased");
    assert!(churn.leases.issued > churn.answers_delivered);

    // Colluders answer consistently wrong, so scoring pushes the whole
    // clique below the qualification floor while the honest crowd stays
    // clearly above it.
    let scenario = preset("colluders", 3).unwrap();
    let colluders = run_scenario(&scenario).unwrap();
    let mean = |behavior: &str| {
        let est: Vec<f64> = colluders
            .workers
            .iter()
            .filter(|w| w.behavior == behavior && w.scored > 0)
            .map(|w| w.estimate)
            .collect();
        assert!(!est.is_empty(), "no scored {behavior} workers");
        est.iter().sum::<f64>() / est.len() as f64
    };
    let clique_max = colluders.estimator.adversary_max_estimate.expect("clique was scored");
    assert!(
        clique_max < scenario.qualification,
        "every colluder ({clique_max}) must sink below the qualification floor"
    );
    assert!(mean("colluder") < mean("honest"));

    // Drift decays true qualities over the run; the report records the
    // drifted value, not the draw.
    let drift = run_scenario(&preset("drift", 3).unwrap()).unwrap();
    assert!(
        drift.workers.iter().all(|w| w.true_quality.unwrap() < 0.9),
        "qualities must have decayed below the initial draw range"
    );
}

/// A scenario file round-trips through the parser and runs just like
/// the in-memory scenario it encodes.
#[test]
fn scenario_files_drive_runs() {
    let scenario = preset("spam-flood", 11).unwrap();
    let text = scenario.to_json().to_pretty_string();
    let parsed = remp::sim::Scenario::parse(&text).unwrap();
    assert_eq!(parsed, scenario);
    assert_eq!(
        run_scenario(&parsed).unwrap().trace_hash,
        run_scenario(&scenario).unwrap().trace_hash,
    );
}
