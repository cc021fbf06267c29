//! Shared helpers for the equivalence suites: run a full campaign and
//! reduce *everything observable about it* — question order, outcome,
//! metrics, mid-campaign checkpoint JSON — to a single 64-bit digest.
//!
//! The digests pin campaign outputs across *code changes*, not just
//! across thread counts: the constants in the suites were captured
//! before the dense-id layout refactor (packed pair keys, CSR
//! adjacency), so any layout change that perturbs question order,
//! matches, metrics or checkpoint bytes fails the pin.

use remp::core::{evaluate_matches, LoopStat, Remp, RempConfig, RempOutcome, RempSession};
use remp::crowd::LabelSource;
use remp::datasets::{generate, preset_by_name, GeneratedDataset};
use remp::kb::EntityId;
use remp::par::Parallelism;

/// Campaign digests pinned across code changes, one row per entry of
/// [`presets`], in order: `(preset name, Sequential digest, Fixed(4)
/// digest)`. They were captured on the `HashMap`/`BTreeMap` layout
/// immediately before the dense-id refactor, and every way of running a
/// campaign that must not change its outputs (thread count, engine,
/// instrumentation) is held to them. The two columns differ only because
/// the checkpoint embeds the parallelism config.
pub const PINS: &[(&str, u64, u64)] = &[
    ("IIMB", 0x5316831745f33ea7, 0x77a3aaaed24dddf4),
    ("D-A", 0xffe5d6ace05434ee, 0x3bac9e7bba40034d),
    ("I-Y", 0x1167d6036912695e, 0x4dba2ca2c2cf519b),
    ("D-Y", 0x5454eb6d20c20388, 0x3cd123696442d315),
    ("tiny", 0xa3e4e40e13ab6874, 0x18fa44f4b0c47371),
];

/// Every preset at a laptop-friendly scale — "every preset" is the
/// point: each one stresses a different KB shape (homogeneous,
/// heterogeneous, cross-type relationships).
pub fn presets() -> Vec<GeneratedDataset> {
    [("IIMB", 0.25), ("D-A", 0.2), ("I-Y", 0.15), ("D-Y", 0.15), ("TINY", 1.0)]
        .into_iter()
        .map(|(name, scale)| generate(&preset_by_name(name, scale).expect("known preset")))
        .collect()
}

/// Everything observable about one campaign.
pub struct Observed {
    pub transcript: Vec<(usize, EntityId, EntityId)>,
    pub mid_checkpoint: Option<String>,
    pub outcome: RempOutcome,
    /// Read only by the incremental-engine suite.
    #[allow(dead_code)]
    pub loop_stats: Vec<LoopStat>,
}

/// Runs one campaign to completion with `crowd` answering every
/// question, recording the full question transcript and a checkpoint
/// right after the first batch. `configure` sets the session up before
/// the first batch (engine, per-loop reference check).
pub fn observe_campaign(
    dataset: &GeneratedDataset,
    parallelism: Parallelism,
    crowd: &mut dyn LabelSource,
    configure: impl FnOnce(&mut RempSession<'_>),
) -> Observed {
    let config = RempConfig::default().with_parallelism(parallelism);
    let remp = Remp::new(config);
    let mut session = remp.begin(&dataset.kb1, &dataset.kb2).expect("valid config");
    configure(&mut session);
    let mut transcript = Vec::new();
    let mut mid_checkpoint = None;
    while let Some(batch) = session.next_batch().expect("no protocol errors") {
        for q in &batch.questions {
            transcript.push((batch.loop_index, q.pair.0, q.pair.1));
            let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
            session.submit(q.id, labels).expect("fresh question");
        }
        if mid_checkpoint.is_none() {
            mid_checkpoint = Some(session.checkpoint().to_json_string());
        }
    }
    let loop_stats = session.loop_stats().to_vec();
    Observed { transcript, mid_checkpoint, outcome: session.finish(), loop_stats }
}

/// FNV-1a over the `Debug` rendering of the whole observable record.
///
/// `Debug` for `f64` prints the shortest round-trip decimal, so two
/// different finite floats never collapse to one digest; the rendering
/// has no `HashMap` iteration order anywhere (transcript and outcome
/// are `Vec`s, the checkpoint is canonical JSON).
pub fn campaign_digest(dataset: &GeneratedDataset, observed: &Observed) -> u64 {
    let eval = evaluate_matches(observed.outcome.matches.iter().copied(), &dataset.gold);
    let rendered = format!(
        "{:?}|{:?}|{:?}|{:?}",
        observed.transcript, observed.outcome, eval, observed.mid_checkpoint
    );
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
