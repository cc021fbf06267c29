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

/// Digests of the checkpoint taken with ⌈µ/2⌉ questions of the first
/// batch answered (see [`open_checkpoint_digest`]), in the shape of
/// [`PINS`]. That checkpoint still has open questions, so it carries
/// their inferred sets with the probabilities the WAL and the resume path
/// read; the checkpoint inside [`campaign_digest`] is taken once the
/// whole batch is answered and has none. The digests were recorded on
/// the program as it stood before this table was added; [`PINS`] does
/// not cover these bytes.
pub const OPEN_PINS: &[(&str, u64, u64)] = &[
    ("IIMB", 0x2e3f47221e3585a1, 0x9a967dbd8e956dcc),
    ("D-A", 0x4ff485593bb1b03e, 0x05ad97fc9a486b6f),
    ("I-Y", 0xb1c6e8367c25a678, 0x57a8cbb346a45bfb),
    ("D-Y", 0xe0f17a5373bec4cd, 0x3a7cff81f4b868be),
    ("tiny", 0xdbb5628b56f6effc, 0x7da26d60c588b6a3),
];

/// Everything observable about one campaign.
pub struct Observed {
    pub transcript: Vec<(usize, EntityId, EntityId)>,
    pub mid_checkpoint: Option<String>,
    /// Checkpoint JSON with ⌈µ/2⌉ answers of the first batch in: the
    /// rest of that batch is still open. Outside [`campaign_digest`].
    pub open_checkpoint: Option<String>,
    pub outcome: RempOutcome,
    /// Read only by the incremental-engine suite.
    #[allow(dead_code)]
    pub loop_stats: Vec<LoopStat>,
}

/// Runs one campaign to completion with `crowd` answering every
/// question, recording the full question transcript, a checkpoint with
/// ⌈µ/2⌉ answers of the first batch in, and one right after the first
/// batch. `configure` sets the session up before the first batch
/// (engine, per-loop reference check).
pub fn observe_campaign(
    dataset: &GeneratedDataset,
    parallelism: Parallelism,
    crowd: &mut dyn LabelSource,
    configure: impl FnOnce(&mut RempSession<'_>),
) -> Observed {
    let config = RempConfig::default().with_parallelism(parallelism);
    let half_batch = config.mu.div_ceil(2);
    let remp = Remp::new(config);
    let mut session = remp.begin(&dataset.kb1, &dataset.kb2).expect("valid config");
    configure(&mut session);
    let mut transcript = Vec::new();
    let mut mid_checkpoint = None;
    let mut open_checkpoint = None;
    while let Some(batch) = session.next_batch().expect("no protocol errors") {
        for (answered, q) in batch.questions.iter().enumerate() {
            transcript.push((batch.loop_index, q.pair.0, q.pair.1));
            let labels = crowd.label(dataset.is_match(q.pair.0, q.pair.1));
            session.submit(q.id, labels).expect("fresh question");
            if mid_checkpoint.is_none() && answered + 1 == half_batch {
                let checkpoint = session.checkpoint();
                assert!(
                    checkpoint.pending.iter().any(|p| !p.answered),
                    "{}: the first batch has no question left open after {half_batch} answers",
                    dataset.name
                );
                open_checkpoint = Some(checkpoint.to_json_string());
            }
        }
        if mid_checkpoint.is_none() {
            mid_checkpoint = Some(session.checkpoint().to_json_string());
        }
    }
    let loop_stats = session.loop_stats().to_vec();
    Observed { transcript, mid_checkpoint, open_checkpoint, outcome: session.finish(), loop_stats }
}

/// FNV-1a over the `Debug` rendering of the whole observable record.
///
/// `Debug` for `f64` prints the shortest round-trip decimal, so two
/// different finite floats never collapse to one digest; the rendering
/// has no `HashMap` iteration order anywhere (transcript and outcome
/// are `Vec`s, the checkpoint is canonical JSON).
pub fn campaign_digest(dataset: &GeneratedDataset, observed: &Observed) -> u64 {
    let eval = evaluate_matches(observed.outcome.matches.iter().copied(), &dataset.gold);
    fnv1a(&format!(
        "{:?}|{:?}|{:?}|{:?}",
        observed.transcript, observed.outcome, eval, observed.mid_checkpoint
    ))
}

/// FNV-1a over the `Debug` rendering of [`Observed::open_checkpoint`],
/// the digest [`OPEN_PINS`] holds.
pub fn open_checkpoint_digest(observed: &Observed) -> u64 {
    fnv1a(&format!("{:?}", observed.open_checkpoint))
}

fn fnv1a(rendered: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
