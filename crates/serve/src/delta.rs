//! Campaign images and the delta frames between them.
//!
//! A [`CampaignImage`] is everything a campaign's state file holds
//! beyond its spec: the session checkpoint plus the crowd-side state the
//! session does not know about (collected answers, worker records, the
//! submission log). The campaign actor keeps the image its base state
//! file and WAL delta frames fold to. Every 128 answers it diffs the
//! live state against that image with [`encode_delta`] and appends the
//! result to the WAL ([`crate::wal`]), so a compaction costs what the
//! batch changed, not what the campaign holds. [`recover`] is the
//! restart half: it folds a base's delta frames and hands back the
//! answer records past the last one.
//!
//! A delta payload, little-endian, floats as their bit patterns:
//!
//! ```text
//! base_seq u64, prev_seq u64, seq u64     base it extends, image it was
//!                                         diffed against, answers it folds
//! paused u8, questions_asked u64, loops u64, drained u8, next_question_id u64
//! resolutions  count u32, (pair u32, code u8)*             changed entries
//! priors       count u32, (pair u32, bits u64)*            changed entries
//! seeds        count u32, pair u32* removed; count u32, pair u32* added
//! log          count u32, (question u64, u1 u32, u2 u32, verdict u8)*  appended
//! workers      count u32, (name str, qualification f64, scored u64, agreed u64)*
//! answers      count u32, (question u64, worker str, says_match u8)*
//! pending      count u32, (id u64, pair u32, prior f64, answered u8,
//!                          count u32, (pair u32, probability f64)*)*
//! ```
//!
//! Workers, open answers and the pending batch are small and written
//! whole. A frame folds only onto the image it was diffed against: a
//! frame whose `base_seq` or `prev_seq` does not match is a broken chain
//! and fails recovery with the typed `broken_chain` error.

use std::path::Path;

use remp_core::session::PendingCheckpoint;
use remp_core::{Resolution, SessionCheckpoint};
use remp_crowd::{Verdict, WorkerRecord};
use remp_ingest::framing::{put_f64, put_str, put_u32, put_u64, ByteCursor};
use remp_ingest::IngestError;
use remp_kb::EntityId;

use crate::engine::CampaignEngine;
use crate::wal::{WalFrame, WalRecord};
use crate::wire::{ServeError, SubmittedRecord};

/// A campaign's durable state at one `answer_seq`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CampaignImage {
    pub session: SessionCheckpoint,
    pub workers: Vec<(String, WorkerRecord)>,
    pub answers: Vec<(u64, String, bool)>,
    pub log: Vec<SubmittedRecord>,
    pub paused: bool,
    /// Count of accepted answers folded into this image — WAL records at
    /// or below it are already applied and skipped on replay.
    pub answer_seq: u64,
}

impl CampaignImage {
    /// The engine's current state, stamped with `answer_seq`.
    pub fn capture(engine: &CampaignEngine<'_>, answer_seq: u64) -> CampaignImage {
        CampaignImage {
            session: engine.session_checkpoint(),
            workers: engine.worker_records(),
            answers: engine.open_answers(),
            log: engine.log().to_vec(),
            paused: engine.paused(),
            answer_seq,
        }
    }
}

fn verdict_byte(v: Verdict) -> u8 {
    match v {
        Verdict::Match => 0,
        Verdict::NonMatch => 1,
        Verdict::Inconsistent => 2,
    }
}

fn strictly_ascending(ids: &[u32]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Entries present in only one of two strictly ascending lists:
/// `(removed, added)` going from `prev` to `cur`.
fn sorted_diff(prev: &[u32], cur: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < cur.len() {
        match prev[i].cmp(&cur[j]) {
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
            std::cmp::Ordering::Less => {
                removed.push(prev[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(cur[j]);
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&prev[i..]);
    added.extend_from_slice(&cur[j..]);
    (removed, added)
}

fn put_ids(b: &mut Vec<u8>, ids: &[u32]) {
    put_u32(b, ids.len() as u32);
    for &id in ids {
        put_u32(b, id);
    }
}

/// The delta that takes `prev` to `cur`, extending the base at
/// `base_seq`. `None` when no delta can express the change (the pair
/// set changed shape, the log was not appended to, seeds out of order);
/// the caller then writes a new base.
pub(crate) fn encode_delta(
    prev: &CampaignImage,
    cur: &CampaignImage,
    base_seq: u64,
) -> Option<Vec<u8>> {
    let (p, c) = (&prev.session, &cur.session);
    if p.resolutions.len() != c.resolutions.len()
        || p.priors.len() != c.priors.len()
        || !strictly_ascending(&p.seeds)
        || !strictly_ascending(&c.seeds)
        || !cur.log.starts_with(&prev.log)
    {
        return None;
    }
    let mut b = Vec::new();
    put_u64(&mut b, base_seq);
    put_u64(&mut b, prev.answer_seq);
    put_u64(&mut b, cur.answer_seq);
    b.push(cur.paused as u8);
    put_u64(&mut b, c.questions_asked as u64);
    put_u64(&mut b, c.loops as u64);
    b.push(c.drained as u8);
    put_u64(&mut b, c.next_question_id);

    let changed: Vec<usize> =
        (0..c.resolutions.len()).filter(|&i| p.resolutions[i] != c.resolutions[i]).collect();
    put_u32(&mut b, changed.len() as u32);
    for i in changed {
        put_u32(&mut b, i as u32);
        b.push(c.resolutions[i].code() as u8);
    }
    let changed: Vec<usize> =
        (0..c.priors.len()).filter(|&i| p.priors[i].to_bits() != c.priors[i].to_bits()).collect();
    put_u32(&mut b, changed.len() as u32);
    for i in changed {
        put_u32(&mut b, i as u32);
        put_f64(&mut b, c.priors[i]);
    }
    let (removed, added) = sorted_diff(&p.seeds, &c.seeds);
    put_ids(&mut b, &removed);
    put_ids(&mut b, &added);

    let appended = &cur.log[prev.log.len()..];
    put_u32(&mut b, appended.len() as u32);
    for r in appended {
        put_u64(&mut b, r.question);
        put_u32(&mut b, r.pair.0 .0);
        put_u32(&mut b, r.pair.1 .0);
        b.push(verdict_byte(r.verdict));
    }
    put_u32(&mut b, cur.workers.len() as u32);
    for (name, r) in &cur.workers {
        put_str(&mut b, name);
        put_f64(&mut b, r.qualification);
        put_u64(&mut b, r.scored);
        put_u64(&mut b, r.agreed);
    }
    put_u32(&mut b, cur.answers.len() as u32);
    for (question, worker, says_match) in &cur.answers {
        put_u64(&mut b, *question);
        put_str(&mut b, worker);
        b.push(*says_match as u8);
    }
    put_u32(&mut b, c.pending.len() as u32);
    for q in &c.pending {
        put_u64(&mut b, q.id);
        put_u32(&mut b, q.pair);
        put_f64(&mut b, q.prior);
        b.push(q.answered as u8);
        put_u32(&mut b, q.inferred.len() as u32);
        for &(pair, probability) in &q.inferred {
            put_u32(&mut b, pair);
            put_f64(&mut b, probability);
        }
    }
    Some(b)
}

fn bad_delta(path: &Path, msg: impl std::fmt::Display) -> ServeError {
    ServeError::internal("bad_delta", format!("{}: delta frame: {msg}", path.display()))
}

fn read_bool(c: &mut ByteCursor<'_>, path: &Path) -> Result<bool, ServeError> {
    match c.u8().map_err(|e| bad_delta(path, e))? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad_delta(path, format!("bad flag byte {other}"))),
    }
}

/// Folds the body of one delta (header already read) into `image`.
fn apply_body(
    image: &mut CampaignImage,
    c: &mut ByteCursor<'_>,
    path: &Path,
) -> Result<(), ServeError> {
    let e = |e: IngestError| bad_delta(path, e);
    image.paused = read_bool(c, path)?;
    let s = &mut image.session;
    s.questions_asked = c.u64().map_err(e)? as usize;
    s.loops = c.u64().map_err(e)? as usize;
    s.drained = read_bool(c, path)?;
    s.next_question_id = c.u64().map_err(e)?;

    let pair = |c: &mut ByteCursor<'_>, n: usize| -> Result<usize, ServeError> {
        let i = c.u32().map_err(e)? as usize;
        if i >= n {
            return Err(bad_delta(path, format!("pair {i} out of range (campaign has {n})")));
        }
        Ok(i)
    };
    for _ in 0..c.u32().map_err(e)? {
        let i = pair(c, s.resolutions.len())?;
        let code = c.u8().map_err(e)?;
        s.resolutions[i] = Resolution::from_code(code as char)
            .ok_or_else(|| bad_delta(path, format!("bad resolution code {code}")))?;
    }
    for _ in 0..c.u32().map_err(e)? {
        let i = pair(c, s.priors.len())?;
        s.priors[i] = c.f64().map_err(e)?;
    }
    for _ in 0..c.u32().map_err(e)? {
        let id = c.u32().map_err(e)?;
        let at = s
            .seeds
            .binary_search(&id)
            .map_err(|_| bad_delta(path, format!("removes absent seed {id}")))?;
        s.seeds.remove(at);
    }
    for _ in 0..c.u32().map_err(e)? {
        let id = c.u32().map_err(e)?;
        let at = s
            .seeds
            .binary_search(&id)
            .err()
            .ok_or_else(|| bad_delta(path, format!("adds present seed {id}")))?;
        s.seeds.insert(at, id);
    }

    for _ in 0..c.u32().map_err(e)? {
        let question = c.u64().map_err(e)?;
        let (u1, u2) = (c.u32().map_err(e)?, c.u32().map_err(e)?);
        let verdict = match c.u8().map_err(e)? {
            0 => Verdict::Match,
            1 => Verdict::NonMatch,
            2 => Verdict::Inconsistent,
            other => return Err(bad_delta(path, format!("bad verdict byte {other}"))),
        };
        image.log.push(SubmittedRecord { question, pair: (EntityId(u1), EntityId(u2)), verdict });
    }
    let n = c.u32().map_err(e)? as usize;
    image.workers = Vec::with_capacity(c.capped(n, 28));
    for _ in 0..n {
        let name = c.string().map_err(e)?;
        let record = WorkerRecord {
            qualification: c.f64().map_err(e)?,
            scored: c.u64().map_err(e)?,
            agreed: c.u64().map_err(e)?,
        };
        image.workers.push((name, record));
    }
    let n = c.u32().map_err(e)? as usize;
    image.answers = Vec::with_capacity(c.capped(n, 13));
    for _ in 0..n {
        let question = c.u64().map_err(e)?;
        let worker = c.string().map_err(e)?;
        image.answers.push((question, worker, read_bool(c, path)?));
    }
    let n = c.u32().map_err(e)? as usize;
    let s = &mut image.session;
    s.pending = Vec::with_capacity(c.capped(n, 25));
    for _ in 0..n {
        let id = c.u64().map_err(e)?;
        let pair = c.u32().map_err(e)?;
        let prior = c.f64().map_err(e)?;
        let answered = read_bool(c, path)?;
        let k = c.u32().map_err(e)? as usize;
        let mut inferred = Vec::with_capacity(c.capped(k, 12));
        for _ in 0..k {
            inferred.push((c.u32().map_err(e)?, c.f64().map_err(e)?));
        }
        s.pending.push(PendingCheckpoint { id, pair, prior, answered, inferred });
    }
    c.expect_end().map_err(e)
}

/// Folds the delta frames in `frames` into `base` and returns the
/// folded image plus the answer records past it, in order.
///
/// Frames at or below the base's `answer_seq` were folded into the base
/// already (a crash between a base write and the WAL reset leaves them
/// behind) and are skipped. Every later frame must extend this base and
/// the image the previous frame left; anything else is a broken chain,
/// reported as the typed `broken_chain` error and never folded.
pub(crate) fn recover(
    base: CampaignImage,
    frames: Vec<WalFrame>,
    path: &Path,
) -> Result<(CampaignImage, Vec<WalRecord>), ServeError> {
    let base_seq = base.answer_seq;
    let mut image = base;
    let mut records = Vec::new();
    for frame in frames {
        let payload = match frame {
            WalFrame::Answer(record) => {
                records.push(record);
                continue;
            }
            WalFrame::Delta(payload) => payload,
        };
        let mut c = ByteCursor::new(&payload, path);
        let mut seq = || c.u64().map_err(|e| bad_delta(path, e));
        let (extends, prev_seq, seq) = (seq()?, seq()?, seq()?);
        if seq <= base_seq {
            continue;
        }
        if extends != base_seq || prev_seq != image.answer_seq || seq <= prev_seq {
            return Err(ServeError::internal(
                "broken_chain",
                format!(
                    "{}: delta frame to answer {seq} extends base {extends} at answer \
                     {prev_seq}, but the base is at {base_seq} and the chain at {}",
                    path.display(),
                    image.answer_seq
                ),
            ));
        }
        apply_body(&mut image, &mut c, path)?;
        image.answer_seq = seq;
    }
    records.retain(|r| r.seq > image.answer_seq);
    Ok((image, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_core::{MatchSource, RempConfig};

    fn image(answer_seq: u64) -> CampaignImage {
        let session = SessionCheckpoint {
            config: RempConfig::default(),
            kb1_fingerprint: remp_core::KbFingerprint {
                name: "a".into(),
                entities: 3,
                attr_triples: 4,
                rel_triples: 5,
            },
            kb2_fingerprint: remp_core::KbFingerprint {
                name: "b".into(),
                entities: 3,
                attr_triples: 4,
                rel_triples: 5,
            },
            resolutions: vec![Resolution::Unresolved; 6],
            priors: vec![0.5, 0.25, -0.0, 1e-310, 0.75, 0.1],
            seeds: vec![1, 4],
            questions_asked: 2,
            loops: 1,
            drained: false,
            next_question_id: 3,
            pending: Vec::new(),
        };
        CampaignImage {
            session,
            workers: vec![("w0".into(), WorkerRecord { qualification: 0.9, scored: 1, agreed: 1 })],
            answers: vec![(2, "w0".into(), true)],
            log: vec![SubmittedRecord {
                question: 0,
                pair: (EntityId(0), EntityId(1)),
                verdict: Verdict::Match,
            }],
            paused: false,
            answer_seq,
        }
    }

    fn step(prev: &CampaignImage, answer_seq: u64) -> CampaignImage {
        let mut next = prev.clone();
        next.answer_seq = answer_seq;
        let s = &mut next.session;
        s.resolutions[answer_seq as usize % 6] = Resolution::Match(MatchSource::Inferred);
        s.priors[2] = answer_seq as f64 / 10.0;
        s.seeds = vec![0, 4, answer_seq as u32 + 10];
        s.questions_asked += 1;
        s.loops += 1;
        s.next_question_id += 1;
        s.pending = vec![PendingCheckpoint {
            id: answer_seq,
            pair: 5,
            prior: 0.3,
            answered: true,
            inferred: vec![(2, 0.9), (3, 0.8)],
        }];
        next.workers.push((
            format!("w{answer_seq}"),
            WorkerRecord { qualification: 0.8, scored: 0, agreed: 0 },
        ));
        next.answers = vec![(answer_seq, "w1".into(), false)];
        next.log.push(SubmittedRecord {
            question: answer_seq,
            pair: (EntityId(2), EntityId(2)),
            verdict: Verdict::Inconsistent,
        });
        next.paused = answer_seq.is_multiple_of(2);
        next
    }

    fn answer(seq: u64) -> WalFrame {
        WalFrame::Answer(WalRecord {
            seq,
            question: seq,
            worker: "w".into(),
            says_match: true,
            now_ms: 0,
        })
    }

    #[test]
    fn deltas_fold_back_to_the_diffed_image() {
        let path = Path::new("c0.wal");
        let base = image(4);
        let one = step(&base, 6);
        let two = step(&one, 9);
        let frames = vec![
            answer(5),
            answer(6),
            WalFrame::Delta(encode_delta(&base, &one, 4).unwrap()),
            answer(7),
            answer(8),
            answer(9),
            WalFrame::Delta(encode_delta(&one, &two, 4).unwrap()),
            answer(10),
        ];
        let (folded, tail) = recover(base.clone(), frames, path).unwrap();
        assert_eq!(folded, two);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn frames_a_newer_base_already_holds_are_skipped() {
        let path = Path::new("c0.wal");
        let old = image(0);
        let base = step(&old, 3);
        let frames = vec![answer(2), WalFrame::Delta(encode_delta(&old, &base, 0).unwrap())];
        let (folded, tail) = recover(base.clone(), frames, path).unwrap();
        assert_eq!(folded, base);
        assert!(tail.is_empty());
    }

    #[test]
    fn a_broken_chain_is_a_typed_error() {
        let path = Path::new("c0.wal");
        let base = image(4);
        let one = step(&base, 6);
        let two = step(&one, 9);
        // The frame to 6 is missing: the frame to 9 was diffed against it.
        let skipped = vec![WalFrame::Delta(encode_delta(&one, &two, 4).unwrap())];
        assert_eq!(recover(base.clone(), skipped, path).unwrap_err().code, "broken_chain");
        // A frame that extends a different base.
        let foreign = vec![WalFrame::Delta(encode_delta(&base, &one, 2).unwrap())];
        assert_eq!(recover(base, foreign, path).unwrap_err().code, "broken_chain");
    }

    #[test]
    fn shapes_a_delta_cannot_express_ask_for_a_base() {
        let base = image(0);
        let mut shrunk = step(&base, 1);
        shrunk.log.clear();
        assert!(encode_delta(&base, &shrunk, 0).is_none());
        let mut grown = step(&base, 1);
        grown.session.priors.push(0.5);
        assert!(encode_delta(&base, &grown, 0).is_none());
    }
}
