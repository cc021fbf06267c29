//! Multiple questions selection (paper §VI).
//!
//! Asking a question `q` and receiving a "match" label lets propagation
//! infer every pair in `inferred(q)` (Eq. 12). The benefit of a question
//! set `Q` is the *expected* number of pairs inferred once workers label it
//! (Eqs. 15–16):
//!
//! `benefit(Q) = Σ_{p∈C} (1 − Π_{q∈Q : p∈inferred(q)} (1 − Pr[m_q]))`
//!
//! Selecting the best `|Q| ≤ µ` is NP-hard (Theorem 1, set-cover
//! reduction) but `benefit` is monotone submodular (Theorem 2), so the
//! [`select_questions`] lazy greedy achieves the (1 − 1/e) guarantee
//! (Algorithm 3 with the Minoux/lazier-than-lazy-greedy priority queue).
//!
//! [`max_inf_questions`] and [`max_pr_questions`] are the two heuristic
//! baselines of §VIII-B (Fig. 5): maximal inference power and maximal
//! match probability.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use remp_ergraph::{ComponentIndex, PairId};
use remp_par::Parallelism;
use remp_propagation::InferredSets;

/// Which question-selection policy a session's [`select_batch`] uses.
///
/// [`BatchStrategy::Benefit`] is the paper's Algorithm 3 and the default;
/// the two heuristics are the §VIII-B baselines, exposed so callers (the
/// session API, the Fig. 5 harness) can swap policies per run without
/// re-implementing the selection loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BatchStrategy {
    /// Lazy-greedy expected-benefit maximisation (Algorithm 3).
    #[default]
    Benefit,
    /// Maximal inference power, ignoring match probability.
    MaxInf,
    /// Maximal match probability, ignoring inference power.
    MaxPr,
}

impl BatchStrategy {
    /// Stable identifier, used by checkpoints and display.
    pub fn name(self) -> &'static str {
        match self {
            BatchStrategy::Benefit => "benefit",
            BatchStrategy::MaxInf => "max_inf",
            BatchStrategy::MaxPr => "max_pr",
        }
    }

    /// Inverse of [`BatchStrategy::name`].
    pub fn from_name(name: &str) -> Option<BatchStrategy> {
        match name {
            "benefit" => Some(BatchStrategy::Benefit),
            "max_inf" => Some(BatchStrategy::MaxInf),
            "max_pr" => Some(BatchStrategy::MaxPr),
            _ => None,
        }
    }
}

/// Selects at most `mu` questions under the given policy — the single
/// entry point the session state machine calls each loop.
///
/// The greedy selection itself is inherently sequential, but the initial
/// scoring of every candidate question is data-parallel under `par`; the
/// selected set is identical in every [`Parallelism`] mode.
pub fn select_batch(
    strategy: BatchStrategy,
    candidates: &[PairId],
    inferred: &InferredSets,
    priors: &[f64],
    eligible: &[bool],
    mu: usize,
    par: &Parallelism,
) -> Vec<PairId> {
    match strategy {
        BatchStrategy::Benefit => select_questions(candidates, inferred, priors, eligible, mu, par),
        BatchStrategy::MaxInf => max_inf_questions(candidates, inferred, eligible, mu, par),
        BatchStrategy::MaxPr => max_pr_questions(candidates, priors, mu),
    }
}

/// Expected number of inferred matches for the question set `Q`
/// (Eqs. 15–16). `priors[p]` is `Pr[m_p]` indexed by pair id; `eligible`
/// marks the unresolved pairs `C` that count toward the benefit.
pub fn benefit(
    questions: &[PairId],
    inferred: &InferredSets,
    priors: &[f64],
    eligible: &[bool],
) -> f64 {
    let n = eligible.len();
    let mut not_covered = vec![1.0f64; n];
    for &q in questions {
        let pq = priors[q.index()];
        for &p in inferred.inferred(q) {
            if eligible[p.index()] {
                not_covered[p.index()] *= 1.0 - pq;
            }
        }
    }
    eligible.iter().enumerate().filter(|&(_, &e)| e).map(|(p, _)| 1.0 - not_covered[p]).sum()
}

/// Max-heap entry: cached marginal gain of a candidate question.
struct Entry {
    gain: f64,
    question: PairId,
    /// Selection round the gain was computed in (for lazy invalidation).
    round: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.question == other.question
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.question.cmp(&self.question))
    }
}

/// Algorithm 3: lazy greedy selection of at most `mu` questions from
/// `candidates`, maximising [`benefit`].
///
/// Stops early when no remaining question has positive gain (the paper's
/// termination condition: nothing more can be inferred). Runs in
/// `O(µ · |C| · avg|inferred|)` with the lazy evaluation usually far
/// cheaper.
pub fn select_questions(
    candidates: &[PairId],
    inferred: &InferredSets,
    priors: &[f64],
    eligible: &[bool],
    mu: usize,
    par: &Parallelism,
) -> Vec<PairId> {
    let n = eligible.len();
    // not_covered[p] = Π_{selected q ∋ p} (1 − Pr[m_q]); gain of adding q is
    // Pr[m_q] · Σ_{p ∈ inferred(q), eligible} not_covered[p].
    let mut not_covered = vec![1.0f64; n];
    let gain_of = |q: PairId, not_covered: &[f64]| -> f64 {
        let pq = priors[q.index()];
        pq * inferred
            .inferred(q)
            .iter()
            .filter(|&&p| eligible[p.index()])
            .map(|&p| not_covered[p.index()])
            .sum::<f64>()
    };

    // The initial scoring pass touches every candidate's full inferred
    // set — by far the dominant cost of a selection round — and is
    // data-parallel; heap order is total, so the selection that follows
    // is deterministic regardless of mode.
    let initial_gains: Vec<f64> = par.par_map(candidates, |&q| gain_of(q, &not_covered));
    let mut heap: BinaryHeap<Entry> = candidates
        .iter()
        .zip(initial_gains)
        .map(|(&q, gain)| Entry { gain, question: q, round: 0 })
        .collect();

    let mut selected = Vec::with_capacity(mu.min(candidates.len()));
    let mut round = 0usize;
    while selected.len() < mu {
        let Some(top) = heap.pop() else { break };
        if top.gain <= 1e-12 {
            break; // nothing informative left (Alg. 3 line 9)
        }
        if top.round < round {
            // Stale gain: recompute and re-insert. Submodularity guarantees
            // the fresh gain is ≤ the stale one, so the heap order stays
            // admissible.
            let fresh = gain_of(top.question, &not_covered);
            heap.push(Entry { gain: fresh, question: top.question, round });
            continue;
        }
        // Fresh top entry: select it.
        let pq = priors[top.question.index()];
        for &p in inferred.inferred(top.question) {
            if eligible[p.index()] {
                not_covered[p.index()] *= 1.0 - pq;
            }
        }
        selected.push(top.question);
        round += 1;
    }
    selected
}

/// Reference (non-lazy) greedy — same output as [`select_questions`],
/// used for property tests and the selection ablation bench.
pub fn select_questions_naive(
    candidates: &[PairId],
    inferred: &InferredSets,
    priors: &[f64],
    eligible: &[bool],
    mu: usize,
) -> Vec<PairId> {
    let n = eligible.len();
    let mut not_covered = vec![1.0f64; n];
    let mut remaining: Vec<PairId> = candidates.to_vec();
    let mut selected = Vec::new();
    while selected.len() < mu && !remaining.is_empty() {
        let (best_idx, best_gain) = remaining
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let pq = priors[q.index()];
                let g = pq
                    * inferred
                        .inferred(q)
                        .iter()
                        .filter(|&&p| eligible[p.index()])
                        .map(|&p| not_covered[p.index()])
                        .sum::<f64>();
                (i, g)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(Ordering::Equal)
                    // Tie-break identical gains toward the smaller pair id,
                    // matching the heap's deterministic order.
                    .then_with(|| remaining[b.0].cmp(&remaining[a.0]))
            })
            .expect("non-empty remaining");
        if best_gain <= 1e-12 {
            break;
        }
        let q = remaining.swap_remove(best_idx);
        let pq = priors[q.index()];
        for &p in inferred.inferred(q) {
            if eligible[p.index()] {
                not_covered[p.index()] *= 1.0 - pq;
            }
        }
        selected.push(q);
    }
    selected
}

/// MaxInf baseline (§VIII-B): the `mu` questions with the largest inferred
/// sets, ignoring match probability.
pub fn max_inf_questions(
    candidates: &[PairId],
    inferred: &InferredSets,
    eligible: &[bool],
    mu: usize,
    par: &Parallelism,
) -> Vec<PairId> {
    let mut scored: Vec<(usize, PairId)> = par.par_map(candidates, |&q| {
        let size = inferred.inferred(q).iter().filter(|&&p| eligible[p.index()]).count();
        (size, q)
    });
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scored.into_iter().take(mu).map(|(_, q)| q).collect()
}

/// MaxPr baseline (§VIII-B): the `mu` questions with the highest prior
/// match probability, ignoring inference power.
pub fn max_pr_questions(candidates: &[PairId], priors: &[f64], mu: usize) -> Vec<PairId> {
    let mut scored: Vec<(f64, PairId)> =
        candidates.iter().map(|&q| (priors[q.index()], q)).collect();
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then_with(|| a.1.cmp(&b.1))
    });
    scored.into_iter().take(mu).map(|(_, q)| q).collect()
}

// ---- component-sharded selection --------------------------------------
//
// Inferred sets never leave a connected component of the ER graph, so
// the benefit function decomposes: the marginal gain of a question only
// depends on the questions already selected *in its own component*. Each
// component can therefore be scored independently — its greedy sequence
// (with pick-time scores) is exactly the restriction of the global greedy
// to that component — and the global batch is a k-way merge of the
// sequences by (score, id). The incremental pipeline leans on this to
// rescore only the components an answered batch actually touched, instead
// of materialising global `eligible` / `priors` / `question_cands`
// vectors every loop.

/// One entry of a component's selection sequence: a question with its
/// pick-time score (the marginal gain for [`BatchStrategy::Benefit`], the
/// static score for the two heuristics). Scores are non-increasing along
/// a sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredQuestion {
    /// The candidate question.
    pub question: PairId,
    /// Its score at pick time.
    pub score: f64,
}

/// Scores the eligible members of component `component` under
/// `strategy`, producing at most `cap` entries — the component's share of
/// the global selection.
///
/// Every inferred set must stay inside its source's component (true of
/// sets computed over the graph `components` partitions). `scratch` must
/// hold at least one `1.0` per member of the component, indexed by
/// [`ComponentIndex::position_of`]; it is restored before returning, so
/// one buffer sized by the largest component scored serves them all.
/// Merging the per-component sequences with [`merge_sequences`] yields
/// output bit-identical to [`select_batch`] over the union of members.
#[allow(clippy::too_many_arguments)]
pub fn component_sequence(
    strategy: BatchStrategy,
    components: &ComponentIndex,
    component: usize,
    inferred: &InferredSets,
    priors: &[f64],
    eligible: &[bool],
    cap: usize,
    scratch: &mut [f64],
) -> Vec<ScoredQuestion> {
    let cands: Vec<PairId> =
        components.members(component).iter().copied().filter(|&q| eligible[q.index()]).collect();
    match strategy {
        BatchStrategy::Benefit => {
            let gain_of = |q: PairId, not_covered: &[f64]| -> f64 {
                let pq = priors[q.index()];
                pq * inferred
                    .inferred(q)
                    .iter()
                    .filter(|&&p| eligible[p.index()])
                    .map(|&p| not_covered[components.position_of(p)])
                    .sum::<f64>()
            };
            let mut heap: BinaryHeap<Entry> = cands
                .iter()
                .map(|&q| Entry { gain: gain_of(q, scratch), question: q, round: 0 })
                .collect();
            let mut touched: Vec<usize> = Vec::new();
            let mut sequence = Vec::with_capacity(cap.min(cands.len()));
            let mut round = 0usize;
            while sequence.len() < cap {
                let Some(top) = heap.pop() else { break };
                if top.gain <= 1e-12 {
                    break; // mirrors `select_questions` (Alg. 3 line 9)
                }
                if top.round < round {
                    let fresh = gain_of(top.question, scratch);
                    heap.push(Entry { gain: fresh, question: top.question, round });
                    continue;
                }
                let pq = priors[top.question.index()];
                for &p in inferred.inferred(top.question) {
                    if eligible[p.index()] {
                        let slot = components.position_of(p);
                        scratch[slot] *= 1.0 - pq;
                        touched.push(slot);
                    }
                }
                sequence.push(ScoredQuestion { question: top.question, score: top.gain });
                round += 1;
            }
            for t in touched {
                scratch[t] = 1.0;
            }
            sequence
        }
        BatchStrategy::MaxInf => {
            let mut scored: Vec<(usize, PairId)> = cands
                .iter()
                .map(|&q| {
                    let size =
                        inferred.inferred(q).iter().filter(|&&p| eligible[p.index()]).count();
                    (size, q)
                })
                .collect();
            scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            scored
                .into_iter()
                .take(cap)
                .map(|(size, q)| ScoredQuestion { question: q, score: size as f64 })
                .collect()
        }
        BatchStrategy::MaxPr => {
            let mut scored: Vec<(f64, PairId)> =
                cands.iter().map(|&q| (priors[q.index()], q)).collect();
            scored.sort_by(|a, b| {
                b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then_with(|| a.1.cmp(&b.1))
            });
            scored
                .into_iter()
                .take(cap)
                .map(|(score, q)| ScoredQuestion { question: q, score })
                .collect()
        }
    }
}

/// Head of one sequence during the k-way merge, ordered like the greedy
/// heap: larger score first, ties toward the smaller question id.
struct MergeHead {
    score: f64,
    question: PairId,
    sequence: usize,
    next: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.question == other.question
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.question.cmp(&self.question))
    }
}

/// Merges per-component selection sequences into the global batch of at
/// most `mu` questions — the same order [`select_batch`] produces over
/// the union of the components' members.
pub fn merge_sequences<'a>(
    sequences: impl IntoIterator<Item = &'a [ScoredQuestion]>,
    mu: usize,
) -> Vec<PairId> {
    let mut heap: BinaryHeap<MergeHead> = BinaryHeap::new();
    let sequences: Vec<&[ScoredQuestion]> = sequences.into_iter().collect();
    for (i, seq) in sequences.iter().enumerate() {
        if let Some(head) = seq.first() {
            heap.push(MergeHead {
                score: head.score,
                question: head.question,
                sequence: i,
                next: 1,
            });
        }
    }
    let mut selected = Vec::with_capacity(mu.min(sequences.iter().map(|s| s.len()).sum()));
    while selected.len() < mu {
        let Some(top) = heap.pop() else { break };
        selected.push(top.question);
        if let Some(entry) = sequences[top.sequence].get(top.next) {
            heap.push(MergeHead {
                score: entry.score,
                question: entry.question,
                sequence: top.sequence,
                next: top.next + 1,
            });
        }
    }
    selected
}

/// Per-component selection cache: sequences and reachability flags are
/// recomputed only for components explicitly invalidated (because an
/// answered batch touched them), everything else is reused loop to loop.
///
/// After the first refresh every operation costs what the invalidated
/// components and the non-empty sequences hold: invalidation queues the
/// component, a refresh rescores only the queue, and a selection merges
/// only the components whose sequence is non-empty — never a pass over
/// every component.
#[derive(Clone, Debug)]
pub struct ComponentSelector {
    cap: usize,
    num_components: usize,
    /// The non-empty cached sequences, by component; every other
    /// component's sequence is empty.
    sequences: BTreeMap<usize, Vec<ScoredQuestion>>,
    /// Components in which some eligible pair is propagation-reachable
    /// from another.
    reachable: BTreeSet<usize>,
    /// Components invalidated since the last refresh (may repeat).
    stale: Vec<usize>,
}

impl ComponentSelector {
    /// A selector over `num_components` components caching sequences of
    /// up to `cap` questions (the configured µ — a batch can never take
    /// more than µ questions from one component). Every component starts
    /// stale.
    pub fn new(num_components: usize, cap: usize) -> ComponentSelector {
        ComponentSelector {
            cap,
            num_components,
            sequences: BTreeMap::new(),
            reachable: BTreeSet::new(),
            stale: (0..num_components).collect(),
        }
    }

    /// Marks one component's cache stale.
    pub fn invalidate(&mut self, component: usize) {
        self.stale.push(component);
    }

    /// Marks every component stale (full rebuilds, strategy changes).
    pub fn invalidate_all(&mut self) {
        self.stale.clear();
        self.stale.extend(0..self.num_components);
    }

    /// Rescores every stale component (in parallel under `par`; retired
    /// components get empty sequences without being scanned).
    #[allow(clippy::too_many_arguments)]
    pub fn refresh(
        &mut self,
        strategy: BatchStrategy,
        components: &ComponentIndex,
        inferred: &InferredSets,
        priors: &[f64],
        eligible: &[bool],
        retired: &[bool],
        par: &Parallelism,
    ) {
        let mut stale = std::mem::take(&mut self.stale);
        stale.sort_unstable();
        stale.dedup();
        let width =
            stale.iter().filter(|&&c| !retired[c]).map(|&c| components.members(c).len()).max();
        let results: Vec<(Vec<ScoredQuestion>, bool)> = par.par_map_with(
            &stale,
            || vec![1.0f64; width.unwrap_or(0)],
            |scratch, &c| {
                if retired[c] {
                    return (Vec::new(), false);
                }
                let reachable = components.members(c).iter().any(|&q| {
                    eligible[q.index()]
                        && inferred.inferred(q).iter().any(|&p| p != q && eligible[p.index()])
                });
                let sequence = component_sequence(
                    strategy, components, c, inferred, priors, eligible, self.cap, scratch,
                );
                (sequence, reachable)
            },
        );
        for (&c, (sequence, reachable)) in stale.iter().zip(results) {
            if sequence.is_empty() {
                self.sequences.remove(&c);
            } else {
                self.sequences.insert(c, sequence);
            }
            if reachable {
                self.reachable.insert(c);
            } else {
                self.reachable.remove(&c);
            }
        }
        stale.clear();
        self.stale = stale;
    }

    /// The paper's stopping rule, component-sharded: `true` while some
    /// unresolved pair is propagation-reachable from another.
    pub fn any_reachable(&self) -> bool {
        debug_assert!(self.stale.is_empty(), "refresh before querying");
        !self.reachable.is_empty()
    }

    /// The next batch: the k-way merge of the non-empty cached sequences.
    pub fn select(&self, mu: usize) -> Vec<PairId> {
        debug_assert!(self.stale.is_empty(), "refresh before selecting");
        merge_sequences(self.sequences.values().map(Vec::as_slice), mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use remp_propagation::{inferred_sets_dijkstra, ProbErGraph};

    const SEQ: &Parallelism = &Parallelism::Sequential;
    const POOL: &Parallelism = &Parallelism::Fixed(3);

    /// Builds inferred sets from explicit probabilistic edges.
    fn sets(n: usize, edges: &[(u32, u32, f64)], tau: f64) -> InferredSets {
        let g =
            ProbErGraph::from_edges(n, edges.iter().map(|&(v, w, p)| (PairId(v), PairId(w), p)));
        inferred_sets_dijkstra(&g, tau, SEQ)
    }

    #[test]
    fn benefit_of_empty_set_is_zero() {
        let inf = sets(3, &[], 0.9);
        assert_eq!(benefit(&[], &inf, &[0.5; 3], &[true; 3]), 0.0);
    }

    #[test]
    fn benefit_counts_expected_inferences() {
        // q=0 infers {0,1,2} with prior 0.5 → benefit = 3 × 0.5.
        let inf = sets(3, &[(0, 1, 0.95), (0, 2, 0.95)], 0.9);
        let b = benefit(&[PairId(0)], &inf, &[0.5; 3], &[true; 3]);
        assert!((b - 1.5).abs() < 1e-9, "got {b}");
    }

    #[test]
    fn overlapping_questions_do_not_double_count() {
        // Both questions infer pair 2; prior 1.0 → benefit saturates at 3.
        let inf = sets(3, &[(0, 2, 0.95), (1, 2, 0.95)], 0.9);
        let b = benefit(&[PairId(0), PairId(1)], &inf, &[1.0; 3], &[true; 3]);
        assert!((b - 3.0).abs() < 1e-9, "got {b}");
    }

    #[test]
    fn resolved_pairs_do_not_count() {
        let inf = sets(3, &[(0, 1, 0.95), (0, 2, 0.95)], 0.9);
        let b = benefit(&[PairId(0)], &inf, &[0.5; 3], &[true, false, true]);
        assert!((b - 1.0).abs() < 1e-9, "only 2 eligible pairs count, got {b}");
    }

    #[test]
    fn greedy_prefers_high_coverage_high_probability() {
        // q0: infers 3 extra pairs, prior 0.9. q4: infers itself, prior 0.95.
        let inf = sets(5, &[(0, 1, 0.95), (0, 2, 0.95), (0, 3, 0.95)], 0.9);
        let priors = [0.9, 0.5, 0.5, 0.5, 0.95];
        let q = select_questions(&[PairId(0), PairId(4)], &inf, &priors, &[true; 5], 1, SEQ);
        assert_eq!(q, vec![PairId(0)]);
    }

    #[test]
    fn greedy_stops_on_zero_gain() {
        let inf = sets(2, &[], 0.9);
        let q = select_questions(&[PairId(0), PairId(1)], &inf, &[0.0, 0.0], &[true; 2], 5, SEQ);
        assert!(q.is_empty(), "zero-prior questions have zero gain");
    }

    #[test]
    fn greedy_scatters_over_components() {
        // Two disjoint 2-clusters: µ=2 should pick one question per cluster
        // rather than two from the same cluster.
        let inf = sets(4, &[(0, 1, 0.95), (2, 3, 0.95)], 0.9);
        let all = [PairId(0), PairId(1), PairId(2), PairId(3)];
        let q = select_questions(&all, &inf, &[0.8; 4], &[true; 4], 2, SEQ);
        assert_eq!(q.len(), 2);
        let comp = |p: PairId| p.index() / 2;
        assert_ne!(comp(q[0]), comp(q[1]), "questions should scatter: {q:?}");
    }

    #[test]
    fn max_inf_picks_biggest_set() {
        let inf = sets(4, &[(0, 1, 0.95), (0, 2, 0.95)], 0.9);
        let q = max_inf_questions(&[PairId(0), PairId(3)], &inf, &[true; 4], 1, SEQ);
        assert_eq!(q, vec![PairId(0)]);
    }

    #[test]
    fn max_pr_picks_highest_prior() {
        let q = max_pr_questions(&[PairId(0), PairId(1)], &[0.2, 0.9], 1);
        assert_eq!(q, vec![PairId(1)]);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [BatchStrategy::Benefit, BatchStrategy::MaxInf, BatchStrategy::MaxPr] {
            assert_eq!(BatchStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(BatchStrategy::from_name("bogus"), None);
        assert_eq!(BatchStrategy::default(), BatchStrategy::Benefit);
    }

    #[test]
    fn select_batch_dispatches_per_strategy() {
        // q0 has big inference power, q4 the highest prior.
        let inf = sets(5, &[(0, 1, 0.95), (0, 2, 0.95), (0, 3, 0.95)], 0.9);
        let priors = [0.6, 0.5, 0.5, 0.5, 0.95];
        let cands = [PairId(0), PairId(4)];
        let eligible = [true; 5];
        assert_eq!(
            select_batch(BatchStrategy::MaxInf, &cands, &inf, &priors, &eligible, 1, SEQ),
            vec![PairId(0)]
        );
        assert_eq!(
            select_batch(BatchStrategy::MaxPr, &cands, &inf, &priors, &eligible, 1, SEQ),
            vec![PairId(4)]
        );
        assert_eq!(
            select_batch(BatchStrategy::Benefit, &cands, &inf, &priors, &eligible, 1, SEQ),
            select_questions(&cands, &inf, &priors, &eligible, 1, SEQ)
        );
    }

    /// Union-find components of an undirected edge list — the coarsest
    /// partition inferred sets can interact across.
    fn components_of(n: usize, edges: &[(u32, u32, f64)]) -> ComponentIndex {
        let mut parent: Vec<usize> = (0..n).collect();
        fn root(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for &(a, b, _) in edges {
            let (ra, rb) = (root(&mut parent, a as usize), root(&mut parent, b as usize));
            parent[ra.max(rb)] = ra.min(rb);
        }
        let assignments: Vec<usize> = (0..n).map(|v| root(&mut parent, v)).collect();
        ComponentIndex::from_assignments(&assignments)
    }

    #[test]
    fn component_selection_matches_global_on_fixture() {
        // Two disjoint clusters plus a loner; every strategy must merge
        // back to exactly the global selection.
        let edges = [(0, 1, 0.95), (1, 2, 0.92), (3, 4, 0.97)];
        let inf = sets(6, &edges, 0.9);
        let index = components_of(6, &edges);
        let priors = [0.8, 0.3, 0.55, 0.9, 0.2, 0.7];
        let eligible = [true, true, false, true, true, true];
        let cands: Vec<PairId> = (0..6).map(PairId).filter(|&p| eligible[p.index()]).collect();
        for strategy in [BatchStrategy::Benefit, BatchStrategy::MaxInf, BatchStrategy::MaxPr] {
            for mu in 1..=4 {
                let global = select_batch(strategy, &cands, &inf, &priors, &eligible, mu, SEQ);
                let mut selector = ComponentSelector::new(index.len(), 4);
                selector.refresh(
                    strategy,
                    &index,
                    &inf,
                    &priors,
                    &eligible,
                    &vec![false; index.len()],
                    POOL,
                );
                assert_eq!(selector.select(mu), global, "{strategy:?} µ={mu}");
            }
        }
    }

    #[test]
    fn selector_caches_survive_unrelated_invalidation() {
        let edges = [(0, 1, 0.95), (2, 3, 0.95)];
        let inf = sets(4, &edges, 0.9);
        let index = components_of(4, &edges);
        let priors = [0.8; 4];
        let mut eligible = vec![true; 4];
        let retired = vec![false; index.len()];
        let mut selector = ComponentSelector::new(index.len(), 2);
        selector.refresh(BatchStrategy::Benefit, &index, &inf, &priors, &eligible, &retired, SEQ);
        assert!(selector.any_reachable());
        let before = selector.select(4);

        // Resolving pair 2 only invalidates its own component; the other
        // component's cached sequence must still be used and the merged
        // batch must equal a fully recomputed selection.
        eligible[2] = false;
        selector.invalidate(index.component_of(PairId(2)));
        selector.refresh(BatchStrategy::Benefit, &index, &inf, &priors, &eligible, &retired, SEQ);
        let after = selector.select(4);
        let cands: Vec<PairId> = (0..4).map(PairId).filter(|&p| eligible[p.index()]).collect();
        assert_eq!(
            after,
            select_batch(BatchStrategy::Benefit, &cands, &inf, &priors, &eligible, 4, SEQ)
        );
        assert_ne!(before, after);
    }

    #[test]
    fn retired_components_are_skipped() {
        let edges = [(0, 1, 0.95), (2, 3, 0.95)];
        let inf = sets(4, &edges, 0.9);
        let index = components_of(4, &edges);
        let eligible = [true, true, false, false];
        let mut retired = vec![false; index.len()];
        retired[index.component_of(PairId(2))] = true;
        let mut selector = ComponentSelector::new(index.len(), 2);
        selector.refresh(BatchStrategy::Benefit, &index, &inf, &[0.8; 4], &eligible, &retired, SEQ);
        let selected = selector.select(4);
        assert!(
            selected.iter().all(|&q| q.index() < 2),
            "retired pairs never selected: {selected:?}"
        );
        assert!(selector.any_reachable());
    }

    #[test]
    fn merge_sequences_respects_order_and_ties() {
        let seq = |entries: &[(u32, f64)]| -> Vec<ScoredQuestion> {
            entries.iter().map(|&(q, s)| ScoredQuestion { question: PairId(q), score: s }).collect()
        };
        let a = seq(&[(4, 3.0), (0, 1.0)]);
        let b = seq(&[(2, 3.0), (5, 2.0)]);
        // Equal top scores: the smaller question id goes first.
        let merged = merge_sequences([a.as_slice(), b.as_slice()], 10);
        assert_eq!(merged, vec![PairId(2), PairId(4), PairId(5), PairId(0)]);
        assert_eq!(merge_sequences([a.as_slice(), b.as_slice()], 2).len(), 2);
        assert!(merge_sequences(std::iter::empty(), 3).is_empty());
    }

    fn arb_instance() -> impl Strategy<Value = (InferredSets, Vec<f64>, Vec<PairId>)> {
        let edges = proptest::collection::vec((0u32..6, 0u32..6, 0.85f64..1.0), 0..18);
        let priors = proptest::collection::vec(0.0f64..1.0, 6);
        (edges, priors).prop_map(|(edges, priors)| {
            let inf = sets(6, &edges, 0.8);
            let cands: Vec<PairId> = (0..6).map(PairId).collect();
            (inf, priors, cands)
        })
    }

    /// Refreshes `selector` (retiring components with no eligible member)
    /// and checks its µ-batch and stopping rule against a fresh selector
    /// with every component invalidated, and the batch against the
    /// global [`select_batch`] over the eligible pairs.
    fn check_against_fresh(
        selector: &mut ComponentSelector,
        strategy: BatchStrategy,
        index: &ComponentIndex,
        inf: &InferredSets,
        priors: &[f64],
        eligible: &[bool],
        mu: usize,
    ) -> Result<(), proptest::TestCaseError> {
        let retired: Vec<bool> =
            index.iter().map(|(_, members)| members.iter().all(|p| !eligible[p.index()])).collect();
        selector.refresh(strategy, index, inf, priors, eligible, &retired, POOL);
        let mut fresh = ComponentSelector::new(index.len(), 5);
        fresh.invalidate_all();
        fresh.refresh(strategy, index, inf, priors, eligible, &retired, SEQ);
        let got = selector.select(mu);
        prop_assert_eq!(&got, &fresh.select(mu));
        prop_assert_eq!(selector.any_reachable(), fresh.any_reachable());
        let cands: Vec<PairId> =
            (0..eligible.len()).map(PairId::from_index).filter(|p| eligible[p.index()]).collect();
        prop_assert_eq!(got, select_batch(strategy, &cands, inf, priors, eligible, mu, SEQ));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Monotonicity: adding a question never lowers the benefit.
        #[test]
        fn benefit_is_monotone((inf, priors, cands) in arb_instance(), extra in 0usize..6) {
            let eligible = vec![true; 6];
            let some: Vec<PairId> = cands.iter().copied().take(3).collect();
            let b1 = benefit(&some, &inf, &priors, &eligible);
            let mut more = some.clone();
            more.push(cands[extra]);
            let b2 = benefit(&more, &inf, &priors, &eligible);
            prop_assert!(b2 >= b1 - 1e-9);
        }

        /// Submodularity: marginal gains shrink as the set grows.
        #[test]
        fn benefit_is_submodular((inf, priors, cands) in arb_instance(), q in 0usize..6) {
            let eligible = vec![true; 6];
            let small: Vec<PairId> = cands.iter().copied().take(2).collect();
            let large: Vec<PairId> = cands.iter().copied().take(4).collect();
            let q = cands[q];
            if large.contains(&q) {
                return Ok(());
            }
            let gain_small = benefit(&[small.clone(), vec![q]].concat(), &inf, &priors, &eligible)
                - benefit(&small, &inf, &priors, &eligible);
            let gain_large = benefit(&[large.clone(), vec![q]].concat(), &inf, &priors, &eligible)
                - benefit(&large, &inf, &priors, &eligible);
            prop_assert!(gain_small >= gain_large - 1e-9);
        }

        /// The lazy greedy and the naive greedy select identical sets.
        #[test]
        fn lazy_equals_naive((inf, priors, cands) in arb_instance(), mu in 1usize..5) {
            let eligible = vec![true; 6];
            let lazy = select_questions(&cands, &inf, &priors, &eligible, mu, POOL);
            let naive = select_questions_naive(&cands, &inf, &priors, &eligible, mu);
            prop_assert_eq!(lazy, naive);
        }

        /// Component-sharded selection merges back to exactly the global
        /// selection — order included — for every strategy, any µ, any
        /// eligibility pattern. This is the decomposition the incremental
        /// pipeline rests on.
        #[test]
        fn component_merge_equals_global(
            edges in proptest::collection::vec((0u32..8, 0u32..8, 0.82f64..1.0), 0..24),
            priors in proptest::collection::vec(0.0f64..1.0, 8),
            eligible in proptest::collection::vec(proptest::bool::ANY, 8),
            mu in 1usize..6,
            strategy_pick in 0usize..3,
        ) {
            let strategy =
                [BatchStrategy::Benefit, BatchStrategy::MaxInf, BatchStrategy::MaxPr][strategy_pick];
            let inf = sets(8, &edges, 0.8);
            let index = components_of(8, &edges);
            let cands: Vec<PairId> = (0..8).map(PairId).filter(|&p| eligible[p.index()]).collect();
            let global = select_batch(strategy, &cands, &inf, &priors, &eligible, mu, SEQ);
            let mut selector = ComponentSelector::new(index.len(), mu);
            selector.refresh(strategy, &index, &inf, &priors, &eligible, &vec![false; index.len()], POOL);
            prop_assert_eq!(selector.select(mu), global);
        }

        /// The selector's incremental bookkeeping — the queue of stale
        /// components, the set of non-empty sequences, the reachable set —
        /// stays exact under any interleaving of invalidations, refreshes
        /// and selections: priors that empty a component's sequence and
        /// later refill it, pairs that resolve until their component
        /// retires, and invalidations of untouched components. Every
        /// selection equals both a fresh selector and the global greedy.
        #[test]
        fn selector_bookkeeping_matches_fresh_selection(
            edges in proptest::collection::vec((0u32..8, 0u32..8, 0.82f64..1.0), 0..16),
            priors in proptest::collection::vec(0.0f64..1.0, 8),
            ops in proptest::collection::vec((0u8..4, 0usize..8, 0.0f64..1.0), 1..40),
            strategy_pick in 0usize..3,
        ) {
            let strategy =
                [BatchStrategy::Benefit, BatchStrategy::MaxInf, BatchStrategy::MaxPr][strategy_pick];
            let inf = sets(8, &edges, 0.8);
            let index = components_of(8, &edges);
            let mut priors = priors;
            let mut eligible = vec![true; 8];
            let mut selector = ComponentSelector::new(index.len(), 5);
            for (kind, pair, x) in ops {
                let c = index.component_of(PairId::from_index(pair));
                match kind {
                    0 => {
                        eligible[pair] = false;
                        selector.invalidate(c);
                    }
                    1 => {
                        // A zero prior empties a component's benefit
                        // sequence; a later non-zero one refills it.
                        priors[pair] = if x < 0.3 { 0.0 } else { x };
                        selector.invalidate(c);
                    }
                    2 => selector.invalidate(c),
                    _ => check_against_fresh(
                        &mut selector, strategy, &index, &inf, &priors, &eligible, 1 + pair % 5,
                    )?,
                }
            }
            check_against_fresh(&mut selector, strategy, &index, &inf, &priors, &eligible, 5)?;
        }

        /// Greedy achieves ≥ (1 − 1/e) of the brute-force optimum.
        #[test]
        fn greedy_approximation_bound((inf, priors, cands) in arb_instance(), mu in 1usize..4) {
            let eligible = vec![true; 6];
            let greedy = select_questions(&cands, &inf, &priors, &eligible, mu, SEQ);
            let greedy_benefit = benefit(&greedy, &inf, &priors, &eligible);
            // Brute force over all subsets of size ≤ mu.
            let mut best = 0.0f64;
            let m = cands.len();
            for mask in 0u32..(1 << m) {
                if (mask.count_ones() as usize) > mu {
                    continue;
                }
                let subset: Vec<PairId> =
                    (0..m).filter(|i| mask & (1 << i) != 0).map(|i| cands[i]).collect();
                best = best.max(benefit(&subset, &inf, &priors, &eligible));
            }
            prop_assert!(greedy_benefit >= (1.0 - 1.0 / std::f64::consts::E) * best - 1e-9,
                "greedy {} vs opt {}", greedy_benefit, best);
        }
    }
}
