//! Candidate entity-match generation (paper §IV-B) and initial matches
//! (§IV-C).
//!
//! Storage is the dense-id layout described in `crates/ergraph/LAYOUT.md`:
//! pairs live as packed `u64` keys, the per-entity adjacency is CSR built
//! once per construction, and the only remaining map (packed pair → id)
//! uses the deterministic [`remp_kb::IdHasher`].

use remp_kb::{EntityId, IdHashMap, Kb, PackedPair};
use remp_par::Parallelism;
use remp_simil::{jaccard_ids, normalize_tokens, SimVec, TokenSet};

use crate::PairId;

/// Sorted CSR adjacency from dense entity ids to the pair ids containing
/// them: `slice(e)` is `adj[offsets[e] .. offsets[e+1]]`.
///
/// Rows are filled in ascending pair-id order, which is exactly the old
/// per-entity `Vec` insertion order — `with_left`/`with_right` return
/// byte-identical slices to the pre-CSR `HashMap<EntityId, Vec<PairId>>`
/// layout, just from one contiguous allocation.
#[derive(Clone, Debug, Default)]
struct CsrIndex {
    offsets: Vec<u32>,
    adj: Vec<PairId>,
}

impl CsrIndex {
    /// Builds the index over `pairs`, keying each pair by `side(pair)`.
    fn build(pairs: &[PackedPair], side: impl Fn(PackedPair) -> EntityId) -> Self {
        let slots = pairs.iter().map(|&p| side(p).index() + 1).max().unwrap_or(0);
        // offsets[e + 1] first accumulates the count for entity e…
        let mut offsets = vec![0u32; slots + 1];
        for &p in pairs {
            offsets[side(p).index() + 1] += 1;
        }
        // …then the prefix sum turns counts into row starts.
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..slots].to_vec();
        let mut adj = vec![PairId(0); pairs.len()];
        for (i, &p) in pairs.iter().enumerate() {
            let slot = side(p).index();
            adj[cursor[slot] as usize] = PairId::from_index(i);
            cursor[slot] += 1;
        }
        CsrIndex { offsets, adj }
    }

    /// The pair ids stored under entity `e` (empty for out-of-range ids).
    #[inline]
    fn slice(&self, e: EntityId) -> &[PairId] {
        let i = e.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The candidate entity match set `M_c` with prior match probabilities.
///
/// Vertices of the (un-pruned) ER graph. Label similarities double as prior
/// probabilities `Pr[m_p]` as in the paper ("we use the label similarities
/// as prior match probabilities").
#[derive(Clone, Debug)]
pub struct Candidates {
    pairs: Vec<PackedPair>,
    priors: Vec<f64>,
    index: IdHashMap<PackedPair, PairId>,
    by_left: CsrIndex,
    by_right: CsrIndex,
}

impl Candidates {
    /// Builds a candidate set from explicit `(pair, prior)` entries.
    ///
    /// Duplicated pairs keep their first prior.
    pub fn from_pairs(entries: impl IntoIterator<Item = ((EntityId, EntityId), f64)>) -> Self {
        let mut pairs: Vec<PackedPair> = Vec::new();
        let mut priors: Vec<f64> = Vec::new();
        let mut index: IdHashMap<PackedPair, PairId> = IdHashMap::default();
        for (pair, prior) in entries {
            let key = PackedPair::from(pair);
            index.entry(key).or_insert_with(|| {
                let id = PairId::from_index(pairs.len());
                pairs.push(key);
                priors.push(prior.clamp(0.0, 1.0));
                id
            });
        }
        Self::finish(pairs, priors, index)
    }

    /// Freezes the builder state: one CSR build per side, done exactly
    /// once per construction (candidate sets are immutable afterwards
    /// except for prior updates).
    fn finish(
        pairs: Vec<PackedPair>,
        priors: Vec<f64>,
        index: IdHashMap<PackedPair, PairId>,
    ) -> Self {
        let by_left = CsrIndex::build(&pairs, PackedPair::left);
        let by_right = CsrIndex::build(&pairs, PackedPair::right);
        Candidates { pairs, priors, index, by_left, by_right }
    }

    /// Number of candidate pairs `|M_c|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The entity pair behind `id`.
    pub fn pair(&self, id: PairId) -> (EntityId, EntityId) {
        self.pairs[id.index()].unpack()
    }

    /// Prior match probability `Pr[m_p]`.
    pub fn prior(&self, id: PairId) -> f64 {
        self.priors[id.index()]
    }

    /// All priors, indexed by pair id — the live slice, so per-loop
    /// consumers (question selection, the incremental engine) never need
    /// to materialise their own copy.
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// Overwrites the prior of `id` (used by truth inference to downdate
    /// hard questions, §VII-A).
    pub fn set_prior(&mut self, id: PairId, prior: f64) {
        self.priors[id.index()] = prior.clamp(0.0, 1.0);
    }

    /// Looks up the id of an entity pair.
    pub fn id_of(&self, pair: (EntityId, EntityId)) -> Option<PairId> {
        self.index.get(&PackedPair::from(pair)).copied()
    }

    /// All candidate ids containing `u1` on the left (KB1) side.
    pub fn with_left(&self, u1: EntityId) -> &[PairId] {
        self.by_left.slice(u1)
    }

    /// All candidate ids containing `u2` on the right (KB2) side.
    pub fn with_right(&self, u2: EntityId) -> &[PairId] {
        self.by_right.slice(u2)
    }

    /// Number of dense left-entity slots the CSR index covers (one past
    /// the highest KB1 entity id appearing in any pair). Consumers that
    /// bucket pairs by entity (pruning) size their own dense arrays with
    /// this instead of re-scanning for the maximum.
    pub fn left_slots(&self) -> usize {
        self.by_left.offsets.len() - 1
    }

    /// Number of dense right-entity slots the CSR index covers.
    pub fn right_slots(&self) -> usize {
        self.by_right.offsets.len() - 1
    }

    /// Iterates over all `(id, pair)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (PairId, (EntityId, EntityId))> + '_ {
        self.pairs.iter().enumerate().map(|(i, &p)| (PairId::from_index(i), p.unpack()))
    }

    /// All pair ids.
    pub fn ids(&self) -> impl Iterator<Item = PairId> {
        (0..self.pairs.len()).map(PairId::from_index)
    }

    /// Restricts the candidate set to `keep`, preserving order and priors.
    /// Returns the new set together with the old→new id mapping.
    ///
    /// Everything is preallocated at `keep.len()` — the result has
    /// exactly that many pairs (fewer only if `keep` repeats ids).
    pub fn restrict(&self, keep: &[PairId]) -> (Candidates, IdHashMap<PairId, PairId>) {
        let mut mapping: IdHashMap<PairId, PairId> =
            IdHashMap::with_capacity_and_hasher(keep.len(), Default::default());
        let mut pairs: Vec<PackedPair> = Vec::with_capacity(keep.len());
        let mut priors: Vec<f64> = Vec::with_capacity(keep.len());
        let mut index: IdHashMap<PackedPair, PairId> =
            IdHashMap::with_capacity_and_hasher(keep.len(), Default::default());
        for &old in keep {
            let key = self.pairs[old.index()];
            let new = *index.entry(key).or_insert_with(|| {
                let id = PairId::from_index(pairs.len());
                pairs.push(key);
                priors.push(self.priors[old.index()]);
                id
            });
            mapping.insert(old, new);
        }
        (Self::finish(pairs, priors, index), mapping)
    }

    /// [`restrict`](Self::restrict), carrying each kept pair's similarity
    /// vector (`vectors` is indexed by this set's ids) to its new id.
    pub fn restrict_with_vectors(
        &self,
        keep: &[PairId],
        vectors: &[SimVec],
    ) -> (Candidates, Vec<SimVec>, IdHashMap<PairId, PairId>) {
        let (restricted, mapping) = self.restrict(keep);
        let mut kept = vec![SimVec::new(Vec::new()); restricted.len()];
        for &old in keep {
            kept[mapping[&old].index()] = vectors[old.index()].clone();
        }
        (restricted, kept, mapping)
    }
}

/// Generates the candidate entity match set `M_c` (paper §IV-B).
///
/// Labels are normalised ([`normalize_tokens`]); a token-to-entity inverted
/// index over the smaller KB blocks the comparison space to pairs sharing
/// at least one token; surviving pairs keep a Jaccard similarity ≥
/// `threshold` (0.3 in the paper), which becomes the prior `Pr[m_p]`.
///
/// Internally every token is interned against the lexicographically
/// sorted token universe of both KBs, so the block scans and Jaccard
/// computations run over sorted `u32` slices instead of string sets —
/// same counts, same `f64` sims, no string hashing or comparison in the
/// per-pair loop.
///
/// Tokenisation and the per-KB1-entity block scans are data-parallel under
/// `par`; the output is identical for every [`Parallelism`] mode (entries
/// stay in KB1-entity order).
pub fn generate_candidates(kb1: &Kb, kb2: &Kb, threshold: f64, par: &Parallelism) -> Candidates {
    let ids1: Vec<EntityId> = kb1.entities().collect();
    let ids2: Vec<EntityId> = kb2.entities().collect();
    let tokens1: Vec<TokenSet> = par.par_map(&ids1, |&u| normalize_tokens(kb1.label(u)));
    let tokens2: Vec<TokenSet> = par.par_map(&ids2, |&u| normalize_tokens(kb2.label(u)));

    // The shared token universe, sorted: interning is monotone, so each
    // entity's id list (from a sorted TokenSet) is itself sorted and
    // ascending-id iteration order equals lexicographic token order —
    // the candidate emission order is unchanged from the string layout.
    let mut universe: Vec<&str> =
        tokens1.iter().chain(&tokens2).flatten().map(String::as_str).collect();
    universe.sort_unstable();
    universe.dedup();
    let intern = |ts: &TokenSet| -> Vec<u32> {
        ts.iter()
            .map(|t| universe.binary_search(&t.as_str()).expect("in universe") as u32)
            .collect()
    };
    let toks1: Vec<Vec<u32>> = par.par_map(&ids1, |&u| intern(&tokens1[u.index()]));
    let toks2: Vec<Vec<u32>> = par.par_map(&ids2, |&u| intern(&tokens2[u.index()]));

    // Inverted index over KB2 token ids — dense by token id, entities in
    // ascending KB2 order per row.
    let mut inv: Vec<Vec<EntityId>> = vec![Vec::new(); universe.len()];
    for &u2 in &ids2 {
        for &t in &toks2[u2.index()] {
            inv[t as usize].push(u2);
        }
    }

    // `seen` marks KB2 entities already scored for the current u1 — the
    // marker is u1's id, so a per-worker buffer never needs resetting
    // between entities and stale markers from other chunks cannot alias.
    let per_entity: Vec<Vec<((EntityId, EntityId), f64)>> = par.par_map_with(
        &ids1,
        || vec![u32::MAX; kb2.num_entities()],
        |seen, &u1| {
            let ts1 = &toks1[u1.index()];
            let mut entries: Vec<((EntityId, EntityId), f64)> = Vec::new();
            for &t in ts1 {
                for &u2 in &inv[t as usize] {
                    if seen[u2.index()] == u1.0 {
                        continue; // already scored for this u1
                    }
                    seen[u2.index()] = u1.0;
                    let sim = jaccard_ids(ts1, &toks2[u2.index()]);
                    if sim >= threshold {
                        entries.push(((u1, u2), sim));
                    }
                }
            }
            entries
        },
    );
    Candidates::from_pairs(per_entity.into_iter().flatten())
}

/// Extracts the initial entity matches `M_in` (paper §IV-C): candidates
/// whose entities have *exactly* the same label, used as a priori knowledge
/// for attribute/relationship matching (never added to final results
/// directly, as they may contain errors).
pub fn initial_matches(kb1: &Kb, kb2: &Kb, candidates: &Candidates) -> Vec<PairId> {
    candidates
        .iter()
        .filter(|&(_, (u1, u2))| kb1.label(u1) == kb2.label(u2))
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_kb::KbBuilder;

    fn kb(name: &str, labels: &[&str]) -> Kb {
        let mut b = KbBuilder::new(name);
        for l in labels {
            b.add_entity(*l);
        }
        b.finish()
    }

    #[test]
    fn generates_pairs_over_threshold() {
        let kb1 = kb("a", &["The Player", "Cradle Will Rock", "Unrelated Thing"]);
        let kb2 = kb("b", &["Player", "Cradle Will Rock", "Something Else"]);
        let c = generate_candidates(&kb1, &kb2, 0.3, &Parallelism::Sequential);
        assert!(c.id_of((EntityId(0), EntityId(0))).is_some(), "player pair kept");
        assert!(c.id_of((EntityId(1), EntityId(1))).is_some(), "cradle pair kept");
        assert!(c.id_of((EntityId(2), EntityId(2))).is_none(), "dissimilar pair dropped");
    }

    #[test]
    fn prior_equals_label_jaccard() {
        let kb1 = kb("a", &["alpha beta"]);
        let kb2 = kb("b", &["alpha gamma"]);
        let c = generate_candidates(&kb1, &kb2, 0.1, &Parallelism::Sequential);
        let id = c.id_of((EntityId(0), EntityId(0))).unwrap();
        assert!((c.prior(id) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_duplicate_pairs_from_shared_tokens() {
        // "alpha beta" shares two tokens with "alpha beta": the pair must
        // appear exactly once.
        let kb1 = kb("a", &["alpha beta"]);
        let kb2 = kb("b", &["alpha beta"]);
        let c = generate_candidates(&kb1, &kb2, 0.1, &Parallelism::Sequential);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn initial_matches_require_exact_labels() {
        let kb1 = kb("a", &["Exact Same", "Close Match"]);
        let kb2 = kb("b", &["Exact Same", "Close  Match"]);
        let c = generate_candidates(&kb1, &kb2, 0.3, &Parallelism::Sequential);
        let init = initial_matches(&kb1, &kb2, &c);
        assert_eq!(init.len(), 1);
        assert_eq!(c.pair(init[0]), (EntityId(0), EntityId(0)));
    }

    #[test]
    fn blocks_index_both_sides() {
        let kb1 = kb("a", &["x y", "x z"]);
        let kb2 = kb("b", &["x y"]);
        let c = generate_candidates(&kb1, &kb2, 0.1, &Parallelism::Sequential);
        assert_eq!(c.with_left(EntityId(0)).len(), 1);
        assert_eq!(c.with_right(EntityId(0)).len(), 2);
    }

    #[test]
    fn csr_slices_match_insertion_order() {
        // Pairs inserted out of entity order: per-entity CSR rows must
        // still list pair ids in ascending insertion order, and ids past
        // the densest slot must come back empty, not panic.
        let e = EntityId;
        let c = Candidates::from_pairs([
            ((e(5), e(0)), 0.5),
            ((e(1), e(3)), 0.4),
            ((e(5), e(2)), 0.3),
            ((e(1), e(0)), 0.2),
        ]);
        let ids: Vec<PairId> = c.ids().collect();
        assert_eq!(c.with_left(e(5)), &[ids[0], ids[2]]);
        assert_eq!(c.with_left(e(1)), &[ids[1], ids[3]]);
        assert_eq!(c.with_right(e(0)), &[ids[0], ids[3]]);
        assert_eq!(c.with_left(e(0)), &[] as &[PairId]);
        assert_eq!(c.with_left(e(700)), &[] as &[PairId]);
        assert_eq!(c.with_right(e(700)), &[] as &[PairId]);
        assert_eq!(c.left_slots(), 6);
        assert_eq!(c.right_slots(), 4);
    }

    #[test]
    fn restrict_preserves_priors() {
        let kb1 = kb("a", &["a b", "a c"]);
        let kb2 = kb("b", &["a b", "a c"]);
        let c = generate_candidates(&kb1, &kb2, 0.1, &Parallelism::Sequential);
        let keep: Vec<_> = c.ids().take(2).collect();
        let (r, map) = c.restrict(&keep);
        assert_eq!(r.len(), 2);
        for &old in &keep {
            let new = map[&old];
            assert_eq!(r.pair(new), c.pair(old));
            assert_eq!(r.prior(new), c.prior(old));
        }
    }

    #[test]
    fn restrict_rebuilds_csr() {
        let e = EntityId;
        let c =
            Candidates::from_pairs([((e(0), e(0)), 0.9), ((e(0), e(1)), 0.8), ((e(1), e(1)), 0.7)]);
        let drop_middle: Vec<PairId> = c.ids().filter(|&p| c.pair(p) != (e(0), e(1))).collect();
        let (r, _) = c.restrict(&drop_middle);
        assert_eq!(r.len(), 2);
        assert_eq!(r.with_left(e(0)).len(), 1);
        assert_eq!(r.with_right(e(1)).len(), 1);
        assert_eq!(r.id_of((e(0), e(1))), None);
    }

    #[test]
    fn set_prior_clamps() {
        let kb1 = kb("a", &["a"]);
        let kb2 = kb("b", &["a"]);
        let mut c = generate_candidates(&kb1, &kb2, 0.1, &Parallelism::Sequential);
        let id = c.ids().next().unwrap();
        c.set_prior(id, 1.5);
        assert_eq!(c.prior(id), 1.0);
    }
}
