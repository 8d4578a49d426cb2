//! The iterative, allocation-free search cores: [`IterCore`] for
//! unit-demand specs, and its word-parallel λ-fold sibling
//! [`LaneCore`] over packed 2-bit residual lanes.
//!
//! This is the engine behind [`crate::bnb::budget_search`] on every
//! unit-demand instance: the same branch & bound the recursive
//! [`crate::bnb`] reference runs — identical branch order, candidate
//! scoring, dominance and orbit filtering, hence **identical node counts
//! when the memo is off** — rebuilt so a search node costs near-zero
//! bookkeeping:
//!
//! * **Explicit stack, depth-indexed arenas.** Recursion becomes a loop
//!   over per-depth [`Frame`]s whose candidate/score buffers are reused
//!   across every node at that depth; dominance masks live in one arena
//!   pre-sized from [`TileUniverse::max_candidates`]. After warm-up no
//!   search node allocates.
//! * **Incremental bound ingredients.** Residual distance, the
//!   uncovered-diameter count, and per-vertex uncovered degrees (with
//!   the odd-degree population the parity/T-join bound needs) are
//!   maintained on place/unplace — O(changed chords) per node — so the
//!   per-node vertex-degree bound drops from `n` mask intersections to
//!   an `n`-entry array scan and [`parity_join_bound_from_odd`] runs in
//!   constant time at every depth. (A per-tile useful-load array was
//!   measured too: updating every affected tile per placement cost ~2×
//!   what recomputing loads at scoring time does, so scoring recomputes
//!   — the memo, not array plumbing, is where the nodes go.)
//! * **Residual-state dominance memo.** See [`crate::memo`]: nodes whose
//!   uncovered set was already exhausted with an equal-or-better budget
//!   are pruned. Under [`SymmetryMode::Full`] the memo keys by the
//!   *canonical* (lexicographically smallest) dihedral image of the
//!   residual state, and sibling filtering upgrades from the pointwise
//!   to the **setwise** prefix stabilizer — the ROADMAP's
//!   canonical-prefix reduction, in the two places it is sound.
//!
//! Dominance subset tests and scratch recycling touch only the words a
//! tile's mask spans ([`TileUniverse::tile_mask_span`]) instead of the
//! full chord width. The frame arena, the [`Dominance`] filter, the
//! [`live_coverage`] scorer and the lane residual [`LaneState`] are
//! shared with the partition kernel in [`crate::dlx`]; node accounting,
//! orbit filtering and the parallel driver live in `crate::harness`.

use crate::api::Exhaustion;
use crate::bitset::{ChordSet, LaneSet, LANES_PER_WORD, LANE_LOW};
use crate::bnb::{CoverSpec, Outcome, RunLimits, Stats, SymmetryMode};
use crate::harness::{conclude, FrontierCore, NodeMeter, OrbitFilter, Search};
use crate::lower_bound::{diameter_slack_bound, parity_join_bound_from_odd};
use crate::memo::{MemoStore, KEY_WORDS};
use crate::TileUniverse;

/// Per-depth iteration state: the node's filtered candidate list, the
/// cursor into it, and the memo key captured at entry (recorded if the
/// node exhausts). Buffers are reused by every node at this depth.
#[derive(Default)]
pub(crate) struct Frame {
    /// `(tile, new coverage, waste)` scoring scratch.
    pub(crate) scored: Vec<(u32, u32, u32)>,
    /// Candidates surviving dominance + orbit filtering, in order.
    pub(crate) cands: Vec<u32>,
    /// Next unexplored candidate.
    pub(crate) cursor: usize,
    /// Residual-state key/hash at node entry (memo bookkeeping).
    pub(crate) key: [u64; KEY_WORDS],
    pub(crate) hash: u64,
    /// Whether the node may be recorded on exhaust.
    pub(crate) memoable: bool,
}

impl Frame {
    /// The frame for `depth`, growing the arena as needed (parallel
    /// workers enter at their prefix depth, so it may leap several
    /// levels at once), with its buffers taken out for refilling.
    pub(crate) fn take(frames: &mut Vec<Frame>, depth: usize) -> (Vec<(u32, u32, u32)>, Vec<u32>) {
        while frames.len() <= depth {
            frames.push(Frame::default());
        }
        let mut scored = std::mem::take(&mut frames[depth].scored);
        let mut cands = std::mem::take(&mut frames[depth].cands);
        scored.clear();
        cands.clear();
        (scored, cands)
    }
}

/// What happened when the loop entered a node.
pub(crate) enum Enter {
    /// Demand satisfied — the placed prefix is a covering.
    Solved,
    /// A resource limit tripped; the whole search stops.
    Abort,
    /// Bound- or memo-pruned; backtrack.
    Dead,
    /// Candidates are staged in the depth's frame.
    Ready,
}

/// `(chords of live, distance of those chords)` tile `t` would cover —
/// the scoring sweep over the words its mask spans.
#[inline]
pub(crate) fn live_coverage(u: &TileUniverse, live: &ChordSet, t: u32) -> (u32, u32) {
    let (lo, hi) = u.tile_mask_span(t);
    let mut cov = 0u32;
    let mut useful = 0u32;
    for (wi, (a, b)) in u.tile_mask(t)[lo as usize..hi as usize]
        .iter()
        .zip(&live.words()[lo as usize..hi as usize])
        .enumerate()
    {
        let mut w = a & b;
        cov += w.count_ones();
        while w != 0 {
            let i = (lo + wi as u32) * 64 + w.trailing_zeros();
            useful += u.dist_of_pri(i);
            w &= w - 1;
        }
    }
    (cov, useful)
}

/// The subset-dominance arena (slot = candidate position in the node),
/// pre-sized from [`TileUniverse::max_candidates`].
pub(crate) struct Dominance {
    masks: Vec<ChordSet>,
    /// Word span each slot was last written in (so retiring a slot
    /// clears only those words).
    spans: Vec<(u32, u32)>,
}

impl Dominance {
    pub(crate) fn new(u: &TileUniverse) -> Self {
        let max_cands = u.max_candidates() as usize;
        Dominance {
            masks: (0..max_cands)
                .map(|_| ChordSet::empty(u.num_chords()))
                .collect(),
            spans: vec![(0, 0); max_cands],
        }
    }

    /// Appends the sorted `scored` candidates to `cands`, dropping each
    /// whose live coverage is a subset of an earlier one's (sorting put
    /// dominators first; ties keep the first occurrence). Mask writes and
    /// subset tests touch only each tile's word span.
    pub(crate) fn filter(
        &mut self,
        u: &TileUniverse,
        live: &ChordSet,
        scored: &[(u32, u32, u32)],
        cands: &mut Vec<u32>,
        stats: &mut Stats,
    ) {
        debug_assert!(
            scored.len() <= self.masks.len(),
            "arena sized from max_candidates"
        );
        if scored.len() <= 1 {
            cands.extend(scored.iter().map(|&(t, _, _)| t));
            return;
        }
        for (slot, &(t, _, _)) in scored.iter().enumerate() {
            let (lo, hi) = u.tile_mask_span(t);
            let (plo, phi) = self.spans[slot];
            self.masks[slot].clear_words(plo as usize, phi as usize);
            self.masks[slot].assign_intersection_in(u.tile_mask(t), live, lo as usize, hi as usize);
            self.spans[slot] = (lo, hi);
        }
        for (i, &(t, _, _)) in scored.iter().enumerate() {
            if i > 0 {
                let (lo, hi) = u.tile_mask_span(t);
                let (earlier, rest) = self.masks.split_at(i);
                let mask_i = &rest[0];
                if earlier
                    .iter()
                    .any(|prior| mask_i.is_subset_of_in(prior, lo as usize, hi as usize))
                {
                    stats.dominated += 1;
                    continue;
                }
            }
            cands.push(t);
        }
    }
}

/// The iterative search over one budgeted probe. Mirrors
/// `bnb::SearchCtx<BitsetKernel>` observably (same nodes, same order,
/// same stats) while keeping all per-node state incremental.
pub(crate) struct IterCore<'a> {
    u: &'a TileUniverse,
    budget: u32,

    // ---- residual state, maintained on place/unplace ----
    /// Still-unsatisfied chords (priority space).
    uncovered: ChordSet,
    rem_dist: u64,
    rem_diam: u64,
    /// Per-vertex uncovered degree.
    deg: Vec<u32>,
    /// Number of vertices with odd uncovered degree (`|T|` of the
    /// parity bound).
    odd: u64,
    /// Incremental Zobrist hash of `uncovered` (0 when the memo is off).
    hash: u64,

    // ---- the explicit stack ----
    frames: Vec<Frame>,
    /// `undo[d]`: chords newly covered by the tile placed at depth `d`.
    undo: Vec<ChordSet>,
    chosen: Vec<u32>,
    dominance: Dominance,
    stats: Stats,

    // ---- symmetry ----
    orbits: OrbitFilter<'a>,
    /// `Full`: the placed tile multiset, kept sorted for the setwise
    /// stabilizer test.
    placed_sorted: Vec<u32>,
    image_scratch: Vec<u32>,

    // ---- memo ----
    /// The (possibly shared) refutation store this searcher probes and
    /// feeds. `None` = memo off; the search then reproduces its
    /// memo-free node counts bit for bit.
    store: Option<&'a MemoStore>,
    /// This searcher's generation tag in the store — hits on entries
    /// with another tag are counted as `shared_hits`.
    gen: u32,
    /// Key by the canonical dihedral image of the residual state
    /// (`Full` mode with the memo on).
    canon: bool,
}

impl<'a> IterCore<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
    ) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        debug_assert!(spec.is_unit(), "iterative core requires unit demands");
        let orbits = OrbitFilter::new(u, spec, requested);

        let n = u.ring().n();
        let diam = u.diam_chords();
        let mut uncovered = ChordSet::empty(m);
        let mut rem_dist = 0u64;
        let mut rem_diam = 0u64;
        let mut deg = vec![0u32; n as usize];
        for dense in 0..m {
            if spec.demand[dense as usize] > 0 {
                let pri = u.pri_of_dense(dense);
                uncovered.insert(pri);
                rem_dist += u.dist_of_pri(pri) as u64;
                rem_diam += (pri < diam) as u64;
                let (a, b) = u.chord_ends_of_pri(pri);
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
        }
        let odd = deg.iter().filter(|&&d| d & 1 == 1).count() as u64;

        // A store built for another universe would prune on meaningless
        // key matches — treat it as absent.
        let store = store.filter(|s| s.compatible(u));
        let gen = store.map_or(0, |s| s.attach());
        let hash = store.map_or(0, |s| {
            uncovered.iter().fold(0u64, |h, c| h ^ s.chord_key(c))
        });
        let canon = store.is_some() && orbits.mode() == SymmetryMode::Full;

        IterCore {
            u,
            budget,
            uncovered,
            rem_dist,
            rem_diam,
            deg,
            odd,
            hash,
            frames: Vec::new(),
            undo: Vec::new(),
            chosen: Vec::new(),
            dominance: Dominance::new(u),
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            orbits,
            placed_sorted: Vec::new(),
            image_scratch: Vec::new(),
            store,
            gen,
            canon,
        }
    }

    /// The cheap per-node lower bound (capacity, diameter, vertex
    /// degree) from the incremental ingredients — value-identical to the
    /// recursive kernel's rescanning version.
    fn remaining_lb(&self) -> u64 {
        let n = self.u.ring().n() as u64;
        let mut lb = self.rem_dist.div_ceil(n).max(self.rem_diam);
        for &d in &self.deg {
            lb = lb.max((d as u64).div_ceil(2));
        }
        lb
    }

    /// The strong bound: the parity/T-join term first — constant-time
    /// from the incremental odd-degree count, and alone it settles the
    /// capacity-tight even refutations — then the pricier diameter-slack
    /// dual only if the node is still alive. Deep in a witness search
    /// the dual's loop body rarely runs at all: diameter chords carry
    /// top branch priority, so they are covered early and the
    /// uncovered-diameter iteration is empty (`rem_diam`, maintained
    /// incrementally, is the same information the capacity/diameter
    /// part of the cheap bound uses).
    fn strong_lb(&self, stop_above: u64) -> u64 {
        let parity = parity_join_bound_from_odd(self.u.ring().n(), self.rem_dist, self.odd);
        if parity > stop_above {
            return parity;
        }
        diameter_slack_bound(self.u, &self.uncovered, self.rem_dist, stop_above).max(parity)
    }

    /// The memo key of the current residual state: the raw uncovered
    /// words, or (canonical mode) the lexicographically smallest
    /// dihedral image. Returns `(key, hash, key_is_raw)`.
    fn state_key(&self) -> ([u64; KEY_WORDS], u64, bool) {
        let words = self.uncovered.words();
        let raw = [words[0], words.get(1).copied().unwrap_or(0), 0, 0];
        if !self.canon {
            return (raw, self.hash, true);
        }
        let store = self.store.expect("canonical mode implies a store");
        let sym = self.orbits.tables().expect("canonical mode implies tables");
        let mut best = raw;
        let mut best_hash = self.hash;
        let mut elements = self.orbits.spec_group() & !1;
        while elements != 0 {
            let g = elements.trailing_zeros();
            elements &= elements - 1;
            let mut img = [0u64; KEY_WORDS];
            let mut h = 0u64;
            for c in self.uncovered.iter() {
                let ic = sym.chord_image(g, c);
                img[(ic / 64) as usize] |= 1u64 << (ic % 64);
                h ^= store.chord_key(ic);
            }
            if img < best {
                best = img;
                best_hash = h;
            }
        }
        (best, best_hash, best == raw)
    }

    /// Steps A–I of one node: satisfied / limits / bounds / memo /
    /// candidate staging. `check_memo` is false when the caller already
    /// probed this state in the store as a candidate child
    /// ([`IterCore::skip_candidate`]) — the key/hash are still computed
    /// so the node can be recorded on exhaust.
    fn enter_node(&mut self, meter: &mut NodeMeter, check_memo: bool) -> Enter {
        if self.uncovered.is_empty() {
            return Enter::Solved;
        }
        if !meter.enter(&mut self.stats.nodes) {
            return Enter::Abort;
        }
        if self.bound_refutes() {
            self.stats.pruned += 1;
            return Enter::Dead;
        }
        let used = self.chosen.len() as u64;
        let mut key = [0u64; KEY_WORDS];
        let mut khash = 0u64;
        let mut memoable = false;
        if let Some(store) = self.store {
            let (k, h, raw) = self.state_key();
            // Canonical keys depend on the *placed* state, so canonical
            // mode cannot pre-probe candidates and always checks here.
            if check_memo || self.canon {
                let slack = (self.budget as u64 - used) as u32;
                if let Some(owner) = store.dominated(h, k, 1, slack) {
                    self.stats.memo_hits += 1;
                    if owner != self.gen {
                        self.stats.shared_hits += 1;
                    }
                    if !raw {
                        self.stats.canon_pruned += 1;
                    }
                    return Enter::Dead;
                }
            }
            key = k;
            khash = h;
            memoable = true;
        }
        let branch = self
            .uncovered
            .first_set()
            .expect("unsatisfied demand exists");
        self.fill_candidates(branch);
        let depth = self.chosen.len();
        let f = &mut self.frames[depth];
        f.cursor = 0;
        f.key = key;
        f.hash = khash;
        f.memoable = memoable;
        Enter::Ready
    }

    /// Scores, sorts, dominance-filters, and orbit-filters the branch
    /// chord's candidates into the current depth's frame — the exact
    /// sequence of the recursive `sorted_candidates`, over reused
    /// buffers.
    fn fill_candidates(&mut self, branch: u32) {
        let depth = self.chosen.len();
        let (mut scored, mut cands) = Frame::take(&mut self.frames, depth);
        let u = self.u;
        let n = u.ring().n();
        for &t in u.candidates_pri(branch) {
            let (cov, useful) = live_coverage(u, &self.uncovered, t);
            if cov > 0 {
                scored.push((t, cov, n - useful.min(n)));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));
        self.dominance
            .filter(u, &self.uncovered, &scored, &mut cands, &mut self.stats);
        // `Full` filters under the **setwise** stabilizer of the placed
        // tile multiset when canonical keys are on — a superset of the
        // recursive path's pointwise stabilizer, whose extra prunes count
        // as `canon_pruned`. With the memo (and hence canonical pruning)
        // off, `Full` filters exactly as the recursive reference does, so
        // the differential node-count gate stays exact.
        let wider = self.canon.then(|| self.setwise_stab());
        self.orbits
            .filter(branch, depth, wider, &mut cands, &mut self.stats);
        let f = &mut self.frames[depth];
        f.scored = scored;
        f.cands = cands;
    }

    /// The setwise stabilizer of the placed tile multiset inside the
    /// spec group: every pointwise element, plus each element mapping
    /// the multiset onto itself (tested against the sorted placement
    /// list — at most `2n` sorts of a ≤-budget-length vector per node).
    fn setwise_stab(&mut self) -> u64 {
        let sym = self.orbits.tables().expect("canonical mode implies tables");
        let mut stab = self.orbits.pointwise();
        let mut rest = self.orbits.spec_group() & !stab;
        while rest != 0 {
            let g = rest.trailing_zeros();
            rest &= rest - 1;
            self.image_scratch.clear();
            self.image_scratch
                .extend(self.placed_sorted.iter().map(|&t| sym.tile_image(g, t)));
            self.image_scratch.sort_unstable();
            if self.image_scratch == self.placed_sorted {
                stab |= 1u64 << g;
            }
        }
        stab
    }

    /// Probes the store for candidate `t`'s child state before placing
    /// it. Returns `true` (and counts a memo hit) when the child is
    /// already refuted with at least the child's slack — the placement,
    /// the node, and the whole subtree are skipped. Never consults the
    /// store on a child that would be a covering, and never runs in
    /// canonical mode (whose keys need the placed state).
    fn skip_candidate(&mut self, t: u32) -> bool {
        let Some(store) = self.store else {
            return false;
        };
        if self.canon {
            return false;
        }
        let words = self.uncovered.words();
        let mut key = [words[0], words.get(1).copied().unwrap_or(0), 0, 0];
        let mut h = self.hash;
        let (lo, hi) = self.u.tile_mask_span(t);
        let tmask = self.u.tile_mask(t);
        for w in lo as usize..hi as usize {
            let mut m = tmask[w] & key[w];
            key[w] &= !m;
            while m != 0 {
                let c = (w as u32) * 64 + m.trailing_zeros();
                h ^= store.chord_key(c);
                m &= m - 1;
            }
        }
        if key == [0; KEY_WORDS] {
            return false;
        }
        let child_used = self.chosen.len() as u32 + 1;
        let slack = self.budget.saturating_sub(child_used);
        if let Some(owner) = store.dominated(h, key, 1, slack) {
            self.stats.memo_hits += 1;
            if owner != self.gen {
                self.stats.shared_hits += 1;
            }
            return true;
        }
        false
    }
}

impl Search for IterCore<'_> {
    /// Drives the search to a conclusion from the current placement
    /// depth (the root for the sequential search; the assigned prefix
    /// for a parallel worker — siblings of the prefix belong to other
    /// workers, so the loop never retreats past it).
    fn run(&mut self, meter: &mut NodeMeter) -> bool {
        let base = self.chosen.len();
        let mut entering = true;
        // Only the subtree root needs the node-entry store probe:
        // deeper nodes were already probed as candidate children.
        let mut check_memo = true;
        loop {
            if entering {
                match self.enter_node(meter, check_memo) {
                    Enter::Solved => return true,
                    Enter::Abort => return false,
                    Enter::Dead => {
                        if self.chosen.len() == base {
                            return false;
                        }
                        self.unplace();
                        entering = false;
                        continue;
                    }
                    Enter::Ready => {}
                }
            }
            let depth = self.chosen.len();
            let f = &mut self.frames[depth];
            if f.cursor < f.cands.len() {
                let t = f.cands[f.cursor];
                f.cursor += 1;
                // The candidate-level store probe: a child whose residual
                // state is already refuted with enough slack is skipped
                // without ever being placed or counted as a node.
                if self.skip_candidate(t) {
                    entering = false;
                    continue;
                }
                self.place(t);
                entering = true;
                check_memo = self.canon;
            } else {
                if f.memoable {
                    let (hash, key) = (f.hash, f.key);
                    let rem = self.budget - depth as u32;
                    self.store
                        .expect("memoable implies a store")
                        .record(hash, key, 1, rem, self.gen);
                }
                if depth == base {
                    return false;
                }
                self.unplace();
                entering = false;
            }
        }
    }

    fn chosen(&self) -> &[u32] {
        &self.chosen
    }

    /// Final statistics (stamps the store's resident entry count — a
    /// shared store reports its *total* population, not this searcher's
    /// contribution).
    fn take_stats(&mut self) -> Stats {
        self.stats.memo_entries = self.store.map_or(0, |s| s.len());
        self.stats
    }
}

impl FrontierCore for IterCore<'_> {
    fn satisfied(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// Places tile `t`: covers its new chords and updates every
    /// incremental ingredient in one sweep over the changed chords.
    fn place(&mut self, t: u32) {
        self.orbits.push(t);
        if self.orbits.mode() == SymmetryMode::Full {
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            self.placed_sorted.insert(pos, t);
        }
        let depth = self.chosen.len();
        if self.undo.len() == depth {
            self.undo.push(ChordSet::empty(self.uncovered.len()));
        }
        let newly = &mut self.undo[depth];
        newly.assign_intersection(self.u.tile_mask(t), &self.uncovered);
        self.uncovered.subtract(newly);
        let diam = self.u.diam_chords();
        for i in newly.iter() {
            let d = self.u.dist_of_pri(i);
            self.rem_dist -= d as u64;
            self.rem_diam -= (i < diam) as u64;
            let (a, b) = self.u.chord_ends_of_pri(i);
            for v in [a, b] {
                let dv = &mut self.deg[v as usize];
                if *dv & 1 == 1 {
                    self.odd -= 1;
                } else {
                    self.odd += 1;
                }
                *dv -= 1;
            }
            if let Some(store) = self.store {
                self.hash ^= store.chord_key(i);
            }
        }
        self.chosen.push(t);
    }

    /// Reverts the most recent placement.
    fn unplace(&mut self) {
        let t = self.chosen.pop().expect("unplace without place");
        let depth = self.chosen.len();
        let newly = &self.undo[depth];
        let diam = self.u.diam_chords();
        for i in newly.iter() {
            let d = self.u.dist_of_pri(i);
            self.rem_dist += d as u64;
            self.rem_diam += (i < diam) as u64;
            let (a, b) = self.u.chord_ends_of_pri(i);
            for v in [a, b] {
                let dv = &mut self.deg[v as usize];
                if *dv & 1 == 1 {
                    self.odd -= 1;
                } else {
                    self.odd += 1;
                }
                *dv += 1;
            }
            if let Some(store) = self.store {
                self.hash ^= store.chord_key(i);
            }
        }
        self.uncovered.union_with(newly);
        if self.orbits.mode() == SymmetryMode::Full {
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            debug_assert_eq!(self.placed_sorted.get(pos), Some(&t));
            self.placed_sorted.remove(pos);
        }
        self.orbits.pop();
    }

    fn bound_refutes(&self) -> bool {
        let used = self.chosen.len() as u64;
        let budget = self.budget as u64;
        if used + self.remaining_lb() > budget {
            return true;
        }
        let slack = budget - used;
        self.orbits.strong() && self.strong_lb(slack) > slack
    }

    fn stage_children(&mut self, out: &mut Vec<u32>) {
        let branch = self
            .uncovered
            .first_set()
            .expect("unsatisfied demand exists");
        self.fill_candidates(branch);
        out.extend_from_slice(&self.frames[self.chosen.len()].cands);
    }

    fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }
}

// ---------------------------------------------------------------------------
// The λ-fold lane core
// ---------------------------------------------------------------------------

/// Per-tile lane-space masks: each tile's chord set re-expressed with one
/// [`LANE_LOW`] bit per chord in the 2-bit-lane layout of [`LaneSet`],
/// plus the lane-word span the mask occupies. Built once per search (or
/// once per parallel driver, shared by every worker) so a λ-fold
/// placement is a handful of masked word subtracts.
pub(crate) struct LaneTables {
    lane_words: usize,
    /// `masks[t * lane_words .. (t + 1) * lane_words]` = tile `t`'s mask.
    masks: Vec<u64>,
    /// Lane-word span of each tile's mask (`lo..hi`).
    spans: Vec<(u32, u32)>,
}

impl LaneTables {
    pub(crate) fn build(u: &TileUniverse) -> Self {
        let lane_words = u.num_chords().div_ceil(LANES_PER_WORD) as usize;
        let nt = u.len();
        let mut masks = vec![0u64; nt * lane_words];
        let mut spans = vec![(0u32, 0u32); nt];
        for (t, span) in spans.iter_mut().enumerate() {
            let base = t * lane_words;
            let mut lo = lane_words as u32;
            let mut hi = 0u32;
            for &c in u.tile_chords(t as u32) {
                let w = c / LANES_PER_WORD;
                masks[base + w as usize] |= 1u64 << (2 * (c % LANES_PER_WORD));
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
            *span = if lo < hi { (lo, hi) } else { (0, 0) };
        }
        LaneTables {
            lane_words,
            masks,
            spans,
        }
    }

    #[inline]
    pub(crate) fn mask(&self, t: u32) -> &[u64] {
        let base = t as usize * self.lane_words;
        &self.masks[base..base + self.lane_words]
    }

    #[inline]
    pub(crate) fn span(&self, t: u32) -> (u32, u32) {
        self.spans[t as usize]
    }
}

/// The packed residual state the lane core and the partition kernel
/// share: per-chord residual demands in 2-bit lanes, the **support** set
/// of chords with residual > 0, and the residual-weighted bound
/// ingredients, all maintained together on place/unplace.
pub(crate) struct LaneState {
    /// Per-chord residual demand (priority space).
    residual: LaneSet,
    /// Chords with residual > 0 — the unit-machinery view of the state.
    pub(crate) support: ChordSet,
    /// Σ residual(c) · dist(c).
    pub(crate) rem_dist: u64,
    /// Σ residual(c) over diameter chords.
    rem_diam: u64,
    /// Per-vertex residual degree (Σ residual of incident chords).
    deg: Vec<u32>,
    odd: u64,
    /// Incremental level-Zobrist hash of the residual vector (0 when
    /// the memo is off).
    pub(crate) hash: u64,
    /// `undo[d]`: per lane word, the [`LANE_LOW`] decrement mask the
    /// placement at depth `d` applied.
    undo: Vec<Vec<u64>>,
}

impl LaneState {
    /// The residual state of `spec` (demands ≤ 3), hashed under `store`.
    pub(crate) fn new(u: &TileUniverse, spec: &CoverSpec, store: Option<&MemoStore>) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        let n = u.ring().n();
        let diam = u.diam_chords();
        let mut residual = LaneSet::zero(m);
        let mut support = ChordSet::empty(m);
        let mut rem_dist = 0u64;
        let mut rem_diam = 0u64;
        let mut deg = vec![0u32; n as usize];
        for pri in 0..m {
            let need = spec.demand[u.dense_of_pri(pri) as usize];
            if need > 0 {
                residual.set(pri, need);
                support.insert(pri);
                rem_dist += need as u64 * u.dist_of_pri(pri) as u64;
                if pri < diam {
                    rem_diam += need as u64;
                }
                let (a, b) = u.chord_ends_of_pri(pri);
                deg[a as usize] += need;
                deg[b as usize] += need;
            }
        }
        let odd = deg.iter().filter(|&&d| d & 1 == 1).count() as u64;
        let hash = store.map_or(0, |s| {
            support.iter().fold(0u64, |mut h, c| {
                for v in 1..=residual.get(c) {
                    h ^= s.chord_level_key(c, v);
                }
                h
            })
        });
        LaneState {
            residual,
            support,
            rem_dist,
            rem_diam,
            deg,
            odd,
            hash,
            undo: Vec::new(),
        }
    }

    /// Places tile `t` as the `depth`-th tile: one saturating masked
    /// subtract per lane word, then per decremented chord the
    /// incremental-ingredient sweep (distance, diameter, degrees,
    /// parity, hash) plus support retirement for chords whose residual
    /// hits zero. Returns the distance the placement covered.
    #[inline]
    pub(crate) fn place(
        &mut self,
        u: &TileUniverse,
        lanes: &LaneTables,
        store: Option<&MemoStore>,
        depth: usize,
        t: u32,
    ) -> u64 {
        if self.undo.len() == depth {
            self.undo.push(vec![0u64; lanes.lane_words]);
        }
        let (llo, lhi) = lanes.span(t);
        let diam = u.diam_chords();
        let mut useful = 0u64;
        for w in llo as usize..lhi as usize {
            let before = self.residual.words()[w];
            let sub = self.residual.place_word(w, lanes.mask(t)[w]);
            self.undo[depth][w] = sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                let old = (before >> p & 0b11) as u32;
                let d = u.dist_of_pri(c) as u64;
                useful += d;
                self.rem_dist -= d;
                self.rem_diam -= (c < diam) as u64;
                let (a, b) = u.chord_ends_of_pri(c);
                for v in [a, b] {
                    let dv = &mut self.deg[v as usize];
                    if *dv & 1 == 1 {
                        self.odd -= 1;
                    } else {
                        self.odd += 1;
                    }
                    *dv -= 1;
                }
                if old == 1 {
                    self.support.remove(c);
                }
                if let Some(store) = store {
                    self.hash ^= store.chord_level_key(c, old);
                }
                m &= m - 1;
            }
        }
        useful
    }

    /// Reverts the placement of `t` at `depth`; returns the distance it
    /// had covered.
    #[inline]
    pub(crate) fn unplace(
        &mut self,
        u: &TileUniverse,
        lanes: &LaneTables,
        store: Option<&MemoStore>,
        depth: usize,
        t: u32,
    ) -> u64 {
        let (llo, lhi) = lanes.span(t);
        let diam = u.diam_chords();
        let mut useful = 0u64;
        for w in llo as usize..lhi as usize {
            let sub = self.undo[depth][w];
            if sub == 0 {
                continue;
            }
            self.residual.unplace_word(w, sub);
            let after = self.residual.words()[w];
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                // The restored value equals what `place` decremented from.
                let val = (after >> p & 0b11) as u32;
                let d = u.dist_of_pri(c) as u64;
                useful += d;
                self.rem_dist += d;
                self.rem_diam += (c < diam) as u64;
                let (a, b) = u.chord_ends_of_pri(c);
                for v in [a, b] {
                    let dv = &mut self.deg[v as usize];
                    if *dv & 1 == 1 {
                        self.odd -= 1;
                    } else {
                        self.odd += 1;
                    }
                    *dv += 1;
                }
                if val == 1 {
                    self.support.insert(c);
                }
                if let Some(store) = store {
                    self.hash ^= store.chord_level_key(c, val);
                }
                m &= m - 1;
            }
        }
        useful
    }

    /// The cheap per-node lower bound — the unit core's capacity /
    /// diameter / vertex-degree trio with every ingredient weighted by
    /// residual multiplicity (a tile still covers each chord, and each
    /// vertex, at most once per placement).
    #[inline]
    pub(crate) fn remaining_lb(&self, n: u32) -> u64 {
        let mut lb = self.rem_dist.div_ceil(n as u64).max(self.rem_diam);
        for &d in &self.deg {
            lb = lb.max((d as u64).div_ceil(2));
        }
        lb
    }

    /// The strong bound: the parity/T-join term (every tile changes each
    /// vertex's residual degree by an even amount, so the T-join
    /// argument reads the multiplicity-weighted degrees unchanged), then
    /// the diameter-slack dual over the **support** set — a feasible
    /// dual of the residual LP because each support chord carries ≥ 1
    /// demand, so the bound is valid (if not maximally tight) under
    /// multiplicities.
    pub(crate) fn strong_lb(&self, u: &TileUniverse, stop_above: u64) -> u64 {
        let parity = parity_join_bound_from_odd(u.ring().n(), self.rem_dist, self.odd);
        if parity > stop_above {
            return parity;
        }
        diameter_slack_bound(u, &self.support, self.rem_dist, stop_above).max(parity)
    }

    /// The memo key: the packed residual lane words, zero-padded to the
    /// store's key width. Always raw — no canonical mode.
    pub(crate) fn key(&self) -> [u64; KEY_WORDS] {
        let words = self.residual.words();
        debug_assert!(
            words.len() <= KEY_WORDS,
            "store.compatible caps chords at 128"
        );
        let mut key = [0u64; KEY_WORDS];
        key[..words.len()].copy_from_slice(words);
        key
    }

    /// The key, hash and covered distance of the state placing `t`
    /// would reach — the masked subtract simulated over a copy of the
    /// lane words, for the memo's candidate pre-probe.
    pub(crate) fn child_key(
        &self,
        u: &TileUniverse,
        lanes: &LaneTables,
        store: &MemoStore,
        t: u32,
    ) -> ([u64; KEY_WORDS], u64, u64) {
        let mut key = self.key();
        let mut h = self.hash;
        let mut useful = 0u64;
        let (llo, lhi) = lanes.span(t);
        for (w, kw) in key
            .iter_mut()
            .enumerate()
            .take(lhi as usize)
            .skip(llo as usize)
        {
            let r = *kw;
            let sub = (r | r >> 1) & lanes.mask(t)[w] & LANE_LOW;
            *kw = r - sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                useful += u.dist_of_pri(c) as u64;
                h ^= store.chord_level_key(c, (r >> p & 0b11) as u32);
                m &= m - 1;
            }
        }
        (key, h, useful)
    }
}

/// The iterative λ-fold search over packed residual lanes — the
/// word-parallel sibling of [`IterCore`] for specs with demands in
/// `2..=3` (λ-fold and mixed-multiplicity instances).
///
/// State is the [`LaneSet`] of per-chord residual demands plus the
/// **support** [`ChordSet`] (chords with residual > 0), maintained
/// together on place/unplace. The support set is what the unit
/// machinery consumes unchanged: branch selection, candidate scoring,
/// dominance subset tests (sound under multiplicities by multiset
/// replacement — a tile whose live coverage is contained in an earlier
/// candidate's can be swapped for that candidate in any covering), and
/// the diameter-slack dual (a valid residual-LP relaxation because
/// every support chord retains ≥ 1 unit of demand). The capacity,
/// diameter, vertex-degree, and parity/T-join bounds all scale by λ
/// through the residual-weighted `rem_dist` / `rem_diam` / `deg`
/// ingredients.
///
/// Differences from the unit core, by design:
/// * memo keys are the packed residual lane words (`bits = 2` in the
///   store — exact for every universe the store accepts, since
///   `compatible` caps chords at 128 = 4 lane words), hashed with
///   per-(chord, level) Zobrist keys;
/// * symmetry filtering is pointwise only (`Root` at the empty prefix,
///   `Full` under the prefix stabilizer) — no canonical keys, no
///   setwise upgrade, so the memo's candidate pre-probe always applies;
/// * a tile may be branched on repeatedly at successive depths (the
///   branch chord keeps its candidates while its residual drains).
pub(crate) struct LaneCore<'a> {
    u: &'a TileUniverse,
    lanes: &'a LaneTables,
    budget: u32,
    state: LaneState,
    frames: Vec<Frame>,
    chosen: Vec<u32>,
    dominance: Dominance,
    stats: Stats,
    /// Pointwise only: no setwise upgrade, no canonical keys.
    orbits: OrbitFilter<'a>,
    store: Option<&'a MemoStore>,
    gen: u32,
}

impl<'a> LaneCore<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        lanes: &'a LaneTables,
    ) -> Self {
        debug_assert!(spec.max_demand() <= 3, "lane core requires demands ≤ 3");
        let store = store.filter(|s| s.compatible(u));
        LaneCore {
            u,
            lanes,
            budget,
            state: LaneState::new(u, spec, store),
            frames: Vec::new(),
            chosen: Vec::new(),
            dominance: Dominance::new(u),
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            orbits: OrbitFilter::new(u, spec, requested),
            store,
            gen: store.map_or(0, |s| s.attach()),
        }
    }

    /// Steps A–I of one node, mirroring [`IterCore`]'s entry sequence.
    fn enter_node(&mut self, meter: &mut NodeMeter, check_memo: bool) -> Enter {
        if self.state.support.is_empty() {
            return Enter::Solved;
        }
        if !meter.enter(&mut self.stats.nodes) {
            return Enter::Abort;
        }
        if self.bound_refutes() {
            self.stats.pruned += 1;
            return Enter::Dead;
        }
        let used = self.chosen.len() as u64;
        let mut key = [0u64; KEY_WORDS];
        let mut khash = 0u64;
        let mut memoable = false;
        if let Some(store) = self.store {
            let k = self.state.key();
            if check_memo {
                let slack = (self.budget as u64 - used) as u32;
                if let Some(owner) = store.dominated(self.state.hash, k, 2, slack) {
                    self.stats.memo_hits += 1;
                    if owner != self.gen {
                        self.stats.shared_hits += 1;
                    }
                    return Enter::Dead;
                }
            }
            key = k;
            khash = self.state.hash;
            memoable = true;
        }
        let branch = self
            .state
            .support
            .first_set()
            .expect("unsatisfied demand exists");
        self.fill_candidates(branch);
        let depth = self.chosen.len();
        let f = &mut self.frames[depth];
        f.cursor = 0;
        f.key = key;
        f.hash = khash;
        f.memoable = memoable;
        Enter::Ready
    }

    /// Scores, sorts, dominance-filters, and orbit-filters the branch
    /// chord's candidates — the unit core's sequence with the support
    /// set standing in for the uncovered set. Coverage counts *chords*
    /// with live residual (not residual units), matching the legacy
    /// multiplicity kernel's scoring. Dominance over live coverage is
    /// sound under multiplicities: replacing a dominated tile with its
    /// dominator in any covering multiset yields a covering of the same
    /// size.
    fn fill_candidates(&mut self, branch: u32) {
        let depth = self.chosen.len();
        let (mut scored, mut cands) = Frame::take(&mut self.frames, depth);
        let u = self.u;
        let n = u.ring().n();
        for &t in u.candidates_pri(branch) {
            let (cov, useful) = live_coverage(u, &self.state.support, t);
            if cov > 0 {
                scored.push((t, cov, n - useful.min(n)));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));
        self.dominance
            .filter(u, &self.state.support, &scored, &mut cands, &mut self.stats);
        self.orbits
            .filter(branch, depth, None, &mut cands, &mut self.stats);
        let f = &mut self.frames[depth];
        f.scored = scored;
        f.cands = cands;
    }

    /// Probes the store for candidate `t`'s child residual vector before
    /// placing it — the lane twin of the unit core's pre-probe.
    fn skip_candidate(&mut self, t: u32) -> bool {
        let Some(store) = self.store else {
            return false;
        };
        let (key, h, _) = self.state.child_key(self.u, self.lanes, store, t);
        if key == [0; KEY_WORDS] {
            return false;
        }
        let child_used = self.chosen.len() as u32 + 1;
        let slack = self.budget.saturating_sub(child_used);
        if let Some(owner) = store.dominated(h, key, 2, slack) {
            self.stats.memo_hits += 1;
            if owner != self.gen {
                self.stats.shared_hits += 1;
            }
            return true;
        }
        false
    }
}

impl Search for LaneCore<'_> {
    /// Drives the search from the current placement depth — the unit
    /// core's loop minus canonical-mode bookkeeping (the memo's candidate
    /// pre-probe covers every non-root node, so only the subtree root
    /// checks the store at entry).
    fn run(&mut self, meter: &mut NodeMeter) -> bool {
        let base = self.chosen.len();
        let mut entering = true;
        let mut check_memo = true;
        loop {
            if entering {
                match self.enter_node(meter, check_memo) {
                    Enter::Solved => return true,
                    Enter::Abort => return false,
                    Enter::Dead => {
                        if self.chosen.len() == base {
                            return false;
                        }
                        self.unplace();
                        entering = false;
                        continue;
                    }
                    Enter::Ready => {}
                }
            }
            let depth = self.chosen.len();
            let f = &mut self.frames[depth];
            if f.cursor < f.cands.len() {
                let t = f.cands[f.cursor];
                f.cursor += 1;
                if self.skip_candidate(t) {
                    entering = false;
                    continue;
                }
                self.place(t);
                entering = true;
                check_memo = false;
            } else {
                if f.memoable {
                    let (hash, key) = (f.hash, f.key);
                    let rem = self.budget - depth as u32;
                    self.store
                        .expect("memoable implies a store")
                        .record(hash, key, 2, rem, self.gen);
                }
                if depth == base {
                    return false;
                }
                self.unplace();
                entering = false;
            }
        }
    }

    fn chosen(&self) -> &[u32] {
        &self.chosen
    }

    /// Final statistics (stamps the store's resident entry count).
    fn take_stats(&mut self) -> Stats {
        self.stats.memo_entries = self.store.map_or(0, |s| s.len());
        self.stats
    }
}

impl FrontierCore for LaneCore<'_> {
    fn satisfied(&self) -> bool {
        self.state.support.is_empty()
    }

    fn place(&mut self, t: u32) {
        self.orbits.push(t);
        let depth = self.chosen.len();
        self.state.place(self.u, self.lanes, self.store, depth, t);
        self.chosen.push(t);
    }

    fn unplace(&mut self) {
        let t = self.chosen.pop().expect("unplace without place");
        let depth = self.chosen.len();
        self.state.unplace(self.u, self.lanes, self.store, depth, t);
        self.orbits.pop();
    }

    fn bound_refutes(&self) -> bool {
        let used = self.chosen.len() as u64;
        let budget = self.budget as u64;
        if used + self.state.remaining_lb(self.u.ring().n()) > budget {
            return true;
        }
        let slack = budget - used;
        self.orbits.strong() && self.state.strong_lb(self.u, slack) > slack
    }

    fn stage_children(&mut self, out: &mut Vec<u32>) {
        let branch = self
            .state
            .support
            .first_set()
            .expect("unsatisfied demand exists");
        self.fill_candidates(branch);
        out.extend_from_slice(&self.frames[self.chosen.len()].cands);
    }

    fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }
}

/// Budgeted iterative search over packed residual lanes — the λ-fold
/// engine path for demands ≤ 3.
pub(crate) fn search_lanes(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let lanes = LaneTables::build(u);
    conclude(LaneCore::new(u, spec, budget, sym, store, &lanes), lim)
}
