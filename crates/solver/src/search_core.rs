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
//! full chord width.

use crate::api::Exhaustion;
use crate::bitset::{ChordSet, LaneSet, LANES_PER_WORD, LANE_LOW};
use crate::bnb::{
    decode_cause, encode_cause, CoverSpec, Outcome, RunLimits, Stats, SymmetryMode,
};
use crate::lower_bound::{diameter_slack_bound, parity_join_bound_from_odd};
use crate::memo::{MemoStore, KEY_WORDS};
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Per-depth iteration state: the node's filtered candidate list, the
/// cursor into it, and the memo key captured at entry (recorded if the
/// node exhausts). Buffers are reused by every node at this depth.
#[derive(Default)]
struct Frame {
    /// `(tile, new coverage, waste)` scoring scratch.
    scored: Vec<(u32, u32, u32)>,
    /// Candidates surviving dominance + orbit filtering, in order.
    cands: Vec<u32>,
    /// Next unexplored candidate.
    cursor: usize,
    /// Residual-state key/hash at node entry (memo bookkeeping).
    key: [u64; KEY_WORDS],
    hash: u64,
    /// Whether the node may be recorded on exhaust.
    memoable: bool,
}

/// What happened when the loop entered a node.
enum Enter {
    /// Demand satisfied — the placed prefix is a covering.
    Solved,
    /// A resource limit tripped; the whole search stops.
    Abort,
    /// Bound- or memo-pruned; backtrack.
    Dead,
    /// Candidates are staged in the depth's frame.
    Ready,
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

    // ---- dominance arena (slot = candidate position in the node) ----
    dom_masks: Vec<ChordSet>,
    /// Word span each arena slot was last written in (so retiring a
    /// slot clears only those words).
    dom_spans: Vec<(u32, u32)>,

    // ---- statistics and limits (as the recursive context) ----
    stats: Stats,
    max_nodes: u64,
    hit_limit: bool,
    stop_cause: Option<Exhaustion>,
    deadline: Option<Instant>,
    cancel: Option<&'a AtomicBool>,
    early_exit: Option<&'a AtomicBool>,
    shared_nodes: Option<(&'a AtomicU64, u64)>,
    synced_nodes: u64,

    // ---- symmetry ----
    mode: SymmetryMode,
    strong: bool,
    sym: Option<&'a DihedralTables>,
    spec_group: u64,
    /// `Full`: pointwise prefix stabilizer per depth (seeded with the
    /// spec group).
    stab_stack: Vec<u64>,
    /// `Full`: the placed tile multiset, kept sorted for the setwise
    /// stabilizer test.
    placed_sorted: Vec<u32>,
    image_scratch: Vec<u32>,
    sym_seen: Vec<u64>,
    sym_stamp: u64,

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
        lim: &'a RunLimits,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
    ) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        debug_assert!(spec.is_unit(), "iterative core requires unit demands");
        let strong = requested != SymmetryMode::Off;
        let (mode, sym, spec_group) = crate::bnb::resolve_symmetry(u, spec, requested);

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
        let canon = store.is_some() && mode == SymmetryMode::Full;

        let max_cands = u.max_candidates() as usize;
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
            dom_masks: (0..max_cands).map(|_| ChordSet::empty(m)).collect(),
            dom_spans: vec![(0, 0); max_cands],
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            max_nodes: lim.max_nodes,
            hit_limit: false,
            stop_cause: None,
            deadline: lim.deadline,
            cancel: lim.cancel.as_ref().map(|c| c.flag()),
            early_exit: None,
            shared_nodes: None,
            synced_nodes: 0,
            mode,
            strong,
            sym,
            spec_group,
            stab_stack: if mode == SymmetryMode::Full {
                vec![spec_group]
            } else {
                Vec::new()
            },
            placed_sorted: Vec::new(),
            image_scratch: Vec::new(),
            sym_seen: Vec::new(),
            sym_stamp: 0,
            store,
            gen,
            canon,
        }
    }

    /// Flushes local node counts into the shared counter; `true` when
    /// the global budget is exhausted.
    fn sync_shared_nodes(&mut self) -> bool {
        let Some((counter, cap)) = self.shared_nodes else {
            return false;
        };
        let delta = self.stats.nodes - self.synced_nodes;
        self.synced_nodes = self.stats.nodes;
        let total = counter.fetch_add(delta, Ordering::Relaxed) + delta;
        total > cap
    }

    /// Places tile `t`: covers its new chords and updates every
    /// incremental ingredient in one sweep over the changed chords.
    fn place(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let top = *self.stab_stack.last().expect("stab stack seeded");
            let stab = self.sym.expect("tables exist in Full mode").tile_stab(t);
            self.stab_stack.push(top & stab);
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
        if self.mode == SymmetryMode::Full {
            self.stab_stack.pop();
            let pos = self.placed_sorted.partition_point(|&x| x < t);
            debug_assert_eq!(self.placed_sorted.get(pos), Some(&t));
            self.placed_sorted.remove(pos);
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
        let sym = self.sym.expect("canonical mode implies tables");
        let mut best = raw;
        let mut best_hash = self.hash;
        let mut elements = self.spec_group & !1;
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
    fn enter_node(&mut self, check_memo: bool) -> Enter {
        if self.uncovered.is_empty() {
            return Enter::Solved;
        }
        self.stats.nodes += 1;
        if self.stats.nodes > self.max_nodes {
            self.hit_limit = true;
            self.stop_cause = Some(Exhaustion::NodeBudget);
            return Enter::Abort;
        }
        if self.stats.nodes.is_multiple_of(1024) {
            if let Some(flag) = self.early_exit {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    return Enter::Abort;
                }
            }
            if self.sync_shared_nodes() {
                self.hit_limit = true;
                self.stop_cause = Some(Exhaustion::NodeBudget);
                return Enter::Abort;
            }
        }
        if self.stats.nodes.is_multiple_of(4096) {
            if let Some(flag) = self.cancel {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Cancelled);
                    return Enter::Abort;
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Deadline);
                    return Enter::Abort;
                }
            }
        }
        let used = self.chosen.len() as u64;
        if used + self.remaining_lb() > self.budget as u64 {
            self.stats.pruned += 1;
            return Enter::Dead;
        }
        if self.strong {
            let slack = self.budget as u64 - used;
            if self.strong_lb(slack) > slack {
                self.stats.pruned += 1;
                return Enter::Dead;
            }
        }
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
        let branch = self.uncovered.first_set().expect("unsatisfied demand exists");
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
        // Workers of the parallel driver enter at their prefix depth, so
        // the arena may need to leap several levels at once.
        while self.frames.len() <= depth {
            self.frames.push(Frame::default());
        }
        let u = self.u;
        let n = u.ring().n();
        let mut scored = std::mem::take(&mut self.frames[depth].scored);
        let mut cands = std::mem::take(&mut self.frames[depth].cands);
        scored.clear();
        cands.clear();
        // Score each candidate's new coverage and wasted capacity over
        // the words its mask spans (value-identical to the recursive
        // kernel's `new_coverage`).
        for &t in u.candidates_pri(branch) {
            let (lo, hi) = u.tile_mask_span(t);
            let mut cov = 0u32;
            let mut useful = 0u32;
            for (wi, (a, b)) in u.tile_mask(t)[lo as usize..hi as usize]
                .iter()
                .zip(&self.uncovered.words()[lo as usize..hi as usize])
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
            if cov > 0 {
                let waste = n - useful.min(n);
                scored.push((t, cov, waste));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));

        // Dominance: a candidate whose useful coverage is a subset of an
        // earlier one's is dropped (sorting put dominators first; ties
        // keep the first occurrence). Mask writes and subset tests touch
        // only each tile's word span.
        let c = scored.len();
        debug_assert!(c <= self.dom_masks.len(), "arena sized from max_candidates");
        if c > 1 {
            for (slot, &(t, _, _)) in scored.iter().enumerate() {
                let (lo, hi) = u.tile_mask_span(t);
                let (plo, phi) = self.dom_spans[slot];
                self.dom_masks[slot].clear_words(plo as usize, phi as usize);
                self.dom_masks[slot].assign_intersection_in(
                    u.tile_mask(t),
                    &self.uncovered,
                    lo as usize,
                    hi as usize,
                );
                self.dom_spans[slot] = (lo, hi);
            }
            for (i, &(t, _, _)) in scored.iter().enumerate() {
                if i > 0 {
                    let (lo, hi) = u.tile_mask_span(t);
                    let (earlier, rest) = self.dom_masks.split_at(i);
                    let mask_i = &rest[0];
                    if earlier
                        .iter()
                        .any(|prior| mask_i.is_subset_of_in(prior, lo as usize, hi as usize))
                    {
                        self.stats.dominated += 1;
                        continue;
                    }
                }
                cands.push(t);
            }
        } else {
            cands.extend(scored.iter().map(|&(t, _, _)| t));
        }

        self.filter_symmetric(branch, &mut cands);
        let f = &mut self.frames[depth];
        f.scored = scored;
        f.cands = cands;
    }

    /// Sibling orbit filtering, in place. `Root` filters the empty
    /// prefix under the spec group; `Full` filters every depth under the
    /// **setwise** stabilizer of the placed tile multiset (a superset of
    /// the recursive path's pointwise stabilizer — the extra elements'
    /// prunes are counted as `canon_pruned`).
    fn filter_symmetric(&mut self, branch: u32, cands: &mut Vec<u32>) {
        let Some(sym) = self.sym else { return };
        let (group, pointwise) = match self.mode {
            SymmetryMode::Off => return,
            SymmetryMode::Root => {
                if !self.chosen.is_empty() {
                    return;
                }
                (self.spec_group, self.spec_group)
            }
            SymmetryMode::Full => {
                let pw = *self.stab_stack.last().expect("stab stack seeded");
                // The setwise upgrade is part of the canonical machinery:
                // with the memo (and hence canonical pruning) off, `Full`
                // filters exactly as the recursive reference does, so the
                // differential node-count gate stays exact.
                if self.canon {
                    (self.setwise_stab(pw, sym), pw)
                } else {
                    (pw, pw)
                }
            }
        };
        let filter = group & sym.chord_stab(branch);
        if self.chosen.is_empty() {
            self.stats.sym_factor = self.stats.sym_factor.max(filter.count_ones());
        }
        if filter & !1 == 0 {
            return;
        }
        if self.sym_seen.len() < sym.num_tiles() as usize {
            self.sym_seen.resize(sym.num_tiles() as usize, 0);
        }
        self.sym_stamp += 1;
        let stamp = self.sym_stamp;
        let pw_filter = pointwise & sym.chord_stab(branch);
        let sym_seen = &mut self.sym_seen;
        let stats = &mut self.stats;
        cands.retain(|&t| {
            let mut elements = filter & !1;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && sym_seen[image as usize] == stamp {
                    if pw_filter >> g & 1 == 1 {
                        stats.sym_pruned += 1;
                    } else {
                        stats.canon_pruned += 1;
                    }
                    return false;
                }
            }
            sym_seen[t as usize] = stamp;
            true
        });
    }

    /// The setwise stabilizer of the placed tile multiset inside the
    /// spec group: every pointwise element, plus each element mapping
    /// the multiset onto itself (tested against the sorted placement
    /// list — at most `2n` sorts of a ≤-budget-length vector per node).
    fn setwise_stab(&mut self, pointwise: u64, sym: &DihedralTables) -> u64 {
        let mut stab = pointwise;
        let mut rest = self.spec_group & !pointwise;
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

    /// Drives the search to a conclusion from the current placement
    /// depth (the root for the sequential search; the assigned prefix
    /// for a parallel worker — siblings of the prefix belong to other
    /// workers, so the loop never retreats past it). `true` = covering
    /// found (in `chosen`); `false` = subtree exhausted or limit hit
    /// (see `hit_limit`).
    fn run(&mut self) -> bool {
        let base = self.chosen.len();
        let mut entering = true;
        // Only the subtree root needs the node-entry store probe:
        // deeper nodes were already probed as candidate children.
        let mut check_memo = true;
        loop {
            if entering {
                match self.enter_node(check_memo) {
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

    /// Final statistics (stamps the store's resident entry count — a
    /// shared store reports its *total* population, not this searcher's
    /// contribution).
    fn take_stats(&mut self) -> Stats {
        self.stats.memo_entries = self.store.map_or(0, |s| s.len());
        self.stats
    }
}

/// Budgeted iterative search over the bitset state — the unit-demand
/// engine path. Same contract as the recursive `bnb::search`.
pub(crate) fn search_iterative(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let mut core = IterCore::new(u, spec, budget, lim, sym, store);
    if core.run() {
        let chosen = core.chosen.clone();
        (Outcome::Feasible(chosen), core.take_stats(), None)
    } else if core.hit_limit {
        let cause = core.stop_cause;
        (Outcome::NodeLimit, core.take_stats(), cause)
    } else {
        (Outcome::Infeasible, core.take_stats(), None)
    }
}

/// The frontier-parallel driver over [`IterCore`] workers: expands a
/// breadth-first frontier of independent prefixes, then drains it on a
/// work-sharing rayon scope with a shared early-exit flag and a global
/// node budget — the iterative twin of `bnb::search_parallel`, which
/// keeps serving λ-fold specs. The two drivers deliberately mirror each
/// other stanza for stanza (expansion accounting, pre-spawn guards,
/// stop-cause ranking): a fix to either's scheduling logic belongs in
/// both.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_iterative_parallel(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    threads: usize,
    prefix_per_thread: usize,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let max_nodes = lim.max_nodes;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let threads = pool.current_num_threads();
    let mut root = IterCore::new(u, spec, budget, lim, sym, store);
    if root.uncovered.is_empty() {
        return (Outcome::Feasible(Vec::new()), root.take_stats(), None);
    }
    let root_infeasible = root.remaining_lb() > budget as u64
        || (root.strong && root.strong_lb(budget as u64) > budget as u64);
    if root_infeasible {
        return (
            Outcome::Infeasible,
            Stats {
                nodes: 1,
                pruned: 1,
                sym_factor: 1,
                ..Stats::default()
            },
            None,
        );
    }

    // Breadth-first frontier expansion, mirroring the recursive driver.
    let target = threads * prefix_per_thread.max(1);
    let mut frontier: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    while frontier.len() < target {
        let Some(prefix) = frontier.pop_front() else {
            break;
        };
        if let Some(cause) = lim.stop_requested() {
            return (Outcome::NodeLimit, root.take_stats(), Some(cause));
        }
        for &t in &prefix {
            root.place(t);
        }
        let mut early: Option<Outcome> = None;
        if root.uncovered.is_empty() {
            early = Some(Outcome::Feasible(root.chosen.clone()));
        } else {
            root.stats.nodes += 1;
            let prefix_slack = (budget as u64).saturating_sub(root.chosen.len() as u64);
            if root.stats.nodes > max_nodes {
                early = Some(Outcome::NodeLimit);
            } else if root.chosen.len() as u64 + root.remaining_lb() > budget as u64
                || (root.strong && root.strong_lb(prefix_slack) > prefix_slack)
            {
                root.stats.pruned += 1;
            } else {
                let branch = root.uncovered.first_set().expect("unsatisfied");
                root.fill_candidates(branch);
                for &t in &root.frames[root.chosen.len()].cands {
                    let mut child = prefix.clone();
                    child.push(t);
                    frontier.push_back(child);
                }
            }
        }
        for _ in 0..prefix.len() {
            root.unplace();
        }
        if let Some(outcome) = early {
            let cause =
                matches!(outcome, Outcome::NodeLimit).then_some(Exhaustion::NodeBudget);
            return (outcome, root.take_stats(), cause);
        }
    }
    let expand_stats = root.take_stats();
    drop(root);
    if frontier.is_empty() {
        return (Outcome::Infeasible, expand_stats, None);
    }

    let found = AtomicBool::new(false);
    let limit_hit = AtomicBool::new(false);
    let stop_cause = AtomicU8::new(0);
    let nodes = AtomicU64::new(expand_stats.nodes);
    let pruned = AtomicU64::new(expand_stats.pruned);
    let dominated = AtomicU64::new(expand_stats.dominated);
    let sym_pruned = AtomicU64::new(expand_stats.sym_pruned);
    let canon_pruned = AtomicU64::new(expand_stats.canon_pruned);
    let memo_hits = AtomicU64::new(expand_stats.memo_hits);
    let shared_hits = AtomicU64::new(expand_stats.shared_hits);
    let sym_factor = AtomicU32::new(expand_stats.sym_factor);
    let solution = std::sync::Mutex::new(None::<Vec<u32>>);

    pool.scope(|scope| {
        for prefix in &frontier {
            let found = &found;
            let limit_hit = &limit_hit;
            let stop_cause = &stop_cause;
            let nodes = &nodes;
            let pruned = &pruned;
            let dominated = &dominated;
            let sym_pruned = &sym_pruned;
            let canon_pruned = &canon_pruned;
            let memo_hits = &memo_hits;
            let shared_hits = &shared_hits;
            let sym_factor = &sym_factor;
            let solution = &solution;
            scope.spawn(move |_| {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                if nodes.load(Ordering::Relaxed) >= max_nodes {
                    limit_hit.store(true, Ordering::Relaxed);
                    stop_cause
                        .fetch_max(encode_cause(Exhaustion::NodeBudget), Ordering::Relaxed);
                    return;
                }
                let worker_lim = RunLimits {
                    max_nodes: u64::MAX,
                    deadline: lim.deadline,
                    cancel: lim.cancel.clone(),
                };
                // Workers share one store: each attaches with its own
                // generation, so hits on another worker's refutations
                // are visible as `shared_hits`.
                let mut ctx = IterCore::new(u, spec, budget, &worker_lim, sym, store);
                ctx.early_exit = Some(found);
                ctx.shared_nodes = Some((nodes, max_nodes));
                for &t in prefix {
                    ctx.place(t);
                }
                let ok = ctx.run();
                ctx.sync_shared_nodes();
                let st = ctx.take_stats();
                pruned.fetch_add(st.pruned, Ordering::Relaxed);
                dominated.fetch_add(st.dominated, Ordering::Relaxed);
                sym_pruned.fetch_add(st.sym_pruned, Ordering::Relaxed);
                canon_pruned.fetch_add(st.canon_pruned, Ordering::Relaxed);
                memo_hits.fetch_add(st.memo_hits, Ordering::Relaxed);
                shared_hits.fetch_add(st.shared_hits, Ordering::Relaxed);
                sym_factor.fetch_max(st.sym_factor, Ordering::Relaxed);
                if ok {
                    found.store(true, Ordering::Relaxed);
                    *solution.lock().expect("poison-free") = Some(ctx.chosen.clone());
                    return;
                }
                if ctx.hit_limit && !found.load(Ordering::Relaxed) {
                    limit_hit.store(true, Ordering::Relaxed);
                    if let Some(cause) = ctx.stop_cause {
                        stop_cause.fetch_max(encode_cause(cause), Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let stats = Stats {
        nodes: nodes.load(Ordering::Relaxed),
        pruned: pruned.load(Ordering::Relaxed),
        dominated: dominated.load(Ordering::Relaxed),
        sym_pruned: sym_pruned.load(Ordering::Relaxed),
        canon_pruned: canon_pruned.load(Ordering::Relaxed),
        memo_hits: memo_hits.load(Ordering::Relaxed),
        shared_hits: shared_hits.load(Ordering::Relaxed),
        // One store serves every worker: report its population, not a
        // per-worker sum.
        memo_entries: store.map_or(0, |s| s.len()),
        sym_factor: sym_factor.load(Ordering::Relaxed),
        partition_probes: 0,
    };
    let sol = solution.lock().expect("poison-free").take();
    match sol {
        Some(sol) => (Outcome::Feasible(sol), stats, None),
        None if limit_hit.load(Ordering::Relaxed) => (
            Outcome::NodeLimit,
            stats,
            Some(decode_cause(stop_cause.load(Ordering::Relaxed))),
        ),
        None => (Outcome::Infeasible, stats, None),
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

    /// Lane words per residual vector (shared by the partition kernel).
    #[inline]
    pub(crate) fn lane_words(&self) -> usize {
        self.lane_words
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

    // ---- residual state, maintained on place/unplace ----
    /// Per-chord residual demand (priority space).
    residual: LaneSet,
    /// Chords with residual > 0 — the unit-machinery view of the state.
    support: ChordSet,
    /// Σ residual(c) · dist(c).
    rem_dist: u64,
    /// Σ residual(c) over diameter chords.
    rem_diam: u64,
    /// Per-vertex residual degree (Σ residual of incident chords).
    deg: Vec<u32>,
    odd: u64,
    /// Incremental level-Zobrist hash of the residual vector.
    hash: u64,

    // ---- the explicit stack ----
    frames: Vec<Frame>,
    /// `undo[d]`: per lane word, the [`LANE_LOW`] decrement mask the
    /// placement at depth `d` applied.
    undo: Vec<Vec<u64>>,
    chosen: Vec<u32>,

    // ---- dominance arena ----
    dom_masks: Vec<ChordSet>,
    dom_spans: Vec<(u32, u32)>,

    // ---- statistics and limits ----
    stats: Stats,
    max_nodes: u64,
    hit_limit: bool,
    stop_cause: Option<Exhaustion>,
    deadline: Option<Instant>,
    cancel: Option<&'a AtomicBool>,
    early_exit: Option<&'a AtomicBool>,
    shared_nodes: Option<(&'a AtomicU64, u64)>,
    synced_nodes: u64,

    // ---- symmetry (pointwise only) ----
    mode: SymmetryMode,
    strong: bool,
    sym: Option<&'a DihedralTables>,
    spec_group: u64,
    stab_stack: Vec<u64>,
    sym_seen: Vec<u64>,
    sym_stamp: u64,

    // ---- memo ----
    store: Option<&'a MemoStore>,
    gen: u32,
}

impl<'a> LaneCore<'a> {
    pub(crate) fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        lim: &'a RunLimits,
        requested: SymmetryMode,
        store: Option<&'a MemoStore>,
        lanes: &'a LaneTables,
    ) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        debug_assert!(
            spec.demand.iter().all(|&d| d <= 3),
            "lane core requires demands ≤ 3"
        );
        let strong = requested != SymmetryMode::Off;
        let (mode, sym, spec_group) = crate::bnb::resolve_symmetry(u, spec, requested);

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

        let store = store.filter(|s| s.compatible(u));
        let gen = store.map_or(0, |s| s.attach());
        let hash = store.map_or(0, |s| {
            support.iter().fold(0u64, |mut h, c| {
                for v in 1..=residual.get(c) {
                    h ^= s.chord_level_key(c, v);
                }
                h
            })
        });

        let max_cands = u.max_candidates() as usize;
        LaneCore {
            u,
            lanes,
            budget,
            residual,
            support,
            rem_dist,
            rem_diam,
            deg,
            odd,
            hash,
            frames: Vec::new(),
            undo: Vec::new(),
            chosen: Vec::new(),
            dom_masks: (0..max_cands).map(|_| ChordSet::empty(m)).collect(),
            dom_spans: vec![(0, 0); max_cands],
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            max_nodes: lim.max_nodes,
            hit_limit: false,
            stop_cause: None,
            deadline: lim.deadline,
            cancel: lim.cancel.as_ref().map(|c| c.flag()),
            early_exit: None,
            shared_nodes: None,
            synced_nodes: 0,
            mode,
            strong,
            sym,
            spec_group,
            stab_stack: if mode == SymmetryMode::Full {
                vec![spec_group]
            } else {
                Vec::new()
            },
            sym_seen: Vec::new(),
            sym_stamp: 0,
            store,
            gen,
        }
    }

    /// Flushes local node counts into the shared counter; `true` when
    /// the global budget is exhausted.
    fn sync_shared_nodes(&mut self) -> bool {
        let Some((counter, cap)) = self.shared_nodes else {
            return false;
        };
        let delta = self.stats.nodes - self.synced_nodes;
        self.synced_nodes = self.stats.nodes;
        let total = counter.fetch_add(delta, Ordering::Relaxed) + delta;
        total > cap
    }

    /// Places tile `t`: one saturating masked subtract per lane word,
    /// then per decremented chord the same incremental-ingredient sweep
    /// as the unit core (distance, diameter, degrees, parity, hash),
    /// plus support retirement for chords whose residual hits zero.
    fn place(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let top = *self.stab_stack.last().expect("stab stack seeded");
            let stab = self.sym.expect("tables exist in Full mode").tile_stab(t);
            self.stab_stack.push(top & stab);
        }
        let depth = self.chosen.len();
        if self.undo.len() == depth {
            self.undo.push(vec![0u64; self.lanes.lane_words]);
        }
        let (llo, lhi) = self.lanes.span(t);
        let diam = self.u.diam_chords();
        for w in llo as usize..lhi as usize {
            let before = self.residual.words()[w];
            let sub = self.residual.place_word(w, self.lanes.mask(t)[w]);
            self.undo[depth][w] = sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                let old = (before >> p & 0b11) as u32;
                self.rem_dist -= self.u.dist_of_pri(c) as u64;
                self.rem_diam -= (c < diam) as u64;
                let (a, b) = self.u.chord_ends_of_pri(c);
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
                if let Some(store) = self.store {
                    self.hash ^= store.chord_level_key(c, old);
                }
                m &= m - 1;
            }
        }
        self.chosen.push(t);
    }

    /// Reverts the most recent placement.
    fn unplace(&mut self) {
        let t = self.chosen.pop().expect("unplace without place");
        let depth = self.chosen.len();
        let (llo, lhi) = self.lanes.span(t);
        let diam = self.u.diam_chords();
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
                self.rem_dist += self.u.dist_of_pri(c) as u64;
                self.rem_diam += (c < diam) as u64;
                let (a, b) = self.u.chord_ends_of_pri(c);
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
                if let Some(store) = self.store {
                    self.hash ^= store.chord_level_key(c, val);
                }
                m &= m - 1;
            }
        }
        if self.mode == SymmetryMode::Full {
            self.stab_stack.pop();
        }
    }

    /// The cheap per-node lower bound — the unit core's capacity /
    /// diameter / vertex-degree trio with every ingredient weighted by
    /// residual multiplicity (a tile still covers each chord, and each
    /// vertex, at most once per placement).
    fn remaining_lb(&self) -> u64 {
        let n = self.u.ring().n() as u64;
        let mut lb = self.rem_dist.div_ceil(n).max(self.rem_diam);
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
    fn strong_lb(&self, stop_above: u64) -> u64 {
        let parity = parity_join_bound_from_odd(self.u.ring().n(), self.rem_dist, self.odd);
        if parity > stop_above {
            return parity;
        }
        diameter_slack_bound(self.u, &self.support, self.rem_dist, stop_above).max(parity)
    }

    /// The memo key of the current residual vector: the packed lane
    /// words, zero-padded to the store's key width. No canonical mode —
    /// λ-fold keys are always raw.
    fn state_key(&self) -> [u64; KEY_WORDS] {
        let words = self.residual.words();
        debug_assert!(words.len() <= KEY_WORDS, "store.compatible caps chords at 128");
        let mut key = [0u64; KEY_WORDS];
        key[..words.len()].copy_from_slice(words);
        key
    }

    /// Steps A–I of one node, mirroring [`IterCore::enter_node`].
    fn enter_node(&mut self, check_memo: bool) -> Enter {
        if self.support.is_empty() {
            return Enter::Solved;
        }
        self.stats.nodes += 1;
        if self.stats.nodes > self.max_nodes {
            self.hit_limit = true;
            self.stop_cause = Some(Exhaustion::NodeBudget);
            return Enter::Abort;
        }
        if self.stats.nodes.is_multiple_of(1024) {
            if let Some(flag) = self.early_exit {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    return Enter::Abort;
                }
            }
            if self.sync_shared_nodes() {
                self.hit_limit = true;
                self.stop_cause = Some(Exhaustion::NodeBudget);
                return Enter::Abort;
            }
        }
        if self.stats.nodes.is_multiple_of(4096) {
            if let Some(flag) = self.cancel {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Cancelled);
                    return Enter::Abort;
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Deadline);
                    return Enter::Abort;
                }
            }
        }
        let used = self.chosen.len() as u64;
        if used + self.remaining_lb() > self.budget as u64 {
            self.stats.pruned += 1;
            return Enter::Dead;
        }
        if self.strong {
            let slack = self.budget as u64 - used;
            if self.strong_lb(slack) > slack {
                self.stats.pruned += 1;
                return Enter::Dead;
            }
        }
        let mut key = [0u64; KEY_WORDS];
        let mut khash = 0u64;
        let mut memoable = false;
        if let Some(store) = self.store {
            let k = self.state_key();
            if check_memo {
                let slack = (self.budget as u64 - used) as u32;
                if let Some(owner) = store.dominated(self.hash, k, 2, slack) {
                    self.stats.memo_hits += 1;
                    if owner != self.gen {
                        self.stats.shared_hits += 1;
                    }
                    return Enter::Dead;
                }
            }
            key = k;
            khash = self.hash;
            memoable = true;
        }
        let branch = self.support.first_set().expect("unsatisfied demand exists");
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
    /// chord's candidates — [`IterCore::fill_candidates`] verbatim with
    /// the support set standing in for the uncovered set. Coverage
    /// counts *chords* with live residual (not residual units), matching
    /// the legacy multiplicity kernel's scoring.
    fn fill_candidates(&mut self, branch: u32) {
        let depth = self.chosen.len();
        while self.frames.len() <= depth {
            self.frames.push(Frame::default());
        }
        let u = self.u;
        let n = u.ring().n();
        let mut scored = std::mem::take(&mut self.frames[depth].scored);
        let mut cands = std::mem::take(&mut self.frames[depth].cands);
        scored.clear();
        cands.clear();
        for &t in u.candidates_pri(branch) {
            let (lo, hi) = u.tile_mask_span(t);
            let mut cov = 0u32;
            let mut useful = 0u32;
            for (wi, (a, b)) in u.tile_mask(t)[lo as usize..hi as usize]
                .iter()
                .zip(&self.support.words()[lo as usize..hi as usize])
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
            if cov > 0 {
                let waste = n - useful.min(n);
                scored.push((t, cov, waste));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));

        // Dominance over live coverage: sound under multiplicities —
        // replacing a dominated tile with its dominator in any covering
        // multiset yields a covering of the same size.
        let c = scored.len();
        debug_assert!(c <= self.dom_masks.len(), "arena sized from max_candidates");
        if c > 1 {
            for (slot, &(t, _, _)) in scored.iter().enumerate() {
                let (lo, hi) = u.tile_mask_span(t);
                let (plo, phi) = self.dom_spans[slot];
                self.dom_masks[slot].clear_words(plo as usize, phi as usize);
                self.dom_masks[slot].assign_intersection_in(
                    u.tile_mask(t),
                    &self.support,
                    lo as usize,
                    hi as usize,
                );
                self.dom_spans[slot] = (lo, hi);
            }
            for (i, &(t, _, _)) in scored.iter().enumerate() {
                if i > 0 {
                    let (lo, hi) = u.tile_mask_span(t);
                    let (earlier, rest) = self.dom_masks.split_at(i);
                    let mask_i = &rest[0];
                    if earlier
                        .iter()
                        .any(|prior| mask_i.is_subset_of_in(prior, lo as usize, hi as usize))
                    {
                        self.stats.dominated += 1;
                        continue;
                    }
                }
                cands.push(t);
            }
        } else {
            cands.extend(scored.iter().map(|&(t, _, _)| t));
        }

        self.filter_symmetric(branch, &mut cands);
        let f = &mut self.frames[depth];
        f.scored = scored;
        f.cands = cands;
    }

    /// Sibling orbit filtering, pointwise only: `Root` at the empty
    /// prefix under the spec group, `Full` at every depth under the
    /// pointwise prefix stabilizer — the recursive reference's rule,
    /// with no setwise upgrade (that machinery is tied to canonical
    /// memo keys, which the lane core does not use).
    fn filter_symmetric(&mut self, branch: u32, cands: &mut Vec<u32>) {
        let Some(sym) = self.sym else { return };
        let group = match self.mode {
            SymmetryMode::Off => return,
            SymmetryMode::Root => {
                if !self.chosen.is_empty() {
                    return;
                }
                self.spec_group
            }
            SymmetryMode::Full => *self.stab_stack.last().expect("stab stack seeded"),
        };
        let filter = group & sym.chord_stab(branch);
        if self.chosen.is_empty() {
            self.stats.sym_factor = self.stats.sym_factor.max(filter.count_ones());
        }
        if filter & !1 == 0 {
            return;
        }
        if self.sym_seen.len() < sym.num_tiles() as usize {
            self.sym_seen.resize(sym.num_tiles() as usize, 0);
        }
        self.sym_stamp += 1;
        let stamp = self.sym_stamp;
        let sym_seen = &mut self.sym_seen;
        let stats = &mut self.stats;
        cands.retain(|&t| {
            let mut elements = filter & !1;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && sym_seen[image as usize] == stamp {
                    stats.sym_pruned += 1;
                    return false;
                }
            }
            sym_seen[t as usize] = stamp;
            true
        });
    }

    /// Drives the search from the current placement depth — the loop of
    /// [`IterCore::run`] minus canonical-mode bookkeeping (the memo's
    /// candidate pre-probe covers every non-root node, so only the
    /// subtree root checks the store at entry).
    fn run(&mut self) -> bool {
        let base = self.chosen.len();
        let mut entering = true;
        let mut check_memo = true;
        loop {
            if entering {
                match self.enter_node(check_memo) {
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

    /// Probes the store for candidate `t`'s child residual vector before
    /// placing it — the lane twin of [`IterCore::skip_candidate`],
    /// simulating the masked subtract over a copy of the lane words.
    fn skip_candidate(&mut self, t: u32) -> bool {
        let Some(store) = self.store else {
            return false;
        };
        let mut key = self.state_key();
        let mut h = self.hash;
        let (llo, lhi) = self.lanes.span(t);
        for (w, kw) in key
            .iter_mut()
            .enumerate()
            .take(lhi as usize)
            .skip(llo as usize)
        {
            let r = *kw;
            let sub = (r | r >> 1) & self.lanes.mask(t)[w] & LANE_LOW;
            *kw = r - sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                h ^= store.chord_level_key(c, (r >> p & 0b11) as u32);
                m &= m - 1;
            }
        }
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

    /// Final statistics (stamps the store's resident entry count).
    fn take_stats(&mut self) -> Stats {
        self.stats.memo_entries = self.store.map_or(0, |s| s.len());
        self.stats
    }
}

/// Budgeted iterative search over packed residual lanes — the λ-fold
/// engine path for demands ≤ 3. Same contract as [`search_iterative`].
pub(crate) fn search_lanes(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let lanes = LaneTables::build(u);
    let mut core = LaneCore::new(u, spec, budget, lim, sym, store, &lanes);
    if core.run() {
        let chosen = core.chosen.clone();
        (Outcome::Feasible(chosen), core.take_stats(), None)
    } else if core.hit_limit {
        let cause = core.stop_cause;
        (Outcome::NodeLimit, core.take_stats(), cause)
    } else {
        (Outcome::Infeasible, core.take_stats(), None)
    }
}

/// The frontier-parallel driver over [`LaneCore`] workers — the λ-fold
/// member of the mirrored driver family ([`search_iterative_parallel`],
/// `bnb::search_parallel`): same expansion accounting, pre-spawn
/// guards, and stop-cause ranking, with one [`LaneTables`] shared by
/// every worker.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_lanes_parallel(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    threads: usize,
    prefix_per_thread: usize,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let max_nodes = lim.max_nodes;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let threads = pool.current_num_threads();
    let lanes = LaneTables::build(u);
    let mut root = LaneCore::new(u, spec, budget, lim, sym, store, &lanes);
    if root.support.is_empty() {
        return (Outcome::Feasible(Vec::new()), root.take_stats(), None);
    }
    let root_infeasible = root.remaining_lb() > budget as u64
        || (root.strong && root.strong_lb(budget as u64) > budget as u64);
    if root_infeasible {
        return (
            Outcome::Infeasible,
            Stats {
                nodes: 1,
                pruned: 1,
                sym_factor: 1,
                ..Stats::default()
            },
            None,
        );
    }

    // Breadth-first frontier expansion, mirroring the unit driver.
    let target = threads * prefix_per_thread.max(1);
    let mut frontier: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    while frontier.len() < target {
        let Some(prefix) = frontier.pop_front() else {
            break;
        };
        if let Some(cause) = lim.stop_requested() {
            return (Outcome::NodeLimit, root.take_stats(), Some(cause));
        }
        for &t in &prefix {
            root.place(t);
        }
        let mut early: Option<Outcome> = None;
        if root.support.is_empty() {
            early = Some(Outcome::Feasible(root.chosen.clone()));
        } else {
            root.stats.nodes += 1;
            let prefix_slack = (budget as u64).saturating_sub(root.chosen.len() as u64);
            if root.stats.nodes > max_nodes {
                early = Some(Outcome::NodeLimit);
            } else if root.chosen.len() as u64 + root.remaining_lb() > budget as u64
                || (root.strong && root.strong_lb(prefix_slack) > prefix_slack)
            {
                root.stats.pruned += 1;
            } else {
                let branch = root.support.first_set().expect("unsatisfied");
                root.fill_candidates(branch);
                for &t in &root.frames[root.chosen.len()].cands {
                    let mut child = prefix.clone();
                    child.push(t);
                    frontier.push_back(child);
                }
            }
        }
        for _ in 0..prefix.len() {
            root.unplace();
        }
        if let Some(outcome) = early {
            let cause =
                matches!(outcome, Outcome::NodeLimit).then_some(Exhaustion::NodeBudget);
            return (outcome, root.take_stats(), cause);
        }
    }
    let expand_stats = root.take_stats();
    drop(root);
    if frontier.is_empty() {
        return (Outcome::Infeasible, expand_stats, None);
    }

    let found = AtomicBool::new(false);
    let limit_hit = AtomicBool::new(false);
    let stop_cause = AtomicU8::new(0);
    let nodes = AtomicU64::new(expand_stats.nodes);
    let pruned = AtomicU64::new(expand_stats.pruned);
    let dominated = AtomicU64::new(expand_stats.dominated);
    let sym_pruned = AtomicU64::new(expand_stats.sym_pruned);
    let canon_pruned = AtomicU64::new(expand_stats.canon_pruned);
    let memo_hits = AtomicU64::new(expand_stats.memo_hits);
    let shared_hits = AtomicU64::new(expand_stats.shared_hits);
    let sym_factor = AtomicU32::new(expand_stats.sym_factor);
    let solution = std::sync::Mutex::new(None::<Vec<u32>>);

    pool.scope(|scope| {
        for prefix in &frontier {
            let found = &found;
            let limit_hit = &limit_hit;
            let stop_cause = &stop_cause;
            let nodes = &nodes;
            let pruned = &pruned;
            let dominated = &dominated;
            let sym_pruned = &sym_pruned;
            let canon_pruned = &canon_pruned;
            let memo_hits = &memo_hits;
            let shared_hits = &shared_hits;
            let sym_factor = &sym_factor;
            let solution = &solution;
            let lanes = &lanes;
            scope.spawn(move |_| {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                if nodes.load(Ordering::Relaxed) >= max_nodes {
                    limit_hit.store(true, Ordering::Relaxed);
                    stop_cause
                        .fetch_max(encode_cause(Exhaustion::NodeBudget), Ordering::Relaxed);
                    return;
                }
                let worker_lim = RunLimits {
                    max_nodes: u64::MAX,
                    deadline: lim.deadline,
                    cancel: lim.cancel.clone(),
                };
                let mut ctx = LaneCore::new(u, spec, budget, &worker_lim, sym, store, lanes);
                ctx.early_exit = Some(found);
                ctx.shared_nodes = Some((nodes, max_nodes));
                for &t in prefix {
                    ctx.place(t);
                }
                let ok = ctx.run();
                ctx.sync_shared_nodes();
                let st = ctx.take_stats();
                pruned.fetch_add(st.pruned, Ordering::Relaxed);
                dominated.fetch_add(st.dominated, Ordering::Relaxed);
                sym_pruned.fetch_add(st.sym_pruned, Ordering::Relaxed);
                canon_pruned.fetch_add(st.canon_pruned, Ordering::Relaxed);
                memo_hits.fetch_add(st.memo_hits, Ordering::Relaxed);
                shared_hits.fetch_add(st.shared_hits, Ordering::Relaxed);
                sym_factor.fetch_max(st.sym_factor, Ordering::Relaxed);
                if ok {
                    found.store(true, Ordering::Relaxed);
                    *solution.lock().expect("poison-free") = Some(ctx.chosen.clone());
                    return;
                }
                if ctx.hit_limit && !found.load(Ordering::Relaxed) {
                    limit_hit.store(true, Ordering::Relaxed);
                    if let Some(cause) = ctx.stop_cause {
                        stop_cause.fetch_max(encode_cause(cause), Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let stats = Stats {
        nodes: nodes.load(Ordering::Relaxed),
        pruned: pruned.load(Ordering::Relaxed),
        dominated: dominated.load(Ordering::Relaxed),
        sym_pruned: sym_pruned.load(Ordering::Relaxed),
        canon_pruned: canon_pruned.load(Ordering::Relaxed),
        memo_hits: memo_hits.load(Ordering::Relaxed),
        shared_hits: shared_hits.load(Ordering::Relaxed),
        memo_entries: store.map_or(0, |s| s.len()),
        sym_factor: sym_factor.load(Ordering::Relaxed),
        partition_probes: 0,
    };
    let sol = solution.lock().expect("poison-free").take();
    match sol {
        Some(sol) => (Outcome::Feasible(sol), stats, None),
        None if limit_hit.load(Ordering::Relaxed) => (
            Outcome::NodeLimit,
            stats,
            Some(decode_cause(stop_cause.load(Ordering::Relaxed))),
        ),
        None => (Outcome::Infeasible, stats, None),
    }
}
