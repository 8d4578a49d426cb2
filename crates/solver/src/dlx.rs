//! Exact-cover machinery: the generic Dancing Links substrate and the
//! **slack-budgeted partition kernel** built in its image.
//!
//! Two layers live here:
//!
//! * [`ExactCover`] — classic Dancing Links (Knuth's Algorithm X): one
//!   arena of doubly-linked nodes in four directions, column headers
//!   with live counts, MRV column selection. Used by the design-theory
//!   baselines (`cyclecover-design`) and tests that need "find any
//!   exact decomposition".
//! * `PartitionCore` / `search_partition` — the cycle-covering
//!   search re-posed as a *slack-budgeted exact cover*: columns are the
//!   priority chords (packed 2-bit residual lanes for demands ≤ 3, the
//!   [`crate::bitset::LaneSet`] the λ-fold core uses), rows are the
//!   tiles, and one extra global resource — the **waste budget**
//!   `slack = budget·n − λ·Σd(e)` — absorbs every unit of cycle length
//!   not spent covering residual demand. The paper's capacity bound
//!   `⌈λ·Σd(e)/n⌉` (Theorem 1 / Proposition 1) says exactly that a
//!   `k`-tile covering wastes `k·n − λ·Σd(e)`; near-tight instances
//!   (the Theorem 1/2 rows, the n ≡ 0 (mod 8) probes) leave the search
//!   almost no slack, and this kernel exploits it:
//!
//!   * **MRV column selection.** Instead of branching on the
//!     highest-priority residual chord, each node branches on the
//!     support chord with the *fewest* candidates still affordable
//!     under the remaining slack (counted against each tile's static
//!     waste `n − load`, precomputed sorted per chord — a
//!     `partition_point` per support chord).
//!   * **Full-load propagation.** A candidate whose exact waste
//!     increment would overdraw the slack is dropped at scoring time —
//!     the same capacity argument that would prune it as a child node,
//!     applied without spawning the node. Once remaining slack falls
//!     below the cheapest positive tile waste, only full-load tiles
//!     survive and the candidate set collapses to the partition rows.
//!   * **Reused machinery, where sound.** Subset-dominance filtering
//!     (waste-filter first, then dominance: a dominator covers a
//!     superset of the dominated tile's live chords, so its waste
//!     increment is no larger and it survives the filter whenever the
//!     dominated tile does), dihedral orbit reduction (pointwise, as
//!     the lane core), the capacity/diameter/vertex-degree and
//!     parity/T-join bounds, in-kernel deadline/cancel checks, and the
//!     refutation memo — keyed by the packed residual lanes under a
//!     **waste-slack** `rem` (lane width tag 3 in `crate::memo`):
//!     "no completion of this residual state wastes ≤ `rem`". Since a
//!     `k`-tile completion of a state `R` wastes exactly
//!     `k·n − Σ residual-dist(R)`, the statement is budget-free and
//!     monotone in `rem`, so the store's dominated/record rules apply
//!     unchanged.

use crate::api::Exhaustion;
use crate::bitset::{ChordSet, LaneSet, LANES_PER_WORD, LANE_LOW};
use crate::bnb::{CoverSpec, Outcome, RunLimits, Stats, SymmetryMode};
use crate::lower_bound::{diameter_slack_bound, parity_join_bound_from_odd};
use crate::memo::{MemoStore, KEY_WORDS};
use crate::search_core::LaneTables;
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A (mutable) exact-cover problem instance.
///
/// Columns are the universe elements `0..num_cols`; rows are subsets added
/// via [`ExactCover::add_row`]. [`ExactCover::solve_first`] searches for a
/// set of rows covering every column exactly once.
pub struct ExactCover {
    /// left/right/up/down/column links per node; nodes 0..=num_cols are the
    /// root (0) and column headers (1..=num_cols).
    left: Vec<u32>,
    right: Vec<u32>,
    up: Vec<u32>,
    down: Vec<u32>,
    col: Vec<u32>,
    /// Live node count per column header index (1-based).
    size: Vec<u32>,
    /// Row id per node (u32::MAX for headers).
    row_of: Vec<u32>,
    num_rows: u32,
    /// First node index of each row (for reporting).
    row_start: Vec<u32>,
}

impl ExactCover {
    /// New instance over universe `0..num_cols`.
    pub fn new(num_cols: usize) -> Self {
        let h = num_cols + 1; // root + headers
        let mut ec = ExactCover {
            left: Vec::with_capacity(h),
            right: Vec::with_capacity(h),
            up: Vec::with_capacity(h),
            down: Vec::with_capacity(h),
            col: Vec::with_capacity(h),
            size: vec![0; h],
            row_of: Vec::with_capacity(h),
            num_rows: 0,
            row_start: Vec::new(),
        };
        for i in 0..h as u32 {
            ec.left.push(if i == 0 { h as u32 - 1 } else { i - 1 });
            ec.right.push(if i as usize == h - 1 { 0 } else { i + 1 });
            ec.up.push(i);
            ec.down.push(i);
            ec.col.push(i);
            ec.row_of.push(u32::MAX);
        }
        ec
    }

    /// Adds a row covering the given (distinct) columns; returns its row id.
    ///
    /// # Panics
    /// Panics if `cols` is empty or contains an out-of-range column.
    pub fn add_row(&mut self, cols: &[usize]) -> u32 {
        assert!(!cols.is_empty(), "empty row");
        let rid = self.num_rows;
        self.num_rows += 1;
        let first = self.left.len() as u32;
        self.row_start.push(first);
        for (k, &c) in cols.iter().enumerate() {
            assert!(c + 1 < self.size.len(), "column {c} out of range");
            let header = (c + 1) as u32;
            let node = self.left.len() as u32;
            // Vertical insertion just above the header (= column bottom).
            let above = self.up[header as usize];
            self.up.push(above);
            self.down.push(header);
            self.down[above as usize] = node;
            self.up[header as usize] = node;
            // Horizontal circular links within the row.
            if k == 0 {
                self.left.push(node);
                self.right.push(node);
            } else {
                let prev = node - 1;
                let head = first;
                self.left.push(prev);
                self.right.push(head);
                self.right[prev as usize] = node;
                self.left[head as usize] = node;
            }
            self.col.push(header);
            self.size[header as usize] += 1;
            self.row_of.push(rid);
        }
        rid
    }

    fn cover(&mut self, c: u32) {
        let (l, r) = (self.left[c as usize], self.right[c as usize]);
        self.right[l as usize] = r;
        self.left[r as usize] = l;
        let mut i = self.down[c as usize];
        while i != c {
            let mut j = self.right[i as usize];
            while j != i {
                let (u, d) = (self.up[j as usize], self.down[j as usize]);
                self.down[u as usize] = d;
                self.up[d as usize] = u;
                self.size[self.col[j as usize] as usize] -= 1;
                j = self.right[j as usize];
            }
            i = self.down[i as usize];
        }
    }

    fn uncover(&mut self, c: u32) {
        let mut i = self.up[c as usize];
        while i != c {
            let mut j = self.left[i as usize];
            while j != i {
                let (u, d) = (self.up[j as usize], self.down[j as usize]);
                self.down[u as usize] = j;
                self.up[d as usize] = j;
                self.size[self.col[j as usize] as usize] += 1;
                j = self.left[j as usize];
            }
            i = self.up[i as usize];
        }
        let (l, r) = (self.left[c as usize], self.right[c as usize]);
        self.right[l as usize] = c;
        self.left[r as usize] = c;
    }

    /// Smallest live column (MRV heuristic); `None` if all covered.
    fn choose_column(&self) -> Option<u32> {
        let mut best = None;
        let mut best_size = u32::MAX;
        let mut c = self.right[0];
        while c != 0 {
            let s = self.size[c as usize];
            if s < best_size {
                best_size = s;
                best = Some(c);
                if s == 0 {
                    break;
                }
            }
            c = self.right[c as usize];
        }
        best
    }

    /// Finds one exact cover; returns the selected row ids, or `None`.
    pub fn solve_first(&mut self) -> Option<Vec<u32>> {
        let mut stack = Vec::new();
        if self.search_first(&mut stack) {
            Some(stack)
        } else {
            None
        }
    }

    fn search_first(&mut self, stack: &mut Vec<u32>) -> bool {
        let c = match self.choose_column() {
            None => return true,
            Some(c) => c,
        };
        if self.size[c as usize] == 0 {
            return false;
        }
        self.cover(c);
        let mut r = self.down[c as usize];
        while r != c {
            stack.push(self.row_of[r as usize]);
            let mut j = self.right[r as usize];
            while j != r {
                self.cover(self.col[j as usize]);
                j = self.right[j as usize];
            }
            if self.search_first(stack) {
                return true;
            }
            let mut j = self.left[r as usize];
            while j != r {
                self.uncover(self.col[j as usize]);
                j = self.left[j as usize];
            }
            stack.pop();
            r = self.down[r as usize];
        }
        self.uncover(c);
        false
    }

    /// Counts exact covers up to `limit` (stops early once reached).
    pub fn count_solutions(&mut self, limit: u64) -> u64 {
        let mut count = 0;
        self.count_rec(limit, &mut count);
        count
    }

    fn count_rec(&mut self, limit: u64, count: &mut u64) {
        if *count >= limit {
            return;
        }
        let c = match self.choose_column() {
            None => {
                *count += 1;
                return;
            }
            Some(c) => c,
        };
        if self.size[c as usize] == 0 {
            return;
        }
        self.cover(c);
        let mut r = self.down[c as usize];
        while r != c {
            let mut j = self.right[r as usize];
            while j != r {
                self.cover(self.col[j as usize]);
                j = self.right[j as usize];
            }
            self.count_rec(limit, count);
            let mut j = self.left[r as usize];
            while j != r {
                self.uncover(self.col[j as usize]);
                j = self.left[j as usize];
            }
            r = self.down[r as usize];
        }
        self.uncover(c);
    }
}

// ---------------------------------------------------------------------------
// The slack-budgeted partition kernel
// ---------------------------------------------------------------------------

/// Per-depth iteration state of the partition kernel — the lane/bitset
/// cores' frame, with candidates staged by the MRV column choice.
#[derive(Default)]
struct PartFrame {
    /// `(tile, live coverage, exact waste increment)` scoring scratch.
    scored: Vec<(u32, u32, u32)>,
    /// Candidates surviving the waste filter, dominance, and orbit
    /// filtering, in order.
    cands: Vec<u32>,
    cursor: usize,
    /// Residual-state key/hash at node entry (memo bookkeeping).
    key: [u64; KEY_WORDS],
    hash: u64,
    memoable: bool,
}

/// What happened when the loop entered a node.
enum PartEnter {
    Solved,
    Abort,
    Dead,
    Ready,
}

/// The slack-budgeted exact-cover search over packed residual lanes —
/// [`crate::search_core`]'s lane core re-armed for capacity-tight
/// instances. See the module docs for the column/row/waste-budget
/// formulation and what is reused versus new.
pub(crate) struct PartitionCore<'a> {
    u: &'a TileUniverse,
    lanes: &'a LaneTables,
    budget: u32,
    n: u32,
    /// The root waste budget `budget·n − λ·Σd(e)` (clamped to 0 when
    /// the budget is below capacity — the root bound prune fires before
    /// the slack is ever consulted).
    slack: u64,
    /// Waste spent by the placed prefix: `Σ (n − useful(t))` over
    /// placements, where `useful` counts only newly decremented chords.
    /// Invariant: `placed·n = covered-dist + waste_used`, and the
    /// candidate filter keeps `waste_used ≤ slack` at every node.
    waste_used: u64,

    // ---- residual state, maintained on place/unplace ----
    residual: LaneSet,
    /// Chords with residual > 0 — the unit-machinery view of the state.
    support: ChordSet,
    rem_dist: u64,
    rem_diam: u64,
    deg: Vec<u32>,
    odd: u64,
    hash: u64,

    // ---- MRV tables ----
    /// Static tile wastes (`n − load`) of each chord's candidates,
    /// sorted ascending: `waste_sorted[waste_off[c]..waste_off[c+1]]`.
    /// A `partition_point` at the remaining slack counts how many
    /// candidates of chord `c` are still affordable (static waste lower
    /// bounds the exact increment, so the count never undercounts).
    waste_sorted: Vec<u32>,
    waste_off: Vec<u32>,

    // ---- the explicit stack ----
    frames: Vec<PartFrame>,
    /// `undo[d]`: per lane word, the decrement mask depth `d` applied.
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

    // ---- symmetry (pointwise, as the lane core) ----
    mode: SymmetryMode,
    strong: bool,
    sym: Option<&'a DihedralTables>,
    spec_group: u64,
    stab_stack: Vec<u64>,
    sym_seen: Vec<u64>,
    sym_stamp: u64,

    // ---- memo (lane width 3: waste-slack entries) ----
    store: Option<&'a MemoStore>,
    gen: u32,
}

impl<'a> PartitionCore<'a> {
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
        assert!(
            spec.max_demand() <= 3,
            "partition kernel requires demands ≤ 3"
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
        let slack = (budget as u64 * n as u64).saturating_sub(rem_dist);

        let mut waste_off = Vec::with_capacity(m as usize + 1);
        waste_off.push(0u32);
        let mut waste_sorted = Vec::new();
        for c in 0..m {
            let start = waste_sorted.len();
            waste_sorted.extend(u.candidates_pri(c).iter().map(|&t| u.tile_waste(t)));
            waste_sorted[start..].sort_unstable();
            waste_off.push(waste_sorted.len() as u32);
        }

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
        PartitionCore {
            u,
            lanes,
            budget,
            n,
            slack,
            waste_used: 0,
            residual,
            support,
            rem_dist,
            rem_diam,
            deg,
            odd,
            hash,
            waste_sorted,
            waste_off,
            frames: Vec::new(),
            undo: Vec::new(),
            chosen: Vec::new(),
            dom_masks: (0..max_cands).map(|_| ChordSet::empty(m)).collect(),
            dom_spans: vec![(0, 0); max_cands],
            stats: Stats {
                sym_factor: 1,
                partition_probes: 1,
                ..Stats::default()
            },
            max_nodes: lim.max_nodes,
            hit_limit: false,
            stop_cause: None,
            deadline: lim.deadline,
            cancel: lim.cancel.as_ref().map(|c| c.flag()),
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

    /// Places tile `t` — the lane core's masked subtract and incremental
    /// sweep, plus waste accounting: the placement's exact waste
    /// increment is `n` minus the distance of the chords it newly
    /// decremented.
    fn place(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let top = *self.stab_stack.last().expect("stab stack seeded");
            let stab = self.sym.expect("tables exist in Full mode").tile_stab(t);
            self.stab_stack.push(top & stab);
        }
        let depth = self.chosen.len();
        if self.undo.len() == depth {
            self.undo.push(vec![0u64; self.lanes.lane_words()]);
        }
        let (llo, lhi) = self.lanes.span(t);
        let diam = self.u.diam_chords();
        let mut useful = 0u64;
        for w in llo as usize..lhi as usize {
            let before = self.residual.words()[w];
            let sub = self.residual.place_word(w, self.lanes.mask(t)[w]);
            self.undo[depth][w] = sub;
            let mut m = sub;
            while m != 0 {
                let p = m.trailing_zeros();
                let c = (w as u32) * LANES_PER_WORD + p / 2;
                let old = (before >> p & 0b11) as u32;
                let d = self.u.dist_of_pri(c) as u64;
                useful += d;
                self.rem_dist -= d;
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
        debug_assert!(useful <= self.n as u64, "a tile covers at most one cycle length");
        self.waste_used += self.n as u64 - useful;
        self.chosen.push(t);
    }

    /// Reverts the most recent placement (including its waste).
    fn unplace(&mut self) {
        let t = self.chosen.pop().expect("unplace without place");
        let depth = self.chosen.len();
        let (llo, lhi) = self.lanes.span(t);
        let diam = self.u.diam_chords();
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
                let val = (after >> p & 0b11) as u32;
                let d = self.u.dist_of_pri(c) as u64;
                useful += d;
                self.rem_dist += d;
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
        self.waste_used -= self.n as u64 - useful;
        if self.mode == SymmetryMode::Full {
            self.stab_stack.pop();
        }
    }

    /// The cheap bound trio (capacity / diameter / vertex degree) over
    /// the residual-weighted ingredients — the lane core's bound. The
    /// capacity term is the waste budget seen from the other side:
    /// `used + ⌈rem_dist/n⌉ > budget ⟺ waste_used > slack − (future
    /// minimum waste)`.
    fn remaining_lb(&self) -> u64 {
        let n = self.n as u64;
        let mut lb = self.rem_dist.div_ceil(n).max(self.rem_diam);
        for &d in &self.deg {
            lb = lb.max((d as u64).div_ceil(2));
        }
        lb
    }

    /// The strong bound: parity/T-join first, then the diameter-slack
    /// dual over the support set — both valid under multiplicities for
    /// the same reasons as in the lane core.
    fn strong_lb(&self, stop_above: u64) -> u64 {
        let parity = parity_join_bound_from_odd(self.n, self.rem_dist, self.odd);
        if parity > stop_above {
            return parity;
        }
        diameter_slack_bound(self.u, &self.support, self.rem_dist, stop_above).max(parity)
    }

    /// The memo key: the packed residual lane words, zero-padded.
    fn state_key(&self) -> [u64; KEY_WORDS] {
        let words = self.residual.words();
        debug_assert!(words.len() <= KEY_WORDS, "store.compatible caps chords at 128");
        let mut key = [0u64; KEY_WORDS];
        key[..words.len()].copy_from_slice(words);
        key
    }

    /// MRV column selection: the support chord with the fewest
    /// candidates affordable under the remaining slack (counted by
    /// `partition_point` over the chord's sorted static wastes; ties
    /// break toward the higher-priority chord, so a uniform count
    /// reproduces the priority branch rule). With zero remaining slack
    /// only full-load tiles count — the exact-partition collapse.
    fn choose_branch(&self) -> u32 {
        let rem_slack = self.slack - self.waste_used;
        let mut best = 0u32;
        let mut best_count = usize::MAX;
        for c in self.support.iter() {
            let lo = self.waste_off[c as usize] as usize;
            let hi = self.waste_off[c as usize + 1] as usize;
            let count = self.waste_sorted[lo..hi].partition_point(|&w| w as u64 <= rem_slack);
            if count < best_count {
                best_count = count;
                best = c;
                if count == 0 {
                    break;
                }
            }
        }
        best
    }

    /// One node's entry sequence: satisfied / limits / bounds / memo /
    /// candidate staging — the lane core's, with the MRV branch choice
    /// and the waste-slack memo domain.
    fn enter_node(&mut self, check_memo: bool) -> PartEnter {
        if self.support.is_empty() {
            return PartEnter::Solved;
        }
        self.stats.nodes += 1;
        if self.stats.nodes > self.max_nodes {
            self.hit_limit = true;
            self.stop_cause = Some(Exhaustion::NodeBudget);
            return PartEnter::Abort;
        }
        if self.stats.nodes.is_multiple_of(4096) {
            if let Some(flag) = self.cancel {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Cancelled);
                    return PartEnter::Abort;
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Deadline);
                    return PartEnter::Abort;
                }
            }
        }
        debug_assert!(
            self.waste_used <= self.slack,
            "the candidate filter keeps every placement within the waste budget"
        );
        let used = self.chosen.len() as u64;
        if used + self.remaining_lb() > self.budget as u64 {
            self.stats.pruned += 1;
            return PartEnter::Dead;
        }
        if self.strong {
            let slack_tiles = self.budget as u64 - used;
            if self.strong_lb(slack_tiles) > slack_tiles {
                self.stats.pruned += 1;
                return PartEnter::Dead;
            }
        }
        let mut key = [0u64; KEY_WORDS];
        let mut khash = 0u64;
        let mut memoable = false;
        if let Some(store) = self.store {
            let k = self.state_key();
            if check_memo {
                let rem_slack = (self.slack - self.waste_used) as u32;
                if let Some(owner) = store.dominated(self.hash, k, 3, rem_slack) {
                    self.stats.memo_hits += 1;
                    if owner != self.gen {
                        self.stats.shared_hits += 1;
                    }
                    return PartEnter::Dead;
                }
            }
            key = k;
            khash = self.hash;
            memoable = true;
        }
        let branch = self.choose_branch();
        self.fill_candidates(branch);
        let depth = self.chosen.len();
        let f = &mut self.frames[depth];
        f.cursor = 0;
        f.key = key;
        f.hash = khash;
        f.memoable = memoable;
        PartEnter::Ready
    }

    /// Scores the branch chord's candidates with their **exact** waste
    /// increment, drops any that would overdraw the slack (the
    /// full-load propagation: at zero remaining slack only exact
    /// partition rows survive), then sorts, dominance-filters, and
    /// orbit-filters as the lane core does. The waste filter runs
    /// first, so dominance stays sound: a dominator's waste increment
    /// never exceeds its dominated tile's.
    fn fill_candidates(&mut self, branch: u32) {
        let depth = self.chosen.len();
        while self.frames.len() <= depth {
            self.frames.push(PartFrame::default());
        }
        let u = self.u;
        let n = self.n;
        let rem_slack = self.slack - self.waste_used;
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
                debug_assert!(useful <= n, "a tile covers at most one cycle length");
                let waste = n - useful;
                if waste as u64 > rem_slack {
                    // The child would overdraw the waste budget — the
                    // capacity prune it would hit as a node, applied
                    // without spawning one.
                    self.stats.pruned += 1;
                    continue;
                }
                scored.push((t, cov, waste));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));

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

    /// Sibling orbit filtering, pointwise only — the lane core's rule
    /// verbatim: `Root` at the empty prefix under the spec group,
    /// `Full` at every depth under the pointwise prefix stabilizer.
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

    /// Drives the search from the current placement depth — the lane
    /// core's loop with waste-slack memo records.
    fn run(&mut self) -> bool {
        let base = self.chosen.len();
        let mut entering = true;
        let mut check_memo = true;
        loop {
            if entering {
                match self.enter_node(check_memo) {
                    PartEnter::Solved => return true,
                    PartEnter::Abort => return false,
                    PartEnter::Dead => {
                        if self.chosen.len() == base {
                            return false;
                        }
                        self.unplace();
                        entering = false;
                        continue;
                    }
                    PartEnter::Ready => {}
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
                    let rem = (self.slack - self.waste_used) as u32;
                    self.store
                        .expect("memoable implies a store")
                        .record(hash, key, 3, rem, self.gen);
                }
                if depth == base {
                    return false;
                }
                self.unplace();
                entering = false;
            }
        }
    }

    /// Probes the store for candidate `t`'s child residual state before
    /// placing it, under the child's remaining *waste* slack — the lane
    /// core's pre-probe in the waste-slack domain.
    fn skip_candidate(&mut self, t: u32) -> bool {
        let Some(store) = self.store else {
            return false;
        };
        let mut key = self.state_key();
        let mut h = self.hash;
        let mut useful = 0u64;
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
                useful += self.u.dist_of_pri(c) as u64;
                h ^= store.chord_level_key(c, (r >> p & 0b11) as u32);
                m &= m - 1;
            }
        }
        if key == [0; KEY_WORDS] {
            return false;
        }
        // Candidates were filtered against the node's slack, so the
        // child's remaining waste budget never underflows.
        let child_rem = self.slack - self.waste_used - (self.n as u64 - useful);
        if let Some(owner) = store.dominated(h, key, 3, child_rem as u32) {
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

/// Budgeted search through the slack-budgeted partition kernel — the
/// engine path for capacity-tight instances with demands ≤ 3. Same
/// contract as `search_lanes`; `stats.partition_probes` records the
/// route for certificate provenance.
pub(crate) fn search_partition(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let lanes = LaneTables::build(u);
    let mut core = PartitionCore::new(u, spec, budget, lim, sym, store, &lanes);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Knuth's canonical 7-column example.
    #[test]
    fn knuth_example() {
        let mut ec = ExactCover::new(7);
        ec.add_row(&[2, 4, 5]); // row 0
        ec.add_row(&[0, 3, 6]); // row 1
        ec.add_row(&[1, 2, 5]); // row 2
        ec.add_row(&[0, 3]); // row 3
        ec.add_row(&[1, 6]); // row 4
        ec.add_row(&[3, 4, 6]); // row 5
        let mut sol = ec.solve_first().expect("has a solution");
        sol.sort_unstable();
        assert_eq!(sol, vec![0, 3, 4]);
    }

    #[test]
    fn infeasible_instance() {
        let mut ec = ExactCover::new(3);
        ec.add_row(&[0, 1]);
        ec.add_row(&[1, 2]);
        assert!(ec.solve_first().is_none());
        assert_eq!(ec.count_solutions(10), 0);
    }

    #[test]
    fn counts_all_perfect_matchings_of_k4() {
        // Universe = 4 vertices; rows = the 6 edges of K4. Perfect matchings
        // of K4 = 3.
        let mut ec = ExactCover::new(4);
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            ec.add_row(&[a, b]);
        }
        assert_eq!(ec.count_solutions(100), 3);
    }

    #[test]
    fn count_respects_limit() {
        let mut ec = ExactCover::new(2);
        for _ in 0..5 {
            ec.add_row(&[0]);
            ec.add_row(&[1]);
        }
        // 25 solutions total; limit cuts off.
        assert_eq!(ec.count_solutions(7), 7);
        // Structure must still be intact after a limited count: full count works.
        assert_eq!(ec.count_solutions(1000), 25);
    }

    /// Partition of the 6 edges of K4 into two triangles does not exist,
    /// but K4's edges partition into 3 perfect matchings — sanity check the
    /// engine on a graph-flavored instance (universe = edges).
    #[test]
    fn k4_edge_partition_into_triangles_infeasible() {
        // Columns = 6 edges of K4 (dense index), rows = 4 triangles.
        let mut ec = ExactCover::new(6);
        let idx = |u: usize, v: usize| -> usize {
            // dense index in K4
            [[0, 0, 1, 2], [0, 0, 3, 4], [1, 3, 0, 5], [2, 4, 5, 0]][u][v]
        };
        for (a, b, c) in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)] {
            ec.add_row(&[idx(a, b), idx(a, c), idx(b, c)]);
        }
        assert!(ec.solve_first().is_none());
    }

    // ---- the slack-budgeted partition kernel ----

    use cyclecover_ring::Ring;

    fn universe(n: u32) -> TileUniverse {
        TileUniverse::new(Ring::new(n), n as usize)
    }

    fn run_partition(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        sym: SymmetryMode,
        store: Option<&MemoStore>,
    ) -> (Outcome, Stats) {
        let lim = RunLimits::nodes_only(50_000_000);
        let (o, s, _) = search_partition(u, spec, budget, &lim, sym, store);
        (o, s)
    }

    fn assert_meets_spec(u: &TileUniverse, spec: &CoverSpec, tiles: &[u32]) {
        let mut covered = vec![0u32; spec.demand.len()];
        for &t in tiles {
            for &c in u.tile_chords(t) {
                covered[u.dense_of_pri(c) as usize] += 1;
            }
        }
        for (dense, (&got, &need)) in covered.iter().zip(&spec.demand).enumerate() {
            assert!(
                got >= need,
                "chord dense index {dense}: covered {got} < demanded {need}"
            );
        }
    }

    #[test]
    fn zero_slack_witnesses_are_exact_partitions() {
        // Odd complete rings are capacity-tight (Σd ≡ 0 mod n): the
        // kernel must return a witness at the capacity budget, and at
        // zero slack that witness is an exact partition of the demand.
        for n in [5u32, 7, 9] {
            let u = universe(n);
            let spec = CoverSpec::complete(n);
            let wsum: u64 = (0..u.num_chords())
                .map(|c| u.dist_of_pri(c) as u64)
                .sum();
            assert_eq!(wsum % n as u64, 0, "odd complete rings have zero slack");
            let budget = (wsum / n as u64) as u32;
            let (o, s) = run_partition(&u, &spec, budget, SymmetryMode::Root, None);
            let Outcome::Feasible(tiles) = o else {
                panic!("n={n}: capacity witness not found: {o:?}");
            };
            assert_eq!(tiles.len() as u32, budget);
            assert_meets_spec(&u, &spec, &tiles);
            // Zero slack: every chord covered exactly once.
            let total: u64 = tiles
                .iter()
                .map(|&t| u.tile_chords(t).len() as u64)
                .sum();
            assert_eq!(total, u.num_chords() as u64, "partition, not a cover");
            assert_eq!(s.partition_probes, 1);
        }
    }

    #[test]
    fn parity_refutes_tight_even_budget_at_the_root() {
        // n = 8, budget 8 = capacity: Theorem 2's parity argument
        // refutes in one node through the in-kernel strong bound.
        let u = universe(8);
        let spec = CoverSpec::complete(8);
        let (o, s) = run_partition(&u, &spec, 8, SymmetryMode::Root, None);
        assert_eq!(o, Outcome::Infeasible);
        assert_eq!(s.nodes, 1, "parity bound fires at the root");
        // Budget 9 (slack n) is feasible: ρ(8) = 9.
        let (o9, _) = run_partition(&u, &spec, 9, SymmetryMode::Root, None);
        let Outcome::Feasible(tiles) = o9 else {
            panic!("rho(8) = 9 witness not found: {o9:?}");
        };
        assert_eq!(tiles.len(), 9);
        assert_meets_spec(&u, &spec, &tiles);
    }

    #[test]
    fn lambda_fold_verdicts_match_the_lane_core() {
        // ρ₂(6) = 9 (slack 0) and ρ₃(6) = 14 (slack 3): the partition
        // kernel must agree with the lane core on verdicts at the
        // optimum and one below, all symmetry modes, memo on and off.
        for (lambda, opt) in [(2u32, 9u32), (3, 14)] {
            let u = universe(6);
            let spec = CoverSpec::lambda_fold(6, lambda);
            for sym in [SymmetryMode::Off, SymmetryMode::Root, SymmetryMode::Full] {
                for memo in [false, true] {
                    let store = memo.then(|| MemoStore::new(&u, 1 << 20).unwrap());
                    for budget in [opt - 1, opt] {
                        let (o, _) = run_partition(&u, &spec, budget, sym, store.as_ref());
                        if budget < opt {
                            assert_eq!(
                                o,
                                Outcome::Infeasible,
                                "lambda={lambda} budget={budget} sym={sym:?} memo={memo}"
                            );
                        } else {
                            let Outcome::Feasible(tiles) = o else {
                                panic!(
                                    "lambda={lambda} budget={budget} sym={sym:?} \
                                     memo={memo}: no witness: {o:?}"
                                );
                            };
                            assert!(tiles.len() as u32 <= budget);
                            assert_meets_spec(&u, &spec, &tiles);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn waste_accounting_bounds_every_witness() {
        // At budget = capacity + 1 the kernel may waste up to slack
        // units; the witness tile count must still respect the budget.
        let u = universe(7);
        let spec = CoverSpec::lambda_fold(7, 2);
        // 2·Σd = 84, capacity 12 (slack 0); probe 13 (slack 7).
        for budget in [12u32, 13] {
            let (o, _) = run_partition(&u, &spec, budget, SymmetryMode::Root, None);
            let Outcome::Feasible(tiles) = o else {
                panic!("budget {budget}: {o:?}");
            };
            assert!(tiles.len() as u32 <= budget);
            assert_meets_spec(&u, &spec, &tiles);
        }
    }
}
