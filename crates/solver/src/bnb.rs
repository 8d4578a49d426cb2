//! Branch & bound minimum DRC covering.
//!
//! Exact search over a [`TileUniverse`]: find a covering of the demanded
//! requests by at most `budget` tiles, or prove none exists. Iterated over
//! increasing budgets this computes `ρ(n)` exactly — the optimality
//! certificates of experiment E4 — and, with a [`CoverSpec`], the λ-fold
//! and partial-instance variants of experiment E8.
//!
//! Search design:
//! * branch on the unsatisfied chord with the highest priority (diameter
//!   chords first, then by decreasing distance) — these are the scarcest
//!   resources (a DRC cycle can carry at most one diameter);
//! * candidates at a branch are the tiles covering that chord, ordered by
//!   how many still-unsatisfied chords they cover (ties: less wasted
//!   capacity); candidates covering nothing new are skipped outright;
//! * prune with `used + max(⌈remaining_dist / n⌉, remaining_diameters,
//!   max_v ⌈uncovered_degree(v)/2⌉) > budget` — the capacity, diameter and
//!   vertex-degree lower bounds restricted to the unsatisfied demand (the
//!   vertex bound is bitset-kernel only);
//! * optional node limit for bounded experiments.
//!
//! # The bitset kernel
//!
//! For unit-demand specs (every demand ≤ 1 — the standard `ρ(n)` instances
//! and all partial instances) coverage bookkeeping runs on word-packed
//! [`ChordSet`]s in the universe's *priority* chord order: placing a tile
//! is two AND/ANDNOT word sweeps, scoring a candidate is an
//! intersection-popcount, and selecting the branch chord is
//! `trailing_zeros` on the uncovered set. The universe precomputes each
//! tile's chord bitmask, load, and diameter count once
//! ([`TileUniverse::tile_mask`] and friends), so search nodes never touch
//! ring arithmetic.
//!
//! Since PR 5, unit-demand searches run on the **iterative,
//! allocation-free core** in `crate::search_core` — an explicit stack
//! over depth-indexed scratch arenas with incrementally maintained bound
//! ingredients and an optional **residual-state dominance memo**
//! ([`MemoConfig`], `crate::memo`) that prunes nodes reaching an
//! already-exhausted uncovered set with an equal-or-worse budget. With
//! the memo off the core reproduces the recursive search here *to the
//! node* ([`budget_search_reference`] keeps the recursive path callable
//! as the differential fixture); λ-fold specs still run the recursive
//! multiplicity kernel.
//!
//! On top of the word kernel the search applies **dominance pruning** at
//! every node: a candidate whose useful-coverage mask is a subset of an
//! earlier sibling's is skipped — replacing it by the dominator in any
//! covering yields a covering of the same size, so completeness is
//! preserved while sibling subtrees that only permute coverage are cut.
//! Dominance at full depth is the decisive pruning rule: the ρ(10)
//! witness search needs 13.4M nodes with it vs 225M without.
//!
//! λ-fold specs (some demand > 1) use the multiplicity kernel: plain
//! per-chord `Vec<u32>` counters, still driven by the precomputed chord
//! index lists.
//!
//! # Symmetry reduction
//!
//! Under [`SymmetryMode::Root`] (the engine default) the root branch only
//! explores one candidate per orbit of the branch chord's dihedral
//! stabilizer (order 4 at the priority diameter chord of an even complete
//! instance), and prefix bounds are strengthened by the greedy dual
//! [`diameter_slack_bound`]; [`SymmetryMode::Full`] extends the orbit
//! filtering to every depth under the incrementally maintained pointwise
//! stabilizer of the placed prefix. [`SymmetryMode::Off`] reproduces the
//! pre-symmetry search node for node — the deprecated free functions pin
//! it, and `bench_snapshot` uses it to track the reduction factor.
//!
//! # Parallel search
//!
//! [`cover_spec_within_budget_parallel`] expands the tree breadth-first
//! into a frontier of independent prefixes (several per thread, not just
//! the root candidates) and drains it on a work-sharing `rayon` scope with
//! a shared early-exit flag and node budget — a thread that exhausts its
//! subtree immediately pulls the next pending prefix, so infeasibility
//! proofs scale past the root branching factor.

use crate::api::{CancelToken, Exhaustion};
use crate::bitset::ChordSet;
use crate::lower_bound::{
    combinatorial_lower_bound, diameter_slack_bound, parity_join_bound, weighted_demand_bound,
};
pub use crate::memo::{MemoConfig, MemoStore, DEFAULT_MEMO_BYTES};
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use cyclecover_graph::Edge;
use cyclecover_ring::Tile;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// How much dihedral symmetry reduction a search applies. `C_n`'s
/// automorphism group is the full dihedral group `D_n`, and a complete (or
/// λ-fold) demand spec is invariant under all `2n` elements — so without
/// reduction the search explores up to `2n` mirror images of every prefix.
///
/// * [`SymmetryMode::Off`] — the exact PR-1 baseline search, bit for bit:
///   no orbit filtering *and* no [`diameter_slack_bound`] strengthening.
///   `bench_snapshot` runs this mode to reproduce historical node counts
///   (BENCH_1.json) unchanged.
/// * [`SymmetryMode::Root`] — the default for exact engines: the root
///   branch explores one candidate per orbit of the stabilizer of the
///   branch chord inside the spec-preserving subgroup (order 4 at the
///   priority diameter chord of an even complete instance), and prefix
///   bounds include the diameter-slack dual ascent.
/// * [`SymmetryMode::Full`] — additionally filters every deeper branch by
///   the pointwise stabilizer of the already-placed prefix, maintained
///   incrementally as a subgroup bitmask (`stab(P ∪ {t}) = stab(P) ∩
///   stab(t)`, one AND per placement). The stabilizer usually collapses
///   to the identity within a tile or two, after which the check is a
///   single word test per node — root-plus-depth-1 reduction in practice,
///   at every depth in principle.
///
/// Soundness of the filter: a kept candidate `t` and a skipped sibling
/// `h·t` (with `h` fixing the spec, every placed tile, and the branch
/// chord) head subtrees that are exact mirror images — `h` maps any
/// covering extending the prefix through `h·t` to one of equal size
/// through `t`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SymmetryMode {
    /// No symmetry reduction, no strengthened bound (the measured
    /// pre-symmetry baseline).
    Off,
    /// Orbit-representative filtering at the root branch only, plus the
    /// diameter-slack prefix bound.
    #[default]
    Root,
    /// Prefix-stabilizer orbit filtering at every depth, plus the
    /// diameter-slack prefix bound.
    Full,
}

/// Externally-imposed resource limits on one budgeted search: a node
/// budget, an optional wall-clock deadline, and an optional shared
/// cancellation flag. Built by the [`crate::api`] engines from a
/// [`crate::api::SolveRequest`]; the deprecated free functions fill in
/// node-budget-only limits.
#[derive(Clone, Default)]
pub(crate) struct RunLimits {
    /// Maximum search-tree nodes to expand (`u64::MAX` = unlimited).
    pub max_nodes: u64,
    /// Absolute wall-clock instant after which the search aborts
    /// (checked every ~4096 expanded nodes, in every worker).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation (checked every ~4096 expanded nodes).
    pub cancel: Option<CancelToken>,
}

impl RunLimits {
    /// Node-budget-only limits — the legacy free-function contract.
    pub(crate) fn nodes_only(max_nodes: u64) -> Self {
        RunLimits {
            max_nodes,
            deadline: None,
            cancel: None,
        }
    }

    /// Whether the deadline has passed or cancellation was requested
    /// *right now* (does not consider the node budget).
    pub(crate) fn stop_requested(&self) -> Option<Exhaustion> {
        if let Some(c) = &self.cancel {
            if let Some(reason) = c.cancel_reason() {
                return Some(reason.as_exhaustion());
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Exhaustion::Deadline);
            }
        }
        None
    }
}

/// What must be covered: per-request multiplicities.
#[derive(Clone, Debug)]
pub struct CoverSpec {
    /// `demand[e.dense_index(n)]` = how many times request `e` must be
    /// covered (0 = don't care).
    pub demand: Vec<u32>,
}

impl CoverSpec {
    /// The standard spec: every request of `K_n` once.
    pub fn complete(n: u32) -> Self {
        CoverSpec {
            demand: vec![1; n as usize * (n as usize - 1) / 2],
        }
    }

    /// λ-fold: every request `lambda` times.
    pub fn lambda_fold(n: u32, lambda: u32) -> Self {
        CoverSpec {
            demand: vec![lambda; n as usize * (n as usize - 1) / 2],
        }
    }

    /// Cover exactly the given requests once (a partial instance).
    pub fn subset(n: u32, requests: &[Edge]) -> Self {
        let mut demand = vec![0; n as usize * (n as usize - 1) / 2];
        for e in requests {
            demand[e.dense_index(n as usize)] = 1;
        }
        CoverSpec { demand }
    }

    /// Total residual demand weighted by request distance, divided by the
    /// per-cycle capacity `n` — the capacity bound for this spec. Delegates
    /// to [`weighted_demand_bound`], the single home of the
    /// sum-of-distances logic.
    pub fn capacity_lower_bound(&self, ring: cyclecover_ring::Ring) -> u64 {
        weighted_demand_bound(ring, &self.demand)
    }

    /// Whether every demand is ≤ 1 (the bitset kernel applies).
    pub fn is_unit(&self) -> bool {
        self.demand.iter().all(|&d| d <= 1)
    }

    /// The largest per-request multiplicity. ≤ 1 means the unit bitset
    /// machinery applies; ≤ 3 fits the packed 2-bit lane kernel; larger
    /// demands fall back to the recursive multiplicity kernel.
    pub fn max_demand(&self) -> u32 {
        self.demand.iter().copied().max().unwrap_or(0)
    }
}

/// Result of a bounded covering search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A covering within budget was found (tile indices into the universe).
    Feasible(Vec<u32>),
    /// Exhaustively proved: no covering within the budget exists.
    Infeasible,
    /// Search aborted at the node limit — no conclusion.
    NodeLimit,
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// Nodes cut by the lower bounds.
    pub pruned: u64,
    /// Candidate branches skipped by dominance pruning.
    pub dominated: u64,
    /// Candidate branches skipped by dihedral orbit filtering under the
    /// pointwise prefix stabilizer.
    pub sym_pruned: u64,
    /// Prunes owed to the canonical/setwise symmetry machinery: memo
    /// hits whose residual state matched only after canonicalization,
    /// plus sibling candidates cut by setwise-but-not-pointwise
    /// stabilizer elements (`SymmetryMode::Full` only).
    pub canon_pruned: u64,
    /// Nodes (and candidate children) pruned by the residual-state
    /// refutation store (includes the canonical hits counted in
    /// `canon_pruned` and the cross-searcher hits in `shared_hits`).
    pub memo_hits: u64,
    /// The subset of `memo_hits` landing on entries recorded by a
    /// *different* searcher — another budget probe of the same
    /// deepening sweep, another parallel worker, or (with a
    /// service-shared store) another request entirely.
    pub shared_hits: u64,
    /// Residual states resident in the refutation store when the search
    /// finished. A store shared across probes or workers reports its
    /// total population (probes absorb by maximum, not sum).
    pub memo_entries: u64,
    /// Order of the symmetry subgroup the root branch was reduced by
    /// (1 = no reduction; 0 = no search ran).
    pub sym_factor: u32,
    /// Budget probes served by the slack-budgeted partition kernel
    /// (`crate::dlx`) — the certificate-provenance record of the
    /// low-slack route. 0 = every probe ran branch-and-bound.
    pub partition_probes: u64,
}

impl Stats {
    pub(crate) fn absorb(&mut self, other: Stats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.dominated += other.dominated;
        self.sym_pruned += other.sym_pruned;
        self.canon_pruned += other.canon_pruned;
        self.memo_hits += other.memo_hits;
        self.shared_hits += other.shared_hits;
        // Deepening probes share one store, so later probes report a
        // superset of earlier probes' entries: the maximum is the
        // store's final population (and 0 + x = x keeps the memo-off
        // and single-probe cases exact).
        self.memo_entries = self.memo_entries.max(other.memo_entries);
        self.sym_factor = self.sym_factor.max(other.sym_factor);
        self.partition_probes += other.partition_probes;
    }
}

/// Coverage bookkeeping strategy: all chord indices are in the universe's
/// *priority* space.
trait Kernel {
    /// Builds the kernel's initial state for `spec`.
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self;

    /// Whether every demand is satisfied.
    fn satisfied(&self) -> bool;

    /// Records tile `t` as placed.
    fn place(&mut self, u: &TileUniverse, t: u32);

    /// Reverts the most recent [`Kernel::place`] (LIFO).
    fn unplace(&mut self, u: &TileUniverse, t: u32);

    /// `(units of unsatisfied demand tile t would cover, wasted capacity)`.
    fn new_coverage(&self, u: &TileUniverse, t: u32) -> (u32, u32);

    /// Writes tile `t`'s useful-coverage mask into `out` and returns
    /// `true`, or returns `false` if the kernel cannot express it (then
    /// dominance pruning is skipped).
    fn useful_mask(&self, u: &TileUniverse, t: u32, out: &mut ChordSet) -> bool;

    /// Highest-priority unsatisfied chord (priority index).
    fn branch_chord(&self) -> Option<u32>;

    /// Lower bound on additional tiles needed for the unsatisfied demand.
    fn remaining_lb(&self, u: &TileUniverse) -> u64;

    /// A stronger (and costlier) bound, consulted only at nodes that
    /// survive [`Kernel::remaining_lb`] and only when the search runs with
    /// [`SymmetryMode::Root`]/[`SymmetryMode::Full`]; may return early
    /// once the bound exceeds `stop_above`. Kernels without one return 0.
    fn strong_lb(&self, _u: &TileUniverse, _stop_above: u64) -> u64 {
        0
    }

    /// Whether nodes at `depth` placed tiles score/sort/dominance-filter
    /// their candidates; otherwise the static universe order is used. With
    /// word-ops scoring this pays at every depth (measured: the ρ(10)
    /// witness search drops from 225M to 13.4M nodes); the legacy kernel
    /// keeps the original depth-4 cutoff as the faithful pre-bitset
    /// reference.
    fn sorts_at(depth: usize) -> bool;

    /// Whether sorted nodes drop candidates covering nothing new. Sound
    /// for any kernel (a covering using such a tile stays a covering
    /// without it), but the legacy kernel keeps them — the seed explored
    /// them, and the legacy path is the measured "before".
    const PRUNE_ZERO_COVERAGE: bool;
}

/// Word-packed kernel for unit demands: the uncovered set is one bitset,
/// place/unplace are word sweeps with a LIFO undo stack of "newly covered"
/// masks.
struct BitsetKernel {
    /// Still-unsatisfied chords (priority space).
    uncovered: ChordSet,
    /// `undo[0..depth]`: per placed tile, the chords it newly covered.
    undo: Vec<ChordSet>,
    depth: usize,
    rem_dist: u64,
    rem_diam: u64,
}

impl Kernel for BitsetKernel {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        debug_assert!(spec.is_unit(), "bitset kernel requires unit demands");
        let mut uncovered = ChordSet::empty(m);
        let mut rem_dist = 0u64;
        let mut rem_diam = 0u64;
        for dense in 0..m {
            if spec.demand[dense as usize] > 0 {
                let pri = u.pri_of_dense(dense);
                uncovered.insert(pri);
                rem_dist += u.dist_of_pri(pri) as u64;
                rem_diam += (pri < u.diam_chords()) as u64;
            }
        }
        BitsetKernel {
            uncovered,
            undo: Vec::new(),
            depth: 0,
            rem_dist,
            rem_diam,
        }
    }

    #[inline]
    fn satisfied(&self) -> bool {
        self.uncovered.is_empty()
    }

    fn place(&mut self, u: &TileUniverse, t: u32) {
        if self.undo.len() == self.depth {
            self.undo.push(ChordSet::empty(self.uncovered.len()));
        }
        let newly = &mut self.undo[self.depth];
        newly.assign_intersection(u.tile_mask(t), &self.uncovered);
        self.uncovered.subtract(newly);
        let diam = u.diam_chords();
        for i in newly.iter() {
            self.rem_dist -= u.dist_of_pri(i) as u64;
            self.rem_diam -= (i < diam) as u64;
        }
        self.depth += 1;
    }

    fn unplace(&mut self, u: &TileUniverse, _t: u32) {
        debug_assert!(self.depth > 0, "unplace without place");
        self.depth -= 1;
        let newly = &self.undo[self.depth];
        let diam = u.diam_chords();
        for i in newly.iter() {
            self.rem_dist += u.dist_of_pri(i) as u64;
            self.rem_diam += (i < diam) as u64;
        }
        self.uncovered.union_with(newly);
    }

    #[inline]
    fn new_coverage(&self, u: &TileUniverse, t: u32) -> (u32, u32) {
        let n = u.ring().n();
        let mut cov = 0u32;
        let mut useful = 0u32;
        for (wi, (a, b)) in u
            .tile_mask(t)
            .iter()
            .zip(self.uncovered.words())
            .enumerate()
        {
            let mut w = a & b;
            cov += w.count_ones();
            while w != 0 {
                let i = (wi as u32) * 64 + w.trailing_zeros();
                useful += u.dist_of_pri(i);
                w &= w - 1;
            }
        }
        (cov, n - useful.min(n))
    }

    #[inline]
    fn useful_mask(&self, u: &TileUniverse, t: u32, out: &mut ChordSet) -> bool {
        out.assign_intersection(u.tile_mask(t), &self.uncovered);
        true
    }

    #[inline]
    fn branch_chord(&self) -> Option<u32> {
        self.uncovered.first_set()
    }

    fn sorts_at(_depth: usize) -> bool {
        true
    }

    const PRUNE_ZERO_COVERAGE: bool = true;

    fn remaining_lb(&self, u: &TileUniverse) -> u64 {
        let n = u.ring().n();
        let mut lb = self.rem_dist.div_ceil(n as u64).max(self.rem_diam);
        // Vertex-degree bound: a cycle visits a vertex at most once, so any
        // tile covers at most 2 uncovered chords incident to it — the
        // unsatisfied demand at any single vertex needs ⌈deg/2⌉ more tiles.
        for v in 0..n {
            let deg = u.vertex_mask(v).intersection_count(&self.uncovered) as u64;
            lb = lb.max(deg.div_ceil(2));
        }
        lb
    }

    fn strong_lb(&self, u: &TileUniverse, stop_above: u64) -> u64 {
        // Cheap parity (T-join) term first — it alone settles the
        // capacity-tight even refutations — then the pricier
        // diameter-slack dual ascent only if the node is still alive.
        let parity = parity_join_bound(u, &self.uncovered, self.rem_dist);
        if parity > stop_above {
            return parity;
        }
        diameter_slack_bound(u, &self.uncovered, self.rem_dist, stop_above).max(parity)
    }
}

/// Multiplicity kernel for λ-fold specs (demand > 1): per-chord counters,
/// driven by the universe's precomputed chord index lists.
struct MultiKernel {
    /// priority index → cover multiplicity so far.
    covered: Vec<u32>,
    /// priority index → required multiplicity.
    demand: Vec<u32>,
    /// Number of (chord, multiplicity) units still unsatisfied.
    unsatisfied: u64,
    rem_dist: u64,
    rem_diam: u64,
}

impl Kernel for MultiKernel {
    fn new(u: &TileUniverse, spec: &CoverSpec) -> Self {
        let m = u.num_chords();
        assert_eq!(spec.demand.len(), m as usize, "spec size mismatch");
        let mut demand = vec![0u32; m as usize];
        let mut unsatisfied = 0u64;
        let mut rem_dist = 0u64;
        let mut rem_diam = 0u64;
        for pri in 0..m {
            let need = spec.demand[u.dense_of_pri(pri) as usize];
            demand[pri as usize] = need;
            unsatisfied += need as u64;
            rem_dist += need as u64 * u.dist_of_pri(pri) as u64;
            if pri < u.diam_chords() {
                rem_diam += need as u64;
            }
        }
        MultiKernel {
            covered: vec![0; m as usize],
            demand,
            unsatisfied,
            rem_dist,
            rem_diam,
        }
    }

    #[inline]
    fn satisfied(&self) -> bool {
        self.unsatisfied == 0
    }

    fn place(&mut self, u: &TileUniverse, t: u32) {
        let diam = u.diam_chords();
        for &i in u.tile_chords(t) {
            let i = i as usize;
            if self.covered[i] < self.demand[i] {
                self.unsatisfied -= 1;
                self.rem_dist -= u.dist_of_pri(i as u32) as u64;
                self.rem_diam -= ((i as u32) < diam) as u64;
            }
            self.covered[i] += 1;
        }
    }

    fn unplace(&mut self, u: &TileUniverse, t: u32) {
        let diam = u.diam_chords();
        for &i in u.tile_chords(t) {
            let i = i as usize;
            self.covered[i] -= 1;
            if self.covered[i] < self.demand[i] {
                self.unsatisfied += 1;
                self.rem_dist += u.dist_of_pri(i as u32) as u64;
                self.rem_diam += ((i as u32) < diam) as u64;
            }
        }
    }

    #[inline]
    fn new_coverage(&self, u: &TileUniverse, t: u32) -> (u32, u32) {
        let n = u.ring().n();
        let mut cov = 0u32;
        let mut useful = 0u32;
        for &i in u.tile_chords(t) {
            if self.covered[i as usize] < self.demand[i as usize] {
                cov += 1;
                useful += u.dist_of_pri(i);
            }
        }
        (cov, n - useful.min(n))
    }

    fn useful_mask(&self, _u: &TileUniverse, _t: u32, _out: &mut ChordSet) -> bool {
        // Dominance by chord subset is not sound under multiplicities (two
        // placements of the same tile differ), so the multi kernel opts out.
        false
    }

    #[inline]
    fn branch_chord(&self) -> Option<u32> {
        (0..self.covered.len() as u32).find(|&i| self.covered[i as usize] < self.demand[i as usize])
    }

    fn sorts_at(depth: usize) -> bool {
        depth <= 4
    }

    const PRUNE_ZERO_COVERAGE: bool = false;

    #[inline]
    fn remaining_lb(&self, u: &TileUniverse) -> u64 {
        // Capacity and diameter bounds only — this is the pre-bitset
        // reference path, kept algorithmically identical to the seed.
        self.rem_dist.div_ceil(u.ring().n() as u64).max(self.rem_diam)
    }
}

struct SearchCtx<'a, K: Kernel> {
    u: &'a TileUniverse,
    kernel: K,
    budget: u32,
    max_nodes: u64,
    stats: Stats,
    chosen: Vec<u32>,
    hit_limit: bool,
    /// Why the search stopped early (only meaningful when `hit_limit`);
    /// `None` there means another worker's early-exit flag tripped.
    stop_cause: Option<Exhaustion>,
    /// Wall-clock deadline, checked every ~4096 nodes.
    deadline: Option<Instant>,
    /// Cooperative cancellation flag, checked every ~4096 nodes.
    cancel: Option<&'a AtomicBool>,
    early_exit: Option<&'a AtomicBool>,
    /// Shared node accounting for the parallel search: `(counter, cap)`.
    /// Every 1024 local nodes the delta is flushed into the counter and
    /// the cap is checked, so the *global* budget is enforced within
    /// `threads × 1024` nodes of slack (not per-worker).
    shared_nodes: Option<(&'a AtomicU64, u64)>,
    /// Local node count already flushed into the shared counter.
    synced_nodes: u64,
    /// Scratch masks reused across dominance passes (index = candidate
    /// position within the current node).
    dom_scratch: Vec<ChordSet>,
    /// Dihedral reduction level (degraded to `Off` when the tables are
    /// unavailable or the spec has no symmetry).
    mode: SymmetryMode,
    /// Whether the strong (diameter-slack) prefix bound is consulted —
    /// the requested mode was not `Off`, independent of table
    /// availability.
    strong: bool,
    /// The dihedral tables, when `mode != Off`.
    sym: Option<&'a DihedralTables>,
    /// Subgroup preserving the spec's initial demand (bitmask).
    spec_group: u64,
    /// `Full` mode: `stab_stack[d]` = pointwise stabilizer of the first
    /// `d` placed tiles intersected with `spec_group` (seeded with
    /// `spec_group` at depth 0).
    stab_stack: Vec<u64>,
    /// Stamp array over tile indices backing the per-branch "already kept
    /// a candidate of this orbit" test (lazily sized).
    sym_seen: Vec<u64>,
    sym_stamp: u64,
}

/// Resolves a *requested* symmetry level into the effective one: `Off`
/// when the tables are unavailable (`2n > 64`) or the spec-preserving
/// subgroup is only the identity; otherwise the requested mode with the
/// tables and the subgroup mask. Shared by the recursive context and
/// the iterative core — the differential node-count gate relies on both
/// degrading identically.
pub(crate) fn resolve_symmetry<'a>(
    u: &'a TileUniverse,
    spec: &CoverSpec,
    requested: SymmetryMode,
) -> (SymmetryMode, Option<&'a DihedralTables>, u64) {
    if requested == SymmetryMode::Off {
        return (SymmetryMode::Off, None, 0);
    }
    match u.dihedral() {
        Some(tables) => {
            let group = tables.demand_preserving(|pri| spec.demand[u.dense_of_pri(pri) as usize]);
            if group & !1 == 0 {
                // Only the identity: nothing to reduce by.
                (SymmetryMode::Off, None, 0)
            } else {
                (requested, Some(tables), group)
            }
        }
        None => (SymmetryMode::Off, None, 0),
    }
}

impl<'a, K: Kernel> SearchCtx<'a, K> {
    fn new(
        u: &'a TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        lim: &'a RunLimits,
        requested: SymmetryMode,
    ) -> Self {
        let strong = requested != SymmetryMode::Off;
        let (mode, sym, spec_group) = resolve_symmetry(u, spec, requested);
        SearchCtx {
            u,
            kernel: K::new(u, spec),
            budget,
            max_nodes: lim.max_nodes,
            stats: Stats {
                sym_factor: 1,
                ..Stats::default()
            },
            chosen: Vec::new(),
            hit_limit: false,
            stop_cause: None,
            deadline: lim.deadline,
            cancel: lim.cancel.as_ref().map(|c| c.flag()),
            early_exit: None,
            shared_nodes: None,
            synced_nodes: 0,
            // Sized once from the longest candidate list any branch chord
            // can present — no node ever allocates a scratch mask
            // mid-search (the old growth loop built full-width empty
            // `ChordSet`s from inside `sorted_candidates`).
            dom_scratch: (0..u.max_candidates())
                .map(|_| ChordSet::empty(u.num_chords()))
                .collect(),
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
        }
    }

    /// Flushes local node counts into the shared counter; returns `true`
    /// if the global budget is exhausted.
    fn sync_shared_nodes(&mut self) -> bool {
        let Some((counter, cap)) = self.shared_nodes else {
            return false;
        };
        let delta = self.stats.nodes - self.synced_nodes;
        self.synced_nodes = self.stats.nodes;
        let total = counter.fetch_add(delta, Ordering::Relaxed) + delta;
        total > cap
    }

    #[inline]
    fn place(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let top = *self.stab_stack.last().expect("stab stack seeded");
            let stab = self.sym.expect("tables exist in Full mode").tile_stab(t);
            self.stab_stack.push(top & stab);
        }
        self.kernel.place(self.u, t);
        self.chosen.push(t);
    }

    #[inline]
    fn unplace(&mut self, t: u32) {
        debug_assert_eq!(self.chosen.last(), Some(&t));
        self.chosen.pop();
        self.kernel.unplace(self.u, t);
        if self.mode == SymmetryMode::Full {
            self.stab_stack.pop();
        }
    }

    /// Drops candidates whose subtree mirrors an earlier sibling's: a
    /// candidate is skipped when some symmetry `h` — preserving the spec,
    /// every placed tile, and the branch chord — maps it onto an
    /// already-kept candidate. `Root` mode applies this at the empty
    /// prefix only; `Full` mode at every node, under the incrementally
    /// maintained prefix stabilizer.
    fn filter_symmetric(&mut self, branch: u32, cands: Vec<u32>) -> Vec<u32> {
        let Some(sym) = self.sym else { return cands };
        let group = match self.mode {
            SymmetryMode::Off => return cands,
            SymmetryMode::Root => {
                if !self.chosen.is_empty() {
                    return cands;
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
            // Identity only: every orbit is a singleton.
            return cands;
        }
        if self.sym_seen.len() < sym.num_tiles() as usize {
            self.sym_seen.resize(sym.num_tiles() as usize, 0);
        }
        self.sym_stamp += 1;
        let stamp = self.sym_stamp;
        let mut kept = Vec::with_capacity(cands.len());
        for t in cands {
            let mut elements = filter & !1;
            let mut mirrored = false;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && self.sym_seen[image as usize] == stamp {
                    mirrored = true;
                    break;
                }
            }
            if mirrored {
                self.stats.sym_pruned += 1;
            } else {
                self.sym_seen[t as usize] = stamp;
                kept.push(t);
            }
        }
        kept
    }

    /// Scored, sorted, dominance-filtered candidates for the branch chord.
    /// Candidates covering nothing new are dropped (a covering using one
    /// stays a covering without it, so completeness is preserved).
    fn sorted_candidates(&mut self, branch: u32) -> Vec<u32> {
        let cands = self.u.candidates_pri(branch);
        let mut scored: Vec<(u32, u32, u32)> = Vec::with_capacity(cands.len());
        for &t in cands {
            let (cov, waste) = self.kernel.new_coverage(self.u, t);
            if cov > 0 || !K::PRUNE_ZERO_COVERAGE {
                scored.push((t, cov, waste));
            }
        }
        scored.sort_by_key(|&(_, cov, waste)| (std::cmp::Reverse(cov), waste));

        // Dominance: drop a candidate whose useful coverage is a subset of
        // an earlier one's. Sorting put higher coverage first, so any
        // strict dominator precedes the dominated candidate; for equal
        // masks the first occurrence survives. Transitivity makes
        // comparing against dropped earlier candidates safe.
        let c = scored.len();
        debug_assert!(
            c <= self.dom_scratch.len(),
            "scratch arena pre-sized from max_candidates"
        );
        let mut masks_ok = c > 1;
        if masks_ok {
            for (slot, &(t, _, _)) in scored.iter().enumerate() {
                if !self
                    .kernel
                    .useful_mask(self.u, t, &mut self.dom_scratch[slot])
                {
                    masks_ok = false;
                    break;
                }
            }
        }
        let cands: Vec<u32> = if masks_ok {
            let mut keep = vec![true; c];
            for (i, keep_i) in keep.iter_mut().enumerate().skip(1) {
                let (earlier, rest) = self.dom_scratch.split_at(i);
                let mask_i = &rest[0];
                if earlier.iter().any(|prior| mask_i.is_subset_of(prior)) {
                    *keep_i = false;
                    self.stats.dominated += 1;
                }
            }
            scored
                .into_iter()
                .zip(keep)
                .filter_map(|((t, _, _), k)| k.then_some(t))
                .collect()
        } else {
            scored.into_iter().map(|(t, _, _)| t).collect()
        };
        self.filter_symmetric(branch, cands)
    }

    fn dfs(&mut self) -> bool {
        if self.kernel.satisfied() {
            return true;
        }
        self.stats.nodes += 1;
        if self.stats.nodes > self.max_nodes {
            self.hit_limit = true;
            self.stop_cause = Some(Exhaustion::NodeBudget);
            return false;
        }
        if self.stats.nodes.is_multiple_of(1024) {
            if let Some(flag) = self.early_exit {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    return false;
                }
            }
            if self.sync_shared_nodes() {
                self.hit_limit = true;
                self.stop_cause = Some(Exhaustion::NodeBudget);
                return false;
            }
        }
        if self.stats.nodes.is_multiple_of(4096) {
            if let Some(flag) = self.cancel {
                if flag.load(Ordering::Relaxed) {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Cancelled);
                    return false;
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.hit_limit = true;
                    self.stop_cause = Some(Exhaustion::Deadline);
                    return false;
                }
            }
        }
        let used = self.chosen.len() as u64;
        if used + self.kernel.remaining_lb(self.u) > self.budget as u64 {
            self.stats.pruned += 1;
            return false;
        }
        if self.strong {
            let slack = self.budget as u64 - used;
            if self.kernel.strong_lb(self.u, slack) > slack {
                self.stats.pruned += 1;
                return false;
            }
        }
        let branch = self.kernel.branch_chord().expect("unsatisfied demand exists");
        if K::sorts_at(self.chosen.len()) {
            for t in self.sorted_candidates(branch) {
                self.place(t);
                if self.dfs() {
                    return true;
                }
                self.unplace(t);
                if self.hit_limit {
                    return false;
                }
            }
        } else if self.mode == SymmetryMode::Full {
            // `Full` keeps its every-depth filtering promise on the
            // non-sorting (multiplicity) path too: materialize the useful
            // candidates in universe order and run them through the
            // orbit filter. Only reachable with a nontrivial spec group,
            // so the extra Vec is never paid by `Off`/`Root` here.
            let u = self.u;
            let cands: Vec<u32> = u
                .candidates_pri(branch)
                .iter()
                .copied()
                .filter(|&t| self.kernel.new_coverage(u, t).0 > 0)
                .collect();
            for t in self.filter_symmetric(branch, cands) {
                self.place(t);
                if self.dfs() {
                    return true;
                }
                self.unplace(t);
                if self.hit_limit {
                    return false;
                }
            }
        } else {
            // The candidate slice borrows the universe (a copied `&'a`
            // reference), not `self`, so `self` stays free for mutation.
            let u = self.u;
            for &t in u.candidates_pri(branch) {
                if self.kernel.new_coverage(u, t).0 == 0 {
                    continue;
                }
                self.place(t);
                if self.dfs() {
                    return true;
                }
                self.unplace(t);
                if self.hit_limit {
                    return false;
                }
            }
        }
        false
    }
}

fn search<K: Kernel>(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let mut ctx = SearchCtx::<K>::new(u, spec, budget, lim, sym);
    if ctx.dfs() {
        (Outcome::Feasible(ctx.chosen.clone()), ctx.stats, None)
    } else if ctx.hit_limit {
        (Outcome::NodeLimit, ctx.stats, ctx.stop_cause)
    } else {
        (Outcome::Infeasible, ctx.stats, None)
    }
}

/// Budgeted search under full [`RunLimits`]: the engine-facing entry
/// point. Unit-demand specs run on the **iterative bitset core**
/// (allocation-free search stack, incremental bounds, and the
/// refutation `store` — pass the same store across probes or requests
/// to reuse recorded refutations, or `None` for the memo-free search);
/// specs with multiplicities in `2..=3` (every λ-fold instance the
/// paper studies) on the **word-parallel lane core** — packed 2-bit
/// residual lanes with the same dominance, symmetry, bound, and memo
/// machinery. Only demands > 3 fall back to the recursive multiplicity
/// kernel (which ignores the store). The third component reports why an
/// inconclusive search stopped.
///
/// λ-fold probes whose waste slack `budget·n − λ·Σd(e)` sits in
/// `[0, n)` — capacity-tight instances, where almost every tile of a
/// witness must be full-load — route through the slack-budgeted
/// partition kernel ([`crate::dlx`]) instead of the lane core; the
/// route is recorded in [`Stats::partition_probes`]. Negative slack
/// (budget below capacity) stays on the lane core, whose root bound
/// refutes in one node — the frozen λ gate counts. Unit probes never
/// reroute: their memo-off node counts are pinned bit for bit to the
/// recursive reference.
pub(crate) fn budget_search(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    if spec.is_unit() {
        crate::search_core::search_iterative(u, spec, budget, lim, sym, store)
    } else if spec.max_demand() <= 3 {
        let n = u.ring().n() as u64;
        let wsum: u64 = (0..u.num_chords())
            .map(|d| spec.demand[d as usize] as u64 * u.dist_of_pri(u.pri_of_dense(d)) as u64)
            .sum();
        let cap = budget as u64 * n;
        if cap >= wsum && cap - wsum < n {
            crate::dlx::search_partition(u, spec, budget, lim, sym, store)
        } else {
            crate::search_core::search_lanes(u, spec, budget, lim, sym, store)
        }
    } else {
        search::<MultiKernel>(u, spec, budget, lim, sym)
    }
}

/// The PR-3 **recursive** search path, kept callable as the differential
/// reference for the iterative core: unit-demand specs on the recursive
/// bitset kernel, λ-fold specs on the multiplicity kernel — never the
/// memo, never the setwise/canonical machinery. With the memo off the
/// iterative core must agree with this function on verdicts, optima,
/// *and exact node counts* (`tests/kernel_proptests.rs` pins it).
pub fn budget_search_reference(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    sym: SymmetryMode,
) -> (Outcome, Stats) {
    let lim = RunLimits::nodes_only(max_nodes);
    let (o, s, _) = if spec.is_unit() {
        search::<BitsetKernel>(u, spec, budget, &lim, sym)
    } else {
        search::<MultiKernel>(u, spec, budget, &lim, sym)
    };
    (o, s)
}

/// `budget_search` forced onto the word-parallel **lane core** for a
/// λ ≤ 3 spec, bypassing the low-slack partition dispatch — the
/// branch-and-bound counterpart path the partition kernel is measured
/// against (benches gate partition witness rows strictly under it;
/// differential tests pin verdicts and optima to it).
///
/// # Panics
/// Panics if a demand exceeds 3 (the lane core's packed width).
pub fn budget_search_packed(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    assert!(spec.max_demand() <= 3, "lane core requires demands ≤ 3");
    let lim = RunLimits::nodes_only(max_nodes);
    let (o, s, _) = crate::search_core::search_lanes(u, spec, budget, &lim, sym, store);
    (o, s)
}

/// `budget_search` forced onto the **slack-budgeted partition
/// kernel** ([`crate::dlx`]) regardless of the instance's slack — the
/// direct entry benches and differential tests use to measure the
/// partition route on any λ ≤ 3 spec (the auto-dispatch only reroutes
/// when slack < n).
///
/// # Panics
/// Panics if a demand exceeds 3 (the kernel's packed lane width).
pub fn budget_search_partition(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats) {
    let lim = RunLimits::nodes_only(max_nodes);
    let (o, s, _) = crate::dlx::search_partition(u, spec, budget, &lim, sym, store);
    (o, s)
}

/// [`budget_search`] forced onto the multiplicity (`Vec<u32>`) kernel —
/// the pre-bitset reference path for differential tests and benches.
/// Always runs [`SymmetryMode::Off`]: this path *is* the measured
/// "before".
pub(crate) fn budget_search_legacy(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
) -> (Outcome, Stats, Option<Exhaustion>) {
    search::<MultiKernel>(u, spec, budget, lim, SymmetryMode::Off)
}

/// [`budget_search`] on the breadth-first frontier + `rayon` scope.
/// `prefix_per_thread` controls how many independent prefixes are
/// expanded per thread before the scope drains them. Unit-demand specs
/// drain [`crate::search_core`] workers sharing one refutation store
/// (each attached under its own generation, so cross-worker reuse shows
/// up as `shared_hits`); λ ≤ 3 specs drain the lane-core workers the
/// same way; only demands > 3 keep the recursive multiplicity workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn budget_search_parallel(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    threads: usize,
    prefix_per_thread: usize,
    sym: SymmetryMode,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    if spec.is_unit() {
        crate::search_core::search_iterative_parallel(
            u,
            spec,
            budget,
            lim,
            threads,
            prefix_per_thread,
            sym,
            store,
        )
    } else if spec.max_demand() <= 3 {
        crate::search_core::search_lanes_parallel(
            u,
            spec,
            budget,
            lim,
            threads,
            prefix_per_thread,
            sym,
            store,
        )
    } else {
        search_parallel::<MultiKernel>(u, spec, budget, lim, threads, prefix_per_thread, sym)
    }
}

/// Searches for a covering of `spec` using at most `budget` tiles from the
/// universe. Exhaustive up to `max_nodes` search nodes. Unit-demand specs
/// run on the bitset kernel; λ-fold specs on the multiplicity kernel.
///
/// Runs without symmetry reduction, preserving this function's historical
/// node counts; the engine path defaults to [`SymmetryMode::Root`].
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api`: \
            engine \"bitset\" with `Objective::WithinBudget`; \
            `SolveRequest::with_symmetry(SymmetryMode::Off)` reproduces this \
            function's exact search"
)]
pub fn cover_spec_within_budget(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
) -> (Outcome, Stats) {
    let (o, s, _) = budget_search(
        u,
        spec,
        budget,
        &RunLimits::nodes_only(max_nodes),
        SymmetryMode::Off,
        None,
    );
    (o, s)
}

/// Reference implementation on the multiplicity (`Vec<u32>`) kernel
/// regardless of the spec — the pre-bitset search path, kept callable for
/// differential tests and before/after benchmarking.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api` \
            (engine \"legacy\")"
)]
pub fn cover_spec_within_budget_legacy(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
) -> (Outcome, Stats) {
    let (o, s, _) = budget_search_legacy(u, spec, budget, &RunLimits::nodes_only(max_nodes));
    (o, s)
}

/// [`cover_spec_within_budget`] for the standard all-of-`K_n` spec.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api`: \
            engine \"bitset\" with `Objective::WithinBudget`; \
            `SolveRequest::with_symmetry(SymmetryMode::Off)` reproduces this \
            function's exact search"
)]
pub fn cover_within_budget(u: &TileUniverse, budget: u32, max_nodes: u64) -> (Outcome, Stats) {
    let spec = CoverSpec::complete(u.ring().n());
    let (o, s, _) = budget_search(
        u,
        &spec,
        budget,
        &RunLimits::nodes_only(max_nodes),
        SymmetryMode::Off,
        None,
    );
    (o, s)
}

/// Parallel variant: the tree is expanded breadth-first into a frontier of
/// independent prefixes (several per thread), which a work-sharing `rayon`
/// scope drains with a shared early-exit flag and node budget. Semantics
/// match [`cover_spec_within_budget`] (up to which feasible solution is
/// found). `threads = 0` uses the available parallelism.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api`: \
            engine \"bitset-parallel\" (or `ExecPolicy::Parallel`); \
            `SolveRequest::with_symmetry(SymmetryMode::Off)` reproduces this \
            function's exact search"
)]
pub fn cover_spec_within_budget_parallel(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    max_nodes: u64,
    threads: usize,
) -> (Outcome, Stats) {
    let (o, s, _) = budget_search_parallel(
        u,
        spec,
        budget,
        &RunLimits::nodes_only(max_nodes),
        threads,
        DEFAULT_PREFIX_PER_THREAD,
        SymmetryMode::Off,
        None,
    );
    (o, s)
}

/// Frontier prefixes expanded per thread when the caller does not choose
/// (`prefix_depth = 3` in [`crate::api::ExecPolicy::Parallel`] terms).
pub(crate) const DEFAULT_PREFIX_PER_THREAD: usize = 8;

/// The recursive frontier-parallel driver (λ-fold specs; unit specs run
/// `crate::search_core::search_iterative_parallel`, which mirrors this
/// function stanza for stanza — a fix to either's scheduling logic
/// belongs in both).
fn search_parallel<K: Kernel>(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
    threads: usize,
    prefix_per_thread: usize,
    sym: SymmetryMode,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let max_nodes = lim.max_nodes;
    // `num_threads(0)` = available parallelism, mirroring rayon's builder.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let threads = pool.current_num_threads();
    let mut root = SearchCtx::<K>::new(u, spec, budget, lim, sym);
    if root.kernel.satisfied() {
        return (Outcome::Feasible(Vec::new()), root.stats, None);
    }
    let root_infeasible = root.kernel.remaining_lb(u) > budget as u64
        || (root.strong && root.kernel.strong_lb(u, budget as u64) > budget as u64);
    if root_infeasible {
        // Count the root node, matching what the sequential dfs reports
        // for the identical workload.
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

    // Breadth-first frontier expansion: keep splitting the shallowest
    // prefix until there are enough independent tasks to keep every thread
    // busy through subtree-size imbalance.
    let target = threads * prefix_per_thread.max(1);
    let mut frontier: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    while frontier.len() < target {
        let Some(prefix) = frontier.pop_front() else {
            break;
        };
        if let Some(cause) = lim.stop_requested() {
            return (Outcome::NodeLimit, root.stats, Some(cause));
        }
        for &t in &prefix {
            root.place(t);
        }
        let mut early: Option<Outcome> = None;
        if root.kernel.satisfied() {
            early = Some(Outcome::Feasible(root.chosen.clone()));
        } else {
            root.stats.nodes += 1;
            let prefix_slack = (budget as u64).saturating_sub(root.chosen.len() as u64);
            if root.stats.nodes > max_nodes {
                early = Some(Outcome::NodeLimit);
            } else if root.chosen.len() as u64 + root.kernel.remaining_lb(u)
                > budget as u64
                || (root.strong && root.kernel.strong_lb(u, prefix_slack) > prefix_slack)
            {
                // The prefix dies here; nothing gets enqueued.
                root.stats.pruned += 1;
            } else {
                let branch = root.kernel.branch_chord().expect("unsatisfied");
                for t in root.sorted_candidates(branch) {
                    let mut child = prefix.clone();
                    child.push(t);
                    frontier.push_back(child);
                }
            }
        }
        for &t in prefix.iter().rev() {
            root.unplace(t);
        }
        if let Some(outcome) = early {
            let cause = matches!(outcome, Outcome::NodeLimit)
                .then_some(Exhaustion::NodeBudget);
            return (outcome, root.stats, cause);
        }
    }
    let expand_stats = root.stats;
    drop(root);
    if frontier.is_empty() {
        // Every prefix was pruned or expanded away: exhaustive.
        return (Outcome::Infeasible, expand_stats, None);
    }

    let found = AtomicBool::new(false);
    let limit_hit = AtomicBool::new(false);
    // Why the first externally-stopped worker stopped (0 = none; see
    // `encode_cause`). Deadline/cancel out-rank the node budget so a
    // request that trips both reports the wall-clock cause.
    let stop_cause = AtomicU8::new(0);
    let nodes = AtomicU64::new(expand_stats.nodes);
    let pruned = AtomicU64::new(expand_stats.pruned);
    let dominated = AtomicU64::new(expand_stats.dominated);
    let sym_pruned = AtomicU64::new(expand_stats.sym_pruned);
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
            let sym_factor = &sym_factor;
            let solution = &solution;
            scope.spawn(move |_| {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                // The node budget is global: every worker flushes its
                // local count into `nodes` each 1024 nodes and aborts once
                // the shared total passes `max_nodes`, so total work
                // overshoots by at most `threads × 1024` nodes.
                if nodes.load(Ordering::Relaxed) >= max_nodes {
                    limit_hit.store(true, Ordering::Relaxed);
                    stop_cause.fetch_max(encode_cause(Exhaustion::NodeBudget), Ordering::Relaxed);
                    return;
                }
                // Workers inherit the deadline and cancellation flag (the
                // per-worker node cap is lifted in favor of the shared
                // counter above), so a wall-clock deadline stops every
                // worker within ~4096 nodes.
                let worker_lim = RunLimits {
                    max_nodes: u64::MAX,
                    deadline: lim.deadline,
                    cancel: lim.cancel.clone(),
                };
                let mut ctx = SearchCtx::<K>::new(u, spec, budget, &worker_lim, sym);
                ctx.early_exit = Some(found);
                ctx.shared_nodes = Some((nodes, max_nodes));
                for &t in prefix {
                    ctx.place(t);
                }
                let ok = ctx.dfs();
                // Flush the unsynced remainder so the reported total is exact.
                ctx.sync_shared_nodes();
                pruned.fetch_add(ctx.stats.pruned, Ordering::Relaxed);
                dominated.fetch_add(ctx.stats.dominated, Ordering::Relaxed);
                sym_pruned.fetch_add(ctx.stats.sym_pruned, Ordering::Relaxed);
                sym_factor.fetch_max(ctx.stats.sym_factor, Ordering::Relaxed);
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
        sym_factor: sym_factor.load(Ordering::Relaxed),
        // The recursive parallel driver never runs the memo machinery
        // (λ-fold specs only — the iterative core serves unit specs).
        ..Stats::default()
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

/// Ranks stop causes for the parallel aggregation (`fetch_max`): an
/// explicit cancellation or deadline is more informative than "ran out of
/// nodes", so it wins when workers disagree.
pub(crate) fn encode_cause(c: Exhaustion) -> u8 {
    match c {
        Exhaustion::EngineLimit => 1,
        Exhaustion::NodeBudget => 2,
        Exhaustion::Deadline => 3,
        Exhaustion::Cancelled => 4,
        Exhaustion::Shutdown => 5,
    }
}

pub(crate) fn decode_cause(code: u8) -> Exhaustion {
    match code {
        3 => Exhaustion::Deadline,
        4 => Exhaustion::Cancelled,
        5 => Exhaustion::Shutdown,
        _ => Exhaustion::NodeBudget,
    }
}

/// The deepening start budget for a spec: the combinatorial bound for the
/// complete instance, the capacity bound otherwise. Shared by the
/// deprecated `solve_optimal*` family and the [`crate::api`] engines so
/// both explore the identical budget ladder.
pub(crate) fn deepening_start(u: &TileUniverse, spec: &CoverSpec) -> u32 {
    let n = u.ring().n();
    let base = spec.capacity_lower_bound(u.ring());
    if spec.demand == CoverSpec::complete(n).demand {
        combinatorial_lower_bound(n).max(base) as u32
    } else {
        base as u32
    }
}

/// Optimal covering by iterative deepening from the combinatorial lower
/// bound. Returns the tiles and the optimum, or `None` if the node limit
/// was hit before a conclusion.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api` \
            (engine \"bitset\" with `Objective::FindOptimal`)"
)]
pub fn solve_optimal(u: &TileUniverse, max_nodes: u64) -> Option<(Vec<Tile>, u32, Stats)> {
    let spec = CoverSpec::complete(u.ring().n());
    solve_optimal_spec_with(u, &spec, budget_search_off, max_nodes)
}

/// [`budget_search`] pinned to [`SymmetryMode::Off`] with the memo
/// disabled — the deprecated free functions' historical search, bit for
/// bit.
fn budget_search_off(
    u: &TileUniverse,
    spec: &CoverSpec,
    budget: u32,
    lim: &RunLimits,
) -> (Outcome, Stats, Option<Exhaustion>) {
    budget_search(u, spec, budget, lim, SymmetryMode::Off, None)
}

/// Optimal covering for an arbitrary [`CoverSpec`], by iterative deepening
/// from the spec's capacity bound.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api` \
            (engine \"bitset\" with `Objective::FindOptimal`)"
)]
pub fn solve_optimal_spec(
    u: &TileUniverse,
    spec: &CoverSpec,
    max_nodes: u64,
) -> Option<(Vec<Tile>, u32, Stats)> {
    solve_optimal_spec_with(u, spec, budget_search_off, max_nodes)
}

/// [`solve_optimal_spec`] with every deepening step run on the parallel
/// frontier search over `threads` threads.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api` \
            (engine \"bitset-parallel\" with `Objective::FindOptimal`)"
)]
pub fn solve_optimal_spec_parallel(
    u: &TileUniverse,
    spec: &CoverSpec,
    max_nodes: u64,
    threads: usize,
) -> Option<(Vec<Tile>, u32, Stats)> {
    solve_optimal_spec_with(
        u,
        spec,
        |u, spec, budget, lim| {
            budget_search_parallel(
                u,
                spec,
                budget,
                lim,
                threads,
                DEFAULT_PREFIX_PER_THREAD,
                SymmetryMode::Off,
                None,
            )
        },
        max_nodes,
    )
}

fn solve_optimal_spec_with(
    u: &TileUniverse,
    spec: &CoverSpec,
    run: impl Fn(&TileUniverse, &CoverSpec, u32, &RunLimits) -> (Outcome, Stats, Option<Exhaustion>),
    max_nodes: u64,
) -> Option<(Vec<Tile>, u32, Stats)> {
    let lim = RunLimits::nodes_only(max_nodes);
    let mut budget = deepening_start(u, spec);
    let mut total = Stats::default();
    loop {
        let (outcome, stats, _) = run(u, spec, budget, &lim);
        total.absorb(stats);
        match outcome {
            Outcome::Feasible(idx) => {
                let tiles = idx.into_iter().map(|i| u.tile(i)).collect();
                return Some((tiles, budget, total));
            }
            Outcome::Infeasible => budget += 1,
            Outcome::NodeLimit => return None,
        }
    }
}

/// Certifies that no covering with at most `budget` tiles exists.
/// Returns `Some(true)` for a completed infeasibility proof, `Some(false)`
/// if a covering was found, `None` if the node limit was hit.
#[deprecated(
    since = "0.2.0",
    note = "use the `SolveRequest`/`Engine` API in `cyclecover_solver::api` \
            (`Objective::ProveInfeasible`)"
)]
pub fn prove_infeasible(u: &TileUniverse, budget: u32, max_nodes: u64) -> Option<bool> {
    let spec = CoverSpec::complete(u.ring().n());
    match budget_search_off(u, &spec, budget, &RunLimits::nodes_only(max_nodes)).0 {
        Outcome::Infeasible => Some(true),
        Outcome::Feasible(_) => Some(false),
        Outcome::NodeLimit => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::rho_formula;
    use cyclecover_graph::EdgeMultiset;
    use cyclecover_ring::Ring;

    // Kernel-level wrappers over the engine internals, mirroring the
    // deprecated free functions' signatures (the public path is covered
    // by `api`'s tests and `tests/engine_conformance.rs`).
    fn within(u: &TileUniverse, spec: &CoverSpec, budget: u32, max_nodes: u64) -> (Outcome, Stats) {
        let (o, s, _) = budget_search_off(u, spec, budget, &RunLimits::nodes_only(max_nodes));
        (o, s)
    }

    fn within_sym(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
        sym: SymmetryMode,
    ) -> (Outcome, Stats) {
        let (o, s, _) = budget_search(
            u,
            spec,
            budget,
            &RunLimits::nodes_only(max_nodes),
            sym,
            None,
        );
        (o, s)
    }

    fn within_memo(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
        sym: SymmetryMode,
    ) -> (Outcome, Stats) {
        let store = MemoStore::new(u, DEFAULT_MEMO_BYTES);
        let (o, s, _) = budget_search(
            u,
            spec,
            budget,
            &RunLimits::nodes_only(max_nodes),
            sym,
            store.as_ref(),
        );
        (o, s)
    }

    fn within_legacy(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
    ) -> (Outcome, Stats) {
        let (o, s, _) = budget_search_legacy(u, spec, budget, &RunLimits::nodes_only(max_nodes));
        (o, s)
    }

    fn within_parallel(
        u: &TileUniverse,
        spec: &CoverSpec,
        budget: u32,
        max_nodes: u64,
        threads: usize,
    ) -> (Outcome, Stats) {
        let (o, s, _) = budget_search_parallel(
            u,
            spec,
            budget,
            &RunLimits::nodes_only(max_nodes),
            threads,
            DEFAULT_PREFIX_PER_THREAD,
            SymmetryMode::Off,
            None,
        );
        (o, s)
    }

    fn optimal_spec(
        u: &TileUniverse,
        spec: &CoverSpec,
        max_nodes: u64,
    ) -> Option<(Vec<Tile>, u32, Stats)> {
        solve_optimal_spec_with(u, spec, budget_search_off, max_nodes)
    }

    fn optimal(u: &TileUniverse, max_nodes: u64) -> Option<(Vec<Tile>, u32, Stats)> {
        optimal_spec(u, &CoverSpec::complete(u.ring().n()), max_nodes)
    }

    fn infeasible(u: &TileUniverse, budget: u32, max_nodes: u64) -> Option<bool> {
        match within(u, &CoverSpec::complete(u.ring().n()), budget, max_nodes).0 {
            Outcome::Infeasible => Some(true),
            Outcome::Feasible(_) => Some(false),
            Outcome::NodeLimit => None,
        }
    }

    fn assert_valid_cover(u: &TileUniverse, tiles: &[Tile], lambda: u32) {
        let ring = u.ring();
        let n = ring.n() as usize;
        let mut cover = EdgeMultiset::new(n);
        for t in tiles {
            for c in t.chords(ring) {
                cover.insert(c.to_edge());
            }
        }
        assert!(cover.covers_complete(lambda), "not a {lambda}-covering");
    }

    #[test]
    fn optimal_k4_matches_paper_example() {
        let u = TileUniverse::new(Ring::new(4), 4);
        let (tiles, opt, _) = optimal(&u, 1_000_000).expect("solved");
        assert_eq!(opt, 3, "rho(4) = 3 per the paper's example");
        assert_valid_cover(&u, &tiles, 1);
    }

    #[test]
    fn optimal_small_odd_matches_theorem1() {
        for n in [3u32, 5, 7, 9] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let (tiles, opt, _) = optimal(&u, 50_000_000).expect("solved");
            assert_eq!(opt as u64, rho_formula(n), "rho({n})");
            assert_valid_cover(&u, &tiles, 1);
        }
    }

    #[test]
    fn optimal_small_even_matches_theorem2() {
        for n in [6u32, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let (tiles, opt, _) = optimal(&u, 50_000_000).expect("solved");
            assert_eq!(opt as u64, rho_formula(n), "rho({n})");
            assert_valid_cover(&u, &tiles, 1);
        }
    }

    /// The `+1` of Theorem 2 for even `p`: n = 8 (p = 4) — capacity bound
    /// says 8, the paper says 9; certify 8 is infeasible.
    #[test]
    fn n8_infeasible_at_capacity_bound() {
        let u = TileUniverse::new(Ring::new(8), 8);
        assert_eq!(infeasible(&u, 8, 50_000_000), Some(true));
        assert_eq!(infeasible(&u, 9, 50_000_000), Some(false));
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        for n in [6u32, 7, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let budget = rho_formula(n) as u32;
            let (seq, _) = within(&u, &spec, budget - 1, 100_000_000);
            let (par, _) = within_parallel(&u, &spec, budget - 1, 100_000_000, 4);
            assert_eq!(seq, Outcome::Infeasible, "n={n}");
            assert_eq!(par, Outcome::Infeasible, "n={n}");
            let (seq_ok, _) = within(&u, &spec, budget, 100_000_000);
            let (par_ok, _) = within_parallel(&u, &spec, budget, 100_000_000, 4);
            assert!(matches!(seq_ok, Outcome::Feasible(_)), "n={n}");
            assert!(matches!(par_ok, Outcome::Feasible(_)), "n={n}");
        }
    }

    /// λ-fold: rho_2(6) — the capacity bound is 9 (vs 2·rho(6) = 10);
    /// the solver settles what copy-concatenation cannot.
    #[test]
    fn lambda_fold_small() {
        let n = 6u32;
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let spec = CoverSpec::lambda_fold(n, 2);
        let (tiles, opt, _) = optimal_spec(&u, &spec, 200_000_000).expect("solved");
        assert_valid_cover(&u, &tiles, 2);
        assert!(opt >= spec.capacity_lower_bound(Ring::new(n)) as u32);
        assert!(opt <= 2 * rho_formula(n) as u32);
    }

    /// Subset spec: cover only a star's edges (plus whatever tiles bring).
    #[test]
    fn subset_spec_star() {
        let n = 7u32;
        let u = TileUniverse::new(Ring::new(n), 4);
        let star: Vec<Edge> = (1..n).map(|v| Edge::new(0, v)).collect();
        let spec = CoverSpec::subset(n, &star);
        let (tiles, opt, _) = optimal_spec(&u, &spec, 100_000_000).expect("solved");
        // Each tile uses at most 2 chords at vertex 0: >= ceil(6/2) = 3.
        assert!(opt >= 3, "opt={opt}");
        let ring = Ring::new(n);
        let mut cov = EdgeMultiset::new(n as usize);
        for t in &tiles {
            for c in t.chords(ring) {
                cov.insert(c.to_edge());
            }
        }
        for e in &star {
            assert!(cov.count(*e) >= 1);
        }
    }

    #[test]
    fn node_limit_reports_inconclusive() {
        // n = 8 at budget 8: the capacity bound allows it (8 = ⌈p²/2⌉), so
        // infeasibility needs real search — a 10-node limit must trip.
        let u = TileUniverse::new(Ring::new(8), 8);
        let (outcome, stats) = within(&u, &CoverSpec::complete(8), 8, 10);
        assert_eq!(outcome, Outcome::NodeLimit);
        assert!(stats.nodes >= 10);
    }

    /// Restricting tiles to C3/C4 with shortest-path gaps must not change
    /// the odd optimum (Theorem 1's coverings have that shape).
    #[test]
    fn restricted_universe_still_optimal_for_odd() {
        let n = 7u32;
        let ring = Ring::new(n);
        let u = TileUniverse::with_max_gap(ring, 4, n / 2);
        let (tiles, opt, _) = optimal(&u, 10_000_000).expect("solved");
        assert_eq!(opt as u64, rho_formula(n));
        assert_valid_cover(&u, &tiles, 1);
        assert!(tiles.iter().all(|t| t.len() <= 4));
    }

    /// The bitset kernel and the legacy multiplicity kernel must reach the
    /// same verdict at every budget around the optimum.
    #[test]
    fn bitset_and_legacy_verdicts_agree() {
        for n in [5u32, 6, 7, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let rho = rho_formula(n) as u32;
            for budget in [rho - 1, rho, rho + 1] {
                let (fast, _) = within(&u, &spec, budget, 200_000_000);
                let (slow, _) = within_legacy(&u, &spec, budget, 200_000_000);
                let fast_ok = matches!(fast, Outcome::Feasible(_));
                let slow_ok = matches!(slow, Outcome::Feasible(_));
                assert_eq!(fast_ok, slow_ok, "n={n} budget={budget}");
                if fast_ok {
                    if let Outcome::Feasible(idx) = &fast {
                        let tiles: Vec<Tile> =
                            idx.iter().map(|&i| u.tile(i)).collect();
                        assert_valid_cover(&u, &tiles, 1);
                    }
                } else {
                    assert_eq!(fast, Outcome::Infeasible, "n={n} budget={budget}");
                    assert_eq!(slow, Outcome::Infeasible, "n={n} budget={budget}");
                }
            }
        }
    }

    /// Dominance pruning must fire on real instances (it is the point of
    /// the candidate masks) and never flip a verdict — the agreement test
    /// above covers verdicts; this one pins the pruning being active.
    #[test]
    fn dominance_fires_on_even_instances() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let (outcome, stats) = within(&u, &CoverSpec::complete(8), 8, 50_000_000);
        assert_eq!(outcome, Outcome::Infeasible);
        assert!(stats.dominated > 0, "dominance never fired: {stats:?}");
    }

    /// All three symmetry modes reach identical verdicts around the
    /// optimum; the reduced modes never expand more nodes than `Off` on
    /// the hard even refutations.
    #[test]
    fn symmetry_modes_agree_on_verdicts() {
        for n in [6u32, 7, 8] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let rho = rho_formula(n) as u32;
            for budget in [rho - 1, rho] {
                let (off, off_stats) = within(&u, &spec, budget, 200_000_000);
                for sym in [SymmetryMode::Root, SymmetryMode::Full] {
                    let (got, stats) = within_sym(&u, &spec, budget, 200_000_000, sym);
                    assert_eq!(
                        matches!(got, Outcome::Feasible(_)),
                        matches!(off, Outcome::Feasible(_)),
                        "n={n} budget={budget} {sym:?}"
                    );
                    if let Outcome::Feasible(idx) = &got {
                        let tiles: Vec<Tile> = idx.iter().map(|&i| u.tile(i)).collect();
                        assert_valid_cover(&u, &tiles, 1);
                        assert_eq!(idx.len() as u32, budget.min(rho), "n={n} {sym:?}");
                    }
                    if budget == rho - 1 && n == 8 {
                        assert!(
                            stats.nodes <= off_stats.nodes,
                            "n={n} {sym:?}: {} > {} nodes",
                            stats.nodes,
                            off_stats.nodes
                        );
                    }
                }
            }
        }
    }

    /// The capacity-tight even refutations collapse to one-node proofs
    /// under the parity (T-join) bound: every vertex of `K_8` (and
    /// `K_12`) has odd degree while the budget leaves zero slack.
    #[test]
    fn parity_bound_refutes_tight_even_budgets_at_the_root() {
        for (n, tight) in [(8u32, 8u32), (12, 18)] {
            let u = TileUniverse::new(Ring::new(n), n as usize);
            let spec = CoverSpec::complete(n);
            let (off, off_stats) = within(&u, &spec, tight, 200_000);
            let (root, root_stats) = within_sym(&u, &spec, tight, 200_000, SymmetryMode::Root);
            assert_eq!(root, Outcome::Infeasible, "n={n}");
            assert_eq!(root_stats.nodes, 1, "n={n}: parity prunes the root");
            if n == 8 {
                // Off needs the full 97,465-node exhaustive proof; the
                // 200k cap is enough for it but pins the contrast.
                assert_eq!(off, Outcome::Infeasible);
                assert_eq!(off_stats.nodes, 97_465, "BENCH_1 baseline drifted");
            } else {
                // n = 12: off exceeds any reasonable cap (> 30M nodes).
                assert_eq!(off, Outcome::NodeLimit);
            }
        }
    }

    /// The orbit filter itself fires where a real branch survives the
    /// bounds: the n = 8 budget-9 witness search reduces its root by the
    /// diameter-chord stabilizer (order 4) and skips mirrored candidates.
    #[test]
    fn symmetry_root_filters_witness_search() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        let (off, off_stats) = within(&u, &spec, 9, 50_000_000);
        let (root, root_stats) = within_sym(&u, &spec, 9, 50_000_000, SymmetryMode::Root);
        assert!(matches!(off, Outcome::Feasible(_)));
        assert!(matches!(root, Outcome::Feasible(_)));
        assert_eq!(off_stats.sym_factor, 1);
        assert_eq!(off_stats.sym_pruned, 0);
        assert_eq!(root_stats.sym_factor, 4, "diameter-chord stabilizer");
        assert!(root_stats.sym_pruned > 0, "{root_stats:?}");
        assert!(
            root_stats.nodes <= off_stats.nodes,
            "{} vs {}",
            root_stats.nodes,
            off_stats.nodes
        );
    }

    /// Frontier-parallel search honors the symmetry mode and agrees with
    /// the sequential verdicts.
    #[test]
    fn symmetry_parallel_agrees_with_sequential() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        for sym in [SymmetryMode::Root, SymmetryMode::Full] {
            let (seq, seq_stats) = within_sym(&u, &spec, 8, 100_000_000, sym);
            let (par, par_stats, _) = budget_search_parallel(
                &u,
                &spec,
                8,
                &RunLimits::nodes_only(100_000_000),
                4,
                DEFAULT_PREFIX_PER_THREAD,
                sym,
                None,
            );
            assert_eq!(seq, Outcome::Infeasible, "{sym:?}");
            assert_eq!(par, Outcome::Infeasible, "{sym:?}");
            // Both prune the capacity-tight root via the parity bound.
            assert_eq!(seq_stats.nodes, 1, "{sym:?}");
            assert_eq!(par_stats.nodes, 1, "{sym:?}");
            let (par_ok, ok_stats, _) = budget_search_parallel(
                &u,
                &spec,
                9,
                &RunLimits::nodes_only(100_000_000),
                4,
                DEFAULT_PREFIX_PER_THREAD,
                sym,
                None,
            );
            assert!(matches!(par_ok, Outcome::Feasible(_)), "{sym:?}");
            // The witness search's frontier expansion reduced its root by
            // the order-4 diameter-chord stabilizer.
            assert_eq!(ok_stats.sym_factor, 4, "{sym:?}");
        }
    }

    /// The residual-state memo prunes a real refutation without changing
    /// its verdict: the n = 8 budget-8 proof (97,465 nodes memo-off,
    /// bit-exact with BENCH_1) completes in strictly fewer nodes with
    /// the memo on, reporting its hits and resident entries.
    #[test]
    fn memo_prunes_the_even_refutation() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        let (plain, plain_stats) = within_sym(&u, &spec, 8, 50_000_000, SymmetryMode::Off);
        let (memoed, memo_stats) = within_memo(&u, &spec, 8, 50_000_000, SymmetryMode::Off);
        assert_eq!(plain, Outcome::Infeasible);
        assert_eq!(memoed, Outcome::Infeasible, "memo flipped a verdict");
        assert_eq!(plain_stats.nodes, 97_465, "BENCH_1 baseline drifted");
        assert_eq!(plain_stats.memo_hits, 0);
        assert_eq!(plain_stats.memo_entries, 0);
        assert!(
            memo_stats.nodes < plain_stats.nodes,
            "memo never pruned: {memo_stats:?}"
        );
        assert!(memo_stats.memo_hits > 0, "{memo_stats:?}");
        assert!(memo_stats.memo_entries > 0, "{memo_stats:?}");
    }

    /// Canonical residual-state keying engages under `Full`: the ρ(10)
    /// witness search with the memo on prunes nodes whose uncovered set
    /// matched only after dihedral canonicalization (`canon_pruned`),
    /// lands under the `Root` memo node count, and still finds a valid
    /// covering. This is the ROADMAP's setwise/canonical-prefix open
    /// item doing real work on the workspace's hardest row.
    #[test]
    fn canonical_memo_cuts_the_rho10_witness() {
        let u = TileUniverse::new(Ring::new(10), 10);
        let spec = CoverSpec::complete(10);
        let (root, root_stats) = within_memo(&u, &spec, 13, 50_000_000, SymmetryMode::Root);
        let (full, full_stats) = within_memo(&u, &spec, 13, 50_000_000, SymmetryMode::Full);
        assert!(matches!(root, Outcome::Feasible(_)));
        let Outcome::Feasible(idx) = &full else {
            panic!("full+memo lost the witness: {full_stats:?}");
        };
        let tiles: Vec<Tile> = idx.iter().map(|&i| u.tile(i)).collect();
        assert_valid_cover(&u, &tiles, 1);
        assert!(
            root_stats.nodes <= 400_000,
            "rho(10) acceptance ceiling: {root_stats:?}"
        );
        assert!(full_stats.canon_pruned > 0, "{full_stats:?}");
        assert!(
            full_stats.nodes < root_stats.nodes,
            "canonical keys under Full should out-prune Root: {} vs {}",
            full_stats.nodes,
            root_stats.nodes
        );
    }

    /// A tiny memo budget degrades pruning power, never correctness:
    /// the verdict holds at any table size, and the resident entry count
    /// respects the floor-sized table.
    #[test]
    fn memo_budget_only_trades_pruning() {
        let u = TileUniverse::new(Ring::new(8), 8);
        let spec = CoverSpec::complete(8);
        let lim = RunLimits::nodes_only(50_000_000);
        let store = MemoStore::new(&u, 0);
        let (o, s, _) = budget_search(&u, &spec, 8, &lim, SymmetryMode::Off, store.as_ref());
        assert_eq!(o, Outcome::Infeasible);
        assert!(s.nodes <= 97_465, "worse than memo-free: {s:?}");
        assert!(s.memo_entries > 0, "{s:?}");
    }

    /// Asymmetric (subset) specs degrade gracefully: the spec-preserving
    /// subgroup collapses, no filtering happens, verdicts are unchanged.
    #[test]
    fn symmetry_degrades_on_asymmetric_specs() {
        let n = 7u32;
        let u = TileUniverse::new(Ring::new(n), 4);
        let requests: Vec<Edge> = vec![Edge::new(0, 2), Edge::new(1, 4), Edge::new(2, 6)];
        let spec = CoverSpec::subset(n, &requests);
        for budget in 1..=3u32 {
            let (off, _) = within(&u, &spec, budget, 10_000_000);
            let (root, stats) = within_sym(&u, &spec, budget, 10_000_000, SymmetryMode::Root);
            assert_eq!(
                matches!(off, Outcome::Feasible(_)),
                matches!(root, Outcome::Feasible(_)),
                "budget={budget}"
            );
            assert_eq!(stats.sym_pruned, 0, "nothing to filter by");
        }
    }

    /// λ-fold specs stay fully symmetric: the multiplicity kernel accepts
    /// orbit filtering — including `Full`'s every-depth filtering on the
    /// non-sorting deep path (λ-fold searches exceed the depth-4 sorting
    /// cutoff) — and agrees with the unreduced search.
    #[test]
    fn symmetry_applies_to_lambda_fold() {
        let n = 6u32;
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let spec = CoverSpec::lambda_fold(n, 2);
        let lb = spec.capacity_lower_bound(Ring::new(n)) as u32;
        for budget in [lb - 1, lb] {
            let (off, _) = within(&u, &spec, budget, 200_000_000);
            for sym in [SymmetryMode::Root, SymmetryMode::Full] {
                let (got, _) = within_sym(&u, &spec, budget, 200_000_000, sym);
                assert_eq!(
                    matches!(off, Outcome::Feasible(_)),
                    matches!(got, Outcome::Feasible(_)),
                    "budget={budget} {sym:?}"
                );
            }
        }
    }
}
