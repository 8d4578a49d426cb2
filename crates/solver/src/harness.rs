//! The machinery every branch-and-bound core shares, in one place.
//!
//! The four search contexts — the recursive `bnb::SearchCtx` (reference
//! bitset kernel and multiplicity kernel), the iterative unit core
//! `IterCore`, the 2-bit lane core `LaneCore` and the partition kernel
//! `PartitionCore` — differ only in their residual representation,
//! bounds, candidate scoring and memo keying. Everything around that
//! lives here:
//!
//! * [`NodeMeter`] — node, deadline and cancel accounting, plus the
//!   parallel early-exit flag and the shared node counter. Every core
//!   calls [`NodeMeter::enter`] once per expanded node.
//! * [`OrbitFilter`] — dihedral sibling filtering: the resolved
//!   symmetry level, the spec-preserving subgroup, the pointwise prefix
//!   stabilizer stack and the per-branch orbit stamps.
//! * [`conclude`] — runs a core sequentially and maps the result to
//!   `(Outcome, Stats, Option<Exhaustion>)`.
//! * [`frontier_search`] — the one frontier-parallel driver: expands a
//!   breadth-first frontier of prefixes, then drains it on a rayon scope
//!   with a shared early-exit flag and a global node budget. Any
//!   [`FrontierCore`] runs on it; the partition kernel stays sequential.

use crate::api::Exhaustion;
use crate::bnb::{CoverSpec, Outcome, RunLimits, Stats, SymmetryMode};
use crate::memo::MemoStore;
use crate::tiles::DihedralTables;
use crate::TileUniverse;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Node, deadline and cancellation accounting for one searcher.
///
/// The cadence is fixed: the node budget is checked at every node, the
/// early-exit flag and the shared-counter flush every 1024 nodes, the
/// cancel flag and the deadline every 4096 nodes. A sequential meter has
/// no early-exit flag and no shared counter, so its 1024-node step does
/// nothing.
pub(crate) struct NodeMeter<'a> {
    max_nodes: u64,
    deadline: Option<Instant>,
    cancel: Option<&'a AtomicBool>,
    /// Set by the parallel worker that found a covering.
    early_exit: Option<&'a AtomicBool>,
    /// Shared node accounting for the parallel search: `(counter, cap)`.
    /// Every 1024 local nodes the delta is flushed into the counter and
    /// the cap is checked, so the *global* budget is enforced within
    /// `threads × 1024` nodes of slack (not per worker).
    shared_nodes: Option<(&'a AtomicU64, u64)>,
    /// Local node count already flushed into the shared counter.
    synced_nodes: u64,
    hit_limit: bool,
    /// Why the search stopped early (only meaningful when `hit_limit`);
    /// `None` there means another worker's early-exit flag tripped.
    stop_cause: Option<Exhaustion>,
}

impl<'a> NodeMeter<'a> {
    /// A sequential searcher's meter over `lim`.
    pub(crate) fn new(lim: &'a RunLimits) -> Self {
        NodeMeter {
            max_nodes: lim.max_nodes,
            deadline: lim.deadline,
            cancel: lim.cancel.as_ref().map(|c| c.flag()),
            early_exit: None,
            shared_nodes: None,
            synced_nodes: 0,
            hit_limit: false,
            stop_cause: None,
        }
    }

    /// A parallel worker's meter: the node budget moves from the worker
    /// to the shared `nodes` counter; the deadline and cancel flag stay.
    fn worker(lim: &'a RunLimits, found: &'a AtomicBool, nodes: &'a AtomicU64) -> Self {
        NodeMeter {
            max_nodes: u64::MAX,
            early_exit: Some(found),
            shared_nodes: Some((nodes, lim.max_nodes)),
            ..NodeMeter::new(lim)
        }
    }

    /// Counts one expanded node into `nodes`. Returns `false` when the
    /// search must stop (see [`NodeMeter::hit_limit`]).
    #[inline]
    pub(crate) fn enter(&mut self, nodes: &mut u64) -> bool {
        *nodes += 1;
        let count = *nodes;
        if count > self.max_nodes {
            return self.stop(Some(Exhaustion::NodeBudget));
        }
        if count.is_multiple_of(1024) {
            if self.early_exit.is_some_and(|f| f.load(Ordering::Relaxed)) {
                return self.stop(None);
            }
            if self.sync_shared(count) {
                return self.stop(Some(Exhaustion::NodeBudget));
            }
        }
        if count.is_multiple_of(4096) {
            if self.cancel.is_some_and(|f| f.load(Ordering::Relaxed)) {
                return self.stop(Some(Exhaustion::Cancelled));
            }
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return self.stop(Some(Exhaustion::Deadline));
            }
        }
        true
    }

    #[cold]
    fn stop(&mut self, cause: Option<Exhaustion>) -> bool {
        self.hit_limit = true;
        self.stop_cause = cause;
        false
    }

    /// Flushes the local node count `nodes` into the shared counter;
    /// `true` when the global budget is exhausted.
    fn sync_shared(&mut self, nodes: u64) -> bool {
        let Some((counter, cap)) = self.shared_nodes else {
            return false;
        };
        let delta = nodes - self.synced_nodes;
        self.synced_nodes = nodes;
        counter.fetch_add(delta, Ordering::Relaxed) + delta > cap
    }

    /// Whether a limit (or another worker's success) stopped the search.
    #[inline]
    pub(crate) fn hit_limit(&self) -> bool {
        self.hit_limit
    }
}

/// Dihedral orbit filtering of sibling candidates.
///
/// A candidate is skipped when some symmetry `h` — preserving the spec,
/// every placed tile, and the branch chord — maps it onto an
/// already-kept sibling: the two subtrees are mirror images. `Root` mode
/// filters the empty prefix under the spec group; `Full` filters every
/// depth under the pointwise stabilizer of the placed prefix, maintained
/// incrementally (`stab(P ∪ {t}) = stab(P) ∩ stab(t)`, one AND per
/// placement).
pub(crate) struct OrbitFilter<'a> {
    /// Effective level: `Off` when the tables are unavailable or the
    /// spec's symmetry group is only the identity.
    mode: SymmetryMode,
    /// Whether the strong (parity and diameter-slack) prefix bound is
    /// consulted — the *requested* mode was not `Off`, independent of
    /// table availability.
    strong: bool,
    /// The dihedral tables, when `mode != Off`.
    tables: Option<&'a DihedralTables>,
    /// Subgroup preserving the spec's initial demand (bitmask).
    spec_group: u64,
    /// `Full` mode: `stab_stack[d]` = pointwise stabilizer of the first
    /// `d` placed tiles intersected with `spec_group`.
    stab_stack: Vec<u64>,
    /// Stamp array over tile indices backing the per-branch "already
    /// kept a candidate of this orbit" test (lazily sized).
    seen: Vec<u64>,
    stamp: u64,
}

impl<'a> OrbitFilter<'a> {
    /// Resolves the `requested` level for `spec` over `u`. Every core
    /// builds its filter here, so they all degrade identically — the
    /// differential node-count gates rely on it.
    pub(crate) fn new(u: &'a TileUniverse, spec: &CoverSpec, requested: SymmetryMode) -> Self {
        let mut filter = OrbitFilter {
            mode: SymmetryMode::Off,
            strong: requested != SymmetryMode::Off,
            tables: None,
            spec_group: 0,
            stab_stack: Vec::new(),
            seen: Vec::new(),
            stamp: 0,
        };
        if requested == SymmetryMode::Off {
            return filter;
        }
        let Some(tables) = u.dihedral() else {
            return filter;
        };
        let group = tables.demand_preserving(|pri| spec.demand[u.dense_of_pri(pri) as usize]);
        if group & !1 == 0 {
            // Only the identity: nothing to reduce by.
            return filter;
        }
        filter.mode = requested;
        filter.tables = Some(tables);
        filter.spec_group = group;
        if requested == SymmetryMode::Full {
            filter.stab_stack.push(group);
        }
        filter
    }

    #[inline]
    pub(crate) fn mode(&self) -> SymmetryMode {
        self.mode
    }

    #[inline]
    pub(crate) fn strong(&self) -> bool {
        self.strong
    }

    #[inline]
    pub(crate) fn tables(&self) -> Option<&'a DihedralTables> {
        self.tables
    }

    #[inline]
    pub(crate) fn spec_group(&self) -> u64 {
        self.spec_group
    }

    /// `Full` mode: the pointwise stabilizer of the placed prefix.
    #[inline]
    pub(crate) fn pointwise(&self) -> u64 {
        *self.stab_stack.last().expect("stab stack seeded")
    }

    /// Records tile `t` as placed.
    #[inline]
    pub(crate) fn push(&mut self, t: u32) {
        if self.mode == SymmetryMode::Full {
            let stab = self.tables.expect("tables exist in Full mode").tile_stab(t);
            self.stab_stack.push(self.pointwise() & stab);
        }
    }

    /// Reverts the most recent [`OrbitFilter::push`].
    #[inline]
    pub(crate) fn pop(&mut self) {
        if self.mode == SymmetryMode::Full {
            self.stab_stack.pop();
        }
    }

    /// Drops, in place, every candidate mirrored onto an earlier kept
    /// sibling at a node of `depth` placed tiles branching on `branch`.
    /// `wider`, when given, replaces the pointwise group by a larger one
    /// (the unit core's setwise stabilizer under canonical memo keys);
    /// prunes only the wider group explains count as `canon_pruned`, the
    /// rest as `sym_pruned`.
    pub(crate) fn filter(
        &mut self,
        branch: u32,
        depth: usize,
        wider: Option<u64>,
        cands: &mut Vec<u32>,
        stats: &mut Stats,
    ) {
        let Some(sym) = self.tables else { return };
        let pointwise = match self.mode {
            SymmetryMode::Off => return,
            SymmetryMode::Root if depth > 0 => return,
            SymmetryMode::Root => self.spec_group,
            SymmetryMode::Full => self.pointwise(),
        };
        let filter = wider.unwrap_or(pointwise) & sym.chord_stab(branch);
        if depth == 0 {
            stats.sym_factor = stats.sym_factor.max(filter.count_ones());
        }
        if filter & !1 == 0 {
            // Identity only: every orbit is a singleton.
            return;
        }
        if self.seen.len() < sym.num_tiles() as usize {
            self.seen.resize(sym.num_tiles() as usize, 0);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let pw_filter = pointwise & sym.chord_stab(branch);
        let seen = &mut self.seen;
        cands.retain(|&t| {
            let mut elements = filter & !1;
            while elements != 0 {
                let g = elements.trailing_zeros();
                elements &= elements - 1;
                let image = sym.tile_image(g, t);
                if image != t && seen[image as usize] == stamp {
                    if pw_filter >> g & 1 == 1 {
                        stats.sym_pruned += 1;
                    } else {
                        stats.canon_pruned += 1;
                    }
                    return false;
                }
            }
            seen[t as usize] = stamp;
            true
        });
    }
}

/// A core that can run one budgeted probe to a conclusion.
pub(crate) trait Search {
    /// Drives the search from the current placement depth: `true` = a
    /// covering was found (see [`Search::chosen`]); `false` = the subtree
    /// is exhausted or the meter stopped the search.
    fn run(&mut self, meter: &mut NodeMeter) -> bool;

    /// The placed tiles, in placement order.
    fn chosen(&self) -> &[u32];

    /// Final statistics (the memo cores stamp the store's population).
    fn take_stats(&mut self) -> Stats;
}

/// Runs `core` sequentially under `lim` and maps the result.
pub(crate) fn conclude(
    mut core: impl Search,
    lim: &RunLimits,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let mut meter = NodeMeter::new(lim);
    let found = core.run(&mut meter);
    let stats = core.take_stats();
    if found {
        (Outcome::Feasible(core.chosen().to_vec()), stats, None)
    } else if meter.hit_limit {
        (Outcome::NodeLimit, stats, meter.stop_cause)
    } else {
        (Outcome::Infeasible, stats, None)
    }
}

/// A core the frontier driver can split into independent prefixes.
pub(crate) trait FrontierCore: Search {
    /// Whether every demand is satisfied.
    fn satisfied(&self) -> bool;

    /// Places tile `t`.
    fn place(&mut self, t: u32);

    /// Reverts the most recent placement.
    fn unplace(&mut self);

    /// Whether the cheap or (when enabled) strong lower bound refutes
    /// the current prefix within the budget.
    fn bound_refutes(&self) -> bool;

    /// Writes the current node's filtered children into `out`, exactly
    /// as the sequential search would stage them.
    fn stage_children(&mut self, out: &mut Vec<u32>);

    /// The running statistics.
    fn stats_mut(&mut self) -> &mut Stats;
}

/// Ranks stop causes for the parallel aggregation (`fetch_max`): an
/// explicit cancellation or deadline is more informative than "ran out of
/// nodes", so it wins when workers disagree.
fn encode_cause(c: Exhaustion) -> u8 {
    match c {
        Exhaustion::EngineLimit => 1,
        Exhaustion::NodeBudget => 2,
        Exhaustion::Deadline => 3,
        Exhaustion::Cancelled => 4,
        Exhaustion::Shutdown => 5,
    }
}

fn decode_cause(code: u8) -> Exhaustion {
    match code {
        3 => Exhaustion::Deadline,
        4 => Exhaustion::Cancelled,
        5 => Exhaustion::Shutdown,
        _ => Exhaustion::NodeBudget,
    }
}

/// The frontier-parallel search over cores built by `make`: expands
/// `threads × prefix_per_thread` independent prefixes breadth-first,
/// then drains them on a work-sharing rayon scope. A worker that
/// exhausts its subtree pulls the next pending prefix, so refutations
/// scale past the root branching factor. `threads = 0` uses the
/// available parallelism.
///
/// The node budget is global: workers flush into one shared counter,
/// which is the reported `nodes`. Worker statistics fold through
/// [`Stats::absorb`]; `memo_entries` reports `store`'s population (one
/// store serves every worker).
pub(crate) fn frontier_search<C: FrontierCore>(
    make: impl Fn() -> C + Sync,
    lim: &RunLimits,
    threads: usize,
    prefix_per_thread: usize,
    store: Option<&MemoStore>,
) -> (Outcome, Stats, Option<Exhaustion>) {
    let max_nodes = lim.max_nodes;
    // `num_threads(0)` = available parallelism, mirroring rayon's builder.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let threads = pool.current_num_threads();
    let mut root = make();
    if root.satisfied() {
        return (Outcome::Feasible(Vec::new()), root.take_stats(), None);
    }
    if root.bound_refutes() {
        // Count the root node, matching what the sequential search
        // reports for the identical workload.
        let stats = Stats {
            nodes: 1,
            pruned: 1,
            sym_factor: 1,
            ..Stats::default()
        };
        return (Outcome::Infeasible, stats, None);
    }

    // Breadth-first frontier expansion: keep splitting the shallowest
    // prefix until there are enough independent tasks to keep every
    // thread busy through subtree-size imbalance.
    let target = threads * prefix_per_thread.max(1);
    let mut frontier: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    let mut children = Vec::new();
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
        if root.satisfied() {
            early = Some(Outcome::Feasible(root.chosen().to_vec()));
        } else {
            let stats = root.stats_mut();
            stats.nodes += 1;
            if stats.nodes > max_nodes {
                early = Some(Outcome::NodeLimit);
            } else if root.bound_refutes() {
                // The prefix dies here; nothing gets enqueued.
                root.stats_mut().pruned += 1;
            } else {
                children.clear();
                root.stage_children(&mut children);
                for &t in &children {
                    let mut child = prefix.clone();
                    child.push(t);
                    frontier.push_back(child);
                }
            }
        }
        for _ in &prefix {
            root.unplace();
        }
        if let Some(outcome) = early {
            let cause = matches!(outcome, Outcome::NodeLimit).then_some(Exhaustion::NodeBudget);
            return (outcome, root.take_stats(), cause);
        }
    }
    let expand_stats = root.take_stats();
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
    // The covering (if any) and the folded worker statistics.
    let result = Mutex::new((None::<Vec<u32>>, expand_stats));

    pool.scope(|scope| {
        for prefix in &frontier {
            let (make, found, limit_hit, stop_cause, nodes, result) =
                (&make, &found, &limit_hit, &stop_cause, &nodes, &result);
            scope.spawn(move |_| {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                if nodes.load(Ordering::Relaxed) >= max_nodes {
                    limit_hit.store(true, Ordering::Relaxed);
                    stop_cause.fetch_max(encode_cause(Exhaustion::NodeBudget), Ordering::Relaxed);
                    return;
                }
                let mut meter = NodeMeter::worker(lim, found, nodes);
                let mut core = make();
                for &t in prefix {
                    core.place(t);
                }
                let ok = core.run(&mut meter);
                let stats = core.take_stats();
                // Flush the unsynced remainder so the shared total is exact.
                meter.sync_shared(stats.nodes);
                {
                    let mut result = result.lock().expect("poison-free");
                    result.1.absorb(stats);
                    if ok {
                        found.store(true, Ordering::Relaxed);
                        result.0 = Some(core.chosen().to_vec());
                        return;
                    }
                }
                if meter.hit_limit && !found.load(Ordering::Relaxed) {
                    limit_hit.store(true, Ordering::Relaxed);
                    if let Some(cause) = meter.stop_cause {
                        stop_cause.fetch_max(encode_cause(cause), Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let (sol, mut stats) = result.into_inner().expect("poison-free");
    stats.nodes = nodes.load(Ordering::Relaxed);
    stats.memo_entries = store.map_or(0, |s| s.len());
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
