//! Lower bounds on the size of a DRC covering of `K_n` over `C_n`.

use crate::bitset::ChordSet;
use crate::TileUniverse;
use cyclecover_graph::Edge;
use cyclecover_ring::Ring;

/// Capacity bound for an arbitrary demand vector (indexed by
/// [`Edge::dense_index`]): total demand weighted by ring distance, divided
/// (ceiling) by the per-cycle capacity `n`. This is the single home of the
/// sum-of-distances logic — [`capacity_lower_bound`] and
/// [`crate::bnb::CoverSpec::capacity_lower_bound`] both reduce to it.
pub fn weighted_demand_bound(ring: Ring, demand: &[u32]) -> u64 {
    let n = ring.n();
    debug_assert_eq!(
        demand.len(),
        n as usize * (n as usize - 1) / 2,
        "demand vector sized for K_n"
    );
    let total: u64 = demand
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let e = Edge::from_dense_index(i, n as usize);
            d as u64 * ring.distance(e.u(), e.v()) as u64
        })
        .sum();
    total.div_ceil(n as u64)
}

/// The capacity lower bound:
/// every DRC cycle occupies at most `n` ring edges (its arcs are pairwise
/// edge-disjoint) and a request at distance `d` occupies at least `d`, so
///
/// `ρ(n) ≥ ⌈ (Σ_{u<v} dist(u, v)) / n ⌉`.
///
/// For `n = 2p+1` this evaluates to `p(p+1)/2` (Theorem 1 is tight); for
/// `n = 2p` it evaluates to `⌈p²/2⌉`, one below Theorem 2 when `p` is even.
pub fn capacity_lower_bound(n: u32) -> u64 {
    // `total_pair_distance` is the closed form of the all-ones
    // `weighted_demand_bound` numerator (asserted in the tests below).
    let ring = Ring::new(n);
    ring.total_pair_distance().div_ceil(n as u64)
}

/// The diameter lower bound for even `n = 2p`: `K_n` has `p` diameter
/// requests and no DRC cycle can carry two of them (two diameters already
/// need `2p = n` edges, leaving nothing for the other ≥ 1 chords of the
/// cycle), so at least `p` cycles are needed. Weaker than capacity for all
/// `n ≥ 6`, but prunes branch & bound well. Returns 0 for odd `n`.
pub fn diameter_lower_bound(n: u32) -> u64 {
    if n.is_multiple_of(2) {
        (n / 2) as u64
    } else {
        0
    }
}

/// The best known *closed-form* combinatorial lower bound implemented
/// here: the max of capacity and diameter bounds. This is the iterative
/// deepening start, so it deliberately excludes Theorem 2's `+1`.
///
/// The paper's Theorem 2 additionally proves `+1` over the capacity bound
/// for `n = 2p` with `p` even; that refinement is *certified* per
/// instance rather than assumed: the search's [`parity_join_bound`]
/// derives it at the root of the capacity-tight probe (a one-node
/// refutation under `SymmetryMode::Root`/`Full`), and
/// [`SymmetryMode::Off`](crate::bnb::SymmetryMode) still proves it by
/// plain exhaustion (see `EXPERIMENTS.md` E4).
pub fn combinatorial_lower_bound(n: u32) -> u64 {
    capacity_lower_bound(n).max(diameter_lower_bound(n))
}

/// The parity (T-join) bound over per-vertex residual degrees.
///
/// Every tile covers an *even* number of chords at every vertex — exactly
/// 2 at each vertex it visits (its two ring-consecutive neighbours), 0
/// elsewhere. So across any covering, the per-vertex coverage count is
/// even, and a vertex `v` whose uncovered degree `deg_U(v)` is odd forces
/// at least one *excess* coverage (a chord at `v` covered twice, or an
/// already-covered chord re-covered). The excess multiset has odd degree
/// exactly at the odd-degree vertex set `T`, hence contains a `T`-join,
/// whose ring-distance cost is at least `|T|/2` (each joining chord has
/// distance ≥ 1 and repairs two vertices). Charging that forced excess
/// into the capacity bound:
///
/// `tiles needed ≥ ⌈(rem_dist + |T|/2) / n⌉`.
///
/// This is the paper's Theorem 2 parity argument as a prefix bound. At
/// capacity-tight even instances it refutes at the root: for `n = 2p`
/// with `p` even, the budget `p²/2` has zero slack while every vertex has
/// odd degree `n − 1`, so `|T| = n` and the bound reads `p²/2 + 1/2`
/// rounded up — the `+1` of Theorem 2, turning the `n = 8` and `n = 12`
/// exhaustive refutations into one-node proofs. Deeper in a witness
/// search it keeps pruning: any prefix that strands odd residual degrees
/// with too little slack dies immediately.
pub fn parity_join_bound(u: &TileUniverse, uncovered: &ChordSet, rem_dist: u64) -> u64 {
    let n = u.ring().n();
    let mut odd = 0u64;
    for v in 0..n {
        let deg = u.vertex_mask(v).intersection_count(uncovered);
        odd += (deg & 1) as u64;
    }
    parity_join_bound_from_odd(n, rem_dist, odd)
}

/// [`parity_join_bound`] when the caller already knows `|T|` — the count
/// of vertices with odd uncovered degree. The iterative search core
/// maintains that count incrementally on place/unplace (each newly
/// covered chord flips the parity of its two endpoints), turning the
/// parity bound into a constant-time check per node instead of a
/// per-vertex mask scan.
#[inline]
pub fn parity_join_bound_from_odd(n: u32, rem_dist: u64, odd: u64) -> u64 {
    debug_assert!(odd.is_multiple_of(2), "handshake: odd-degree count is even");
    (rem_dist + odd / 2).div_ceil(n as u64)
}

/// The diameter-slack bound: a greedy dual ascent over the fractional
/// covering LP, no LP solver needed.
///
/// Start from the capacity dual `y_c = dist(c)/n` (feasible: a tile's
/// chords carry total shortest-path load ≤ `n`). Every uncovered diameter
/// chord `d` then gets its dual raised by the *minimum effective slack*
/// of the tiles covering it,
///
/// `δ_d = min_t (n − useful_load(t)) / n` over tiles `t ∋ d`,
///
/// where `useful_load(t)` counts only `t`'s still-uncovered chords. The
/// raises are jointly feasible because no tile carries two diameter
/// chords (each one needs its endpoints ring-consecutive in the tile, and
/// two such pairs interleave), so each tile absorbs at most one `δ_d` —
/// and by construction `δ_d` never exceeds that tile's slack. Weak LP
/// duality then gives, over the uncovered demand `U` with total distance
/// `rem_dist`,
///
/// `tiles needed ≥ ⌈(rem_dist + Σ_d minwaste(d)) / n⌉`.
///
/// At a fresh instance every diameter has a full-load disjoint tile and
/// the bound degenerates to capacity; *inside* the search tree it bites
/// hard: once the placed prefix overlaps every remaining way to cover
/// some diameter, that forced waste is charged immediately instead of
/// being discovered branches later. On capacity-tight refutations (the
/// `n = 12` budget-18 proof, where slack is zero) a single unit of
/// forced waste prunes the node.
///
/// `uncovered` is in the universe's priority chord space; `rem_dist`
/// must be the total ring distance of the uncovered chords. The scan
/// returns early once the bound exceeds `stop_above` (the caller's
/// remaining budget), and returns `u64::MAX / 2` if some uncovered
/// diameter has no covering tile at all.
pub fn diameter_slack_bound(
    u: &TileUniverse,
    uncovered: &ChordSet,
    rem_dist: u64,
    stop_above: u64,
) -> u64 {
    let n = u.ring().n() as u64;
    let diam = u.diam_chords();
    let mut extra = 0u64;
    let mut bound = rem_dist.div_ceil(n);
    for d in uncovered.iter().take_while(|&d| d < diam) {
        let mut minwaste = u64::MAX;
        for &t in u.candidates_pri(d) {
            let mut useful = 0u64;
            for (wi, (a, b)) in u
                .tile_mask(t)
                .iter()
                .zip(uncovered.words())
                .enumerate()
            {
                let mut w = a & b;
                while w != 0 {
                    let c = (wi as u32) * 64 + w.trailing_zeros();
                    useful += u.dist_of_pri(c) as u64;
                    w &= w - 1;
                }
            }
            let waste = n.saturating_sub(useful);
            if waste < minwaste {
                minwaste = waste;
                if minwaste == 0 {
                    break;
                }
            }
        }
        if minwaste == u64::MAX {
            return u64::MAX / 2;
        }
        extra += minwaste;
        bound = (rem_dist + extra).div_ceil(n);
        if bound > stop_above {
            return bound;
        }
    }
    bound
}

/// The paper's claimed optimal value `ρ(n)`:
/// * Theorem 1 (odd `n = 2p+1`): `p(p+1)/2`;
/// * Theorem 2 (even `n = 2p`, `p ≥ 3`): `⌈(p²+1)/2⌉`;
/// * small cases: `ρ(3) = 1`, `ρ(4) = 3` (the paper's worked example),
///   `ρ(5) = 3` (Theorem 1 with `p = 2`).
pub fn rho_formula(n: u32) -> u64 {
    assert!(n >= 3, "rho(n) defined for n >= 3, got {n}");
    if n % 2 == 1 {
        let p = ((n - 1) / 2) as u64;
        p * (p + 1) / 2
    } else if n == 4 {
        3
    } else {
        let p = (n / 2) as u64;
        (p * p + 1).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_bound_odd_matches_theorem1() {
        for p in 1u64..=60 {
            let n = (2 * p + 1) as u32;
            assert_eq!(capacity_lower_bound(n), p * (p + 1) / 2, "n={n}");
            assert_eq!(rho_formula(n), p * (p + 1) / 2, "n={n}");
        }
    }

    #[test]
    fn capacity_bound_even_is_ceil_half_p_squared() {
        for p in 2u64..=60 {
            let n = (2 * p) as u32;
            assert_eq!(capacity_lower_bound(n), (p * p).div_ceil(2), "n={n}");
        }
    }

    #[test]
    fn theorem2_exceeds_capacity_bound_only_for_even_p() {
        for p in 3u64..=60 {
            let n = (2 * p) as u32;
            let gap = rho_formula(n) as i64 - capacity_lower_bound(n) as i64;
            if p % 2 == 0 {
                assert_eq!(gap, 1, "even p={p}: rho = capacity + 1");
            } else {
                assert_eq!(gap, 0, "odd p={p}: capacity tight");
            }
        }
    }

    #[test]
    fn theorem2_composition_counts_are_consistent() {
        // n = 4q: 4 C3 + (2q²−3) C4; n = 4q+2: 2 C3 + (2q²+2q−1) C4.
        // Cycle counts must equal rho and edge slots must be >= |E(K_n)|.
        for q in 2u64..=40 {
            let n = 4 * q;
            let (c3, c4) = (4u64, 2 * q * q - 3);
            assert_eq!(c3 + c4, rho_formula(n as u32));
            let slots = 3 * c3 + 4 * c4;
            let edges = n * (n - 1) / 2;
            assert_eq!(slots - edges, n / 2, "overlap is exactly p for n={n}");
        }
        for q in 1u64..=40 {
            let n = 4 * q + 2;
            let (c3, c4) = (2u64, 2 * q * q + 2 * q - 1);
            assert_eq!(c3 + c4, rho_formula(n as u32));
            let slots = 3 * c3 + 4 * c4;
            let edges = n * (n - 1) / 2;
            assert_eq!(slots - edges, n / 2, "overlap is exactly p for n={n}");
        }
    }

    #[test]
    fn small_cases() {
        assert_eq!(rho_formula(3), 1);
        assert_eq!(rho_formula(4), 3);
        assert_eq!(rho_formula(5), 3);
        assert_eq!(rho_formula(6), 5);
        assert_eq!(rho_formula(7), 6);
        assert_eq!(rho_formula(8), 9);
        assert_eq!(rho_formula(9), 10);
        assert_eq!(rho_formula(10), 13);
        assert_eq!(rho_formula(12), 19);
    }

    #[test]
    fn weighted_bound_all_ones_matches_closed_form() {
        for n in 3u32..=30 {
            let ring = Ring::new(n);
            let m = n as usize * (n as usize - 1) / 2;
            assert_eq!(
                weighted_demand_bound(ring, &vec![1; m]),
                capacity_lower_bound(n),
                "n={n}"
            );
            // λ-fold demand scales the numerator, not the bound structure.
            let lam = weighted_demand_bound(ring, &vec![3; m]);
            assert_eq!(lam, (3 * ring.total_pair_distance()).div_ceil(n as u64));
        }
    }

    #[test]
    fn diameter_bound() {
        assert_eq!(diameter_lower_bound(8), 4);
        assert_eq!(diameter_lower_bound(9), 0);
        assert!(combinatorial_lower_bound(8) >= 4);
    }

    #[test]
    fn diameter_slack_bound_degenerates_to_capacity_when_fresh() {
        // On the untouched complete instance every diameter chord has a
        // full-load tile covering it, so no dual raise happens.
        for n in [8u32, 10, 12] {
            let ring = Ring::new(n);
            let u = TileUniverse::new(ring, n as usize);
            let uncovered = ChordSet::full(u.num_chords());
            let rem = ring.total_pair_distance();
            assert_eq!(
                diameter_slack_bound(&u, &uncovered, rem, u64::MAX),
                capacity_lower_bound(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn diameter_slack_bound_charges_forced_waste() {
        // Leave only the diameter chords uncovered: every tile covering
        // one now wastes n − n/2 capacity, and the dual ascent recovers
        // the full diameter bound where raw capacity sees ⌈p²/(2p)⌉.
        let n = 8u32;
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let mut uncovered = ChordSet::empty(u.num_chords());
        for d in 0..u.diam_chords() {
            uncovered.insert(d);
        }
        let rem = (u.diam_chords() * (n / 2)) as u64;
        assert_eq!(rem.div_ceil(n as u64), 2, "raw capacity sees only 2");
        assert_eq!(
            diameter_slack_bound(&u, &uncovered, rem, u64::MAX),
            u.diam_chords() as u64,
            "dual ascent recovers one tile per leftover diameter"
        );
    }

    #[test]
    fn diameter_slack_bound_honors_stop_above() {
        let n = 8u32;
        let u = TileUniverse::new(Ring::new(n), n as usize);
        let mut uncovered = ChordSet::empty(u.num_chords());
        for d in 0..u.diam_chords() {
            uncovered.insert(d);
        }
        let rem = (u.diam_chords() * (n / 2)) as u64;
        // Early exit still reports a value strictly above the cap.
        assert!(diameter_slack_bound(&u, &uncovered, rem, 2) > 2);
    }
}
