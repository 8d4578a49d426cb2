//! Greedy set-cover baseline for DRC coverings.
//!
//! The classic `ln m`-approximation applied to our tile universe: repeatedly
//! pick the tile covering the most still-uncovered requests (ties broken by
//! less wasted ring capacity, then smaller index for determinism). Used by
//! experiment E5 as the "what a straightforward engineer would ship"
//! baseline against the paper's optimal constructions, and as the seeding
//! stage of the `greedy`/`greedy-improve`/`anneal` engines in
//! [`crate::api`].
//!
//! Each tile's coverage is kept **exact** in a flat array: it starts at
//! the tile's chord count, and when a chord becomes covered, every tile
//! in its candidate list loses one. Over a whole run that is one
//! decrement per (tile, chord) incidence — `Σ|tile|` in total — and a
//! pick is a linear scan over the array for the best key. A key is one
//! `u32` (coverage and waste are both at most `n`), so the scan reads 4
//! bytes per tile. No tile is ever re-scored, and nothing is allocated
//! per pick.

use crate::TileUniverse;
use cyclecover_graph::Edge;
use cyclecover_ring::Tile;

/// Greedily covers all requests of `K_n`; returns the chosen tiles in
/// pick order.
///
/// # Panics
/// Panics if some chord has no candidate tile (a universe restricted by
/// `max_gap` below the chord's length). The engines in [`crate::api`]
/// answer such problems `Infeasible` before calling this.
pub fn greedy_cover(u: &TileUniverse) -> Vec<Tile> {
    // One key per tile, ordered like the selection rule: coverage in the
    // high 16 bits, inverted waste in the low 16. The maximum key wins,
    // and the first occurrence breaks ties toward the smaller index.
    // Covering a chord subtracts `1 << 16` from its candidates' keys.
    let mut key: Vec<u32> = (0..u.len() as u32)
        .map(|i| {
            let (chords, waste) = (u.tile_chords(i).len() as u32, u.tile_waste(i));
            debug_assert!(
                chords <= 0xffff && waste <= 0xffff,
                "tile {i}: {chords} chords, waste {waste} overflow a 16-bit key half"
            );
            chords << 16 | (0xffff - waste)
        })
        .collect();
    let mut covered = vec![false; u.num_chords() as usize];
    let mut uncovered = covered.len();
    let mut chosen = Vec::new();
    while uncovered > 0 {
        let best = key.iter().copied().max().unwrap_or(0);
        assert!(
            best >> 16 > 0,
            "uncovered chords remain but no tile covers any"
        );
        let pick = key
            .iter()
            .position(|&k| k == best)
            .expect("the maximum is present");
        for &c in u.tile_chords(pick as u32) {
            if !std::mem::replace(&mut covered[c as usize], true) {
                uncovered -= 1;
                for &t in u.candidates_pri(c) {
                    key[t as usize] -= 1 << 16;
                }
            }
        }
        chosen.push(u.tile(pick as u32));
    }
    chosen
}

/// Number of requests of `K_n` left uncovered by `tiles` (0 for a valid
/// covering) — a convenience audit used in tests and benches.
pub fn uncovered_count(u: &TileUniverse, tiles: &[Tile]) -> usize {
    let ring = u.ring();
    let n = ring.n() as usize;
    let mut covered = vec![false; n * (n - 1) / 2];
    for t in tiles {
        for c in t.chords(ring) {
            covered[c.to_edge().dense_index(n)] = true;
        }
    }
    let mut missing = 0;
    for uu in 0..n as u32 {
        for vv in (uu + 1)..n as u32 {
            if !covered[Edge::new(uu, vv).dense_index(n)] {
                missing += 1;
            }
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::{capacity_lower_bound, rho_formula};
    use cyclecover_ring::Ring;

    #[test]
    fn greedy_always_covers() {
        for n in 4u32..=12 {
            let u = TileUniverse::new(Ring::new(n), 4);
            let tiles = greedy_cover(&u);
            assert_eq!(uncovered_count(&u, &tiles), 0, "n={n}");
        }
    }

    #[test]
    fn greedy_at_least_lower_bound_and_not_absurd() {
        for n in 5u32..=12 {
            let u = TileUniverse::new(Ring::new(n), 4);
            let tiles = greedy_cover(&u);
            let lb = capacity_lower_bound(n);
            assert!(tiles.len() as u64 >= lb, "n={n}: greedy below LB?!");
            // Greedy shouldn't be worse than 2x optimal on these tiny cases.
            assert!(
                (tiles.len() as u64) <= 2 * rho_formula(n),
                "n={n}: greedy used {} vs rho {}",
                tiles.len(),
                rho_formula(n)
            );
        }
    }

    #[test]
    fn greedy_k4_uses_three_cycles() {
        // On K4/C4 even greedy finds the paper's optimum of 3 (any covering
        // needs >= ceil(10/4) = 3).
        let u = TileUniverse::new(Ring::new(4), 4);
        let tiles = greedy_cover(&u);
        assert_eq!(tiles.len(), 3);
    }
}
