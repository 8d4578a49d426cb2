//! `greedy_cover` packs each tile's selection key into a `u32`:
//! coverage in the high 16 bits, inverted waste in the low 16. This
//! file keeps the earlier `u64` packing (32 bits each) as a reference
//! and checks that both pick the same tiles in the same order, on a
//! ring with many tiles of large waste and on the largest full universe
//! the heuristics serve.

use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::greedy::greedy_cover;
use cyclecover_solver::TileUniverse;

/// The greedy with 64-bit keys: coverage in the high half, inverted
/// waste in the low half; the maximum key wins, the first occurrence
/// breaks ties.
fn greedy_cover_u64(u: &TileUniverse) -> Vec<Tile> {
    let mut key: Vec<u64> = (0..u.len() as u32)
        .map(|i| (u.tile_chords(i).len() as u64) << 32 | u64::from(!u.tile_waste(i)))
        .collect();
    let mut covered = vec![false; u.num_chords() as usize];
    let mut uncovered = covered.len();
    let mut chosen = Vec::new();
    while uncovered > 0 {
        let best = key.iter().copied().max().unwrap_or(0);
        assert!(
            best >> 32 > 0,
            "uncovered chords remain but no tile covers any"
        );
        let pick = key.iter().position(|&k| k == best).unwrap();
        for &c in u.tile_chords(pick as u32) {
            if !std::mem::replace(&mut covered[c as usize], true) {
                uncovered -= 1;
                for &t in u.candidates_pri(c) {
                    key[t as usize] -= 1 << 32;
                }
            }
        }
        chosen.push(u.tile(pick as u32));
    }
    chosen
}

fn assert_same_picks(u: &TileUniverse) {
    let got = greedy_cover(u);
    let want = greedy_cover_u64(u);
    assert_eq!(
        got.len(),
        want.len(),
        "n={}: cover sizes differ",
        u.ring().n()
    );
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g == w,
            "n={}: pick {k} is {:?}, the u64-key greedy picks {:?}",
            u.ring().n(),
            g.vertices(),
            w.vertices()
        );
    }
}

#[test]
fn triangles_on_a_large_ring_pick_alike() {
    // C(64, 3) = 41,664 triangles; a triangle with two adjacent
    // vertices wastes up to 60 of the ring's 64 capacity units.
    let u = TileUniverse::new(Ring::new(64), 3);
    assert_eq!(u.len(), 41_664);
    assert_eq!((0..u.len() as u32).map(|i| u.tile_waste(i)).max(), Some(60));
    assert_same_picks(&u);
}

#[test]
fn full_universe_at_n18_picks_alike() {
    assert_same_picks(&TileUniverse::new(Ring::new(18), 18));
}
