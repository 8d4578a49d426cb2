//! Golden output of the general-instance greedy, frozen as data.
//!
//! `general::greedy_cover` picks by "most new instance edges, then
//! fewest phantom chords, then smallest tile index". It is
//! deterministic, so each instance below pins the size of the covering
//! it returns, and its ordered vertex lists followed by its phantom
//! chords (as one FNV-1a digest). Any
//! change to the selection rule, the tie-break or the universe's tile
//! order shows up as a mismatch, with the recomputed row printed.

use cyclecover_core::general::greedy_cover;
use cyclecover_graph::{builders, Edge, Graph};
use cyclecover_ring::{Ring, Tile};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// FNV-1a over the ordered tile list (each tile's length, then its
/// vertices), then over the phantom chords' endpoints in order.
fn digest(tiles: &[Tile], phantoms: &[Edge]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in tiles {
        eat(t.len() as u32);
        for &v in t.vertices() {
            eat(v);
        }
    }
    for e in phantoms {
        eat(e.u());
        eat(e.v());
    }
    h
}

/// The seeded random instances of the module's own tests: each chord of
/// `K_n` kept with probability 0.4, one generator across the rings.
fn seeded_instances() -> Vec<(u32, Graph)> {
    let mut rng = StdRng::seed_from_u64(42);
    [7u32, 10, 13]
        .into_iter()
        .map(|n| {
            let mut inst = Graph::new(n as usize);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.4) {
                        inst.add_edge(u, v);
                    }
                }
            }
            (n, inst)
        })
        .collect()
}

#[test]
fn greedy_picks_are_pinned() {
    let mut cases: Vec<(String, u32, Graph, usize)> = vec![
        ("K9".into(), 9, builders::complete(9), 4),
        ("C8".into(), 8, builders::cycle(8), 8),
    ];
    let mut star = Graph::new(6);
    for v in 1..6 {
        star.add_edge(0, v);
    }
    cases.push(("star6".into(), 6, star, 4));
    for (n, inst) in seeded_instances() {
        cases.push((format!("seed42 n={n}"), n, inst, 4));
    }
    // (size, digest) per case, in the order above.
    let expect: [(usize, u64); 6] = [
        (11, 0x4fc0_d396_d7ad_9d62),
        (1, 0xa76a_0631_c3f8_c07d),
        (3, 0x825f_c6c8_b442_5d66),
        (2, 0x5f1e_eb5c_cc89_cf22),
        (5, 0xfe68_d5ef_6a24_28e8),
        (12, 0x723d_a834_0ad4_516a),
    ];
    let mut bad = Vec::new();
    for ((name, n, inst, max_len), &want) in cases.iter().zip(&expect) {
        let got = greedy_cover(Ring::new(*n), inst, *max_len).expect("non-empty instance");
        let tiles = got.covering.tiles();
        let row = (tiles.len(), digest(tiles, &got.phantom_edges));
        if row != want {
            bad.push(format!("{name}: got ({}, {:#018x})", row.0, row.1));
        }
    }
    assert!(bad.is_empty(), "pinned picks changed:\n{}", bad.join("\n"));
}
