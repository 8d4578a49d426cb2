//! Golden selections of the heuristic pipeline, frozen as data.
//!
//! `greedy_cover` picks by "most new coverage, then least waste, then
//! smallest tile index", and `greedy-improve` polishes that pick list
//! with first-improvement drop/merge moves. Both are deterministic, so
//! each shape below pins the ordered vertex lists they return (as an
//! FNV-1a digest) and their sizes, plus the `anneal` engine's output
//! size. Any change to the universe layout, the tile order, the greedy
//! selection rule or the improvement order shows up here as a digest
//! mismatch, with the recomputed row printed for inspection.

use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::api::{engine_by_name, Problem, SolveRequest};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::greedy::greedy_cover;
use cyclecover_solver::TileUniverse;
use std::sync::Arc;

/// FNV-1a over the ordered tile list: each tile's length, then its
/// vertices.
fn digest(tiles: &[Tile]) -> u64 {
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
    h
}

/// One pinned shape: the universe `(n, max_len, max_gap)` and what the
/// pipeline returns on the complete spec over it.
struct Golden {
    n: u32,
    max_len: usize,
    max_gap: u32,
    greedy_size: usize,
    greedy_digest: u64,
    improve_size: usize,
    improve_digest: u64,
}

fn engine_covering(engine: &str, universe: &Arc<TileUniverse>) -> Vec<Tile> {
    let n = universe.ring().n();
    let problem = Problem::shared(universe.clone(), CoverSpec::complete(n));
    let sol = engine_by_name(engine)
        .expect("registered engine")
        .solve(&problem, &SolveRequest::find_optimal());
    sol.covering().expect("heuristics always cover").to_vec()
}

fn check(rows: &[Golden]) {
    let mut bad = Vec::new();
    for g in rows {
        let u = Arc::new(TileUniverse::with_max_gap(
            Ring::new(g.n),
            g.max_len,
            g.max_gap,
        ));
        let greedy = greedy_cover(&u);
        let improved = engine_covering("greedy-improve", &u);
        let got = (
            greedy.len(),
            digest(&greedy),
            improved.len(),
            digest(&improved),
        );
        if got
            != (
                g.greedy_size,
                g.greedy_digest,
                g.improve_size,
                g.improve_digest,
            )
        {
            bad.push(format!(
                "g({}, {}, {}, {}, {:#018x}, {}, {:#018x}),",
                g.n, g.max_len, g.max_gap, got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "golden rows moved; recomputed:\n{}",
        bad.join("\n")
    );
}

const fn g(
    n: u32,
    max_len: usize,
    max_gap: u32,
    greedy_size: usize,
    greedy_digest: u64,
    improve_size: usize,
    improve_digest: u64,
) -> Golden {
    Golden {
        n,
        max_len,
        max_gap,
        greedy_size,
        greedy_digest,
        improve_size,
        improve_digest,
    }
}

/// Full universes, n = 4..=18.
#[test]
fn greedy_golden_full_universes() {
    check(&[
        g(4, 4, 4, 3, 0x5c360c607b50e360, 3, 0x5c360c607b50e360),
        g(5, 5, 5, 4, 0xcca19968986479f0, 3, 0xb1fb859ae5ee8461),
        g(6, 6, 6, 6, 0x2fadd8af52421e63, 6, 0x2fadd8af52421e63),
        g(7, 7, 7, 7, 0x67380953a4831e43, 6, 0x62bc3aa92a28d3d3),
        g(8, 8, 8, 10, 0x6f3d43369f66057c, 9, 0xe6b6b770eaf4253d),
        g(9, 9, 9, 11, 0x9fdc280404d1bce6, 11, 0x9fdc280404d1bce6),
        g(10, 10, 10, 15, 0x3505971513c5035e, 15, 0x3505971513c5035e),
        g(11, 11, 11, 18, 0xc8711ec9f4826678, 17, 0xe4c5edb280843513),
        g(12, 12, 12, 21, 0x1f72a906e242610a, 20, 0x5e01727c44ff3edb),
        g(13, 13, 13, 24, 0xb282b3314f60f0df, 23, 0xb90a347eb46c7b83),
        g(14, 14, 14, 30, 0x65b9a29c31a8b5a3, 29, 0x2deb330d384d943c),
        g(15, 15, 15, 33, 0x2ac1dfd5056f7455, 31, 0x67c7299429eae784),
        g(16, 16, 16, 37, 0xc09dc73a25c823ef, 36, 0x9e2397d264b2a9a0),
        g(17, 17, 17, 43, 0xa67ee98de57fe42b, 41, 0x2a5b83eb688b4dcd),
        g(18, 18, 18, 47, 0xf32d170bc27ab023, 45, 0xd3f3c95fb5173bee),
    ]);
}

/// Half-gap universes (every chord routed on a shortest path),
/// n = 15..=18.
#[test]
fn greedy_golden_half_gap_universes() {
    check(&[
        g(15, 15, 7, 35, 0xbfb02cc33431cb23, 34, 0x04c87301b7742b23),
        g(16, 16, 8, 38, 0xed7e1a8fca388454, 37, 0xc49937308d04b054),
        g(17, 17, 8, 46, 0x84130b6e40eeea8c, 45, 0x6077ef605e213c4d),
        g(18, 18, 9, 48, 0x8c529ca199e31a31, 46, 0x8caa2640a31b783e),
    ]);
}

/// The four restricted short-cycle shapes of the `universe_churn`
/// benchmark workload — `(4, n/2)`, `(5, n)`, `(6, n)`, `(5, n/2 + 1)` —
/// at every ring size it draws, n = 14..=18.
#[test]
fn greedy_golden_restricted_churn_shapes() {
    check(&[
        g(14, 4, 7, 27, 0x5fd499c036c5e445, 27, 0x5fd499c036c5e445),
        g(14, 5, 14, 28, 0x1f02077bb2638038, 28, 0x1f02077bb2638038),
        g(14, 6, 14, 29, 0x991236af2374bc18, 29, 0x991236af2374bc18),
        g(14, 5, 8, 28, 0x1f02077bb2638038, 28, 0x1f02077bb2638038),
        g(15, 4, 7, 30, 0x9f0db5f5d4b2af55, 30, 0x9f0db5f5d4b2af55),
        g(15, 5, 15, 32, 0xf4d0cf001e91ea52, 31, 0x520cc46044426a90),
        g(15, 6, 15, 33, 0xfb5df0dbfeb341cb, 32, 0x3b571ae6f3f2474e),
        g(15, 5, 8, 32, 0xf4d0cf001e91ea52, 31, 0x520cc46044426a90),
        g(16, 4, 8, 35, 0xd180cc332aa6d0e7, 35, 0xd180cc332aa6d0e7),
        g(16, 5, 16, 36, 0x28cbd5c4d4613dc9, 36, 0x28cbd5c4d4613dc9),
        g(16, 6, 16, 38, 0x1e733f3b873a503b, 37, 0x262089b18a6d3b61),
        g(16, 5, 9, 36, 0x28cbd5c4d4613dc9, 36, 0x28cbd5c4d4613dc9),
        g(17, 4, 8, 38, 0xfc4ae39af936ca58, 38, 0xfc4ae39af936ca58),
        g(17, 5, 17, 40, 0xdc867978a59c0663, 40, 0xdc867978a59c0663),
        g(17, 6, 17, 42, 0x0cf5beb012316ffc, 41, 0x478710c59e9efd1b),
        g(17, 5, 9, 40, 0xdc867978a59c0663, 40, 0xdc867978a59c0663),
        g(18, 4, 9, 45, 0xdbf6f4afb8f0493f, 45, 0xdbf6f4afb8f0493f),
        g(18, 5, 18, 46, 0xbfbbbbea2e1b3bdf, 45, 0xdb963cd84b591d3a),
        g(18, 6, 18, 47, 0xfb1b62ddbc0d5d98, 46, 0x98bfb42ebea1ac47),
        g(18, 5, 10, 46, 0xbfbbbbea2e1b3bdf, 45, 0xdb963cd84b591d3a),
    ]);
}

/// Output sizes of the `anneal` engine (greedy seed, seeded annealing,
/// drop/merge polish) on the full universes it finishes quickly.
#[test]
fn anneal_golden_sizes() {
    let pinned: &[(u32, usize, u32, usize)] = &[
        (4, 4, 4, 3),
        (5, 5, 5, 3),
        (6, 6, 6, 6),
        (7, 7, 7, 6),
        (8, 8, 8, 9),
        (9, 9, 9, 10),
        (10, 10, 10, 14),
        (11, 11, 11, 15),
        (12, 12, 12, 19),
        (14, 4, 7, 26),
        (14, 5, 14, 26),
        (14, 6, 14, 26),
        (14, 5, 8, 26),
    ];
    let mut bad = Vec::new();
    for &(n, max_len, max_gap, size) in pinned {
        let u = Arc::new(TileUniverse::with_max_gap(Ring::new(n), max_len, max_gap));
        let got = engine_covering("anneal", &u).len();
        if got != size {
            bad.push(format!("({n}, {max_len}, {max_gap}, {got}),"));
        }
    }
    assert!(
        bad.is_empty(),
        "anneal sizes moved; recomputed:\n{}",
        bad.join("\n")
    );
}
