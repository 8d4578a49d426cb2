//! Simulated annealing over tile coverings — the metaheuristic
//! counterpart to the deterministic [`crate::improve`] pass.
//!
//! Moves: remove a random tile and greedily repair coverage; the move is
//! accepted if it shrinks the covering, or with the Metropolis
//! probability `exp(−Δ/T)` otherwise, under a geometric cooling
//! schedule. Seeded RNG makes runs reproducible; the incumbent is the
//! output, so the result is never worse than the input.
//!
//! Annealing matters where the greedy/improve pair stalls: its uphill
//! moves escape the "2-minimal" local optima `improve` terminates in.
//! On small rings it reliably reaches `ρ(n)` from a greedy start
//! (tested); it is also the only solver here that works on *any*
//! chord-universe subset, so the λ-fold and general-instance experiments
//! use it as a second opinion.

use crate::TileUniverse;
use cyclecover_ring::Tile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealing parameters.
#[derive(Clone, Copy, Debug)]
pub struct AnnealParams {
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Iterations.
    pub iterations: u32,
    /// Initial temperature, in units of "cycles of covering size".
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            seed: 2001,
            iterations: 4_000,
            t0: 2.0,
            cooling: 0.999,
        }
    }
}

/// Anneals `tiles` (must cover `K_n`) toward a smaller covering.
/// Returns the best covering found; never larger than the input.
pub fn anneal_covering(u: &TileUniverse, tiles: Vec<Tile>, params: AnnealParams) -> Vec<Tile> {
    let ring = u.ring();
    let n = ring.n() as usize;
    let pairs = n * (n - 1) / 2;
    let dense = |t: &Tile| -> Vec<usize> {
        t.chords(ring)
            .iter()
            .map(|c| c.to_edge().dense_index(n))
            .collect()
    };

    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut current = tiles;
    let mut best = current.clone();
    let mut temp = params.t0;

    for _ in 0..params.iterations {
        if current.len() <= 1 {
            break;
        }
        // Remove one or two random tiles (two enables direct 2→1
        // merges), then repair coverage greedily with candidate tiles.
        let mut trial = current.clone();
        let kicks = if trial.len() >= 2 && rng.gen_bool(0.5) { 2 } else { 1 };
        for _ in 0..kicks {
            let victim = rng.gen_range(0..trial.len());
            trial.swap_remove(victim);
        }

        let mut cov = vec![0u32; pairs];
        for t in &trial {
            for c in dense(t) {
                cov[c] += 1;
            }
        }
        let mut holes: Vec<usize> = (0..pairs).filter(|&c| cov[c] == 0).collect();
        // Repair: for each hole pick the candidate covering the most holes.
        while let Some(&h) = holes.first() {
            let e = cyclecover_graph::Edge::from_dense_index(h, n);
            let cand = u
                .candidates(e)
                .iter()
                .max_by_key(|&&i| {
                    u.tile_chords(i)
                        .iter()
                        .filter(|&&p| cov[u.dense_of_pri(p) as usize] == 0)
                        .count()
                })
                .copied()
                .expect("every chord lies on some tile");
            for &p in u.tile_chords(cand) {
                cov[u.dense_of_pri(p) as usize] += 1;
            }
            trial.push(u.tile(cand));
            holes.retain(|&c| cov[c] == 0);
        }

        let delta = trial.len() as f64 - current.len() as f64;
        let accept = delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0));
        if accept {
            current = trial;
            if current.len() < best.len() {
                best = current.clone();
            }
        }
        temp *= params.cooling;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy, improve, lower_bound};
    use cyclecover_ring::Ring;

    fn covers_all(u: &TileUniverse, tiles: &[Tile]) -> bool {
        let ring = u.ring();
        let n = ring.n() as usize;
        let mut cov = vec![0u32; n * (n - 1) / 2];
        for t in tiles {
            for c in t.chords(ring) {
                cov[c.to_edge().dense_index(n)] += 1;
            }
        }
        cov.iter().all(|&c| c >= 1)
    }

    #[test]
    fn anneal_preserves_coverage_and_never_grows() {
        for n in [7u32, 9, 11] {
            let u = TileUniverse::new(Ring::new(n), 4);
            let start = greedy::greedy_cover(&u);
            let size0 = start.len();
            let out = anneal_covering(&u, start, AnnealParams::default());
            assert!(covers_all(&u, &out), "n={n}");
            assert!(out.len() <= size0, "n={n}");
        }
    }

    #[test]
    fn anneal_reaches_optimum_on_small_rings() {
        for n in [5u32, 7, 9] {
            let u = TileUniverse::new(Ring::new(n), 4);
            let start = greedy::greedy_cover(&u);
            let out = anneal_covering(
                &u,
                start,
                AnnealParams {
                    iterations: 8_000,
                    ..AnnealParams::default()
                },
            );
            let rho = lower_bound::rho_formula(n);
            assert_eq!(out.len() as u64, rho, "n={n}");
        }
    }

    #[test]
    fn anneal_is_deterministic_given_seed() {
        let u = TileUniverse::new(Ring::new(10), 4);
        let start = greedy::greedy_cover(&u);
        let a = anneal_covering(&u, start.clone(), AnnealParams::default());
        let b = anneal_covering(&u, start, AnnealParams::default());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn anneal_plus_improve_compose() {
        let n = 11u32;
        let u = TileUniverse::new(Ring::new(n), 4);
        let start = greedy::greedy_cover(&u);
        let annealed = anneal_covering(&u, start, AnnealParams::default());
        let polished = improve::improve_covering(&u, annealed.clone());
        assert!(polished.len() <= annealed.len());
        assert!(covers_all(&u, &polished));
        // Within one cycle of optimum on this size.
        assert!(polished.len() as u64 <= lower_bound::rho_formula(n) + 1);
    }
}
