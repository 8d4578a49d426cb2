//! Frontier-parallel refutations are deterministic once the memo is off:
//! every worker exhausts its prefix's subtree, nobody trips the early-exit
//! flag, and the shared node counter ends at exactly the sequential
//! search's count — on 1, 2 or 3 threads alike. These rows pin that
//! equality (and the count itself) for each core the frontier driver
//! runs: the unit bitset core, the 2-bit lane core (λ ≤ 3) and the
//! recursive multiplicity kernel (demands > 3), under every symmetry
//! mode.

use cyclecover_graph::Edge;
use cyclecover_ring::Ring;
use cyclecover_solver::api::{
    engine_by_name, ExecPolicy, Optimality, Problem, SolveRequest, SymmetryMode,
};
use cyclecover_solver::bnb::{budget_search_packed, CoverSpec, Outcome};
use cyclecover_solver::TileUniverse;

const MAX_NODES: u64 = 10_000_000;

/// Demand `lambda` on every request whose ring distance is in `dists`.
fn by_distance(n: u32, lambda: u32, dists: &[u32]) -> CoverSpec {
    let demand = (0..(n * (n - 1) / 2) as usize)
        .map(|d| {
            let e = Edge::from_dense_index(d, n as usize);
            let gap = e.v() - e.u();
            let dist = gap.min(n - gap);
            if dists.contains(&dist) {
                lambda
            } else {
                0
            }
        })
        .collect();
    CoverSpec { demand }
}

fn request(budget: u32, sym: SymmetryMode) -> SolveRequest {
    SolveRequest::prove_infeasible(budget)
        .with_symmetry(sym)
        .with_memo(false)
        .with_max_nodes(MAX_NODES)
}

/// The sequential refutation's node count on the core the parallel
/// driver runs for this spec. λ ≤ 3 specs go through the forced lane
/// core: the sequential dispatch may hand a low-slack probe to the
/// partition kernel, which has no parallel twin.
fn sequential_nodes(problem: &Problem, budget: u32, sym: SymmetryMode) -> u64 {
    let spec = problem.spec();
    if spec.max_demand() >= 2 && spec.max_demand() <= 3 {
        let (outcome, stats) =
            budget_search_packed(problem.universe(), spec, budget, MAX_NODES, sym, None);
        assert_eq!(outcome, Outcome::Infeasible);
        return stats.nodes;
    }
    let sol = engine_by_name("bitset").unwrap().solve(
        problem,
        &request(budget, sym).with_policy(ExecPolicy::Sequential),
    );
    assert_eq!(*sol.optimality(), Optimality::Infeasible);
    sol.stats().nodes
}

fn assert_deterministic(name: &str, problem: &Problem, budget: u32, pins: &[(SymmetryMode, u64)]) {
    let parallel = engine_by_name("bitset-parallel").unwrap();
    for &(sym, pinned) in pins {
        let seq = sequential_nodes(problem, budget, sym);
        assert_eq!(seq, pinned, "{name} {sym:?}: sequential node count moved");
        for threads in 1..=3 {
            let sol = parallel.solve(
                problem,
                &request(budget, sym).with_policy(ExecPolicy::Parallel {
                    threads,
                    prefix_depth: 3,
                }),
            );
            assert_eq!(
                *sol.optimality(),
                Optimality::Infeasible,
                "{name} {sym:?} on {threads} threads"
            );
            assert_eq!(
                sol.stats().nodes,
                seq,
                "{name} {sym:?}: {threads}-thread frontier expanded a different tree"
            );
        }
    }
}

#[test]
fn unit_refutations_match_the_sequential_core() {
    // The CLI's historical pin: ρ(8) > 8 without symmetry reduction.
    assert_deterministic(
        "unit n=8 complete",
        &Problem::complete(8),
        8,
        &[(SymmetryMode::Off, 97_465)],
    );
    assert_deterministic(
        "unit n=8 distances 1-2",
        &Problem::new(
            TileUniverse::new(Ring::new(8), 4),
            by_distance(8, 1, &[1, 2]),
        ),
        4,
        &[
            (SymmetryMode::Off, 971),
            (SymmetryMode::Root, 532),
            (SymmetryMode::Full, 470),
        ],
    );
}

#[test]
fn lane_refutations_match_the_sequential_core() {
    assert_deterministic(
        "λ=2 n=7 distances 1-2",
        &Problem::new(
            TileUniverse::new(Ring::new(7), 4),
            by_distance(7, 2, &[1, 2]),
        ),
        7,
        &[
            (SymmetryMode::Off, 12_622),
            (SymmetryMode::Root, 7_789),
            (SymmetryMode::Full, 6_152),
        ],
    );
}

#[test]
fn demand_four_refutations_match_the_sequential_kernel() {
    assert_deterministic(
        "λ=4 n=7 distance 2",
        &Problem::new(TileUniverse::new(Ring::new(7), 4), by_distance(7, 4, &[2])),
        9,
        &[
            (SymmetryMode::Off, 17_865),
            (SymmetryMode::Root, 12_240),
            (SymmetryMode::Full, 9_771),
        ],
    );
    // Mixed multiplicities 0..=4 with no dihedral symmetry.
    let mixed = CoverSpec {
        demand: vec![0, 3, 3, 4, 1, 2, 1, 1, 4, 4, 2, 1, 3, 2, 3],
    };
    assert_deterministic(
        "mixed demands ≤ 4, n=6",
        &Problem::new(TileUniverse::new(Ring::new(6), 4), mixed),
        10,
        &[(SymmetryMode::Off, 15_703), (SymmetryMode::Full, 15_703)],
    );
}
