//! Seeded job streams for the two workloads.
//!
//! Every workload is a *deck*: a fixed multiset of job classes, dealt in
//! a seeded order, deck after deck. The deck fixes each class's share of
//! the stream, so latency percentiles sit inside one class's band instead
//! of on the edge between two; the seed picks the order and the
//! per-job variants (ring sizes, demand sets, engines, lane shapes).

use cyclecover_io::json::{request_to_json, SolveJob};
use cyclecover_solver::api::{Objective, SymmetryMode};
use cyclecover_solver::lower_bound::rho_formula;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small provisioning jobs to the daemon over loopback, two clients.
    ServeSmall,
    /// Heuristic jobs over n = 14–18 that churn the universe cache.
    UniverseChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeSmall, Workload::UniverseChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::UniverseChurn => "universe_churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients (each keeps one job outstanding).
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeSmall => 2,
            Workload::UniverseChurn => 1,
        }
    }

    /// A generous ceiling on answered jobs per second, used to size the
    /// pre-generated stream for a run of a given length.
    fn max_rate(self) -> usize {
        match self {
            Workload::ServeSmall => 1_200,
            Workload::UniverseChurn => 80,
        }
    }
}

/// What a correct answer to a job is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// An `optimal` certificate with exactly this many cycles.
    Optimal(u32),
    /// A `feasible` (or `optimal`) covering of at most this many cycles.
    Within(u32),
    /// Any valid covering (heuristic answers, partial instances).
    Cover,
}

/// One job of a stream: its wire line and its expected answer.
#[derive(Clone, Debug)]
pub struct Job {
    /// The job's class (a deck entry), for per-class reporting.
    pub class: &'static str,
    /// The single-line `cyclecover-request` document.
    pub line: String,
    /// What a correct answer looks like.
    pub expect: Expect,
}

impl Job {
    fn new(class: &'static str, job: &SolveJob, expect: Expect) -> Job {
        Job {
            class,
            line: request_to_json(job),
            expect,
        }
    }
}

/// Everything a run sends, generated from the seed before timing starts.
pub struct Plan {
    /// The workload this plan drives.
    pub workload: Workload,
    /// The job each set-up answers first (fixed, so set-up times compare).
    pub setup_probe: Job,
    /// Jobs answered after set-up and before the timed window, so lazy
    /// state (universes, dihedral tables) is built once, as in a
    /// long-lived service.
    pub warmup: Vec<Job>,
    /// The timed stream, whole decks in dealing order.
    pub jobs: Vec<Job>,
    /// Jobs per deck.
    pub deck_len: usize,
    /// Complete certifications whose certificates the cert cache file
    /// holds before set-up (`serve_small` only).
    pub preload: Vec<Job>,
    /// Jobs the traced replay walks: a fixed prefix of `jobs`, so its
    /// counts repeat exactly for a seed.
    pub replay_len: usize,
}

/// Builds the plan for `workload` under `seed`, with enough decks for a
/// `seconds`-long timed window.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe_f00d_0001);
    let deal: fn(&mut StdRng, &mut usize) -> Vec<Job> = match workload {
        Workload::ServeSmall => serve_small_deck,
        Workload::UniverseChurn => churn_deck,
    };
    let mut next_id = 0usize;
    let warmup = match workload {
        // One deck, so every class has run once before timing.
        Workload::ServeSmall => deal(&mut rng, &mut next_id),
        // The churn's steady state is a thrashing cache, which a cold
        // cache reaches after its first job.
        Workload::UniverseChurn => Vec::new(),
    };
    let first = deal(&mut rng, &mut next_id);
    let deck_len = first.len();
    let wanted = workload.max_rate() * seconds.max(1) as usize;
    let mut jobs = first;
    while jobs.len() < wanted + deck_len {
        jobs.extend(deal(&mut rng, &mut next_id));
    }
    let (setup_probe, preload, replay_len) = match workload {
        Workload::ServeSmall => {
            // The probe is a certificate the loaded cache holds, so every
            // set-up answers it the same way.
            let probe = with_id(complete("setup", 6, 0), "setup".into());
            (probe, repeat_keys(), 20 * deck_len)
        }
        Workload::UniverseChurn => {
            let mut job = SolveJob::new("setup", 14);
            job.max_len = 4;
            job.max_gap = 7;
            job.engine = "greedy".to_string();
            (
                Job::new("setup", &job, Expect::Cover),
                Vec::new(),
                3 * deck_len,
            )
        }
    };
    Plan {
        workload,
        setup_probe,
        warmup,
        jobs,
        deck_len,
        preload,
        replay_len,
    }
}

fn id(next: &mut usize) -> String {
    *next += 1;
    format!("j{}", *next - 1)
}

/// `ρ(n)` as a cycle count.
fn rho(n: u32) -> u32 {
    rho_formula(n) as u32
}

/// A complete `find_optimal` certification of `ρ(n)` with the engine
/// defaults (`bitset`, root symmetry, memo on); `variant` picks the
/// symmetry field so cached keys differ.
fn complete(class: &'static str, n: u32, variant: usize) -> Job {
    let mut job = SolveJob::new("", n);
    job.symmetry = [None, Some(SymmetryMode::Root), Some(SymmetryMode::Full)][variant % 3];
    Job {
        class,
        line: request_to_json(&job),
        expect: Expect::Optimal(rho(n)),
    }
}

/// The repeated keys of `serve_small`: certificates the cache file holds
/// before set-up, so repeats are cert-cache reads.
fn repeat_keys() -> Vec<Job> {
    (6..=9)
        .flat_map(|n| (0..3).map(move |v| complete("cert-hit", n, v)))
        .collect()
}

/// Re-ids a job line (the wire id is the only field that differs
/// between deals of the same job).
fn with_id(mut job: Job, id: String) -> Job {
    let mut parsed = cyclecover_io::json::request_from_json(&job.line).expect("generated line");
    parsed.id = id;
    job.line = request_to_json(&parsed);
    job
}

/// The heuristic engines `universe_churn` sends.
const HEURISTICS: [&str; 2] = ["greedy", "greedy-improve"];

fn requests_of(g: &cyclecover_graph::Graph) -> Vec<(u32, u32)> {
    g.edges().iter().map(|e| (e.u(), e.v())).collect()
}

/// Keys in `serve_small`'s record pool: complete certifications the
/// loaded cache does not hold, told apart by a node cap far above what
/// the search needs. The pool is small, so the cache (and the file the
/// daemon rewrites every generation) stops growing early in a run and
/// the run measures a steady state.
const NEW_KEYS: u32 = 32;

/// `serve_small`: 20 jobs per deck, mostly over n = 6–9. Repeated keys
/// are cert-cache reads; one job per deck draws from the record pool;
/// within-budget probes (one λ-fold, on the lane core), a λ-fold
/// certification and the n = 16 witness (both on the partition
/// kernel), `greedy-improve` and partial instances are never
/// cacheable. Every exact kernel route runs in every deck.
fn serve_small_deck(rng: &mut StdRng, next: &mut usize) -> Vec<Job> {
    let mut deck = Vec::with_capacity(20);
    let keys = repeat_keys();
    for _ in 0..6 {
        let key = keys.choose(rng).expect("non-empty").clone();
        deck.push(with_id(key, id(next)));
    }
    {
        // A key from a pool the loaded cache does not hold: recorded
        // (and the cache file rewritten) on first sight, read after.
        let k = rng.gen_range(0..NEW_KEYS);
        let n = 6 + k % 4;
        let mut job = SolveJob::new(id(next), n);
        job.max_nodes = Some(1_000_000_000 + u64::from(k));
        deck.push(Job::new("cert-pool", &job, Expect::Optimal(rho(n))));
    }
    for _ in 0..3 {
        let n = rng.gen_range(6..=9);
        let mut job = SolveJob::new(id(next), n);
        job.objective = Objective::WithinBudget(rho(n) + 1);
        deck.push(Job::new("probe", &job, Expect::Within(rho(n) + 1)));
    }
    {
        // A λ-fold probe one above the capacity bound: the lane core.
        let (n, budget) = *[(6u32, 10u32), (7, 13)].choose(rng).expect("non-empty");
        let mut job = SolveJob::new(id(next), n);
        job.lambda = 2;
        job.objective = Objective::WithinBudget(budget);
        deck.push(Job::new("probe-lambda", &job, Expect::Within(budget)));
    }
    {
        // A λ-fold certification at the capacity bound (waste slack
        // below n): the partition kernel, through the default `bitset`
        // dispatch. λ-fold answers are never cached.
        let (n, lambda, max_len, value) = *[
            (6u32, 2u32, 6u32, 9u32),
            (7, 2, 7, 12),
            (6, 3, 6, 14),
            (8, 2, 4, 16),
        ]
        .choose(rng)
        .expect("non-empty");
        let mut job = SolveJob::new(id(next), n);
        job.lambda = lambda;
        job.max_len = max_len;
        deck.push(Job::new("partition-lambda", &job, Expect::Optimal(value)));
    }
    {
        // ρ(16) ≤ 33: the witness on the C ≤ 4 shortest-gap universe,
        // found by the partition kernel in a few dozen nodes.
        let mut job = SolveJob::new(id(next), 16);
        job.max_len = 4;
        job.max_gap = 8;
        job.engine = "partition".to_string();
        job.objective = Objective::WithinBudget(33);
        deck.push(Job::new("n16-partition", &job, Expect::Within(33)));
    }
    for _ in 0..4 {
        let mut job = SolveJob::new(id(next), rng.gen_range(6..=9));
        job.engine = "greedy-improve".to_string();
        deck.push(Job::new("greedy-improve", &job, Expect::Cover));
    }
    while deck.len() < 20 {
        let n = rng.gen_range(6..=9);
        let g = match rng.gen_range(0..3u32) {
            0 => cyclecover_workload::uniform_random(n as usize, 0.5, rng),
            1 => cyclecover_workload::locality(n as usize, 2),
            _ => cyclecover_workload::permutation(n as usize, rng),
        };
        let requests = requests_of(&g);
        if requests.is_empty() {
            continue;
        }
        let mut job = SolveJob::new(id(next), n);
        job.requests = Some(requests);
        deck.push(Job::new("partial", &job, Expect::Cover));
    }
    deck.shuffle(rng);
    deck
}

/// `universe_churn`: 20 jobs per deck over n = 14–18 and full or
/// restricted `(max_len, max_gap)` universes — far more universe bytes
/// than the daemon's 64 MiB cache holds, so most lookups miss and the
/// LRU evicts. Latency bands, fastest first: restricted short-cycle
/// universes (8 jobs; complete `greedy`/`greedy-improve` or partial
/// permutation demands on the exact engine with symmetry off, since the
/// heuristic engines serve complete specs only), then full and
/// half-gap universes, alternating, with `greedy`/`greedy-improve` at
/// n = 15 (4), 16 (4), 17 (3) and 18 (1, over the cache budget on its
/// own, so always rebuilt). p50 falls in the n = 15 band and p90 in the
/// n = 17 band. The bands come in one fixed order, deck after deck, with
/// the same universe and engine in each full-universe slot, so the cache
/// and the allocator see the same size sequence under every seed; the
/// seed picks the restricted shapes, their engines and the demands.
fn churn_deck(rng: &mut StdRng, next: &mut usize) -> Vec<Job> {
    // Ring size per slot; 0 marks a restricted-universe slot.
    let mut slots: Vec<u32> = [(0u32, 8), (15, 4), (16, 4), (17, 3), (18, 1)]
        .iter()
        .flat_map(|&(n, count)| std::iter::repeat_n(n, count))
        .collect();
    slots.shuffle(&mut StdRng::seed_from_u64(0xc4));
    let mut deck = Vec::with_capacity(slots.len());
    let mut seen = [0u32; 19];
    for slot in slots {
        let n = if slot == 0 {
            rng.gen_range(14..=18)
        } else {
            slot
        };
        let mut job = SolveJob::new(id(next), n);
        let mut engine = HEURISTICS[rng.gen_range(0..2usize)];
        if slot != 0 {
            // Every other job of a band asks for the half-gap universe:
            // two keys of nearly the same size per band. The engine
            // follows the slot too, so the band's mix (and the p90 that
            // sits in it) is the same in every deck.
            seen[n as usize] += 1;
            let k = seen[n as usize];
            if k % 2 == 0 {
                job.max_gap = n / 2;
            }
            engine = HEURISTICS[(k as usize / 2) % 2];
        } else {
            let (len, gap) = *[(4, n / 2), (5, n), (6, n), (5, n / 2 + 1)]
                .choose(rng)
                .expect("non-empty");
            job.max_len = len;
            job.max_gap = gap;
            if rng.gen_bool(0.4) {
                let requests = requests_of(&cyclecover_workload::permutation(n as usize, rng));
                if !requests.is_empty() {
                    job.requests = Some(requests);
                    job.symmetry = Some(SymmetryMode::Off);
                    job.memo = Some(false);
                    deck.push(Job::new("partial-exact", &job, Expect::Cover));
                    continue;
                }
            }
        }
        job.engine = engine.to_string();
        let class = if slot == 0 {
            "heuristic-restricted"
        } else {
            "heuristic-full"
        };
        deck.push(Job::new(class, &job, Expect::Cover));
    }
    deck
}
