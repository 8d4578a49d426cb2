//! The benchmark's own checks: the oracle rejects corrupted answers,
//! job streams are a function of the seed, and the traced replay's
//! counts repeat exactly.

use cyclecover_io::json::{request_from_json, solution_to_json_with_id, to_single_line, SolveJob};
use cyclecover_solver::api::{engine_by_name, Objective, Problem};
use perfbench::oracle::check;
use perfbench::plan::{plan, Expect, Workload};
use perfbench::replay::replay;
use perfbench::run::Scratch;

/// A fresh, correct answer document for `job`.
fn answer(job: &SolveJob) -> String {
    let problem = Problem::new(
        cyclecover_solver::TileUniverse::with_max_gap(
            cyclecover_ring::Ring::new(job.n),
            job.max_len as usize,
            job.max_gap,
        ),
        job.spec(),
    );
    let sol = engine_by_name(&job.engine)
        .expect("registered engine")
        .solve(&problem, &job.to_solve_request());
    to_single_line(&solution_to_json_with_id(&sol, &job.id, None))
}

#[test]
fn oracle_accepts_real_answers() {
    let rho7 = SolveJob::new("a", 7);
    check(&rho7, Expect::Optimal(6), &answer(&rho7)).expect("rho(7) = 6");
    let mut double = SolveJob::new("b", 6);
    double.lambda = 2;
    check(&double, Expect::Optimal(9), &answer(&double)).expect("rho_2(6) = 9");
    let mut partial = SolveJob::new("c", 8);
    partial.requests = Some(vec![(0, 4), (1, 5), (2, 3)]);
    check(&partial, Expect::Cover, &answer(&partial)).expect("partial cover");
    let mut witness = SolveJob::new("d", 16);
    witness.max_len = 4;
    witness.max_gap = 8;
    witness.engine = "partition".to_string();
    witness.objective = Objective::WithinBudget(33);
    check(&witness, Expect::Within(33), &answer(&witness)).expect("rho(16) <= 33");
}

#[test]
fn oracle_rejects_corrupted_answers() {
    let job = SolveJob::new("a", 7);
    let good = answer(&job);
    let cycles_at = good.find("\"cycles\": [[").expect("cycle list") + "\"cycles\": [".len();
    let first_end = good[cycles_at..].find(']').expect("first cycle") + cycles_at + 1;
    // One cycle fewer, with the size claim kept consistent: coverage fails.
    let dropped = format!("{}{}", &good[..cycles_at], &good[first_end + 2..])
        .replace("\"size\": 6", "\"size\": 5");
    let parsed =
        cyclecover_io::json::covering_from_solution_json(&dropped).expect("still a solution");
    assert_eq!(parsed.len(), 5, "the corruption drops exactly one cycle");
    assert!(
        check(&job, Expect::Optimal(5), &dropped).is_err(),
        "uncovered request accepted"
    );
    assert!(
        check(&job, Expect::Optimal(6), &dropped).is_err(),
        "wrong size accepted"
    );
    // A certified value that disagrees with the known rho(7).
    assert!(
        check(&job, Expect::Optimal(5), &good).is_err(),
        "wrong optimum accepted"
    );
    // A size claim that disagrees with the cycle list.
    let lying = good.replace("\"size\": 6", "\"size\": 7");
    assert!(
        check(&job, Expect::Within(7), &lying).is_err(),
        "size mismatch accepted"
    );
    // An answer for another job id, or another ring.
    let other_id = good.replace("\"id\": \"a\"", "\"id\": \"b\"");
    assert!(
        check(&job, Expect::Optimal(6), &other_id).is_err(),
        "foreign id accepted"
    );
    assert!(
        check(&SolveJob::new("a", 8), Expect::Optimal(6), &good).is_err(),
        "other ring accepted"
    );
    // A reject is never a correct answer.
    let reject = cyclecover_service::reject_json(Some("a"), "overload", "full", None);
    assert!(
        check(&job, Expect::Optimal(6), &reject).is_err(),
        "reject accepted"
    );
    // A covering that leaves the job's restricted universe.
    let mut short = SolveJob::new("a", 7);
    short.max_len = 3;
    assert!(
        check(&short, Expect::Within(6), &good).is_err(),
        "long cycle accepted"
    );
    // A unit covering offered as a double cover.
    let mut double = SolveJob::new("a", 7);
    double.lambda = 2;
    assert!(
        check(&double, Expect::Within(12), &good).is_err(),
        "1-fold cover accepted as 2-fold"
    );
    // A feasible covering offered where a certified optimum is due.
    let uncertified = good.replace("\"kind\": \"optimal\"", "\"kind\": \"feasible\"");
    assert_ne!(uncertified, good, "the corruption changes the verdict");
    assert!(
        check(&job, Expect::Optimal(6), &uncertified).is_err(),
        "uncertified answer accepted"
    );
}

#[test]
fn streams_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let lines = |seed| -> Vec<String> {
            let p = plan(workload, seed, 1);
            p.warmup
                .iter()
                .chain(&p.jobs)
                .map(|j| j.line.clone())
                .collect()
        };
        assert_eq!(lines(7), lines(7), "{}", workload.name());
        assert_ne!(lines(7), lines(8), "{}", workload.name());
        for line in lines(7) {
            request_from_json(&line).expect("generated lines parse");
        }
    }
}

#[test]
fn decks_keep_their_class_shares() {
    for workload in Workload::ALL {
        let p = plan(workload, 3, 2);
        let shares = |deck: &[perfbench::plan::Job]| {
            let mut classes: Vec<&str> = deck.iter().map(|j| j.class).collect();
            classes.sort_unstable();
            classes
        };
        let first = shares(&p.jobs[..p.deck_len]);
        for deck in p.jobs.chunks(p.deck_len) {
            if workload != Workload::UniverseChurn {
                assert_eq!(shares(deck), first, "{}", workload.name());
            }
            assert_eq!(deck.len(), p.deck_len);
        }
    }
}

#[test]
fn replay_counts_repeat_exactly() {
    let scratch = Scratch::new("test-replay").expect("scratch dir");
    for workload in Workload::ALL {
        let mut p = plan(workload, 5, 1);
        p.replay_len = p.deck_len.min(12);
        let certs = (workload == Workload::ServeSmall).then(|| {
            perfbench::drive::CertFile::prepare(&p, scratch.path())
                .expect("preload")
                .pristine
        });
        let first = replay(&p, true, certs.as_deref(), scratch.path()).expect("replay");
        let second = replay(&p, true, certs.as_deref(), scratch.path()).expect("replay");
        let plain = replay(&p, false, certs.as_deref(), scratch.path()).expect("replay");
        assert_eq!(first.counts, second.counts, "{}", workload.name());
        assert_eq!(
            first.counts.path_counts(),
            plain.counts.path_counts(),
            "{}",
            workload.name()
        );
        assert_eq!(first.counts.jobs, p.replay_len as u64);
        let exact: u64 = first.counts.nodes.iter().sum();
        assert!(exact > 0 || first.counts.heuristic_solves > 0 || first.counts.cert_hits > 0);
    }
}

/// The metric names and units of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = cyclecover_io::json::Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|s| s.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn runs_print_the_declared_metrics() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let args = perfbench::run::Args {
            workload: Workload::ServeSmall,
            seed: 9,
            seconds: 1,
            trace,
        };
        let outcome = perfbench::run::run(&args).expect("run");
        assert!(outcome.correct, "answers and self-checks hold");
        assert!(outcome.attempted >= 100);
        let printed: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, declared(section), "{section}");
        let line = outcome.to_json();
        cyclecover_io::json::Json::parse(&line).expect("the result line is JSON");
    }
}
