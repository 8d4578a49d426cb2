//! Behavioral suite for the batching solve service: universe-cache
//! accounting, deadline-aware (EDF) scheduling, coalescing, the
//! cancellation tree, and the fault-tolerance layer (panic isolation,
//! retry, degradation ladder, quarantine, graceful shutdown) under
//! deterministic fault injection.

use cyclecover_io::json::{self, SolveJob};
use cyclecover_service::{
    batch_summary_json, BatchReport, CertCache, FaultPlan, ServiceConfig, SolveService,
    UniverseCache,
};
use cyclecover_solver::api::{Exhaustion, FailureKind, Objective, Optimality, SymmetryMode};
use proptest::prelude::*;
use std::sync::Arc;

fn service() -> SolveService {
    SolveService::new(ServiceConfig::default())
}

/// A single-worker service with no backoff sleeps and `retries + 1`
/// attempts per rung, driving `plan` — the chaos-test harness shape.
fn chaos_service(plan: &str, retries: u32) -> SolveService {
    let mut svc = SolveService::new(ServiceConfig {
        workers: 1,
        backoff_base_ms: 0,
        max_attempts: retries + 1,
        ..ServiceConfig::default()
    });
    svc.set_fault_plan(FaultPlan::from_json(plan).expect("test plan parses"));
    svc
}

fn by_id<'r>(report: &'r BatchReport, id: &str) -> &'r cyclecover_service::JobReport {
    report
        .jobs
        .iter()
        .find(|j| j.id == id)
        .unwrap_or_else(|| panic!("no report for {id}"))
}

#[test]
fn edf_admission_early_deadline_cannot_be_starved() {
    let mut svc = service();
    // Submitted first, generous deadline; then no deadline; then tight.
    let mut relaxed = SolveJob::new("relaxed", 8);
    relaxed.deadline_ms = Some(600_000);
    svc.submit(relaxed).unwrap();
    svc.submit(SolveJob::new("unbounded", 7)).unwrap();
    let mut urgent = SolveJob::new("urgent", 6);
    urgent.deadline_ms = Some(60_000);
    svc.submit(urgent).unwrap();

    let report = svc.drain();
    assert_eq!(report.stats.solved, 3);
    assert_eq!(report.stats.expired, 0);
    // Admission must follow deadlines, not submission: urgent first,
    // relaxed second, the deadline-free job last.
    assert_eq!(by_id(&report, "urgent").admit_order, 0);
    assert_eq!(by_id(&report, "relaxed").admit_order, 1);
    assert_eq!(by_id(&report, "unbounded").admit_order, 2);
    for id in ["urgent", "relaxed", "unbounded"] {
        let sol = by_id(&report, id).solution.as_ref().unwrap();
        assert!(
            matches!(sol.optimality(), Optimality::Optimal { .. }),
            "{id}: {:?}",
            sol.optimality()
        );
    }
}

#[test]
fn expired_jobs_are_rejected_without_running() {
    let mut svc = service();
    let mut doomed = SolveJob::new("doomed", 10);
    doomed.deadline_ms = Some(0); // unmeetable: expired the moment the batch clock starts
    svc.submit(doomed).unwrap();
    svc.submit(SolveJob::new("fine", 6)).unwrap();

    let report = svc.drain();
    assert_eq!(report.stats.expired, 1);
    assert_eq!(report.stats.solved, 1);
    let doomed = by_id(&report, "doomed");
    assert!(doomed.expired);
    let sol = doomed.solution.as_ref().unwrap();
    assert_eq!(
        *sol.optimality(),
        Optimality::BudgetExhausted {
            reason: Exhaustion::Deadline
        }
    );
    // "Without running": zero nodes, zero budgets tried, attributed to
    // the scheduler — no kernel was ever entered.
    assert_eq!(sol.stats().nodes, 0);
    assert_eq!(sol.stats().budgets_tried, 0);
    assert_eq!(sol.stats().engine, "service");
    // The survivor is untouched.
    assert_eq!(by_id(&report, "fine").solution.as_ref().unwrap().size(), Some(5));
}

#[test]
fn identical_requests_coalesce_into_one_solve() {
    let mut svc = service();
    for id in ["a", "b", "c"] {
        let mut job = SolveJob::new(id, 8);
        job.symmetry = Some(SymmetryMode::Root);
        svc.submit(job).unwrap();
    }
    // Same ring shape, different objective: shares the universe but not
    // the solve.
    let mut probe = SolveJob::new("probe", 8);
    probe.objective = Objective::WithinBudget(9);
    svc.submit(probe).unwrap();

    let report = svc.drain();
    assert_eq!(report.stats.solved, 4);
    assert_eq!(report.stats.coalesced, 2, "b and c ride along with a");
    // One universe build for all four jobs.
    assert_eq!(report.stats.cache.misses, 1);
    assert!(report.stats.cache.hits >= 1);
    // Exactly two kernel runs were charged.
    let totals = &report.stats.engines;
    assert_eq!(totals.len(), 1);
    assert_eq!(totals[0].name, "bitset");
    assert_eq!(totals[0].solves, 2);
    assert_eq!(totals[0].jobs, 4);
    assert!(totals[0].nodes > 0);
    // All coalesced waiters got the same answer.
    let size_a = by_id(&report, "a").solution.as_ref().unwrap().size();
    for id in ["b", "c"] {
        assert_eq!(by_id(&report, id).solution.as_ref().unwrap().size(), size_a);
        assert!(by_id(&report, id).coalesced);
    }
    assert_eq!(size_a, Some(9));
}

#[test]
fn deadlines_do_not_fragment_coalescing_groups() {
    // Same request, different deadlines: still one solve, and the late
    // waiter's generous deadline governs the kernel.
    let mut svc = service();
    let mut tight = SolveJob::new("tight", 6);
    tight.deadline_ms = Some(120_000);
    let mut loose = SolveJob::new("loose", 6);
    loose.deadline_ms = Some(240_000);
    svc.submit(tight).unwrap();
    svc.submit(loose).unwrap();
    let report = svc.drain();
    assert_eq!(report.stats.coalesced, 1);
    assert_eq!(report.stats.engines[0].solves, 1);
    assert_eq!(by_id(&report, "tight").solution.as_ref().unwrap().size(), Some(5));
    assert_eq!(by_id(&report, "loose").solution.as_ref().unwrap().size(), Some(5));
}

#[test]
fn multi_worker_drain_matches_single_worker() {
    let build = |workers: usize| {
        let mut svc = SolveService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        for (id, n) in [("w6", 6u32), ("w7", 7), ("w8", 8), ("w6b", 6)] {
            svc.submit(SolveJob::new(id, n)).unwrap();
        }
        svc.drain()
    };
    let solo = build(1);
    let duo = build(3);
    assert_eq!(solo.stats.solved, duo.stats.solved);
    for job in &solo.jobs {
        let twin = by_id(&duo, &job.id);
        assert_eq!(
            job.solution.as_ref().unwrap().size(),
            twin.solution.as_ref().unwrap().size(),
            "{}",
            job.id
        );
    }
}

#[test]
fn cancel_all_aborts_the_batch_through_the_token_tree() {
    let mut svc = service();
    // Symmetry off: the budget-8 probe needs ~97k nodes, far past the
    // ~4096-node cancellation check interval (under Root the whole solve
    // finishes in 10 nodes — before any check could fire).
    let mut victim = SolveJob::new("victim", 8);
    victim.objective = Objective::WithinBudget(8);
    victim.symmetry = Some(SymmetryMode::Off);
    svc.submit(victim).unwrap();
    svc.cancel_all();
    let report = svc.drain();
    let sol = by_id(&report, "victim").solution.as_ref().unwrap();
    assert_eq!(
        *sol.optimality(),
        Optimality::BudgetExhausted {
            reason: Exhaustion::Cancelled
        }
    );
    assert!(sol.stats().nodes <= 8192, "{:?}", sol.stats());
}

#[test]
fn admission_validation_and_errors() {
    let mut svc = service();
    let mut bad = SolveJob::new("bad", 6);
    bad.engine = "warp-drive".to_string();
    let err = svc.submit(bad).unwrap_err();
    assert!(err.contains("unknown engine"), "{err}");

    svc.submit(SolveJob::new("dup", 6)).unwrap();
    let err = svc.submit(SolveJob::new("dup", 7)).unwrap_err();
    assert!(err.contains("duplicate"), "{err}");

    // Heuristics can't prove infeasibility: admission reports the error
    // instead of lying.
    let mut unsupported = SolveJob::new("greedy-proof", 7);
    unsupported.engine = "greedy".to_string();
    unsupported.objective = Objective::ProveInfeasible(5);
    svc.submit(unsupported).unwrap();
    let report = svc.drain();
    assert_eq!(report.stats.errors, 1);
    let r = by_id(&report, "greedy-proof");
    assert!(r.error.as_ref().unwrap().contains("does not support"));
    assert!(r.solution.is_none());

    // Unnamed jobs get sequential ids…
    let mut svc = service();
    let id = svc.submit(SolveJob::new("", 6)).unwrap();
    assert_eq!(id, "job-0");
    // …which skip over names the user already took.
    svc.submit(SolveJob::new("job-1", 7)).unwrap();
    let id = svc.submit(SolveJob::new("", 8)).unwrap();
    assert_eq!(id, "job-2");
}

#[test]
fn lambda_fold_jobs_bypass_predictive_admission_and_solve() {
    use cyclecover_service::{CalibrationRow, CostModel};
    // A model whose only point says the unit n = 6 certification takes
    // an hour: the unit twin is predicted-rejected at a 10 ms deadline,
    // but the λ-fold job — same n, same deadline wired in — runs a
    // different kernel the table knows nothing about, so it is always
    // admitted (and then actually solves: ρ₂(6) = 9).
    let mut svc = service();
    svc.set_cost_model(CostModel::new(vec![CalibrationRow {
        n: 6,
        objective: "find_optimal".to_string(),
        symmetry: "root".to_string(),
        memo: true,
        nodes: 1_000_000_000,
        wall_ms: 3_600_000.0,
    }]));
    let mut unit = SolveJob::new("unit", 6);
    unit.deadline_ms = Some(10);
    svc.submit(unit).unwrap();
    let mut double = SolveJob::new("double", 6);
    double.lambda = 2;
    double.deadline_ms = Some(10_000);
    svc.submit(double).unwrap();
    let mut triple = SolveJob::new("triple", 6);
    triple.lambda = 3;
    svc.submit(triple).unwrap();

    let report = svc.drain();
    assert_eq!(report.stats.predicted_rejected, 1);
    assert!(by_id(&report, "unit").predicted_reject);

    let double = by_id(&report, "double");
    assert!(!double.predicted_reject, "λ-fold jobs are always admitted");
    assert!(double.predicted.is_none(), "no unit-table prediction applies");
    let sol = double.solution.as_ref().unwrap();
    assert!(
        matches!(sol.optimality(), Optimality::Optimal { .. }),
        "{:?}",
        sol.optimality()
    );
    assert_eq!(sol.size(), Some(9), "ρ₂(6) = 9 (the capacity bound)");
    // The double cover's solution document round-trips the wire format
    // and passes the full `cyclecover validate` coverage check (λ-fold
    // coverings cover every request ≥ λ ≥ 1 times).
    let doc = json::solution_to_json(sol);
    let covering = json::covering_from_solution_json(&doc).unwrap();
    covering.validate().unwrap();

    let triple = by_id(&report, "triple").solution.as_ref().unwrap();
    assert!(matches!(triple.optimality(), Optimality::Optimal { .. }));
    assert_eq!(triple.size(), Some(14), "ρ₃(6) = 14");
}

#[test]
fn lambda_is_part_of_the_coalescing_key() {
    // A unit job and a double-cover job at the same ring size must not
    // coalesce: λ is wire-visible, so it is part of the key.
    let mut svc = service();
    svc.submit(SolveJob::new("unit", 6)).unwrap();
    let mut double = SolveJob::new("double", 6);
    double.lambda = 2;
    svc.submit(double).unwrap();
    let mut double2 = SolveJob::new("double2", 6);
    double2.lambda = 2;
    svc.submit(double2).unwrap();

    let report = svc.drain();
    assert_eq!(report.stats.solved, 3);
    assert_eq!(report.stats.coalesced, 1, "only the two λ = 2 jobs coalesce");
    assert_eq!(by_id(&report, "unit").solution.as_ref().unwrap().size(), Some(5));
    assert_eq!(by_id(&report, "double").solution.as_ref().unwrap().size(), Some(9));
    assert!(by_id(&report, "double2").coalesced);
}

#[test]
fn mixed_batch_meets_the_acceptance_shape() {
    // The ISSUE acceptance scenario, in-library: >= 3 distinct (n, spec)
    // keys, repeated requests, one unmeetable deadline.
    let mut svc = service();
    let mut jobs = vec![
        SolveJob::new("k6-a", 6),
        SolveJob::new("k6-b", 6), // repeat → coalesces
        SolveJob::new("k7", 7),
        SolveJob::new("k8", 8),
    ];
    let mut partial = SolveJob::new("k8-partial", 8);
    partial.requests = Some(vec![(0, 2), (1, 5), (3, 7)]);
    jobs.push(partial); // same universe key as k8 → cache hit
    let mut hopeless = SolveJob::new("hopeless", 9);
    hopeless.deadline_ms = Some(0);
    jobs.push(hopeless);
    for job in jobs {
        svc.submit(job).unwrap();
    }
    let report = svc.drain();
    assert_eq!(report.stats.submitted, 6);
    assert_eq!(report.stats.expired, 1);
    assert!(report.stats.cache.hits > 0, "{:?}", report.stats.cache);
    assert!(report.stats.coalesced >= 1);
    // Every served job carries a covering that re-validates through the
    // wire format. Complete-spec solutions pass the full `cyclecover
    // validate` check; the partial job's covering is re-validated at the
    // DRC trust boundary (full validation demands all of K_n).
    let mut validated = 0;
    for r in &report.jobs {
        if r.expired {
            continue;
        }
        let sol = r.solution.as_ref().unwrap();
        if sol.covering().is_some() {
            let doc = json::solution_to_json(sol);
            let covering = json::covering_from_solution_json(&doc).unwrap();
            if r.id != "k8-partial" {
                covering.validate().unwrap();
            }
            validated += 1;
        }
    }
    assert!(validated >= 4, "only {validated} coverings validated");

    // The summary document is well-formed JSON carrying the headline
    // numbers.
    let summary = batch_summary_json(&report);
    let doc = json::Json::parse(&summary).expect("summary parses");
    assert_eq!(
        doc.get("format").and_then(json::Json::as_str),
        Some("cyclecover-batch-summary")
    );
    let stats = doc.get("stats").unwrap();
    assert_eq!(stats.get("expired").and_then(json::Json::as_num), Some(1.0));
    assert!(stats.get("cache").unwrap().get("hits").and_then(json::Json::as_num).unwrap() > 0.0);
}

#[test]
fn panic_is_isolated_and_fanned_to_coalesced_waiters() {
    // "boom" panics on every dispatch; its wire-identical twin rides the
    // same group. Both must get a terminal failed answer, the worker must
    // survive to solve "fine", and the poison key is quarantined.
    let plan = r#"{"format": "cyclecover-fault-plan", "version": 1,
                   "faults": [{"job": "boom", "kind": "panic"}]}"#;
    let mut svc = chaos_service(plan, 1);
    svc.submit(SolveJob::new("boom", 6)).unwrap();
    svc.submit(SolveJob::new("boom-twin", 6)).unwrap();
    svc.submit(SolveJob::new("fine", 7)).unwrap();
    let report = svc.drain();

    assert_eq!(report.stats.failed, 2);
    assert_eq!(report.stats.solved, 1);
    assert_eq!(report.stats.quarantined, 1);
    // Two attempts on the one rung (1 retry), both panicked.
    assert_eq!(report.stats.retries, 1);
    assert_eq!(report.stats.faults_injected, 2);
    for id in ["boom", "boom-twin"] {
        let r = by_id(&report, id);
        let sol = r.solution.as_ref().unwrap();
        assert_eq!(
            *sol.optimality(),
            Optimality::Failed {
                kind: FailureKind::Panic
            },
            "{id}"
        );
        assert!(sol.covering().is_none());
        assert!(
            r.failure.as_ref().unwrap().contains("injected fault"),
            "{id}: {:?}",
            r.failure
        );
    }
    assert!(by_id(&report, "boom-twin").coalesced);
    assert_eq!(by_id(&report, "fine").solution.as_ref().unwrap().size(), Some(6));

    // Resubmitting the poison request (any id) is refused from quarantine
    // without a dispatch — the batch cannot be re-panicked.
    svc.submit(SolveJob::new("boom-again", 6)).unwrap();
    let report = svc.drain();
    let r = by_id(&report, "boom-again");
    assert!(matches!(
        r.solution.as_ref().unwrap().optimality(),
        Optimality::Failed {
            kind: FailureKind::Panic
        }
    ));
    assert!(r.failure.as_ref().unwrap().contains("quarantined"), "{:?}", r.failure);
    assert_eq!(r.solution.as_ref().unwrap().stats().attempts, 0);
    assert_eq!(report.stats.faults_injected, 0, "no dispatch reached the injector");
}

/// A valid request whose universe cannot cover it (`max_gap = 2` on
/// `C_8` leaves every chord longer than 2 without a candidate tile) is
/// answered `Infeasible` by every engine route, within its deadline:
/// the heuristic no longer panics into quarantine, and exact deepening
/// no longer climbs budgets until the deadline or forever.
#[test]
fn uncoverable_universe_is_answered_infeasible_within_its_deadline() {
    let mut svc = service();
    for (id, engine, objective) in [
        ("greedy", "greedy", Objective::FindOptimal),
        ("greedy-improve", "greedy-improve", Objective::FindOptimal),
        ("exact", "bitset", Objective::FindOptimal),
        ("probe", "bitset", Objective::WithinBudget(12)),
        ("partition", "partition", Objective::FindOptimal),
    ] {
        let mut job = SolveJob::new(id, 8);
        job.max_gap = 2;
        job.engine = engine.to_string();
        job.objective = objective;
        job.deadline_ms = Some(1500);
        svc.submit(job).unwrap();
    }
    let started = std::time::Instant::now();
    let report = svc.drain();
    assert!(started.elapsed().as_millis() < 1500, "{:?}", started.elapsed());
    assert_eq!(report.stats.solved, 5);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.quarantined, 0);
    assert_eq!(report.stats.retries, 0);
    for id in ["greedy", "greedy-improve", "exact", "probe", "partition"] {
        let r = by_id(&report, id);
        let sol = r.solution.as_ref().unwrap();
        assert_eq!(*sol.optimality(), Optimality::Infeasible, "{id}");
        assert!(sol.covering().is_none(), "{id}");
        assert_eq!(sol.stats().nodes, 0, "{id}");
        assert!(r.failure.is_none(), "{id}: {:?}", r.failure);
    }
    let summary = batch_summary_json(&report);
    assert!(summary.contains("\"quarantined\": 0"), "{summary}");
}

#[test]
fn transient_panic_recovers_on_retry() {
    // Only the first dispatch of the service's lifetime panics: the retry
    // must recover with the real answer on the same rung — no
    // degradation, one recorded retry.
    let plan = r#"{"format": "cyclecover-fault-plan", "version": 1,
                   "faults": [{"on_solve": 1, "kind": "panic"}]}"#;
    let mut svc = chaos_service(plan, 1);
    svc.submit(SolveJob::new("flaky", 6)).unwrap();
    let report = svc.drain();
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.solved, 1);
    assert_eq!(report.stats.retries, 1);
    assert_eq!(report.stats.degraded, 0);
    assert_eq!(report.stats.quarantined, 0);
    let sol = by_id(&report, "flaky").solution.as_ref().unwrap();
    assert_eq!(sol.size(), Some(5));
    assert_eq!(sol.stats().attempts, 2);
    assert!(sol.degraded().is_none());
    assert!(by_id(&report, "flaky").failure.is_none(), "a recovered job carries no failure");
}

#[test]
fn forced_deadline_exhaustion_retries_while_slack_remains() {
    // An injected zero-deadline dispatch genuinely exhausts, but the job
    // itself has no deadline — slack remains, so the service retries and
    // the second dispatch answers. The probe must be big enough (~97k
    // nodes with symmetry off) to actually reach a deadline check
    // (~4096-node granularity).
    let plan = r#"{"format": "cyclecover-fault-plan", "version": 1,
                   "faults": [{"on_solve": 1, "kind": "deadline"}]}"#;
    let mut svc = chaos_service(plan, 1);
    let mut job = SolveJob::new("slow-start", 8);
    job.objective = Objective::WithinBudget(8);
    job.symmetry = Some(SymmetryMode::Off);
    svc.submit(job).unwrap();
    let report = svc.drain();
    let sol = by_id(&report, "slow-start").solution.as_ref().unwrap();
    assert!(matches!(sol.optimality(), Optimality::Infeasible), "{:?}", sol.optimality());
    assert_eq!(sol.stats().attempts, 2);
    assert_eq!(report.stats.retries, 1);
    assert_eq!(report.stats.degraded, 0);
}

#[test]
fn degradation_ladder_reports_honest_provenance() {
    // A node budget far too small for the exact kernel (symmetry off so
    // the search is genuinely large), with a heuristic fallback: the
    // answer must come from the fallback and say so.
    let mut svc = SolveService::new(ServiceConfig {
        backoff_base_ms: 0,
        ..ServiceConfig::default()
    });
    let mut job = SolveJob::new("degrade-me", 8);
    job.symmetry = Some(SymmetryMode::Off);
    job.max_nodes = Some(5);
    job.fallback = vec!["greedy".to_string()];
    svc.submit(job).unwrap();
    let report = svc.drain();

    assert_eq!(report.stats.degraded, 1);
    assert_eq!(report.stats.failed, 0);
    let sol = by_id(&report, "degrade-me").solution.as_ref().unwrap();
    let d = sol.degraded().expect("degradation recorded");
    assert_eq!(d.from, "bitset");
    assert_eq!(d.to, "greedy");
    assert_eq!(sol.stats().engine, "greedy");
    // The fallback's covering is a real covering.
    let doc = json::solution_to_json(sol);
    assert!(doc.contains("\"degraded\": {\"from\": \"bitset\""), "{doc}");
    json::covering_from_solution_json(&doc).unwrap().validate().unwrap();
    // The engine totals charge the rung that answered.
    assert!(report.stats.engines.iter().any(|e| e.name == "greedy" && e.jobs == 1));
}

#[test]
fn injected_build_failure_is_a_terminal_internal_failure() {
    let plan = r#"{"format": "cyclecover-fault-plan", "version": 1,
                   "faults": [{"on_build": 1, "kind": "build_fail"}]}"#;
    let mut svc = chaos_service(plan, 0);
    svc.submit(SolveJob::new("built-on-sand", 6)).unwrap();
    svc.submit(SolveJob::new("fine", 7)).unwrap();
    let report = svc.drain();
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.solved, 1);
    let r = by_id(&report, "built-on-sand");
    assert_eq!(
        *r.solution.as_ref().unwrap().optimality(),
        Optimality::Failed {
            kind: FailureKind::Internal
        }
    );
    assert!(r.failure.as_ref().unwrap().contains("universe construction"), "{:?}", r.failure);
    // A failed build is not a panic: the key is NOT quarantined, and the
    // second universe build (for "fine") went through.
    assert_eq!(report.stats.quarantined, 0);
}

#[test]
fn shutdown_reports_queued_work_unstarted() {
    let mut svc = service();
    for (id, n) in [("s6", 6u32), ("s7", 7), ("s8", 8)] {
        svc.submit(SolveJob::new(id, n)).unwrap();
    }
    svc.shutdown();
    let report = svc.drain();
    assert_eq!(report.stats.unstarted, 3);
    assert_eq!(report.stats.solved, 0);
    for id in ["s6", "s7", "s8"] {
        let r = by_id(&report, id);
        assert!(r.unstarted, "{id}");
        let sol = r.solution.as_ref().unwrap();
        assert_eq!(
            *sol.optimality(),
            Optimality::BudgetExhausted {
                reason: Exhaustion::Shutdown
            },
            "{id}"
        );
        assert_eq!(sol.stats().nodes, 0, "{id}: shutdown must not burn nodes");
    }
    // The wire distinguishes shutdown from a plain cancel.
    let summary = batch_summary_json(&report);
    assert!(summary.contains("\"reason\": \"shutdown\""), "{summary}");
    assert!(summary.contains("\"unstarted\": 3"), "{summary}");
}

#[test]
fn shared_memo_spreads_refutations_across_a_generation() {
    // Two non-coalescing jobs over the same tile universe: a ρ−1
    // refutation and a full certification. With `shared_memo` on they
    // feed one store, so the second job answers partly from the first
    // one's refutations — visible in the summary's memo counters.
    let jobs = || {
        let mut refute = SolveJob::new("refute", 8);
        refute.objective = Objective::WithinBudget(8);
        refute.symmetry = Some(SymmetryMode::Off);
        let mut certify = SolveJob::new("certify", 8);
        certify.symmetry = Some(SymmetryMode::Off);
        [refute, certify]
    };

    let mut baseline = service();
    for job in jobs() {
        baseline.submit(job).unwrap();
    }
    let cold = baseline.drain();
    assert_eq!(cold.stats.solved, 2);
    assert_eq!(cold.stats.shared_hits, 0, "private memos cannot cross-hit");

    let mut shared = SolveService::new(ServiceConfig {
        shared_memo: true,
        ..ServiceConfig::default()
    });
    for job in jobs() {
        shared.submit(job).unwrap();
    }
    let warm = shared.drain();
    assert_eq!(warm.stats.solved, 2);
    assert!(
        warm.stats.shared_hits > 0,
        "the generation's store must carry refutations between jobs"
    );
    // Same verdicts either way — sharing is an accelerator, not an oracle.
    for id in ["refute", "certify"] {
        let a = by_id(&cold, id).solution.as_ref().unwrap();
        let b = by_id(&warm, id).solution.as_ref().unwrap();
        assert_eq!(a.size(), b.size(), "{id}");
    }
    assert!(
        by_id(&warm, "certify").solution.as_ref().unwrap().stats().nodes
            <= by_id(&cold, "certify").solution.as_ref().unwrap().stats().nodes,
        "sharing must not expand the certification"
    );
}

#[test]
fn certificate_cache_answers_repeat_requests_without_running() {
    // First service run: cold, records the certificate and persists it.
    let mut first = service();
    first.set_cert_cache(CertCache::new());
    first.submit(SolveJob::new("orig", 6)).unwrap();
    let cold = first.drain();
    let orig = by_id(&cold, "orig").solution.as_ref().unwrap();
    assert!(!orig.cached());
    assert!(orig.stats().nodes > 0);
    assert_eq!(cold.stats.cert_cache_hits, 0);
    let doc = first.cert_cache_json().expect("cache installed");

    // Second run, handed the persisted document: a key-identical job
    // (different id — ids are blanked out of the cache key, exactly as
    // in coalescing) answers from the certificate with zero kernel
    // nodes, and so does its coalesced twin.
    let cache = CertCache::from_json(&doc).expect("persisted cache loads");
    assert_eq!(cache.rejected_on_load(), 0);
    let mut second = service();
    second.set_cert_cache(cache);
    second.submit(SolveJob::new("repeat", 6)).unwrap();
    second.submit(SolveJob::new("repeat-twin", 6)).unwrap();
    let warm = second.drain();
    assert_eq!(warm.stats.cert_cache_hits, 2);
    for id in ["repeat", "repeat-twin"] {
        let sol = by_id(&warm, id).solution.as_ref().unwrap();
        assert!(sol.cached(), "{id} must be served from the cache");
        assert_eq!(sol.stats().nodes, 0, "{id} must not run the kernel");
        assert_eq!(sol.size(), orig.size(), "{id} verdict must match");
        assert!(matches!(sol.optimality(), Optimality::Optimal { .. }));
        // The served document still validates end to end.
        let rendered = json::solution_to_json(sol);
        json::covering_from_solution_json(&rendered)
            .expect("cached covering parses")
            .validate()
            .expect("cached covering validates");
    }
    // A *different* request misses the cache and runs normally.
    let mut third = service();
    third.set_cert_cache(CertCache::from_json(&doc).unwrap());
    third.submit(SolveJob::new("other", 7)).unwrap();
    let miss = third.drain();
    assert_eq!(miss.stats.cert_cache_hits, 0);
    let other = by_id(&miss, "other").solution.as_ref().unwrap();
    assert!(!other.cached());
    // ...and is recorded, growing the persisted document.
    let grown = CertCache::from_json(&third.cert_cache_json().unwrap()).unwrap();
    assert_eq!(grown.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache keyed equality: a repeated key always returns the same
    /// allocation (and counts a hit); the key fully determines the
    /// universe shape.
    #[test]
    fn cache_key_determines_identity(
        n in 4u32..9,
        len_off in 0u32..3,
        gap in 1u32..9,
    ) {
        let key = (n, (3 + len_off).min(n), gap.min(n));
        let mut cache = UniverseCache::new(usize::MAX);
        let (a, hit_a) = cache.get_or_build(key);
        let (b, hit_b) = cache.get_or_build(key);
        prop_assert!(!hit_a && hit_b);
        prop_assert!(Arc::ptr_eq(&a, &b));
        // A fresh build from the same key is structurally identical.
        let mut other = UniverseCache::new(usize::MAX);
        let (c, _) = other.get_or_build(key);
        prop_assert_eq!(a.len(), c.len());
        prop_assert_eq!(a.approx_bytes(), c.approx_bytes());
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);
    }

    /// The (n, max_len, max_gap) key is what SolveJob exposes, and jobs
    /// differing only in spec/objective share it.
    #[test]
    fn universe_key_ignores_spec_and_objective(
        n in 4u32..9,
        budget in 1u32..20,
    ) {
        let complete = SolveJob::new("x", n);
        let mut partial = SolveJob::new("y", n);
        partial.requests = Some(vec![(0, 2)]);
        partial.objective = Objective::WithinBudget(budget);
        prop_assert_eq!(complete.universe_key(), partial.universe_key());
    }

    /// Chaos invariant: under ANY seeded fault plan, every submitted job
    /// reaches exactly one terminal status (drain returns — no waiter
    /// hangs), the per-status counts partition the batch, and every
    /// emitted covering still re-validates through the wire format.
    #[test]
    fn any_fault_plan_yields_exactly_one_terminal_status_per_job(
        seed in any::<u64>(),
        ns in prop::collection::vec(6u32..9, 3..6),
        faults in prop::collection::vec(
            (0u8..3, 1u64..8, 0u64..3),
            0..5,
        ),
    ) {
        // Plans are built over the wire format — the same path CI uses.
        let mut plan = format!(
            r#"{{"format": "cyclecover-fault-plan", "version": 1, "seed": {seed}, "faults": ["#
        );
        for (i, (kind, nth, ms)) in faults.iter().enumerate() {
            if i > 0 {
                plan.push_str(", ");
            }
            let f = match kind {
                // Every third fault targets job "p0" by id (the poison /
                // retry-exhaustion path); the rest fire by dispatch count.
                0 if i % 3 == 2 => r#"{"job": "p0", "kind": "panic"}"#.to_string(),
                0 => format!(r#"{{"on_solve": {nth}, "kind": "panic"}}"#),
                1 => format!(r#"{{"on_solve": {nth}, "kind": "deadline"}}"#),
                _ => format!(r#"{{"on_solve": {nth}, "kind": "stall", "ms": {ms}}}"#),
            };
            plan.push_str(&f);
        }
        plan.push_str("]}");
        let mut svc = chaos_service(&plan, 1);
        for (i, &n) in ns.iter().enumerate() {
            let mut job = SolveJob::new(format!("p{i}"), n);
            if i % 2 == 1 {
                job.fallback = vec!["greedy".to_string()];
            }
            svc.submit(job).unwrap();
        }
        // One exact duplicate: coalesced waiters must share the terminal
        // status, whatever it is. (No deadline: EDF would promote a
        // deadlined twin to group primary, flipping the coalesced flags.)
        svc.submit(SolveJob::new("p0-twin", ns[0])).unwrap();

        let report = svc.drain();
        prop_assert_eq!(report.jobs.len(), ns.len() + 1);
        let st = &report.stats;
        prop_assert_eq!(
            st.solved + st.expired + st.errors + st.failed + st.unstarted,
            st.submitted,
            "statuses must partition the batch"
        );
        for r in &report.jobs {
            // Exactly one terminal outcome: an error XOR a solution
            // document (expired/unstarted jobs carry their rejection
            // document).
            prop_assert!(r.error.is_some() ^ r.solution.is_some(), "{}", r.id);
            let Some(sol) = r.solution.as_ref() else { continue };
            // A failure detail appears iff the answer is terminal-failed.
            prop_assert_eq!(
                r.failure.is_some(),
                matches!(sol.optimality(), Optimality::Failed { .. }),
                "{}", r.id
            );
            // Every covering that came out re-validates (complete specs
            // throughout, so full validation applies).
            if sol.covering().is_some() {
                let doc = json::solution_to_json(sol);
                let covering = json::covering_from_solution_json(&doc);
                prop_assert!(covering.is_ok(), "{}: {:?}", r.id, covering.err());
                let valid = covering.unwrap().validate();
                prop_assert!(valid.is_ok(), "{}: {:?}", r.id, valid.err());
            }
        }
        // The twin coalesced with p0 and shares its terminal status.
        let twin = by_id(&report, "p0-twin");
        let p0 = by_id(&report, "p0");
        prop_assert!(twin.coalesced);
        match (&p0.solution, &twin.solution) {
            (Some(a), Some(b)) => prop_assert_eq!(a.optimality(), b.optimality()),
            (a, b) => prop_assert!(false, "p0 {:?} vs twin {:?}", a.is_some(), b.is_some()),
        }
    }
}
