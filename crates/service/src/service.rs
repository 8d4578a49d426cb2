//! The batching solve service: submit [`SolveJob`]s, drain a batch.
//!
//! Scheduling model, in order of application:
//!
//! 1. **Admission (EDF)** — jobs are ordered earliest-absolute-deadline
//!    first (`deadline_ms` is measured from the moment [`SolveService::drain`]
//!    begins; jobs without a deadline run after all deadlined jobs, in
//!    submission order). A job whose deadline has already passed when a
//!    worker picks it up is *rejected without running*: it reports
//!    `budget_exhausted`/`deadline` with zero nodes, attributed to the
//!    pseudo-engine `"service"`.
//! 2. **Coalescing** — jobs identical up to `id` and `deadline_ms` form
//!    one group; the group is solved once (under the EDF position of its
//!    earliest member) and the solution is fanned back out to every
//!    waiter. The solve runs under the *most permissive* deadline among
//!    the group's admitted waiters, so a shared answer is never cut
//!    shorter than its latest waiter allows.
//! 3. **Universe reuse** — each group's `(n, max_len, max_gap)` key is
//!    resolved through the byte-budgeted LRU [`UniverseCache`];
//!    construction happens at most once per key per residency.
//! 4. **Cancellation tree** — every kernel runs under a child of the
//!    service's root [`CancelToken`]: [`SolveService::cancel_all`] aborts
//!    every in-flight and future kernel of the batch within ~4096 nodes
//!    per worker, without touching tokens owned by other batches.
//!
//! Layered on top, the **fault-tolerance model** (see `docs/robustness.md`):
//!
//! 5. **Panic isolation** — every engine dispatch runs under
//!    `catch_unwind`; a panic becomes a terminal `Failed`/`panic` answer
//!    fanned to every coalesced waiter, the worker thread survives, and
//!    the request's coalescing key is **quarantined** so a poison
//!    instance cannot re-panic later batches.
//! 6. **Retry with backoff** — transient outcomes (a panic with attempts
//!    left; a deadline exhaustion while the job's real deadline still has
//!    slack) are retried up to [`ServiceConfig::max_attempts`] per ladder
//!    rung, sleeping a deterministic seeded jittered exponential backoff
//!    between attempts.
//! 7. **Degradation ladder** — when a rung exhausts its budget (or
//!    panics persistently), the service re-dispatches down the request's
//!    `fallback` chain; any answer from a fallback rung carries an honest
//!    [`Degradation`] record.
//! 8. **Fault injection** — every dispatch and universe build consults
//!    the installed [`FaultPlan`](crate::FaultPlan) (no-op by default),
//!    so chaos tests drive the exact production paths deterministically.
//! 9. **Graceful drain** — [`SolveService::shutdown`] cancels the root
//!    token with [`CancelReason::Shutdown`]: in-flight kernels stop
//!    within ~4096 nodes and report `budget_exhausted`/`shutdown`;
//!    not-yet-started groups are reported unstarted without running.
//!
//! `workers > 1` drains the group list on that many OS threads (engines
//! are `Sync`; the EDF order is preserved by having workers pull group
//! indices from a shared counter).

use crate::cache::{CacheStats, UniverseCache, UniverseKey};
use crate::certs::CertCache;
use crate::fault::{FaultInjector, FaultKind};
use crate::predict::{CostModel, Prediction};
use cyclecover_io::json::{self, quote as json_escape, SolveJob};
use cyclecover_ring::Ring;
use cyclecover_solver::api::{
    engine_by_name, engines, CancelReason, CancelToken, Degradation, DegradeReason, Exhaustion,
    FailureKind, Optimality, Problem, Solution,
};
use cyclecover_solver::bnb::MemoStore;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the batch (`≥ 1`; clamped up to 1).
    pub workers: usize,
    /// Byte budget for the universe cache.
    pub cache_bytes: usize,
    /// Dispatch attempts per ladder rung (`≥ 1`; clamped up to 1):
    /// `max_attempts - 1` retries after a transient failure.
    pub max_attempts: u32,
    /// Base backoff between retry attempts, in milliseconds (attempt `k`
    /// sleeps a jittered `backoff_base_ms · 2^(k-1)`; 0 disables the
    /// sleep but not the retry).
    pub backoff_base_ms: u64,
    /// Seeds the backoff jitter (an installed
    /// [`FaultPlan`](crate::FaultPlan)'s `seed` takes precedence).
    pub retry_seed: u64,
    /// Share one refutation store per universe key across every group
    /// of a batch (and across batches, for a long-lived service):
    /// near-duplicate traffic then reuses exhausted-subtree proofs
    /// instead of rederiving them, surfacing as `shared_hits`. Off by
    /// default — sharing changes (improves) node counts, so callers
    /// gating on calibrated cold-memo baselines opt in explicitly.
    pub shared_memo: bool,
}

impl Default for ServiceConfig {
    /// One worker, 64 MiB of universe cache, one retry per rung with a
    /// 25 ms backoff base.
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            cache_bytes: 64 << 20,
            max_attempts: 2,
            backoff_base_ms: 25,
            retry_seed: 0,
            shared_memo: false,
        }
    }
}

struct Pending {
    seq: u64,
    job: SolveJob,
    submitted: Instant,
}

/// One job's outcome within a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Submission sequence number (reports are returned in this order).
    pub seq: u64,
    /// Job id (as submitted, or the assigned `job-<seq>`).
    pub id: String,
    /// The engine the job requested.
    pub engine: String,
    /// Position of the job's group in the admission (EDF) order.
    pub admit_order: usize,
    /// Satisfied by another job's solve (same coalescing key).
    pub coalesced: bool,
    /// The group's universe lookup hit the cache (recorded on the
    /// group's primary job only; coalesced waiters never looked).
    pub cache_hit: bool,
    /// Rejected at admission: the deadline had already passed.
    pub expired: bool,
    /// Rejected at admission by the installed [`CostModel`]: the
    /// calibrated curve says the deadline cannot be met (see
    /// [`CostModel::unmeetable`]). Mutually exclusive with `expired`
    /// (expiry is checked first).
    pub predicted_reject: bool,
    /// What the installed cost model predicted for this job (`None`
    /// when no model is installed or the model had nothing defensible
    /// to say) — reported next to the actual node count so the
    /// calibration table stays auditable.
    pub predicted: Option<Prediction>,
    /// Reported without running because the service was shutting down
    /// when the job's group came up.
    pub unstarted: bool,
    /// Admission error (unsupported engine/problem pair); `solution` is
    /// `None` exactly when this is `Some`.
    pub error: Option<String>,
    /// Terminal-failure detail (the caught panic message, the injected
    /// build failure, or the quarantine notice) when the solution is
    /// `Failed`; `None` otherwise.
    pub failure: Option<String>,
    /// Time from submission to admission.
    pub queue_wait: Duration,
    /// The engine's answer (shared across a coalesced group), or the
    /// `unstarted` rejection document for expired/drained jobs.
    pub solution: Option<Solution>,
}

/// Per-engine work accounting for one batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineTotal {
    /// Engine registry name.
    pub name: String,
    /// Kernel runs (coalesced groups count once).
    pub solves: u64,
    /// Jobs served, including coalesced waiters.
    pub jobs: u64,
    /// Search nodes expanded (summed over kernel runs).
    pub nodes: u64,
}

/// Batch-level statistics.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Jobs drained from the queue.
    pub submitted: usize,
    /// Jobs that received an engine answer (including coalesced waiters).
    pub solved: usize,
    /// Jobs rejected at admission because their deadline had passed.
    pub expired: usize,
    /// Jobs rejected at admission by the installed cost model
    /// (predicted-unmeetable deadline). Always 0 without a model.
    pub predicted_rejected: usize,
    /// Jobs satisfied by another job's solve.
    pub coalesced: usize,
    /// Jobs rejected with an admission error.
    pub errors: usize,
    /// Jobs whose final status is terminal `Failed` (panic, internal).
    pub failed: usize,
    /// Jobs answered by a fallback rung (carry a [`Degradation`] record).
    pub degraded: usize,
    /// Extra dispatches beyond the first, summed over kernel runs
    /// (retries and ladder descents both count).
    pub retries: u64,
    /// Jobs reported unstarted because the service was shutting down.
    pub unstarted: usize,
    /// Faults the installed plan fired during this drain.
    pub faults_injected: u64,
    /// Coalescing keys quarantined after this drain (cumulative over the
    /// service's lifetime — quarantine persists across drains).
    pub quarantined: usize,
    /// Refutation-store hits summed over this batch's kernel runs
    /// (coalesced waiters share their primary's run and don't re-count).
    pub memo_hits: u64,
    /// The subset of `memo_hits` landing on refutations another searcher
    /// recorded — an earlier deepening probe, a parallel worker, or
    /// (with [`ServiceConfig::shared_memo`]) another request.
    pub shared_hits: u64,
    /// Jobs answered from the persisted certificate cache with zero
    /// kernel nodes (coalesced waiters of a cached group count too —
    /// each was a job the cache absorbed).
    pub cert_cache_hits: usize,
    /// Universe-cache counters at drain end.
    pub cache: CacheStats,
    /// Per-engine totals, sorted by name.
    pub engines: Vec<EngineTotal>,
    /// Mean time from submission to admission.
    pub mean_queue_wait: Duration,
    /// Wall-clock time for the whole drain.
    pub wall: Duration,
}

/// Everything a [`SolveService::drain`] call produced: one report per
/// submitted job (in submission order) plus batch statistics.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobReport>,
    /// Batch statistics.
    pub stats: BatchStats,
}

/// The batching solve service — EDF admission, request coalescing,
/// cached universes, and the fault-tolerance layer (both models are
/// spelled out at the top of this source file); the [`crate`] docs hold
/// a worked example.
pub struct SolveService {
    config: ServiceConfig,
    cache: Mutex<UniverseCache>,
    queue: Vec<Pending>,
    root: CancelToken,
    fault: FaultInjector,
    quarantine: Mutex<HashSet<String>>,
    model: Option<CostModel>,
    next_seq: u64,
    /// One shared refutation store per universe key, created lazily when
    /// [`ServiceConfig::shared_memo`] is set; persists across drains so
    /// a long-lived daemon keeps its warmth between generations.
    memo_stores: Mutex<HashMap<UniverseKey, Arc<MemoStore>>>,
    /// The persisted certificate cache, when one is installed.
    cert_cache: Option<Mutex<CertCache>>,
}

impl SolveService {
    /// A service with the given configuration, an empty queue, and no
    /// fault plan.
    pub fn new(config: ServiceConfig) -> Self {
        SolveService {
            cache: Mutex::new(UniverseCache::new(config.cache_bytes)),
            config,
            queue: Vec::new(),
            root: CancelToken::new(),
            fault: FaultInjector::default(),
            quarantine: Mutex::new(HashSet::new()),
            model: None,
            next_seq: 0,
            memo_stores: Mutex::new(HashMap::new()),
            cert_cache: None,
        }
    }

    /// Installs a certificate cache (replacing any previous one): from
    /// now on a group whose coalescing key the cache holds is answered
    /// with the persisted certificate — zero kernel nodes, wire-marked
    /// `cached: true` — and every qualifying fresh terminal answer is
    /// recorded back into it. Retrieve the grown cache for persistence
    /// with [`SolveService::cert_cache_json`].
    pub fn set_cert_cache(&mut self, cache: CertCache) {
        self.cert_cache = Some(Mutex::new(cache));
    }

    /// Serializes the installed certificate cache (its current, grown
    /// state) as the `cyclecover-certificate-cache` wire document;
    /// `None` when no cache is installed.
    pub fn cert_cache_json(&self) -> Option<String> {
        self.cert_cache
            .as_ref()
            .map(|c| c.lock().expect("cert cache poisoned").to_json())
    }

    /// `(entries, hits, rejected_on_load)` of the installed certificate
    /// cache; `None` when no cache is installed.
    pub fn cert_cache_stats(&self) -> Option<(usize, u64, u64)> {
        self.cert_cache.as_ref().map(|c| {
            let c = c.lock().expect("cert cache poisoned");
            (c.len(), c.hits(), c.rejected_on_load())
        })
    }

    /// Installs a calibrated cost model: deadline-carrying jobs the
    /// model is confident cannot finish in time are rejected at
    /// admission (`predicted_reject`), and every job's prediction is
    /// reported next to its actual node count. Without a model (the
    /// default) admission behaviour is unchanged and the predictive
    /// counters stay at zero.
    pub fn set_cost_model(&mut self, model: CostModel) {
        self.model = Some(model);
    }

    /// The installed cost model, if any.
    pub fn cost_model(&self) -> Option<&CostModel> {
        self.model.as_ref()
    }

    /// Whether the universe for `key` is currently resident in the
    /// cache — a lookup that touches neither the LRU order nor the
    /// hit/miss counters. The daemon uses this to count warm starts
    /// across serving generations.
    pub fn universe_resident(&self, key: UniverseKey) -> bool {
        self.cache.lock().expect("cache poisoned").contains(key)
    }

    /// Installs a fault plan (replacing any previous one and resetting
    /// its counters). The empty plan restores the no-op default.
    pub fn set_fault_plan(&mut self, plan: crate::FaultPlan) {
        self.fault = FaultInjector::new(plan);
    }

    /// The installed fault injector (counters included).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Enqueues a job; returns its id (assigning `job-<seq>` when the
    /// job came unnamed). Rejects unknown engine names (primary and
    /// fallback) and ids already queued — everything else waits for
    /// admission.
    pub fn submit(&mut self, mut job: SolveJob) -> Result<String, String> {
        for name in std::iter::once(&job.engine).chain(job.fallback.iter()) {
            if engine_by_name(name).is_none() {
                let names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
                return Err(format!(
                    "unknown engine '{}' (have: {})",
                    name,
                    names.join(", ")
                ));
            }
        }
        if job.id.is_empty() {
            // Skip over ids the user already took ("job-3" is a legal
            // explicit id): an unnamed job must never be rejected as a
            // duplicate of a name it didn't choose.
            let mut bump = self.next_seq;
            let mut candidate = format!("job-{bump}");
            while self.queue.iter().any(|p| p.job.id == candidate) {
                bump += 1;
                candidate = format!("job-{bump}");
            }
            job.id = candidate;
        }
        if self.queue.iter().any(|p| p.job.id == job.id) {
            return Err(format!("duplicate job id '{}' in batch", job.id));
        }
        let id = job.id.clone();
        self.queue.push(Pending {
            seq: self.next_seq,
            job,
            submitted: Instant::now(),
        });
        self.next_seq += 1;
        Ok(id)
    }

    /// Number of queued jobs.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The batch's root cancellation token (clone it to keep a handle).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.root
    }

    /// Cancels every in-flight and future kernel of this batch: each
    /// solve runs under a child of the root token, so this stops all
    /// workers within ~4096 expanded nodes.
    pub fn cancel_all(&self) {
        self.root.cancel();
    }

    /// Begins a graceful drain: like [`SolveService::cancel_all`] but
    /// with [`CancelReason::Shutdown`], so in-flight kernels report
    /// `budget_exhausted`/`shutdown` and groups not yet started are
    /// reported unstarted without running. Call from any thread holding
    /// a clone of [`SolveService::cancel_token`] (or this service).
    pub fn shutdown(&self) {
        self.root.cancel_with(CancelReason::Shutdown);
    }

    /// Processes the whole queue — EDF admission, coalescing, cached
    /// universes, panic isolation, retry, the degradation ladder — and
    /// returns one report per job in submission order. The batch clock
    /// (the origin `deadline_ms` is measured from) starts now.
    pub fn drain(&mut self) -> BatchReport {
        let epoch = Instant::now();
        let faults_before = self.fault.injected();
        let submitted = self.queue.len();
        let mut pending = std::mem::take(&mut self.queue);
        // EDF: by deadline, no-deadline last, submission order as the tie
        // break. Sorting happens before grouping so each group's first
        // member is its earliest-deadline waiter.
        pending.sort_by_key(|p| (p.job.deadline_ms.is_none(), p.job.deadline_ms, p.seq));

        struct Group {
            members: Vec<Pending>,
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut by_key: HashMap<String, usize> = HashMap::new();
        for p in pending {
            let key = coalesce_key(&p.job);
            match by_key.get(&key) {
                Some(&g) => groups[g].members.push(p),
                None => {
                    by_key.insert(key, groups.len());
                    groups.push(Group { members: vec![p] });
                }
            }
        }

        let ctx = DrainCtx {
            epoch,
            cache: &self.cache,
            root: &self.root,
            fault: &self.fault,
            quarantine: &self.quarantine,
            model: self.model.as_ref(),
            max_attempts: self.config.max_attempts.max(1),
            backoff_base_ms: self.config.backoff_base_ms,
            // An installed plan's seed pins the whole chaos run; the
            // config seed drives production jitter otherwise.
            retry_seed: if self.fault.plan().is_empty() {
                self.config.retry_seed
            } else {
                self.fault.plan().seed
            },
            shared_memo: self.config.shared_memo,
            memo_stores: &self.memo_stores,
            cert_cache: self.cert_cache.as_ref(),
        };
        let next = AtomicUsize::new(0);
        let reports: Mutex<Vec<JobReport>> = Mutex::new(Vec::with_capacity(submitted));
        let workers = self.config.workers.max(1).min(groups.len().max(1));
        let work = || loop {
            let g = next.fetch_add(1, Ordering::SeqCst);
            if g >= groups.len() {
                break;
            }
            let out = process_group(g, &groups[g].members, &ctx);
            reports.lock().expect("report sink poisoned").extend(out);
        };
        // The calling thread is one of the workers, so a one-worker
        // batch spawns no thread at all.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        let mut jobs = reports.into_inner().expect("report sink poisoned");
        jobs.sort_by_key(|r| r.seq);

        let mut stats = BatchStats {
            submitted,
            solved: 0,
            expired: 0,
            predicted_rejected: 0,
            coalesced: 0,
            errors: 0,
            failed: 0,
            degraded: 0,
            retries: 0,
            unstarted: 0,
            faults_injected: self.fault.injected() - faults_before,
            quarantined: self.quarantine.lock().expect("quarantine poisoned").len(),
            memo_hits: 0,
            shared_hits: 0,
            cert_cache_hits: 0,
            cache: self.cache.lock().expect("cache poisoned").stats(),
            engines: Vec::new(),
            mean_queue_wait: Duration::ZERO,
            wall: Duration::ZERO,
        };
        let mut per_engine: HashMap<String, EngineTotal> = HashMap::new();
        let mut total_wait = Duration::ZERO;
        for r in &jobs {
            total_wait += r.queue_wait;
            if r.expired {
                stats.expired += 1;
                continue;
            }
            if r.predicted_reject {
                stats.predicted_rejected += 1;
                continue;
            }
            if r.unstarted {
                stats.unstarted += 1;
                continue;
            }
            if r.error.is_some() {
                stats.errors += 1;
                continue;
            }
            let sol = r.solution.as_ref();
            if sol.is_some_and(Solution::cached) {
                stats.cert_cache_hits += 1;
            }
            if !r.coalesced {
                if let Some(sol) = sol {
                    stats.retries += u64::from(sol.stats().attempts.saturating_sub(1));
                    stats.memo_hits += sol.stats().memo_hits;
                    stats.shared_hits += sol.stats().shared_hits;
                }
            }
            if matches!(
                sol.map(Solution::optimality),
                Some(Optimality::Failed { .. })
            ) {
                stats.failed += 1;
                continue;
            }
            stats.solved += 1;
            if r.coalesced {
                stats.coalesced += 1;
            }
            if sol.is_some_and(|s| s.degraded().is_some()) {
                stats.degraded += 1;
            }
            // Work is charged to the engine that answered (the fallback
            // rung, for a degraded job), not the one requested.
            let name = r
                .solution
                .as_ref()
                .map_or_else(|| r.engine.clone(), |s| s.stats().engine.to_string());
            let entry = per_engine
                .entry(name.clone())
                .or_insert_with(|| EngineTotal {
                    name,
                    ..EngineTotal::default()
                });
            entry.jobs += 1;
            if !r.coalesced {
                entry.solves += 1;
                if let Some(sol) = &r.solution {
                    entry.nodes += sol.stats().nodes;
                }
            }
        }
        stats.engines = per_engine.into_values().collect();
        stats.engines.sort_by(|a, b| a.name.cmp(&b.name));
        if !jobs.is_empty() {
            stats.mean_queue_wait = total_wait / jobs.len() as u32;
        }
        stats.wall = epoch.elapsed();
        BatchReport { jobs, stats }
    }
}

/// The coalescing key: the request document with `id` and `deadline_ms`
/// blanked — two jobs coalesce iff they are wire-identical otherwise.
fn coalesce_key(job: &SolveJob) -> String {
    let mut key = job.clone();
    key.id = String::new();
    key.deadline_ms = None;
    json::request_to_json(&key)
}

/// Everything a worker needs to process one group.
struct DrainCtx<'a> {
    epoch: Instant,
    cache: &'a Mutex<UniverseCache>,
    root: &'a CancelToken,
    fault: &'a FaultInjector,
    quarantine: &'a Mutex<HashSet<String>>,
    model: Option<&'a CostModel>,
    max_attempts: u32,
    backoff_base_ms: u64,
    retry_seed: u64,
    shared_memo: bool,
    memo_stores: &'a Mutex<HashMap<UniverseKey, Arc<MemoStore>>>,
    cert_cache: Option<&'a Mutex<CertCache>>,
}

/// The deterministic retry backoff: attempt `k` (1-based, counted per
/// solve) sleeps a jittered `base · 2^(k-1)` ms, jitter drawn from an
/// RNG seeded by `(seed, group, attempt)` so a rerun of the same batch
/// sleeps the same schedule.
fn backoff(seed: u64, group_seq: u64, attempt: u32, base_ms: u64) {
    if base_ms == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(
        seed ^ group_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt) << 32,
    );
    let exp = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    // Uniform in [exp/2, exp]: capped exponential with 50% jitter.
    let sleep = exp / 2 + rng.gen_range(0..=exp - exp / 2);
    std::thread::sleep(Duration::from_millis(sleep));
}

/// The caught panic payload as a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn process_group(admit_order: usize, members: &[Pending], ctx: &DrainCtx) -> Vec<JobReport> {
    let now = Instant::now();
    let mut out = Vec::with_capacity(members.len());
    let mut survivors: Vec<(&Pending, Option<Instant>)> = Vec::new();
    // The coalescing key doubles as the certificate-cache key; probing
    // it first lets a held certificate waive the predictive-admission
    // check below (the answer costs a lookup, not a predicted kernel).
    let key = coalesce_key(&members[0].job);
    let cert_hit = ctx
        .cert_cache
        .and_then(|cc| cc.lock().expect("cert cache poisoned").lookup(&key));
    let report = |p: &Pending| JobReport {
        seq: p.seq,
        id: p.job.id.clone(),
        engine: p.job.engine.clone(),
        admit_order,
        coalesced: false,
        cache_hit: false,
        expired: false,
        predicted_reject: false,
        predicted: None,
        unstarted: false,
        error: None,
        failure: None,
        queue_wait: now.saturating_duration_since(p.submitted),
        solution: None,
    };
    for p in members {
        let abs = p.job.deadline_ms.map(|ms| ctx.epoch + Duration::from_millis(ms));
        if let Some(abs) = abs {
            if now >= abs {
                out.push(JobReport {
                    expired: true,
                    solution: Some(Solution::unstarted(
                        Ring::new(p.job.n),
                        Exhaustion::Deadline,
                        "service",
                    )),
                    ..report(p)
                });
                continue;
            }
            // Predictive admission (only with a model installed, and
            // only after the plain expiry check so an already-dead
            // deadline keeps its established `expired` status): refuse
            // a live deadline the calibrated curve says cannot be met.
            if let Some(model) = ctx.model.filter(|_| cert_hit.is_none()) {
                let remaining = abs.saturating_duration_since(now).as_millis() as u64;
                if let Some(prediction) = model.unmeetable(&p.job, remaining) {
                    out.push(JobReport {
                        predicted_reject: true,
                        predicted: Some(prediction),
                        solution: Some(Solution::unstarted(
                            Ring::new(p.job.n),
                            Exhaustion::Deadline,
                            "service",
                        )),
                        ..report(p)
                    });
                    continue;
                }
            }
        }
        survivors.push((p, abs));
    }
    let Some(&(primary, _)) = survivors.first() else {
        return out;
    };
    let ring = Ring::new(primary.job.n);
    // The audit trail: what the model expected this group to cost
    // (shared by every waiter — prediction inputs are part of the
    // coalescing key). `None` without a model or outside its confidence.
    let predicted = ctx.model.and_then(|m| m.predict(&primary.job));

    // Graceful drain: a cancelled root means this group never starts —
    // report every waiter unstarted with the token's reason (shutdown
    // vs. plain cancel stays distinguishable on the wire).
    if let Some(reason) = ctx.root.cancel_reason() {
        for (p, _) in survivors {
            out.push(JobReport {
                unstarted: reason == CancelReason::Shutdown,
                solution: Some(Solution::unstarted(ring, reason.as_exhaustion(), "service")),
                ..report(p)
            });
        }
        return out;
    }

    // Quarantine: a key that already panicked terminally is refused
    // outright — a poison instance must not re-panic the batch through
    // coalescing or resubmission.
    if ctx.quarantine.lock().expect("quarantine poisoned").contains(&key) {
        for (p, _) in survivors {
            out.push(JobReport {
                failure: Some("quarantined: an earlier dispatch of this request panicked".into()),
                solution: Some(Solution::failed(ring, FailureKind::Panic, "service", 0)),
                ..report(p)
            });
        }
        return out;
    }

    // Certificate-cache hit: the persisted terminal answer is fanned to
    // every admitted waiter with zero kernel nodes. `predicted` stays
    // unset — no kernel ran, so there is nothing for the calibration
    // audit trail to compare against.
    if let Some(sol) = cert_hit {
        for (i, (p, _)) in survivors.iter().enumerate() {
            out.push(JobReport {
                coalesced: i > 0,
                solution: Some(sol.clone()),
                ..report(p)
            });
        }
        return out;
    }

    // Universe lookup, with injected construction failure on a miss.
    let universe_key = primary.job.universe_key();
    let built = {
        let mut cache = ctx.cache.lock().expect("cache poisoned");
        if !cache.contains(universe_key) && ctx.fault.before_build() {
            None
        } else {
            Some(cache.get_or_build(universe_key))
        }
    };
    let Some((universe, cache_hit)) = built else {
        for (p, _) in survivors {
            out.push(JobReport {
                failure: Some("injected fault: universe construction failed".into()),
                solution: Some(Solution::failed(ring, FailureKind::Internal, "service", 0)),
                ..report(p)
            });
        }
        return out;
    };
    let problem = Problem::shared(universe, primary.job.spec());
    let base_request = primary.job.to_solve_request();
    let primary_engine = engine_by_name(&primary.job.engine).expect("engine validated at submit");
    if !primary_engine.supports(&problem, &base_request) {
        for (p, _) in survivors {
            out.push(JobReport {
                error: Some(format!(
                    "engine '{}' does not support this problem/request",
                    p.job.engine
                )),
                ..report(p)
            });
        }
        return out;
    }
    // The solve's deadline is the most permissive among the admitted
    // waiters: a waiter without a deadline lifts it entirely.
    let group_deadline = if survivors.iter().any(|(_, abs)| abs.is_none()) {
        None
    } else {
        survivors.iter().filter_map(|(_, abs)| *abs).max()
    };

    // Ring-two sharing: one refutation store per universe key, shared
    // by every group of the batch (and kept across batches), created
    // lazily under the first group's memo budget. `None` when sharing
    // is off, the request disabled its memo, or the universe is too
    // wide for exact residual keys.
    let shared_store: Option<Arc<MemoStore>> = if ctx.shared_memo && base_request.memo_enabled() {
        let mut stores = ctx.memo_stores.lock().expect("memo stores poisoned");
        match stores.get(&universe_key) {
            Some(s) => Some(Arc::clone(s)),
            None => MemoStore::new(problem.universe(), base_request.memo_budget_bytes()).map(|s| {
                let s = Arc::new(s);
                stores.insert(universe_key, Arc::clone(&s));
                s
            }),
        }
    } else {
        None
    };

    // The degradation ladder: the primary engine, then the request's
    // fallback chain. Each rung gets up to `max_attempts` dispatches;
    // transient failures retry the rung, persistent ones descend.
    let ladder: Vec<&str> = std::iter::once(primary.job.engine.as_str())
        .chain(base_request.fallback().iter().map(String::as_str))
        .collect();
    let mut total_attempts: u32 = 0;
    let mut first_descent: Option<DegradeReason> = None;
    let mut last_exhausted: Option<Solution> = None;
    let mut failure_msg: Option<String> = None;
    let mut answer: Option<Solution> = None;
    'ladder: for name in &ladder {
        let engine = engine_by_name(name).expect("ladder validated at submit");
        if !engine.supports(&problem, &base_request) {
            // An unsupported fallback rung is skipped, not an error: the
            // primary was support-checked above.
            continue;
        }
        let mut rung_attempts: u32 = 0;
        loop {
            rung_attempts += 1;
            total_attempts += 1;
            let mut request = primary.job.to_solve_request();
            if let Some(store) = &shared_store {
                request = request.with_memo_store(Arc::clone(store));
            }
            if let Some(abs) = group_deadline {
                request = request.with_deadline(abs.saturating_duration_since(Instant::now()));
            }
            request = request.with_cancel_token(ctx.root.child());
            let fault = ctx.fault.before_solve(&primary.job.id);
            if fault == Some(FaultKind::Deadline) {
                // Forced exhaustion: the dispatch runs with no wall-clock
                // budget while the job's real deadline keeps its slack —
                // the retry path recovers, deterministically.
                request = request.with_deadline(Duration::ZERO);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                match fault {
                    Some(FaultKind::Panic) => panic!("injected fault: panic on dispatch"),
                    Some(FaultKind::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                    _ => {}
                }
                engine.solve(&problem, &request)
            }));
            match outcome {
                Err(payload) => {
                    failure_msg = Some(panic_message(payload));
                    if rung_attempts < ctx.max_attempts {
                        backoff(ctx.retry_seed, primary.seq, rung_attempts, ctx.backoff_base_ms);
                        continue;
                    }
                    first_descent.get_or_insert(DegradeReason::Panicked);
                    continue 'ladder;
                }
                Ok(sol) => match *sol.optimality() {
                    Optimality::BudgetExhausted {
                        reason: reason @ (Exhaustion::Cancelled | Exhaustion::Shutdown),
                    } => {
                        // Externally stopped: neither retrying nor
                        // descending would be honest work.
                        let _ = reason;
                        answer = Some(sol);
                        break 'ladder;
                    }
                    Optimality::BudgetExhausted { reason } => {
                        // "Deadline-adjacent": the engine ran out of its
                        // slice but the group's real deadline still has
                        // slack (always true for an injected zero
                        // deadline on an undeadlined job) — transient.
                        let slack_left = reason == Exhaustion::Deadline
                            && group_deadline.is_none_or(|abs| Instant::now() < abs);
                        if slack_left && rung_attempts < ctx.max_attempts {
                            backoff(
                                ctx.retry_seed,
                                primary.seq,
                                rung_attempts,
                                ctx.backoff_base_ms,
                            );
                            continue;
                        }
                        first_descent.get_or_insert(DegradeReason::Exhausted(reason));
                        last_exhausted = Some(sol);
                        continue 'ladder;
                    }
                    _ => {
                        answer = Some(sol);
                        break 'ladder;
                    }
                },
            }
        }
    }

    let mut solution = match answer.or(last_exhausted) {
        Some(sol) => sol,
        // Every rung panicked (or none ran): terminal failure, and the
        // key goes on the quarantine list.
        None => {
            ctx.quarantine
                .lock()
                .expect("quarantine poisoned")
                .insert(key.clone());
            Solution::failed(ring, FailureKind::Panic, "service", total_attempts)
        }
    };
    solution.set_attempts(total_attempts);
    let failed = matches!(solution.optimality(), Optimality::Failed { .. });
    if !failed {
        failure_msg = None;
        if solution.stats().engine != primary.job.engine {
            if let Some(reason) = first_descent {
                solution.set_degradation(Degradation {
                    from: primary.job.engine.clone(),
                    to: solution.stats().engine.to_string(),
                    reason,
                });
            }
        }
    }
    // Ring three: a qualifying fresh terminal answer grows the
    // certificate cache (the cache itself refuses anything degraded,
    // non-terminal, or partial-spec).
    if let Some(cc) = ctx.cert_cache {
        cc.lock()
            .expect("cert cache poisoned")
            .record(&primary.job, &key, &solution);
    }
    for (i, (p, _)) in survivors.iter().enumerate() {
        out.push(JobReport {
            coalesced: i > 0,
            cache_hit: i == 0 && cache_hit,
            predicted,
            failure: failure_msg.clone(),
            solution: Some(solution.clone()),
            ..report(p)
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Batch summary JSON
// ---------------------------------------------------------------------------

/// One job's status line for the summary: the optimality kind, plus the
/// exhaustion/failure reason where applicable.
fn status_of(report: &JobReport) -> (&'static str, Option<&'static str>) {
    if report.error.is_some() {
        return ("error", None);
    }
    match report.solution.as_ref().map(Solution::optimality) {
        Some(Optimality::Optimal { .. }) => ("optimal", None),
        Some(Optimality::Feasible) => ("feasible", None),
        Some(Optimality::Infeasible) => ("infeasible", None),
        Some(Optimality::BudgetExhausted { reason }) => {
            ("budget_exhausted", Some(json::exhaustion_str(reason)))
        }
        Some(Optimality::Failed { kind }) => (
            "failed",
            Some(match kind {
                FailureKind::Panic => "panic",
                FailureKind::Internal => "internal",
            }),
        ),
        None => ("error", None),
    }
}

/// Serializes a [`BatchReport`] as the `cyclecover-batch-summary` JSON
/// document (version 1): one `jobs[]` entry per submitted job plus the
/// batch `stats` block — what `cyclecover serve --batch` prints.
pub fn batch_summary_json(report: &BatchReport) -> String {
    batch_summary_json_with_rejects(report, &[])
}

/// [`batch_summary_json`] with per-line admission rejects: lines of the
/// batch file that failed to parse or submit, reported as
/// `rejected[] = {line, error}` instead of aborting the batch.
pub fn batch_summary_json_with_rejects(
    report: &BatchReport,
    rejects: &[(usize, String)],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"format\": \"cyclecover-batch-summary\",\n  \"version\": 1,\n");
    s.push_str("  \"jobs\": [\n");
    for (i, r) in report.jobs.iter().enumerate() {
        let (status, reason) = status_of(r);
        let degraded = r
            .solution
            .as_ref()
            .and_then(Solution::degraded)
            .map_or("null".to_string(), |d| {
                let reason = match d.reason {
                    DegradeReason::Panicked => "panicked",
                    DegradeReason::Exhausted(e) => json::exhaustion_str(&e),
                };
                format!(
                    "{{\"from\": {}, \"to\": {}, \"reason\": \"{reason}\"}}",
                    json_escape(&d.from),
                    json_escape(&d.to)
                )
            });
        let _ = write!(
            s,
            "    {{\"id\": {}, \"engine\": {}, \"status\": {}, \"reason\": {}, \
             \"size\": {}, \"nodes\": {}, \"wall_ms\": {}, \"admit_order\": {}, \
             \"cache_hit\": {}, \"cached\": {}, \"coalesced\": {}, \"expired\": {}, \
             \"unstarted\": {}, \"attempts\": {}, \"degraded\": {degraded}, \"failure\": {}, \
             \"queue_wait_ms\": {:.3}, \"predicted_nodes\": {}, \"predicted_reject\": {}}}",
            json_escape(&r.id),
            json_escape(&r.engine),
            json_escape(status),
            reason.map_or("null".to_string(), json_escape),
            r.solution
                .as_ref()
                .and_then(Solution::size)
                .map_or("null".to_string(), |n| n.to_string()),
            r.solution.as_ref().map_or(0, |sol| sol.stats().nodes),
            r.solution.as_ref().map_or("null".to_string(), |sol| format!(
                "{:.3}",
                sol.stats().wall.as_secs_f64() * 1e3
            )),
            r.admit_order,
            r.cache_hit,
            r.solution.as_ref().is_some_and(Solution::cached),
            r.coalesced,
            r.expired,
            r.unstarted,
            r.solution.as_ref().map_or(0, |sol| sol.stats().attempts),
            r.failure.as_deref().map_or("null".to_string(), json_escape),
            r.queue_wait.as_secs_f64() * 1e3,
            r.predicted
                .map_or("null".to_string(), |p| p.nodes.to_string()),
            r.predicted_reject,
        );
        s.push_str(if i + 1 < report.jobs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"rejected\": [");
    for (i, (line, error)) in rejects.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{{\"line\": {line}, \"error\": {}}}", json_escape(error));
    }
    s.push_str("],\n");
    let st = &report.stats;
    let _ = writeln!(
        s,
        "  \"stats\": {{\n    \"submitted\": {}, \"solved\": {}, \"expired\": {}, \
         \"coalesced\": {}, \"errors\": {}, \"rejected\": {},",
        st.submitted,
        st.solved,
        st.expired,
        st.coalesced,
        st.errors,
        rejects.len()
    );
    let _ = writeln!(
        s,
        "    \"failed\": {}, \"degraded\": {}, \"retries\": {}, \"unstarted\": {}, \
         \"faults_injected\": {}, \"quarantined\": {},",
        st.failed, st.degraded, st.retries, st.unstarted, st.faults_injected, st.quarantined
    );
    let _ = writeln!(s, "    \"predicted_rejected\": {},", st.predicted_rejected);
    let _ = writeln!(
        s,
        "    \"memo\": {{\"hits\": {}, \"shared_hits\": {}, \"cert_cache_hits\": {}}},",
        st.memo_hits, st.shared_hits, st.cert_cache_hits
    );
    let _ = writeln!(
        s,
        "    \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"bytes\": {}, \"peak_bytes\": {}, \"hit_rate\": {:.3}}},",
        st.cache.hits,
        st.cache.misses,
        st.cache.evictions,
        st.cache.bytes,
        st.cache.peak_bytes,
        st.cache.hit_rate()
    );
    s.push_str("    \"engines\": {");
    for (i, e) in st.engines.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"solves\": {}, \"jobs\": {}, \"nodes\": {}}}",
            json_escape(&e.name),
            e.solves,
            e.jobs,
            e.nodes
        );
    }
    s.push_str("},\n");
    let _ = writeln!(
        s,
        "    \"mean_queue_wait_ms\": {:.3}, \"wall_ms\": {:.3}\n  }}",
        st.mean_queue_wait.as_secs_f64() * 1e3,
        st.wall.as_secs_f64() * 1e3
    );
    s.push_str("}\n");
    s
}
