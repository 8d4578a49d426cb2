//! One benchmark run: the untraced closed loop (end-to-end metrics) or,
//! with tracing on, a shorter untraced loop plus the traced replay
//! (per-layer metrics). Every answer is checked by the oracle; every
//! workload checks that it still exercises the layer it was built for.

use crate::drive::{closed_loop, CertFile, DaemonHost, Sample, Verdict, Window, SETUP_REPS};
use crate::plan::{plan, Plan, Workload};
use crate::replay::{replay, Replay, Route, EXACT_ROUTES};
use crate::{oracle, procfs};
use cyclecover_io::json::{request_from_json, Json};
use cyclecover_service::DaemonStats;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to drive.
    pub workload: Workload,
    /// Seed for the job stream.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The run's result line.
pub struct Outcome {
    /// Every answer checked out and every self-check held.
    pub correct: bool,
    /// Jobs sent in the timed window.
    pub attempted: u64,
    /// Jobs without a correct answer.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A per-run scratch directory under the benchmark's own `tmp/`,
/// removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `tmp/<label>-<pid>` under the benchmark directory.
    pub fn new(label: &str) -> Result<Scratch, String> {
        let dir = bench_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The benchmark package's directory (inside the checkout).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Nearest-rank percentile of sorted values, with its rank.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], rank)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the benchmark once; prints its report to stderr.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args.workload, args.seed, args.seconds);
    let scratch = Scratch::new(&format!("{}-{}", args.workload.name(), args.seed))?;
    eprintln!(
        "perfbench {} seed {} ({} s{}): {} jobs per deck, {} clients, closed loop",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        plan.deck_len,
        args.workload.clients(),
    );
    if args.trace {
        traced_run(&plan, args, scratch.path())
    } else {
        let measured = measure(
            &plan,
            args.seed,
            args.seconds as f64,
            SETUP_REPS,
            scratch.path(),
        )?;
        Ok(measured.end_to_end())
    }
}

/// An untraced run's measurements.
struct Measured {
    setups: Vec<f64>,
    window: Window,
    /// Latencies (ms, sorted) of every correct answer in the window.
    latencies_ms: Vec<f64>,
    attempted: u64,
    correct_answers: u64,
    self_check_failures: Vec<String>,
    jobs_per_generation: f64,
}

/// A slice of the window, between two boundary marks.
struct Slice {
    from: Duration,
    to: Duration,
    /// Jobs answered in the slice.
    jobs: usize,
    /// Answered jobs per second.
    rate: f64,
    /// Process CPU ms per answered job.
    cpu_per_job: f64,
}

fn slices(window: &Window) -> Vec<Slice> {
    let mut out = Vec::new();
    for pair in window.marks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let jobs = window
            .samples
            .iter()
            .filter(|s| s.answered && s.done > a.at && s.done <= b.at)
            .count();
        let secs = (b.at - a.at).as_secs_f64();
        if jobs > 0 && secs > 0.0 {
            out.push(Slice {
                from: a.at,
                to: b.at,
                jobs,
                rate: jobs as f64 / secs,
                cpu_per_job: (b.cpu_s - a.cpu_s) * 1e3 / jobs as f64,
            });
        }
    }
    out
}

/// The slices the timing metrics come from: the fastest quarter of the
/// window's slices, topped up to at least `MIN_QUIET_JOBS` answered
/// jobs. The host these runs share slows everything, the program
/// included, by up to ~1.7x for tens of seconds at a time, and a slice
/// holds the same job mix whenever it runs; so the fastest slices are
/// the stretches the host left quiet, and a slower program is slower
/// in them too. What this leaves out is a slowdown that hits fewer
/// than three slices in four (the whole-window figures in the report
/// show it).
fn quiet_slices(window: &Window) -> Vec<Slice> {
    let mut all = slices(window);
    all.sort_by(|a, b| b.rate.total_cmp(&a.rate));
    let total: usize = all.iter().map(|s| s.jobs).sum();
    let (mut taken, mut jobs) = (0, 0);
    while taken < all.len() && (4 * taken < all.len() || jobs < MIN_QUIET_JOBS.min(total)) {
        jobs += all[taken].jobs;
        taken += 1;
    }
    all.truncate(taken);
    all.sort_by_key(|s| s.from);
    all
}

/// `setup_s`: the median of the fastest quarter of a run's set-ups,
/// for the reason [`quiet_slices`] gives.
fn quiet_setup(setups: &[f64]) -> f64 {
    let mut sorted = setups.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len().div_ceil(4));
    median(&sorted)
}

/// Correct answers the quiet slices hold at least, so that p90 has 40
/// samples above it. `universe_churn`, whose slices are 20-job decks,
/// needs most of its slices for that; `serve_small`'s quarter holds
/// thousands.
const MIN_QUIET_JOBS: usize = 400;

impl Measured {
    /// Latencies (ms, sorted) of the correct answers that arrived in
    /// one of `slices`.
    fn latencies_in(&self, slices: &[Slice]) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .window
            .samples
            .iter()
            .filter(|s| {
                s.verdict.failure.is_none()
                    && slices.iter().any(|q| s.done > q.from && s.done <= q.to)
            })
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    fn end_to_end(&self) -> Outcome {
        let answered = self.correct_answers;
        let quiet = quiet_slices(&self.window);
        let rates: Vec<f64> = quiet.iter().map(|s| s.rate).collect();
        let cpu_per_job: Vec<f64> = quiet.iter().map(|s| s.cpu_per_job).collect();
        let latencies = self.latencies_in(&quiet);
        let (p50, _) = percentile(&latencies, 0.5);
        let (p90, _) = percentile(&latencies, 0.9);
        let failed = self.attempted - self.correct_answers;
        Outcome {
            correct: failed == 0 && self.self_check_failures.is_empty(),
            attempted: self.attempted,
            failed,
            metrics: vec![
                metric("setup_s", "s", quiet_setup(&self.setups)),
                metric("jobs_per_s", "1/s", median(&rates)),
                metric("latency_p50_ms", "ms", p50),
                metric("latency_p90_ms", "ms", p90),
                metric("success_rate", "ratio", ratio(answered, self.attempted)),
                metric("cpu_ms_per_job", "ms", median(&cpu_per_job)),
                metric("peak_rss_mb", "MiB", procfs::peak_rss_mb()),
            ],
        }
    }
}

/// Set-up (`reps` times), warm-up, then the timed closed loop; checks
/// every answer and the workload's self-checks.
fn measure(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    reps: usize,
    scratch: &Path,
) -> Result<Measured, String> {
    let certs = match plan.workload {
        Workload::ServeSmall => Some(CertFile::prepare(plan, scratch)?),
        _ => None,
    };
    let mut setups = Vec::with_capacity(reps);
    let mut server = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = server.take() {
            DaemonHost::stop(previous)?;
        }
        let (started, setup_s) = DaemonHost::start(plan, certs.as_ref())?;
        setups.push(setup_s);
        server = Some(started);
    }
    let mut server = server.expect("at least one set-up");
    let warm_t0 = Instant::now();
    let warm = closed_loop(
        &mut server.conns,
        &plan.warmup,
        plan.deck_len,
        None,
        seed,
        &|i, answer| judge(plan, &plan.warmup, i, answer),
    );
    let warm_s = warm_t0.elapsed().as_secs_f64();
    if let Some(first) = failures(&warm.samples).next() {
        let first = first.clone();
        server.stop()?;
        return Err(format!("warm-up answer wrong: {first}"));
    }
    let before = server.stats()?;
    let cpu0 = procfs::cpu_seconds();
    let window = closed_loop(
        &mut server.conns,
        &plan.jobs,
        plan.deck_len,
        Some(seconds),
        seed,
        &|i, answer| judge(plan, &plan.jobs, i, answer),
    );
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let after = server.stats()?;
    server.stop()?;

    let mut sorted = setups.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "set-up: median of the fastest quarter {:.3} ms, median {:.3} ms of {} (min {:.3}, max {:.3}); \
         warm-up {} jobs in {:.2} s",
        quiet_setup(&setups) * 1e3,
        median(&setups) * 1e3,
        setups.len(),
        sorted[0] * 1e3,
        sorted[sorted.len() - 1] * 1e3,
        plan.warmup.len(),
        warm_s,
    );
    if window.exhausted {
        eprintln!("note: the pre-generated stream ran out before the window ended");
    }
    let mut latencies_ms: Vec<f64> = window
        .samples
        .iter()
        .filter(|s| s.verdict.failure.is_none())
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let attempted = window.samples.len() as u64;
    let correct_answers = latencies_ms.len() as u64;
    let oracle_s: f64 = window
        .samples
        .iter()
        .map(|s| s.checked_in.as_secs_f64())
        .sum();
    eprintln!(
        "window: {:.2} s, {correct_answers} of {attempted} jobs answered correctly ({} wrong or \
         missing); the oracle took {:.1} us per answer, on the clients' time",
        window.wall.as_secs_f64(),
        attempted - correct_answers,
        oracle_s * 1e6 / attempted.max(1) as f64,
    );
    let measured = Measured {
        setups,
        window,
        latencies_ms,
        attempted,
        correct_answers,
        self_check_failures: Vec::new(),
        jobs_per_generation: 0.0,
    };
    let all = slices(&measured.window);
    let quiet = quiet_slices(&measured.window);
    let quiet_latencies = measured.latencies_in(&quiet);
    for (label, latencies) in [
        ("quiet slices", &quiet_latencies),
        ("whole window", &measured.latencies_ms),
    ] {
        let (p50, r50) = percentile(latencies, 0.5);
        let (p90, r90) = percentile(latencies, 0.9);
        let n = latencies.len();
        eprintln!(
            "latency, {label}: p50 {p50:.3} ms (n = {n}, {} above), p90 {p90:.3} ms (n = {n}, {} above)",
            n - r50,
            n - r90
        );
    }
    let rates = |set: &[Slice]| set.iter().map(|s| s.rate).collect::<Vec<_>>();
    let cpus = |set: &[Slice]| set.iter().map(|s| s.cpu_per_job).collect::<Vec<_>>();
    eprintln!(
        "throughput: median {:.3} jobs/s over the {} quiet slices of {} (all slices {:.3}, whole window \
         {:.3}); cpu: median {:.3} ms/job over the quiet slices (all slices {:.3}, whole window \
         {:.1} ms over {correct_answers} jobs); peak rss {:.1} MiB",
        median(&rates(&quiet)),
        quiet.len(),
        all.len(),
        median(&rates(&all)),
        correct_answers as f64 / measured.window.wall.as_secs_f64(),
        median(&cpus(&quiet)),
        median(&cpus(&all)),
        cpu_s * 1e3,
        procfs::peak_rss_mb()
    );
    let per_slice: Vec<String> = rates(&all).iter().map(|r| format!("{r:.1}")).collect();
    eprintln!("jobs/s per slice: {}", per_slice.join(" "));
    let deciles: Vec<String> = (1..10)
        .map(|d| {
            format!(
                "{:.2}",
                percentile(&measured.latencies_ms, d as f64 / 10.0).0
            )
        })
        .collect();
    eprintln!("latency deciles, whole window (ms): {}", deciles.join(" "));
    let window = &measured.window;
    report_classes(plan, &window.samples);
    for failure in failures(&window.samples).take(5) {
        eprintln!("WRONG ANSWER: {failure}");
    }
    let (self_check_failures, jobs_per_generation) =
        self_checks(plan, &window.samples, &before, &after);
    Ok(Measured {
        self_check_failures,
        jobs_per_generation,
        ..measured
    })
}

/// The oracle's verdict on the answer to `jobs[index]`.
fn judge(
    plan: &Plan,
    jobs: &[crate::plan::Job],
    index: usize,
    answer: Result<String, String>,
) -> Verdict {
    let planned = &jobs[index];
    let job = request_from_json(&planned.line).expect("generated lines parse");
    let checked = answer
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|doc| oracle::check(&job, planned.expect, doc));
    Verdict {
        failure: checked.err().map(|e| {
            format!(
                "{} job {} ({}, {}): {e}",
                plan.workload.name(),
                job.id,
                planned.class,
                planned.line
            )
        }),
        route: answer.ok().and_then(|doc| route_of(&job, &doc)),
    }
}

fn failures(samples: &[Sample]) -> impl Iterator<Item = &String> {
    samples.iter().filter_map(|s| s.verdict.failure.as_ref())
}

/// Route and node count of a solution document (`None` for rejects and
/// certificate-cache answers, which ran no kernel).
fn route_of(job: &cyclecover_io::json::SolveJob, doc: &str) -> Option<(Route, u64)> {
    let parsed = Json::parse(doc).ok()?;
    if parsed.get("cached").and_then(Json::as_bool) != Some(false) {
        return None;
    }
    let engine = parsed.get("engine").and_then(Json::as_str)?;
    let stats = parsed.get("stats")?;
    let num = |key: &str| stats.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64;
    Some((
        Route::of(job, engine, num("partition_probes")),
        num("nodes"),
    ))
}

/// Per-class latency medians, so a mix shift is visible.
fn report_classes(plan: &Plan, samples: &[Sample]) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_class
            .entry(plan.jobs[s.index].class)
            .or_default()
            .push(s.latency.as_secs_f64() * 1e3);
    }
    let parts: Vec<String> = by_class
        .iter()
        .map(|(class, l)| format!("{class} {:.2} ms (n = {})", median(l), l.len()))
        .collect();
    eprintln!("class p50: {}", parts.join(", "));
}

/// The workload's self-checks; returns the failures and the daemon's
/// jobs per generation over the window.
fn self_checks(
    plan: &Plan,
    samples: &[Sample],
    before: &DaemonStats,
    after: &DaemonStats,
) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let mut check = |what: String, ok: bool| {
        eprintln!("self-check {}: {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(what);
        }
    };
    let mut route_nodes = [0u64; 3];
    for (route, nodes) in samples.iter().filter_map(|s| s.verdict.route) {
        if let Some(r) = route.exact_index() {
            route_nodes[r] += nodes;
        }
    }
    let delta = |f: fn(&DaemonStats) -> u64| f(after) - f(before);
    let jobs_per_generation = ratio(delta(|s| s.jobs_answered), delta(|s| s.generations));
    match plan.workload {
        Workload::ServeSmall => {
            for (route, nodes) in EXACT_ROUTES.iter().zip(route_nodes) {
                check(
                    format!("{route} route expanded {nodes} nodes (want > 0)"),
                    nodes > 0,
                );
            }
            let hits = delta(|s| s.cert_cache_hits);
            let records = delta(|s| s.cert_cache_entries);
            let (warm_hits, warm) = (
                delta(|s| s.warm_universe_hits),
                delta(|s| s.warm_universe_lookups),
            );
            let jobs = samples.len() as u64;
            check(
                format!("{hits} cert-cache hits of {jobs} jobs (want > 0)"),
                hits > 0,
            );
            check(
                format!("{records} certificates recorded over {jobs} jobs (want > 0)"),
                records > 0,
            );
            check(
                format!(
                    "universe hit ratio {:.3} ({warm_hits} of {warm} warm lookups; want >= 0.9)",
                    ratio(warm_hits, warm)
                ),
                warm > 0 && ratio(warm_hits, warm) >= 0.9,
            );
        }
        Workload::UniverseChurn => {
            let (warm_hits, warm) = (
                delta(|s| s.warm_universe_hits),
                delta(|s| s.warm_universe_lookups),
            );
            // One client, one job per generation: a job whose universe key
            // was sent before and is no longer resident was evicted.
            let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
            seen.insert(
                request_from_json(&plan.setup_probe.line)
                    .expect("probe parses")
                    .universe_key(),
            );
            let mut ordered: Vec<&Sample> = samples.iter().collect();
            ordered.sort_by_key(|s| s.index);
            let revisits = ordered
                .iter()
                .filter(|s| {
                    let key = request_from_json(&plan.jobs[s.index].line)
                        .expect("parses")
                        .universe_key();
                    !seen.insert(key)
                })
                .count() as u64;
            let misses = warm - warm_hits;
            check(
                format!("{misses} universe misses of {warm} lookups (want a majority)"),
                warm > 0 && 2 * misses > warm,
            );
            let evicted = revisits.saturating_sub(warm_hits);
            check(
                format!("{evicted} of {revisits} revisited universes had been evicted (want > 0)"),
                evicted > 0,
            );
        }
    }
    (failures, jobs_per_generation)
}

/// The layer a span belongs to, for self time per layer.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "io.parse" | "io.serialize" => "io",
        "service.admission" => "service.admission",
        "daemon.framing" => "service.daemon",
        "service.cache" | "service.cache.release" => "service.cache",
        "service.certs.lookup" | "service.certs.record" | "service.certs.persist" => {
            "service.certs"
        }
        "solver.tiles.build" | "solver.tiles.dihedral" | "solver.tiles.drop" => "solver.tiles",
        "solver.kernel" => "solver.kernel",
        "core.validate" => "core",
        _ => return None,
    })
}

/// Tracing on: a half-length untraced loop for client latency, then the
/// replay untraced and traced (the difference is the tracing overhead).
fn traced_run(plan: &Plan, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let measured = measure(
        plan,
        args.seed,
        (args.seconds as f64 / 2.0).max(1.0),
        1,
        scratch,
    )?;
    let latency_mean_ms =
        measured.latencies_ms.iter().sum::<f64>() / measured.latencies_ms.len().max(1) as f64;
    let certs = match plan.workload {
        Workload::ServeSmall => Some(CertFile::prepare(plan, scratch)?.pristine),
        _ => None,
    };
    let plain = replay(plan, false, certs.as_deref(), scratch)?;
    let traced = replay(plan, true, certs.as_deref(), scratch)?;
    if plain.counts.path_counts() != traced.counts.path_counts() {
        return Err(format!(
            "untraced and traced replays disagree on counts: {:?} vs {:?}",
            plain.counts.path_counts(),
            traced.counts.path_counts()
        ));
    }
    let out = bench_dir().join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("trace dir: {e}"))?;
    let span_file = out.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    traced
        .tracer
        .write_jsonl(&span_file)
        .map_err(|e| format!("write spans: {e}"))?;

    let metrics = per_layer(
        plan,
        &traced,
        &plain,
        latency_mean_ms,
        measured.jobs_per_generation,
    );
    eprintln!(
        "spans: {} written to {}",
        traced.tracer.spans().len(),
        span_file.display()
    );
    let base = measured.end_to_end();
    Ok(Outcome {
        correct: base.correct,
        attempted: base.attempted,
        failed: base.failed,
        metrics,
    })
}

/// The per-layer metrics of a traced replay.
fn per_layer(
    plan: &Plan,
    traced: &Replay,
    plain: &Replay,
    latency_mean_ms: f64,
    jobs_per_generation: f64,
) -> Vec<Metric> {
    let c = &traced.counts;
    let jobs = c.jobs.max(1) as f64;
    let first = traced.first_job;
    // Per span name over the replayed jobs: (calls, total ns, self ns).
    // Universe builds count over the warm-up too: it is where the warm
    // workloads build theirs.
    let spans = traced.tracer.spans();
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    for (s, child) in spans.iter().zip(&child_ns) {
        if s.job >= first || s.name.starts_with("solver.tiles") {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(*child);
        }
    }
    let mean_ns = |name: &str| by_name.get(name).map_or(0.0, |e| ratio(e.1, e.0));
    let total_ns = |name: &str| by_name.get(name).map_or(0, |e| e.1);
    let on_path: HashSet<&str> = spans.iter().filter(|s| s.on_path).map(|s| s.name).collect();
    // The in-process stage sum per job: every on-path stage, with the
    // certificate persist charged once per daemon generation.
    let stage_sum_ms = by_name
        .iter()
        .filter(|(name, _)| **name != "job" && on_path.contains(**name))
        .map(|(name, e)| {
            let share = if *name == "service.certs.persist" {
                1.0 / jobs_per_generation.max(1.0)
            } else {
                1.0
            };
            e.1 as f64 * share
        })
        .sum::<f64>()
        / jobs
        / 1e6;
    let overhead_ms = latency_mean_ms - stage_sum_ms;
    let exact_nodes: u64 = c.nodes.iter().sum();
    let kernel_busy_ms = total_ns("solver.kernel") as f64 / jobs / 1e6;
    let tracing_overhead_ms = (traced.on_path_ns as f64 - plain.on_path_ns as f64) / jobs / 1e6;

    let mut layer_self: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans.iter().zip(&child_ns).filter(|(s, _)| s.job >= first) {
        if let Some(layer) = layer_of(s.0.name) {
            *layer_self.entry(layer).or_default() += s.0.dur_ns().saturating_sub(*s.1);
        }
    }
    let self_ms = |layer: &str| layer_self.get(layer).copied().unwrap_or(0) as f64 / jobs / 1e6;

    let m = metric;
    let metrics = vec![
        m("io.parse_us", "us", mean_ns("io.parse") / 1e3),
        m("io.serialize_us", "us", mean_ns("io.serialize") / 1e3),
        m(
            "io.response_bytes",
            "bytes",
            traced.response_bytes as f64 / jobs,
        ),
        m(
            "admission.admit_us",
            "us",
            mean_ns("service.admission") / 1e3,
        ),
        m(
            "admission.rejected_frac",
            "ratio",
            ratio(c.rejected, c.jobs + c.rejected),
        ),
        m("daemon.overhead_ms", "ms", overhead_ms),
        m(
            "daemon.overhead_frac",
            "ratio",
            overhead_ms / latency_mean_ms,
        ),
        m("daemon.framing_us", "us", mean_ns("daemon.framing") / 1e3),
        m("daemon.jobs_per_generation", "jobs", jobs_per_generation),
        m(
            "cache.hit_ratio",
            "ratio",
            ratio(c.cache_hits, c.cache_lookups),
        ),
        m(
            "cache.evictions_per_job",
            "ratio",
            c.cache_evictions as f64 / jobs,
        ),
        m("cache.lookup_ms", "ms", mean_ns("service.cache") / 1e6),
        m(
            "certs.hit_ratio",
            "ratio",
            ratio(c.cert_hits, c.cert_lookups),
        ),
        m(
            "certs.lookup_us",
            "us",
            mean_ns("service.certs.lookup") / 1e3,
        ),
        m(
            "certs.record_us",
            "us",
            mean_ns("service.certs.record") / 1e3,
        ),
        m(
            "certs.persist_ms",
            "ms",
            mean_ns("service.certs.persist") / 1e6,
        ),
        m("tiles.build_ms", "ms", mean_ns("solver.tiles.build") / 1e6),
        m("tiles.tiles_per_build", "count", ratio(c.tiles, c.builds)),
        m("tiles.bytes_per_build", "bytes", ratio(c.bytes, c.builds)),
        m(
            "tiles.dihedral_ms",
            "ms",
            mean_ns("solver.tiles.dihedral") / 1e6,
        ),
        m("kernel.unit.nodes", "count", c.nodes[0] as f64),
        m(
            "kernel.unit.ns_per_node",
            "ns",
            ratio(traced.route_ns[0], c.nodes[0]),
        ),
        m("kernel.lane.nodes", "count", c.nodes[1] as f64),
        m(
            "kernel.lane.ns_per_node",
            "ns",
            ratio(traced.route_ns[1], c.nodes[1]),
        ),
        m("kernel.partition.nodes", "count", c.nodes[2] as f64),
        m(
            "kernel.partition.ns_per_node",
            "ns",
            ratio(traced.route_ns[2], c.nodes[2]),
        ),
        m(
            "kernel.heuristic_ms",
            "ms",
            ratio(traced.heuristic_ns, c.heuristic_solves) / 1e6,
        ),
        m("kernel.busy_ms", "ms", kernel_busy_ms),
        m("kernel.prune_ratio", "ratio", ratio(c.pruned, exact_nodes)),
        m(
            "kernel.dominated_per_node",
            "ratio",
            ratio(c.dominated, exact_nodes),
        ),
        m("memo.hit_ratio", "ratio", ratio(c.memo_hits, exact_nodes)),
        m("memo.entries", "count", c.memo_entries as f64),
        m("core.validate_us", "us", mean_ns("core.validate") / 1e3),
        m("layer.io.self_ms", "ms", self_ms("io")),
        m(
            "layer.admission.self_ms",
            "ms",
            self_ms("service.admission"),
        ),
        m("layer.daemon.self_ms", "ms", self_ms("service.daemon")),
        m("layer.cache.self_ms", "ms", self_ms("service.cache")),
        m("layer.certs.self_ms", "ms", self_ms("service.certs")),
        m("layer.tiles.self_ms", "ms", self_ms("solver.tiles")),
        m("layer.kernel.self_ms", "ms", self_ms("solver.kernel")),
        m("layer.core.self_ms", "ms", self_ms("core")),
        m("trace.overhead_ms", "ms", tracing_overhead_ms),
        m(
            "trace.overhead_frac",
            "ratio",
            tracing_overhead_ms * 1e6 / (plain.on_path_ns as f64 / jobs),
        ),
    ];

    eprintln!(
        "replay: {} jobs (+{} warm-up); bases: {} cache lookups ({} hits, {} evictions), \
         {} cert lookups ({} hits, {} records), {} universes built ({} with dihedral tables), \
         exact solves unit/lane/partition {:?} with nodes {:?}, {} heuristic solves",
        c.jobs,
        first,
        c.cache_lookups,
        c.cache_hits,
        c.cache_evictions,
        c.cert_lookups,
        c.cert_hits,
        c.cert_records,
        c.builds,
        c.dihedral_builds,
        c.solves,
        c.nodes,
        c.heuristic_solves,
    );
    eprintln!(
        "stage sum {stage_sum_ms:.3} ms/job vs untraced client latency {latency_mean_ms:.3} ms/job (mean): \
         overhead {overhead_ms:.3} ms ({:.1}%); tracing overhead {tracing_overhead_ms:.4} ms/job",
        100.0 * overhead_ms / latency_mean_ms
    );
    for (name, (calls, total, own)) in &by_name {
        eprintln!(
            "  span {name:24} {calls:6} calls  {:10.3} ms total  {:10.3} ms self  {}",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            if on_path.contains(name) {
                "on-path"
            } else {
                "off-path"
            }
        );
    }
    premise(plan, &metrics, &by_name, &on_path);
    metrics
}

/// Prints whether the workload's predicted dominant layer dominates.
fn premise(
    plan: &Plan,
    metrics: &[Metric],
    by_name: &BTreeMap<&'static str, (u64, u64, u64)>,
    on_path: &HashSet<&str>,
) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (claim, holds) = match plan.workload {
        Workload::ServeSmall => (
            format!(
                "daemon.overhead_ms is {:.1}% of mean latency (want > 50%)",
                100.0 * get("daemon.overhead_frac")
            ),
            get("daemon.overhead_frac") > 0.5,
        ),
        Workload::UniverseChurn => {
            // The build inside `get_or_build` on a miss is re-timed by the
            // standalone build; the cache's own share is the rest.
            let build = by_name.get("solver.tiles.build").map_or(0, |e| e.1);
            let cache_own = by_name
                .get("service.cache")
                .map_or(0, |e| e.1)
                .saturating_sub(build);
            let mut stages: Vec<(&str, u64)> = by_name
                .iter()
                .filter(|(n, _)| on_path.contains(**n) && !matches!(**n, "job" | "service.cache"))
                .map(|(n, e)| (*n, e.1))
                .collect();
            stages.push(("solver.tiles.build", build));
            stages.push(("service.cache (without builds)", cache_own));
            stages.sort_by_key(|s| std::cmp::Reverse(s.1));
            let ranking: Vec<String> = stages
                .iter()
                .take(3)
                .map(|(n, t)| format!("{n} {:.1} ms", *t as f64 / 1e6))
                .collect();
            (
                format!(
                    "largest on-path stage: {} (want solver.tiles.build)",
                    ranking.join(" > ")
                ),
                stages[0].0 == "solver.tiles.build",
            )
        }
    };
    eprintln!(
        "premise {}: {claim}",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
}
