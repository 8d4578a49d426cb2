//! The traced run: the plan's job stream replayed stage by stage
//! through each layer's public functions, in-process and on one thread,
//! with a span around every call.
//!
//! The stages follow the daemon's path for one job: line framing
//! (`LineFramer::push`), admission (`Ingest::admit`, which parses the
//! line), the certificate-cache lookup, the universe-cache lookup
//! (`UniverseCache::get_or_build`, which builds on a miss), the engine
//! run, the certificate record, serialization and the per-generation
//! cache persist. Stages the workload's own daemon does not pay (the
//! certificate cache where none is installed) and re-timings that isolate a cost another stage already
//! includes (`request_from_json` inside admission, a standalone
//! `TileUniverse` build and `dihedral()` per miss, `DrcCovering`
//! validation inside the record) are recorded as off-path spans: they
//! are reported per layer but left out of the stage sum.
//!
//! The replay walks the plan's warm-up and then a fixed prefix of the
//! timed stream, so every count it reports repeats exactly for a seed.

use crate::plan::{Plan, Workload};
use crate::trace::Tracer;
use cyclecover_core::DrcCovering;
use cyclecover_io::json::{
    request_from_json, request_to_json, solution_to_json_with_id, to_single_line, SolveJob,
};
use cyclecover_ring::Ring;
use cyclecover_service::{
    CertCache, CostModel, DaemonConfig, FramedLine, Ingest, IngestAction, LineFramer, UniverseCache,
};
use cyclecover_solver::api::{engine_by_name, Problem, SymmetryMode};
use cyclecover_solver::TileUniverse;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Which kernel route answered a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Unit demands: the iterative bitset core.
    Unit,
    /// λ-fold demands with waste slack ≥ n: the lane core.
    Lane,
    /// At least one budget probe on the slack-budgeted partition kernel.
    Partition,
    /// A heuristic engine (no search nodes).
    Heuristic,
}

impl Route {
    /// The route of an answer from engine `engine` to `job`, given the
    /// answer's `partition_probes` stat.
    pub(crate) fn of(job: &SolveJob, engine: &str, partition_probes: u64) -> Route {
        if matches!(engine, "greedy" | "greedy-improve" | "anneal") {
            Route::Heuristic
        } else if partition_probes > 0 {
            Route::Partition
        } else if job.lambda == 1 {
            Route::Unit
        } else {
            Route::Lane
        }
    }

    /// Index into per-route arrays (exact routes only).
    pub(crate) fn exact_index(self) -> Option<usize> {
        match self {
            Route::Unit => Some(0),
            Route::Lane => Some(1),
            Route::Partition => Some(2),
            Route::Heuristic => None,
        }
    }
}

/// The exact routes, in [`Route::exact_index`] order.
pub(crate) const EXACT_ROUTES: [&str; 3] = ["unit", "lane", "partition"];

/// Counts of the replayed prefix (warm-up excluded, except the tiles
/// counts, which cover every universe the replay built). Every field
/// repeats exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Jobs replayed.
    pub jobs: u64,
    /// Jobs admission refused.
    pub rejected: u64,
    /// Certificate-cache lookups.
    pub cert_lookups: u64,
    /// Lookups answered from the certificate cache.
    pub cert_hits: u64,
    /// Certificates the cache recorded.
    pub cert_records: u64,
    /// Universe-cache lookups.
    pub cache_lookups: u64,
    /// Lookups answered by a resident universe.
    pub cache_hits: u64,
    /// Universes the cache evicted.
    pub cache_evictions: u64,
    /// Universes built (standalone re-builds, one per cache miss).
    pub builds: u64,
    /// Tiles over those builds.
    pub tiles: u64,
    /// `approx_bytes` over those builds.
    pub bytes: u64,
    /// Dihedral tables built (first `dihedral()` per universe key an
    /// exact, symmetry-reducing job uses).
    pub dihedral_builds: u64,
    /// Engine runs per exact route.
    pub solves: [u64; 3],
    /// Search nodes per exact route.
    pub nodes: [u64; 3],
    /// Heuristic engine runs.
    pub heuristic_solves: u64,
    /// Bound prunes over the exact runs.
    pub pruned: u64,
    /// Dominance cuts over the exact runs.
    pub dominated: u64,
    /// Memo hits over the exact runs.
    pub memo_hits: u64,
    /// Memo entries over the exact runs.
    pub memo_entries: u64,
}

impl Counts {
    /// The counts of the stages every replay runs (the traced replay
    /// adds standalone builds and, where the workload installs no
    /// certificate cache, off-path certificate stages).
    pub fn path_counts(&self) -> [u64; 13] {
        [
            self.jobs,
            self.rejected,
            self.cache_lookups,
            self.cache_hits,
            self.cache_evictions,
            self.solves.iter().sum(),
            self.nodes[0],
            self.nodes[1],
            self.nodes[2],
            self.heuristic_solves,
            self.pruned,
            self.dominated,
            self.memo_hits,
        ]
    }
}

/// What one replay produced.
pub struct Replay {
    /// Exact counts.
    pub counts: Counts,
    /// The spans (empty when the replay ran untraced).
    pub tracer: Tracer,
    /// Index of the first replayed job after the warm-up.
    pub first_job: usize,
    /// Per exact route: kernel ns.
    pub route_ns: [u64; 3],
    /// Kernel ns in heuristic engines.
    pub heuristic_ns: u64,
    /// Bytes of serialized answers (not a repeatable count: answers
    /// carry their wall times).
    pub response_bytes: u64,
    /// Summed on-path wall time of the replayed jobs (each job's time
    /// minus its off-path spans), in ns.
    pub on_path_ns: u64,
}

/// The certificate-cache key of a job: its request with `id` and
/// `deadline_ms` blanked (the service's coalescing key).
fn cert_key(job: &SolveJob) -> String {
    let mut key = job.clone();
    key.id = String::new();
    key.deadline_ms = None;
    request_to_json(&key)
}

/// Whether the job's engine builds the universe's dihedral tables.
fn uses_dihedral(job: &SolveJob) -> bool {
    !matches!(job.engine.as_str(), "greedy" | "greedy-improve" | "anneal")
        && job.symmetry != Some(SymmetryMode::Off)
}

/// Replays the plan's warm-up and its first `plan.replay_len` timed
/// jobs. `certs` is the pristine certificate-cache document for
/// `serve_small`; `scratch` is where the per-generation persist writes.
pub fn replay(
    plan: &Plan,
    traced: bool,
    certs: Option<&str>,
    scratch: &Path,
) -> Result<Replay, String> {
    let certs_path = plan.workload == Workload::ServeSmall;
    let config = DaemonConfig::default();
    let mut framer = LineFramer::new(config.max_line_bytes);
    let ingest = Ingest::new(Some(CostModel::builtin().clone()), config.queue_depth);
    let mut cache = UniverseCache::new(config.cache_bytes);
    let mut lookup_certs = match certs {
        Some(text) => CertCache::from_json(text)?,
        None => CertCache::new(),
    };
    // Where the workload has no certificate cache, records go to a cache
    // nothing reads, so repeats are never answered from it.
    let mut record_certs = CertCache::new();
    let persist_path = scratch.join("replay-certs.json");
    let mut dihedral_keys = HashSet::new();
    let mut tr = Tracer::new(traced);
    let mut counts = Counts::default();
    let mut route_ns = [0u64; 3];
    let mut heuristic_ns = 0u64;
    let mut response_bytes = 0u64;
    let mut on_path_ns = 0u64;

    let first_job = plan.warmup.len();
    let stream = plan
        .warmup
        .iter()
        .chain(&plan.jobs[..plan.replay_len.min(plan.jobs.len())]);
    let mut cache_base = cache.stats();
    let mut cert_base = (lookup_certs.hits(), lookup_certs.len(), record_certs.len());
    for (j, planned) in stream.enumerate() {
        let counted = j >= first_job;
        if j == first_job {
            cache_base = cache.stats();
            cert_base = (lookup_certs.hits(), lookup_certs.len(), record_certs.len());
        }
        let spans_before = tr.spans().len();
        let t0 = Instant::now();
        let root = tr.enter("job", j, true);

        // The untraced replay runs only the stages on the workload's
        // path; the traced one runs every stage.
        let mut wire = planned.line.clone().into_bytes();
        wire.push(b'\n');
        let framed = tr.time("daemon.framing", j, true, || framer.push(&wire));
        if framed != [FramedLine::Line(planned.line.clone())] {
            return Err(format!("job {j}: framing split the request line"));
        }
        let admitted = tr.time("service.admission", j, true, || {
            ingest.admit(&planned.line, 0)
        });
        let parsed = traced
            .then(|| tr.time("io.parse", j, false, || request_from_json(&planned.line)))
            .transpose()?;
        let job = match admitted {
            IngestAction::Submit(job, _) => *job,
            _ => {
                tr.exit(root);
                counts.rejected += u64::from(counted);
                continue;
            }
        };
        if parsed.as_ref().is_some_and(|p| *p != job) {
            return Err(format!("job {j}: admission and request_from_json disagree"));
        }

        let certs_stage = certs_path || traced;
        let key = cert_key(&job);
        counts.cert_lookups += u64::from(counted && certs_stage);
        let cached = if certs_stage {
            tr.time("service.certs.lookup", j, certs_path, || {
                lookup_certs.lookup(&key)
            })
        } else {
            None
        };
        let solution = match cached {
            Some(sol) => sol,
            None => {
                let universe_key = job.universe_key();
                let (universe, hit) = tr.time("service.cache", j, true, || {
                    cache.get_or_build(universe_key)
                });
                if !hit && traced {
                    let (n, max_len, max_gap) = universe_key;
                    let built = tr.time("solver.tiles.build", j, false, || {
                        TileUniverse::with_max_gap(Ring::new(n), max_len as usize, max_gap)
                    });
                    counts.builds += 1;
                    counts.tiles += built.len() as u64;
                    counts.bytes += built.approx_bytes() as u64;
                    if uses_dihedral(&job) && dihedral_keys.insert(universe_key) {
                        tr.time("solver.tiles.dihedral", j, false, || {
                            built.dihedral().is_some()
                        });
                        counts.dihedral_builds += 1;
                    }
                    tr.time("solver.tiles.drop", j, false, || drop(built));
                }
                let engine = engine_by_name(&job.engine)
                    .ok_or_else(|| format!("job {j}: unknown engine {}", job.engine))?;
                let problem = Problem::shared(universe, job.spec());
                let request = job.to_solve_request();
                let open = tr.enter("solver.kernel", j, true);
                let sol = engine.solve(&problem, &request);
                let ns = tr.exit(open);
                if counted {
                    let stats = sol.stats();
                    match Route::of(&job, stats.engine, stats.partition_probes).exact_index() {
                        Some(r) => {
                            counts.solves[r] += 1;
                            counts.nodes[r] += stats.nodes;
                            route_ns[r] += ns;
                            counts.pruned += stats.pruned;
                            counts.dominated += stats.dominated;
                            counts.memo_hits += stats.memo_hits;
                            counts.memo_entries += stats.memo_entries;
                        }
                        None => {
                            counts.heuristic_solves += 1;
                            heuristic_ns += ns;
                        }
                    }
                }
                if let (Some(tiles), true) = (sol.covering(), traced) {
                    let cover = DrcCovering::from_tiles(sol.ring(), tiles.to_vec());
                    tr.time("core.validate", j, false, || {
                        crate::oracle::check_covering(&job, &cover)
                    })
                    .map_err(|e| format!("job {j}: {e}"))?;
                }
                if certs_stage {
                    let into = if certs_path {
                        &mut lookup_certs
                    } else {
                        &mut record_certs
                    };
                    tr.time("service.certs.record", j, certs_path, || {
                        into.record(&job, &key, &sol)
                    });
                }
                // Freeing a universe the cache no longer holds (an evicted
                // or over-budget one) is paid here, as in the service.
                tr.time("service.cache.release", j, true, || drop(problem));
                sol
            }
        };
        let doc = tr.time("io.serialize", j, true, || {
            to_single_line(&solution_to_json_with_id(&solution, &job.id, None))
        });
        if certs_stage {
            let held = if certs_path {
                &lookup_certs
            } else {
                &record_certs
            };
            tr.time("service.certs.persist", j, certs_path, || {
                std::fs::write(&persist_path, held.to_json())
            })
            .map_err(|e| format!("persist: {e}"))?;
        }
        let job_ns = t0.elapsed().as_nanos() as u64;
        tr.exit(root);

        crate::oracle::check(&job, planned.expect, &doc).map_err(|e| format!("job {j}: {e}"))?;
        if counted {
            counts.jobs += 1;
            response_bytes += doc.len() as u64;
            let off_path: u64 = tr.spans()[spans_before..]
                .iter()
                .filter(|s| !s.on_path && s.parent.is_some_and(|p| tr.spans()[p].on_path))
                .map(|s| s.dur_ns())
                .sum();
            on_path_ns += job_ns.saturating_sub(off_path);
        }
    }
    let cache_end = cache.stats();
    counts.cache_hits = cache_end.hits - cache_base.hits;
    counts.cache_lookups = counts.cache_hits + cache_end.misses - cache_base.misses;
    counts.cache_evictions = cache_end.evictions - cache_base.evictions;
    counts.cert_hits = lookup_certs.hits() - cert_base.0;
    counts.cert_records =
        (lookup_certs.len() - cert_base.1 + record_certs.len() - cert_base.2) as u64;
    Ok(Replay {
        counts,
        tracer: tr,
        first_job,
        route_ns,
        heuristic_ns,
        response_bytes,
        on_path_ns,
    })
}
