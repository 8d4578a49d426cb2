//! The persistent certificate cache: ring three of the shared
//! refutation-store design.
//!
//! Rings one and two (cross-budget and cross-worker sharing) reuse
//! *partial* work — refutations of residual states — inside one
//! process. This module closes the loop on *complete* work: a terminal
//! `optimal`/`infeasible` answer is persisted keyed by the request's
//! coalescing key, and a wire-identical request in any later batch (or
//! any later process, via `serve --cert-cache FILE`) is answered with
//! **zero kernel nodes**, marked `cached: true` on the wire.
//!
//! # Trust model
//!
//! A cache file is *input*, not *state*: it may be stale, truncated,
//! hand-edited, or adversarial. Every entry is therefore re-validated
//! on load — the key must re-parse as a canonical complete-spec
//! request, the verdict must be one of the two cacheable kinds, and an
//! `optimal` covering must re-pass the DRC and full-coverage checks
//! ([`json::certificate_from_solution_json`] plus
//! [`DrcCovering::validate`]) and agree in size with its lower-bound
//! proof. Entries that fail any check are dropped individually and
//! counted ([`CertCache::rejected_on_load`]); a malformed file never
//! poisons the answers the service gives. What re-validation *cannot*
//! re-establish is the exhaustive-search side of a certificate (that no
//! smaller covering exists / that the budget is truly infeasible) —
//! that is exactly the trust being persisted, which is why the cache
//! file deserves the same protection as the binary that wrote it (see
//! `docs/robustness.md`).
//!
//! Caching is restricted to unit complete-`K_n` requests: a v1 solution
//! document does not carry the demand spec, so neither a
//! partial-instance nor a λ-fold covering can be coverage-checked from
//! the file alone.

use cyclecover_io::json::{self, Json, SolveJob};
use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::api::{engine_by_name, Optimality, Solution};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One re-validated cache entry, ready to serve.
struct CertEntry {
    /// The single-line solution document, exactly as persisted (and as
    /// re-emitted by [`CertCache::to_json`]).
    doc: String,
    /// Ring size the certificate answers.
    n: u32,
    /// Registry name of the engine that originally produced it.
    engine: &'static str,
    /// The verdict (`Optimal { .. }` or `Infeasible`).
    optimality: Optimality,
    /// The re-validated covering, exactly when the verdict carries one.
    covering: Option<Vec<Tile>>,
}

/// The persisted answer store: coalescing key → re-validated terminal
/// certificate. Serialized as the `cyclecover-certificate-cache` wire
/// document (version 1; normative field list in [`cyclecover_io::json`]).
#[derive(Default)]
pub struct CertCache {
    entries: HashMap<String, CertEntry>,
    hits: u64,
    rejected_on_load: u64,
}

impl CertCache {
    /// An empty cache.
    pub fn new() -> Self {
        CertCache::default()
    }

    /// Parses a `cyclecover-certificate-cache` document, re-validating
    /// every entry. A malformed *document* (wrong format, bad version,
    /// unparsable JSON) is an error; a malformed *entry* is dropped and
    /// counted in [`CertCache::rejected_on_load`] — per-entry rejection
    /// keeps one corrupt line from discarding the rest of the cache.
    pub fn from_json(text: &str) -> Result<CertCache, String> {
        let doc = Json::parse(text)?;
        match doc.get("format").and_then(Json::as_str) {
            Some("cyclecover-certificate-cache") => {}
            other => {
                return Err(format!(
                    "not a cyclecover-certificate-cache document: {other:?}"
                ))
            }
        }
        match doc.get("version").and_then(Json::as_num) {
            Some(1.0) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported certificate-cache version {v} (this parser speaks 1)"
                ))
            }
            None => return Err("missing 'version'".into()),
        }
        let raw = match doc.get("entries") {
            Some(Json::Arr(entries)) => entries,
            _ => return Err("missing 'entries' array".into()),
        };
        let mut cache = CertCache::new();
        for e in raw {
            let (Some(key), Some(sol)) = (
                e.get("key").and_then(Json::as_str),
                e.get("solution").and_then(Json::as_str),
            ) else {
                cache.rejected_on_load += 1;
                continue;
            };
            match validate_entry(key, sol) {
                Ok(entry) => {
                    cache.entries.insert(key.to_string(), entry);
                }
                Err(_) => cache.rejected_on_load += 1,
            }
        }
        Ok(cache)
    }

    /// Serializes the cache as a `cyclecover-certificate-cache`
    /// document (single-line entries, deterministic key order).
    pub fn to_json(&self) -> String {
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort();
        let mut s = String::new();
        s.push_str("{\"format\": \"cyclecover-certificate-cache\", \"version\": 1, \"entries\": [");
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let entry = &self.entries[*key];
            let _ = write!(
                s,
                "{{\"key\": {}, \"solution\": {}}}",
                json::quote(key),
                json::quote(&entry.doc)
            );
        }
        s.push_str("]}\n");
        s
    }

    /// Serves the certificate for a coalescing key, when one is held:
    /// a [`Solution`] marked [`Solution::cached`] with all-zero search
    /// statistics, carrying the original verdict, covering, and engine
    /// provenance. Counts a hit.
    pub fn lookup(&mut self, key: &str) -> Option<Solution> {
        let entry = self.entries.get(key)?;
        self.hits += 1;
        Some(Solution::from_certificate(
            Ring::new(entry.n),
            entry.covering.clone(),
            entry.optimality,
            entry.engine,
        ))
    }

    /// Records a freshly-computed answer, when it qualifies: terminal
    /// verdict (`Optimal`/`Infeasible`), direct (not degraded, not
    /// itself served from a cache), and a complete-`K_n` job (the only
    /// spec a persisted document can be re-validated against). The
    /// recorded document round-trips through the same validation as a
    /// loaded one, so the cache never holds an entry it would reject.
    pub fn record(&mut self, job: &SolveJob, key: &str, solution: &Solution) {
        if solution.cached()
            || solution.degraded().is_some()
            || job.requests.is_some()
            || job.lambda > 1
            || !matches!(
                solution.optimality(),
                Optimality::Optimal { .. } | Optimality::Infeasible
            )
            || self.entries.contains_key(key)
        {
            return;
        }
        let doc = json::to_single_line(&json::solution_to_json(solution));
        // Self-check through the load path: an entry this cache cannot
        // re-validate must never be written out.
        if let Ok(entry) = validate_entry(key, &doc) {
            self.entries.insert(key.to_string(), entry);
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries dropped by re-validation during [`CertCache::from_json`].
    pub fn rejected_on_load(&self) -> u64 {
        self.rejected_on_load
    }
}

/// The full per-entry trust boundary (see the module docs).
fn validate_entry(key: &str, solution_doc: &str) -> Result<CertEntry, String> {
    let job = json::request_from_json(key)?;
    if job.requests.is_some() {
        return Err("partial-instance requests are not cacheable".into());
    }
    if job.lambda > 1 {
        // A v1 solution document cannot be re-validated against a
        // λ-fold multiplicity spec (the coverage check below asserts
        // the unit complete-K_n spec), so λ-fold answers stay uncached.
        return Err("lambda-fold requests are not cacheable".into());
    }
    if !job.id.is_empty() || job.deadline_ms.is_some() {
        return Err("key is not canonical: 'id'/'deadline_ms' must be blanked".into());
    }
    let parsed = json::certificate_from_solution_json(solution_doc)?;
    if parsed.n != job.n {
        return Err(format!(
            "certificate answers n = {} but the key asks n = {}",
            parsed.n, job.n
        ));
    }
    let engine = engine_by_name(&parsed.engine)
        .ok_or_else(|| format!("unknown engine '{}'", parsed.engine))?
        .name();
    use cyclecover_solver::api::Objective;
    let covering = match (&parsed.optimality, parsed.covering) {
        (Optimality::Optimal { .. }, Some(covering)) => {
            if job.objective != Objective::FindOptimal {
                return Err("an optimal certificate answers only find_optimal".into());
            }
            // Full coverage against the complete-K_n spec (the DRC
            // checks already ran inside the parser), plus the universe
            // constraint the key's tile enumeration imposes.
            covering.validate().map_err(|e| format!("{e:?}"))?;
            if covering
                .tiles()
                .iter()
                .any(|t| t.vertices().len() > job.max_len as usize)
            {
                return Err("covering uses a cycle longer than the key's max_len".into());
            }
            Some(covering.tiles().to_vec())
        }
        (Optimality::Infeasible, None) => {
            if job.objective == Objective::FindOptimal {
                // Only an uncoverable universe answers find_optimal
                // infeasible, and nothing here re-checks that claim.
                return Err("an infeasible find_optimal answer is not cacheable".into());
            }
            None
        }
        _ => return Err("verdict/covering mismatch".into()),
    };
    Ok(CertEntry {
        doc: solution_doc.to_string(),
        n: job.n,
        engine,
        optimality: parsed.optimality,
        covering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_solver::api::{engine_by_name as engine, Problem, SolveRequest};

    fn solved(n: u32) -> (SolveJob, String, Solution) {
        let job = SolveJob::new("", n);
        let key = json::request_to_json(&job);
        let sol = engine("bitset")
            .unwrap()
            .solve(&Problem::complete(n), &job.to_solve_request());
        (job, key, sol)
    }

    #[test]
    fn record_then_lookup_serves_zero_node_cached_answer() {
        let (job, key, sol) = solved(7);
        let mut cache = CertCache::new();
        cache.record(&job, &key, &sol);
        assert_eq!(cache.len(), 1);
        let served = cache.lookup(&key).expect("recorded entry serves");
        assert!(served.cached());
        assert_eq!(served.stats().nodes, 0);
        assert_eq!(served.optimality(), sol.optimality());
        assert_eq!(served.covering(), sol.covering());
        assert_eq!(served.stats().engine, "bitset");
        assert_eq!(cache.hits(), 1);
        assert!(cache.lookup("nonsense").is_none());
    }

    #[test]
    fn round_trips_through_the_wire_document() {
        let (job, key, sol) = solved(7);
        let mut cache = CertCache::new();
        cache.record(&job, &key, &sol);
        let doc = cache.to_json();
        let reloaded = CertCache::from_json(&doc).expect("self-emitted doc parses");
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.rejected_on_load(), 0);
        assert_eq!(reloaded.to_json(), doc);
    }

    #[test]
    fn tampered_entries_are_rejected_individually() {
        let (job, key, sol) = solved(7);
        let mut cache = CertCache::new();
        cache.record(&job, &key, &sol);
        let good = cache.to_json();
        // Swap a vertex index out of range inside the persisted cycles:
        // the DRC re-validation must drop the entry, not trust it.
        let bad = good.replace("[0, 1, 2", "[0, 99, 2");
        assert_ne!(good, bad, "tamper target present");
        let reloaded = CertCache::from_json(&bad).expect("document still parses");
        assert_eq!(reloaded.len(), 0);
        assert_eq!(reloaded.rejected_on_load(), 1);
    }

    #[test]
    fn malformed_documents_are_errors_but_entries_fail_soft() {
        assert!(CertCache::from_json("{").is_err());
        assert!(CertCache::from_json(r#"{"format": "x", "version": 1, "entries": []}"#).is_err());
        assert!(CertCache::from_json(
            r#"{"format": "cyclecover-certificate-cache", "version": 2, "entries": []}"#
        )
        .is_err());
        // An entry that is not even an object: dropped, counted.
        let doc = r#"{"format": "cyclecover-certificate-cache", "version": 1,
                      "entries": [{"key": "junk", "solution": "junk"}]}"#;
        let cache = CertCache::from_json(doc).expect("document parses");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.rejected_on_load(), 1);
    }

    #[test]
    fn non_terminal_and_degraded_answers_are_not_recorded() {
        let (job, key, _) = solved(7);
        // A feasible (non-terminal) answer: greedy never proves bounds.
        let feasible = engine("greedy")
            .unwrap()
            .solve(&Problem::complete(7), &SolveRequest::find_optimal());
        let mut cache = CertCache::new();
        cache.record(&job, &key, &feasible);
        assert!(cache.is_empty());
        // A served-from-cache answer must not be re-recorded.
        let (job2, key2, sol2) = solved(7);
        cache.record(&job2, &key2, &sol2);
        let served = cache.lookup(&key2).unwrap();
        let mut fresh = CertCache::new();
        fresh.record(&job2, &key2, &served);
        assert!(fresh.is_empty());
    }

    #[test]
    fn lambda_fold_answers_are_not_recorded() {
        let mut job = SolveJob::new("", 5);
        job.lambda = 2;
        let key = json::request_to_json(&job);
        let sol = engine("bitset").unwrap().solve(
            &Problem::new(
                cyclecover_solver::TileUniverse::new(Ring::new(5), 5),
                job.spec(),
            ),
            &job.to_solve_request(),
        );
        assert!(matches!(sol.optimality(), Optimality::Optimal { .. }));
        let mut cache = CertCache::new();
        cache.record(&job, &key, &sol);
        assert!(cache.is_empty(), "λ-fold certificates must stay uncached");
    }

    #[test]
    fn infeasible_answers_cache_without_a_covering() {
        let mut job = SolveJob::new("", 8);
        job.objective = Objective::ProveInfeasible(5);
        let key = json::request_to_json(&job);
        let sol = engine("bitset")
            .unwrap()
            .solve(&Problem::complete(8), &job.to_solve_request());
        assert!(matches!(sol.optimality(), Optimality::Infeasible));
        let mut cache = CertCache::new();
        cache.record(&job, &key, &sol);
        assert_eq!(cache.len(), 1);
        let reloaded = CertCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(reloaded.len(), 1);
    }

    use cyclecover_solver::api::Objective;
}
