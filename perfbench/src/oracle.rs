//! The answer oracle: every response document is re-parsed from the
//! wire, its covering rebuilt and re-validated, and its verdict checked
//! against what the request must produce.

use crate::plan::Expect;
use cyclecover_core::general::covers_instance;
use cyclecover_core::DrcCovering;
use cyclecover_graph::{Edge, Graph};
use cyclecover_io::json::{covering_from_solution_json, Json, SolveJob};
use cyclecover_solver::lower_bound::combinatorial_lower_bound;

/// Checks one response document against its request and expectation.
/// `Err` carries a one-line reason.
pub fn check(job: &SolveJob, expect: Expect, doc: &str) -> Result<(), String> {
    let parsed = Json::parse(doc)?;
    let format = parsed.get("format").and_then(Json::as_str);
    if format != Some("cyclecover-solution") {
        let reason = parsed.get("reason").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("answered with {format:?} (reason {reason})"));
    }
    if !job.id.is_empty() && parsed.get("id").and_then(Json::as_str) != Some(job.id.as_str()) {
        return Err("response id does not echo the request id".into());
    }
    if parsed.get("n").and_then(Json::as_num) != Some(f64::from(job.n)) {
        return Err("response answers another ring size".into());
    }
    let optimality = parsed.get("optimality").ok_or("missing optimality")?;
    let kind = optimality.get("kind").and_then(Json::as_str).unwrap_or("");
    let size = parsed.get("size").and_then(Json::as_num);
    match expect {
        Expect::Optimal(value) => {
            if kind != "optimal" || size != Some(f64::from(value)) {
                return Err(format!("want optimal {value}, got {kind} {size:?}"));
            }
        }
        Expect::Within(budget) => {
            if !matches!(kind, "feasible" | "optimal") || size.is_none_or(|s| s > f64::from(budget))
            {
                return Err(format!(
                    "want a covering within {budget}, got {kind} {size:?}"
                ));
            }
        }
        Expect::Cover => {
            if !matches!(kind, "feasible" | "optimal") {
                return Err(format!("want a covering, got {kind}"));
            }
        }
    }
    let cover = covering_from_solution_json(doc)?;
    if size != Some(cover.len() as f64) {
        return Err("size disagrees with the cycle list".into());
    }
    check_covering(job, &cover)
}

/// Re-validates a covering against the job's universe and demand: cycle
/// shape within `(max_len, max_gap)`, every request covered `λ` times,
/// and no fewer cycles than the combinatorial lower bound allows.
pub fn check_covering(job: &SolveJob, cover: &DrcCovering) -> Result<(), String> {
    let ring = cover.ring();
    for t in cover.tiles() {
        if t.len() > job.max_len as usize || t.max_gap(ring) > job.max_gap {
            return Err(format!(
                "cycle {:?} lies outside the job's universe",
                t.vertices()
            ));
        }
    }
    match &job.requests {
        None if job.lambda == 1 => {
            cover.validate().map_err(|e| e.to_string())?;
            if (cover.len() as u64) < combinatorial_lower_bound(job.n) {
                return Err(format!("{} cycles beat the lower bound", cover.len()));
            }
        }
        None => {
            if !cover.coverage().covers_complete(job.lambda) {
                return Err(format!("not a {}-fold covering", job.lambda));
            }
            if (cover.len() as u64)
                < cyclecover_core::lambda::capacity_lower_bound(job.n, job.lambda)
            {
                return Err(format!("{} cycles beat the capacity bound", cover.len()));
            }
        }
        Some(pairs) => {
            let mut graph = Graph::new(job.n as usize);
            for &(u, v) in pairs {
                graph.add_edge(u, v);
            }
            let coverage = cover.coverage();
            let lambda_ok = pairs
                .iter()
                .all(|&(u, v)| coverage.count(Edge::new(u, v)) >= job.lambda);
            if !covers_instance(cover, &graph) || !lambda_ok {
                return Err("a request is left uncovered".into());
            }
        }
    }
    Ok(())
}
