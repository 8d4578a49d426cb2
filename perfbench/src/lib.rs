//! The repository benchmark: two seeded closed-loop workloads over the
//! cyclecover daemon, every answer re-checked, and a traced replay that
//! splits a job's time by layer.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the report
//! above it (standard error) gives every percentile with its sample
//! count and every ratio with its base.

pub mod drive;
pub mod oracle;
pub mod plan;
pub mod procfs;
pub mod replay;
pub mod run;
pub mod trace;
