//! # gencache-sim
//!
//! The trace-driven evaluation harness for the `gencache` reproduction of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003).
//!
//! The paper's methodology (Section 6) is a two-step pipeline:
//!
//! 1. **Record** — run the benchmark under the dynamic optimizer with an
//!    *unbounded* code cache and capture the verbose log of trace
//!    creations, trace-cache accesses, and unmap invalidations
//!    ([`record`], producing an [`AccessLog`]).
//! 2. **Replay** — drive bounded cache simulators from the log: a unified
//!    pseudo-circular cache sized at half the benchmark's unbounded peak,
//!    versus generational hierarchies of identical total size
//!    ([`compare`], [`compare_figure9`]).
//!
//! Plus [`sweep`] for the proportion × promotion-threshold configuration
//! study, [`par`] for the deterministic thread-scoped fan-out that
//! drives it (and the suite-level drivers in `gencache-bench`), and
//! [`report`] helpers for rendering the paper's tables and figures as
//! text.
//!
//! ```
//! use gencache_sim::{compare_figure9, record};
//! use gencache_workloads::{Suite, WorkloadProfile};
//!
//! let profile = WorkloadProfile::builder("demo", Suite::Spec2000)
//!     .footprint_kb(24)
//!     .build();
//! let run = record(&profile)?;
//! let comparison = compare_figure9(&run.log);
//! println!(
//!     "unified miss rate {:.2}%, best generational {:.2}%",
//!     comparison.unified.miss_rate() * 100.0,
//!     comparison.generational[1].miss_rate() * 100.0,
//! );
//! # Ok::<(), gencache_workloads::PlanError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod linking;
mod log;
pub mod par;
mod progress;
mod recorder;
mod replay;
pub mod report;
mod simulate;
pub mod stream;
mod streamed;
mod sweep;
mod telemetry;
mod threads;

pub use analysis::{occupancy_series, reuse_profile, ReuseProfile};
pub use linking::{replay_with_linking, LinkReport, LinkableModel};
pub use log::{AccessLog, LogRecord};
pub use progress::{ProgressMeter, PROGRESS_BATCH};
pub use recorder::{
    record, record_stream_with, record_with, RecordFacts, RecordedRun, RecorderOptions, RunSummary,
};
pub use replay::{
    compare, compare_figure9, compare_figure9_metered, compare_metered, replay_into,
    replay_into_metered, Comparison, ReplayCursor, ReplayResult, ReplayStep,
};
pub use simulate::{
    parse_spec, replay_sim_observed, simulate_costs, simulate_metrics, simulate_regret,
    simulate_switches, trace_to_log, LocalPolicy, SimSpec, SimulatedSpec,
};
pub use streamed::{compare_figure9_streamed, StreamedRecording, DEFAULT_STREAM_DEPTH};
pub use sweep::{best_point, policy_grid, proportion_grid, sweep, sweep_with_jobs, SweepPoint};
pub use telemetry::{
    collect_costs, collect_events, collect_metrics, collect_sampled, replay_observed, suite_costs,
    suite_metrics, suite_sampled, ModelSpec,
};
pub use threads::{
    partition_by_module, replay_thread_private, replay_thread_shared, BudgetSplit, ThreadCacheKind,
    ThreadedOutcome,
};
