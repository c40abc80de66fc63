//! Observer-aware replay: event capture and mergeable metrics.
//!
//! These helpers wrap [`replay_sim_observed`](crate::replay_sim_observed)
//! at the paper's standard `0.5 × maxCache` budget, producing either
//! a full [`CacheEvent`] stream (for JSONL export and the `explain`
//! tool) or an aggregated [`MetricsReport`].
//!
//! The per-benchmark reports are mergeable, and [`suite_metrics`] folds
//! them **in input-index order** after a [`par_map`](crate::par::par_map)
//! fan-out — so the merged suite report is bit-identical for every
//! worker count, extending the repo's determinism guarantee to
//! telemetry collection.

use gencache_core::{GenerationalConfig, PromotionPolicy, Proportions};
use gencache_obs::{
    CacheEvent, CostObserver, CostReport, EventBuffer, MetricsObserver, MetricsReport, Observer,
    SampledReport, SamplingObserver, SamplingParams,
};

use crate::log::AccessLog;
use crate::replay::ReplayResult;
use crate::simulate::{replay_sim_observed, SimSpec};

/// Which cache organization to instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// The unified pseudo-circular baseline at `0.5 × maxCache`.
    Unified,
    /// A generational hierarchy over the same total budget.
    Generational {
        /// Nursery/probation/persistent split of the budget.
        proportions: Proportions,
        /// When probation traces are promoted.
        policy: PromotionPolicy,
    },
}

impl ModelSpec {
    /// The paper's best-overall generational configuration:
    /// 45%–10%–45% with promotion on first probation hit.
    pub fn best_generational() -> Self {
        ModelSpec::Generational {
            proportions: Proportions::best_overall(),
            policy: PromotionPolicy::OnHit { hits: 1 },
        }
    }

    /// Builds the concrete config for a benchmark whose standard budget
    /// is `capacity` bytes, if this spec is generational.
    pub fn generational_config(&self, capacity: u64) -> Option<GenerationalConfig> {
        match *self {
            ModelSpec::Unified => None,
            ModelSpec::Generational {
                proportions,
                policy,
            } => Some(GenerationalConfig::new(capacity, proportions, policy)),
        }
    }
}

/// Replays `log` into the model described by `spec` with `observer`
/// attached, returning the replay outcome and the observer back.
pub fn replay_observed<O: Observer>(
    log: &AccessLog,
    spec: ModelSpec,
    observer: O,
) -> (ReplayResult, O) {
    let capacity = (log.peak_trace_bytes / 2).max(1);
    let (result, observer, _) = replay_sim_observed(log, SimSpec::Model(spec), capacity, observer);
    (result, observer)
}

/// Replays `log` and captures the complete event stream.
pub fn collect_events(log: &AccessLog, spec: ModelSpec) -> (ReplayResult, Vec<CacheEvent>) {
    let (result, buffer) = replay_observed(log, spec, EventBuffer::new());
    (result, buffer.events)
}

/// Replays `log` and aggregates a [`MetricsReport`]. `sample_every`
/// controls the occupancy timeline (one sample per that many accesses;
/// 0 disables the timeline).
pub fn collect_metrics(
    log: &AccessLog,
    spec: ModelSpec,
    sample_every: u64,
) -> (ReplayResult, MetricsReport) {
    let (result, observer) = replay_observed(log, spec, MetricsObserver::with_timeline(sample_every));
    (result, observer.report())
}

/// Collects per-benchmark metrics across `jobs` workers and merges them
/// into one suite-level report.
///
/// The merge folds the shard reports in **input-index order**, so the
/// result is bit-identical to a serial run for any `jobs` — the same
/// contract `tests/par_determinism.rs` enforces for the sweep engine.
pub fn suite_metrics(
    logs: &[AccessLog],
    spec: ModelSpec,
    sample_every: u64,
    jobs: usize,
) -> MetricsReport {
    let shards = crate::par::par_map(logs, jobs, |log| collect_metrics(log, spec, sample_every).1);
    let mut merged = MetricsReport::new();
    for shard in &shards {
        merged.merge(shard);
    }
    merged
}

/// Replays `log` and prices the event stream through the Table 2
/// formulas, attributing instruction overhead to `phases` equal time
/// slices (and to regions and eviction causes within each).
///
/// The returned [`CostReport::total`] is charged in event order — the
/// same order the model charged its own [`ReplayResult::ledger`] — so
/// the two are bitwise-equal, not merely close (the property test in
/// `crates/core/tests/cost_attribution.rs` enforces this).
pub fn collect_costs(log: &AccessLog, spec: ModelSpec, phases: u32) -> (ReplayResult, CostReport) {
    let observer = CostObserver::with_phases(phases, log.duration.as_micros());
    let (result, observer) = replay_observed(log, spec, observer);
    (result, observer.into_report())
}

/// Collects per-benchmark cost reports across `jobs` workers and merges
/// them into one suite-level report.
///
/// Phase `i` of the merged report aggregates the `i`-th *fraction* of
/// each benchmark's run (each report's phases cover that benchmark's
/// own duration). The merge folds shards in **input-index order**, so
/// the result is bit-identical to a serial run for any `jobs`.
pub fn suite_costs(logs: &[AccessLog], spec: ModelSpec, phases: u32, jobs: usize) -> CostReport {
    let shards = crate::par::par_map(logs, jobs, |log| collect_costs(log, spec, phases).1);
    let mut merged = CostReport::new(phases.max(1) as usize);
    for shard in &shards {
        merged.merge(shard);
    }
    merged
}

/// Replays `log` through a bounded-memory [`SamplingObserver`]:
/// counters exact, distributions sampled per `params`, occupancy
/// timeline sampled every `sample_every` accesses (0 disables it).
pub fn collect_sampled(
    log: &AccessLog,
    spec: ModelSpec,
    params: SamplingParams,
    sample_every: u64,
) -> (ReplayResult, SampledReport) {
    let observer = SamplingObserver::with_timeline(params, sample_every);
    let (result, observer) = replay_observed(log, spec, observer);
    (result, observer.report())
}

/// Collects per-benchmark sampled reports across `jobs` workers and
/// merges them in **input-index order** — bit-identical for any `jobs`.
pub fn suite_sampled(
    logs: &[AccessLog],
    spec: ModelSpec,
    params: SamplingParams,
    sample_every: u64,
    jobs: usize,
) -> SampledReport {
    let shards = crate::par::par_map(logs, jobs, |log| {
        collect_sampled(log, spec, params, sample_every).1
    });
    let mut merged: Option<SampledReport> = None;
    for shard in &shards {
        match merged.as_mut() {
            None => merged = Some(shard.clone()),
            Some(m) => m.merge(shard),
        }
    }
    merged.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogRecord;
    use gencache_cache::{TraceId, TraceRecord};
    use gencache_program::{Addr, Time};

    fn churn_log(name: &str, seed: u64) -> AccessLog {
        let rec = |id: u64| TraceRecord::new(TraceId::new(id), 120, Addr::new(0x1000 + id));
        let mut records = Vec::new();
        let mut t = 0u64;
        for id in 0..10 {
            t += 1;
            records.push(LogRecord::Create {
                record: rec(seed * 1000 + id),
                time: Time::from_micros(t),
            });
        }
        for round in 0..30u64 {
            for id in 0..10 {
                t += 1;
                records.push(LogRecord::Access {
                    id: TraceId::new(seed * 1000 + (id + round) % 10),
                    time: Time::from_micros(t),
                });
            }
        }
        AccessLog {
            benchmark: name.into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 10 * 120,
        }
    }

    #[test]
    fn metrics_agree_with_model_counters() {
        let log = churn_log("agree", 1);
        for spec in [ModelSpec::Unified, ModelSpec::best_generational()] {
            let (result, report) = collect_metrics(&log, spec, 0);
            assert_eq!(report.accesses, result.metrics.accesses);
            assert_eq!(report.hits, result.metrics.hits);
            assert_eq!(report.misses, result.metrics.misses);
        }
    }

    #[test]
    fn events_and_metrics_describe_the_same_run() {
        let log = churn_log("same", 2);
        let spec = ModelSpec::best_generational();
        let (_, events) = collect_events(&log, spec);
        let mut replayed = MetricsObserver::with_timeline(16);
        for event in &events {
            replayed.on_event(event);
        }
        let (_, direct) = collect_metrics(&log, spec, 16);
        assert_eq!(replayed.report(), direct);
    }

    #[test]
    fn cost_report_total_equals_model_ledger() {
        let log = churn_log("cost", 4);
        for spec in [ModelSpec::Unified, ModelSpec::best_generational()] {
            let (result, report) = collect_costs(&log, spec, 8);
            // Same formulas, charged in the same order: bitwise equal.
            assert_eq!(report.total, result.ledger);
            let phase_events: u64 = report.phases.iter().map(|p| p.ledger.miss_events).sum();
            assert_eq!(phase_events, result.ledger.miss_events);
        }
    }

    #[test]
    fn sampled_counters_match_unsampled_metrics() {
        let log = churn_log("sampled", 5);
        let spec = ModelSpec::best_generational();
        let (_, exact) = collect_metrics(&log, spec, 0);
        let (_, sampled) = collect_sampled(&log, spec, SamplingParams::bounded(17), 0);
        assert_eq!(sampled.metrics.accesses, exact.accesses);
        assert_eq!(sampled.metrics.hits, exact.hits);
        assert_eq!(sampled.metrics.misses, exact.misses);
    }

    #[test]
    fn suite_costs_and_sampled_are_jobs_invariant() {
        let logs = vec![churn_log("x", 1), churn_log("y", 2), churn_log("z", 3)];
        let spec = ModelSpec::best_generational();
        let costs = suite_costs(&logs, spec, 6, 1);
        let sampled = suite_sampled(&logs, spec, SamplingParams::bounded(9), 16, 1);
        for jobs in [2, 8] {
            assert_eq!(suite_costs(&logs, spec, 6, jobs), costs);
            assert_eq!(
                suite_sampled(&logs, spec, SamplingParams::bounded(9), 16, jobs),
                sampled
            );
        }
        assert!(costs.total.total() > 0.0);
    }

    #[test]
    fn suite_metrics_are_jobs_invariant() {
        let logs = vec![churn_log("a", 1), churn_log("b", 2), churn_log("c", 3)];
        let spec = ModelSpec::best_generational();
        let serial = suite_metrics(&logs, spec, 32, 1);
        for jobs in [2, 8] {
            assert_eq!(suite_metrics(&logs, spec, 32, jobs), serial);
        }
        assert!(serial.accesses > 0);
    }
}
