//! End-to-end equivalence of the offline what-if simulator: a recorded
//! event stream, reconstructed and re-simulated, is indistinguishable
//! from re-recording.
//!
//! Three claims, each byte-for-byte:
//!
//! 1. simulating the stream under its *original* configuration
//!    reproduces the recorded replay exactly — miss rate, metrics
//!    report, Equation 3 cost ledger;
//! 2. a *counterfactual* pair of layouts (45-10-45\@hit1 vs
//!    30-20-50\@evict5) simulated from one stream matches a fresh
//!    two-config re-record of the same workload, at any `--jobs`;
//! 3. the full §6 proportions × promotion sweep run on the
//!    reconstructed log equals the sweep re-run on the original log —
//!    one export can stand in for `sweep_proportions` re-recording.
//!
//! The grid test also checks that `run_sim_job`'s single fused replay
//! per cell yields the same reports as one separate replay per report.
//!
//! Plus the oracle sanity bound: the Belady-style furthest-next-use
//! replayer never misses more than the unified baseline.

use gencache_bench::ingest::{run_sim_job, sim_metrics_doc, SimJobInput, SimJobOptions};
use gencache_bench::{sample_interval, value_to_json};
use gencache_obs::{oracle_replay, reconstruct_trace, NextUseIndex, WindowObserver};
use gencache_sim::{
    collect_costs, collect_events, collect_metrics, parse_spec, record, replay_sim_observed,
    simulate_costs, simulate_metrics, simulate_regret, simulate_switches, sweep_with_jobs,
    trace_to_log, AccessLog, ModelSpec, SimSpec,
};
use gencache_workloads::benchmark;

/// One recorded run of `word`, its exported stream reconstructed back
/// into a replayable log, plus the paper's capacity for it.
fn recorded_and_reconstructed() -> (AccessLog, AccessLog, u64) {
    let profile = benchmark("word").expect("word exists").scaled_down(32);
    let run = record(&profile).expect("calibrated profiles always plan");
    let (_, events) = collect_events(&run.log, ModelSpec::Unified);
    let trace = reconstruct_trace(&events).expect("stream inverts");
    let reconstructed = trace_to_log(
        &trace,
        profile.name.clone(),
        run.log.duration.as_micros(),
        run.log.peak_trace_bytes,
    );
    let capacity = (run.log.peak_trace_bytes / 2).max(1);
    (run.log, reconstructed, capacity)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("reports serialize")
}

fn model_spec(label: &str) -> (SimSpec, ModelSpec) {
    let spec = parse_spec(label).expect("valid spec label");
    let SimSpec::Model(model) = spec else {
        panic!("{label} is not a model spec");
    };
    (spec, model)
}

#[test]
fn simulation_reproduces_recording_and_counterfactuals_bitwise() {
    let (original, reconstructed, capacity) = recorded_and_reconstructed();
    let every = sample_interval(&original);
    assert_eq!(
        every,
        sample_interval(&reconstructed),
        "reconstruction must preserve the access count"
    );
    let phases = benchmark("word").expect("word exists").phases.max(1);

    // Original configuration and two counterfactual layouts, one of
    // which (30-20-50@evict5) no live export ever recorded.
    for label in ["unified", "gen-45-10-45@hit1", "30-20-50@evict5"] {
        let (spec, model) = model_spec(label);
        let (rec_result, rec_metrics) = collect_metrics(&original, model, every);
        let (sim_result, sim_metrics) = simulate_metrics(&reconstructed, spec, capacity, every);
        assert_eq!(sim_result.metrics, rec_result.metrics, "{label} model metrics");
        assert_eq!(sim_result.ledger, rec_result.ledger, "{label} Equation 3 ledger");
        assert_eq!(sim_metrics, rec_metrics, "{label} metrics report");
        assert_eq!(
            serde_json::to_string(&sim_metrics).unwrap(),
            serde_json::to_string(&rec_metrics).unwrap(),
            "{label} serialized metrics"
        );

        let (_, rec_costs) = collect_costs(&original, model, phases);
        let (_, sim_costs) = simulate_costs(&reconstructed, spec, capacity, phases);
        assert_eq!(sim_costs, rec_costs, "{label} cost report");
        assert_eq!(
            serde_json::to_string(&sim_costs).unwrap(),
            serde_json::to_string(&rec_costs).unwrap(),
            "{label} serialized costs"
        );
    }
}

#[test]
fn simulated_grid_is_jobs_invariant() {
    let (original, reconstructed, capacity) = recorded_and_reconstructed();
    let every = sample_interval(&reconstructed);
    let phases = 12;
    let specs: Vec<SimSpec> = [
        "unified",
        "gen-45-10-45@hit1",
        "30-20-50@evict5",
        "lru",
        "adaptive",
    ]
    .iter()
    .map(|l| parse_spec(l).expect("valid spec label"))
    .collect();
    let (_, events) = collect_events(&original, ModelSpec::Unified);
    let trace = reconstruct_trace(&events).expect("stream inverts");
    let index = NextUseIndex::build(&trace);
    let inputs = [SimJobInput {
        name: "word".to_string(),
        trace,
        log: reconstructed.clone(),
        capacity,
        phases,
    }];
    let options = SimJobOptions {
        oracle: true,
        windows: true,
        ..SimJobOptions::default()
    };
    let serial = run_sim_job(&inputs, &specs, options, 1, None).expect("job runs");
    let sims = &serial.benches[0].sims;
    assert!(
        sims.iter().all(|s| s.regret.is_some()),
        "every grid cell gets a regret report when the oracle is on"
    );
    assert!(
        sims.iter().all(|s| s.windows.is_some()),
        "every grid cell gets a windowed report when requested"
    );

    // The single fused replay per cell must equal one separate replay
    // per report, byte for byte.
    for (&spec, sim) in specs.iter().zip(sims) {
        let label = &sim.label;
        let (result, metrics) = simulate_metrics(&reconstructed, spec, capacity, every);
        assert_eq!(sim.result.metrics, result.metrics, "{label} model metrics");
        assert_eq!(
            sim.result.ledger, result.ledger,
            "{label} Equation 3 ledger"
        );
        assert_eq!(json(&sim.metrics), json(&metrics), "{label} metrics");
        let (_, costs) = simulate_costs(&reconstructed, spec, capacity, phases);
        assert_eq!(json(&sim.costs), json(&costs), "{label} costs");
        let (_, regret) = simulate_regret(&reconstructed, spec, capacity, phases, &index);
        assert_eq!(json(&sim.regret), json(&Some(regret)), "{label} regret");
        let (_, windows, _) =
            replay_sim_observed(&reconstructed, spec, capacity, WindowObserver::new(every));
        assert_eq!(
            json(&sim.windows),
            json(&Some(windows.report())),
            "{label} windows"
        );
        let switches = simulate_switches(&reconstructed, spec, capacity);
        assert_eq!(json(&sim.switches), json(&switches), "{label} switches");
    }

    let serial_doc = value_to_json(&sim_metrics_doc(&serial));
    for jobs in [2, 8] {
        let parallel = run_sim_job(&inputs, &specs, options, jobs, None).expect("job runs");
        assert_eq!(
            value_to_json(&sim_metrics_doc(&parallel)),
            serial_doc,
            "jobs={jobs}"
        );
        for (a, b) in sims.iter().zip(&parallel.benches[0].sims) {
            assert_eq!(
                a.result.metrics, b.result.metrics,
                "{} jobs={jobs}",
                a.label
            );
        }
    }
}

#[test]
fn sweep_on_reconstructed_log_matches_rerecording() {
    let (original, reconstructed, _) = recorded_and_reconstructed();
    for jobs in [1, 4] {
        let fresh = sweep_with_jobs(&original, jobs);
        let simulated = sweep_with_jobs(&reconstructed, jobs);
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&simulated).unwrap(),
            "proportions sweep from one stream must equal re-recording (jobs={jobs})"
        );
    }
}

#[test]
fn oracle_lower_bounds_the_unified_baseline() {
    let (original, reconstructed, capacity) = recorded_and_reconstructed();
    let (_, events) = collect_events(&original, ModelSpec::Unified);
    let trace = reconstruct_trace(&events).expect("stream inverts");
    let oracle = oracle_replay(&trace, capacity);
    let every = sample_interval(&reconstructed);
    let (result, _) = simulate_metrics(
        &reconstructed,
        parse_spec("unified").unwrap(),
        capacity,
        every,
    );
    assert_eq!(oracle.accesses, result.metrics.accesses);
    assert!(
        oracle.misses <= result.metrics.misses,
        "oracle ({}) must not miss more than unified ({})",
        oracle.misses,
        result.metrics.misses
    );
}
