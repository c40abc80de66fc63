//! Suite-level parallel determinism: `record_all` must produce identical
//! logs and `compare_all` byte-identical results (via serde_json) for any
//! `--jobs` value, and every paper artifact must render the same text.
//! The drivers fan benchmarks and replay cells across workers, so this
//! guards the reassembly-in-input-order contract end to end.

use gencache_bench::paper::{render_one, Paper, ARTIFACTS};
use gencache_bench::{compare_all, record_all, HarnessOptions};
use gencache_obs::SamplingParams;
use gencache_sim::{suite_costs, suite_metrics, suite_sampled, AccessLog, ModelSpec};
use gencache_workloads::Suite;

fn opts(jobs: usize) -> HarnessOptions {
    HarnessOptions {
        scale: 64,
        suite: Some(Suite::Interactive),
        jobs: Some(jobs),
        ..HarnessOptions::default()
    }
}

#[test]
fn suite_fanout_is_byte_identical_across_job_counts() {
    let baseline = record_all(&opts(1));
    let baseline_logs: Vec<&AccessLog> = baseline.iter().map(|(_, r)| &r.log).collect();
    let baseline_cmp = serde_json::to_string(&compare_all(&opts(1), &baseline)).unwrap();
    for jobs in [2, 8] {
        let runs = record_all(&opts(jobs));
        let logs: Vec<&AccessLog> = runs.iter().map(|(_, r)| &r.log).collect();
        assert!(
            baseline_logs == logs,
            "record_all with {jobs} jobs diverged from serial"
        );
        let cmp = serde_json::to_string(&compare_all(&opts(jobs), &runs)).unwrap();
        assert_eq!(
            baseline_cmp, cmp,
            "compare_all with {jobs} jobs diverged from serial"
        );
    }
}

#[test]
fn suite_costs_and_sampled_are_byte_identical_across_job_counts() {
    let runs = record_all(&opts(1));
    let logs: Vec<AccessLog> = runs.iter().map(|(_, r)| r.log.clone()).collect();
    for spec in [ModelSpec::Unified, ModelSpec::best_generational()] {
        let serial_costs = serde_json::to_string(&suite_costs(&logs, spec, 8, 1)).unwrap();
        let serial_sampled = serde_json::to_string(&suite_sampled(
            &logs,
            spec,
            SamplingParams::bounded(11),
            64,
            1,
        ))
        .unwrap();
        for jobs in [2, 8] {
            let costs = serde_json::to_string(&suite_costs(&logs, spec, 8, jobs)).unwrap();
            assert_eq!(
                serial_costs, costs,
                "merged cost report with {jobs} jobs diverged from serial ({spec:?})"
            );
            let sampled = serde_json::to_string(&suite_sampled(
                &logs,
                spec,
                SamplingParams::bounded(11),
                64,
                jobs,
            ))
            .unwrap();
            assert_eq!(
                serial_sampled, sampled,
                "merged sampled report with {jobs} jobs diverged from serial ({spec:?})"
            );
        }
    }
}

#[test]
fn suite_metrics_are_byte_identical_across_job_counts() {
    let runs = record_all(&opts(1));
    let logs: Vec<AccessLog> = runs.iter().map(|(_, r)| r.log.clone()).collect();
    for spec in [ModelSpec::Unified, ModelSpec::best_generational()] {
        let serial = serde_json::to_string(&suite_metrics(&logs, spec, 64, 1)).unwrap();
        for jobs in [2, 8] {
            let sharded = serde_json::to_string(&suite_metrics(&logs, spec, 64, jobs)).unwrap();
            assert_eq!(
                serial, sharded,
                "merged metrics with {jobs} jobs diverged from serial ({spec:?})"
            );
        }
    }
}

/// Every artifact rendered from one shared session, as the `paper`
/// driver does.
fn render_all(opts: &HarnessOptions) -> Vec<String> {
    let mut texts = Vec::new();
    Paper::new(opts.clone()).render_all(|_, text| texts.push(text));
    texts
}

#[test]
fn every_artifact_is_byte_identical_across_job_counts() {
    let opts = |jobs| HarnessOptions {
        scale: 64,
        jobs: Some(jobs),
        ..HarnessOptions::default()
    };
    let serial = render_all(&opts(1));
    for jobs in [2, 8] {
        for ((artifact, expected), text) in
            ARTIFACTS.iter().zip(&serial).zip(render_all(&opts(jobs)))
        {
            assert_eq!(
                *expected, text,
                "{} with {jobs} jobs diverged from serial",
                artifact.name
            );
        }
    }
    // The shim renders from a private recording, the driver from the
    // session every artifact shares: the bytes must not depend on which.
    let fig9 = ARTIFACTS
        .iter()
        .position(|a| a.name == "fig9_miss_rates")
        .expect("fig9 is an artifact");
    assert_eq!(render_one("fig9_miss_rates", &opts(2)), serial[fig9]);
}
