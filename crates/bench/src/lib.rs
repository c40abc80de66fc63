//! # gencache-bench
//!
//! The benchmark harness regenerating every table and figure of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003), plus the extension studies.
//!
//! Every artifact is a render function in [`paper`] over shared
//! recordings. The `paper` binary records each distinct recording once
//! and writes all 21 artifacts into a directory (`--out DIR`, default
//! `results`); `scripts/run_experiments.sh` is one `paper` call. Each
//! artifact also has a binary of its own name that prints it alone to
//! stdout from private recordings, with the same bytes:
//!
//! - paper figures and tables: `table1_benchmarks`, `table2_costs`,
//!   `fig1_max_cache_size`, `fig2_code_expansion`, `fig3_insertion_rate`,
//!   `fig4_unmapped`, `fig6_lifetimes`, `fig9_miss_rates`,
//!   `fig10_misses_eliminated`, `fig11_overhead`, `sweep_proportions`;
//! - extension studies: `sweep_trace_threshold`, `ablate_local_policy`,
//!   `ablate_probation`, `ablate_defrag`, `ablate_exceptions`,
//!   `ablate_linking`, `threaded_caches`, `best_configs`,
//!   `analyze_reuse`, `thread_duplication`.
//!
//! `explain` (one benchmark's event stream as a narrative), `delta`
//! (phase-by-phase diff of two exported streams) and `simulate` (offline
//! what-if replay of an exported stream) work on exports instead.
//!
//! All artifact binaries accept `--scale N` to divide every benchmark's
//! footprint by `N` (for quick smoke runs), `--suite spec|interactive`
//! to limit the benchmark set, and `--jobs N` to set the worker-thread
//! count (default: the `GENCACHE_JOBS` environment variable, then the
//! machine's available parallelism). Record and replay fan out across
//! benchmarks and replay cells; output is deterministic and identical
//! for every job count. Observability flags: `--events-out` /
//! `--metrics-out` / `--sample N` / `--sample-seed S`.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

use gencache_core::SwitchReport;
use gencache_obs::{
    CostReport, JsonlSink, MetricsReport, RegretReport, RunMeta, SampledReport, SamplingParams,
    StreamHeader, WindowReport, METRICS_SCHEMA, METRICS_VERSION,
};
use serde::{Serialize, Value};
use gencache_sim::par::par_map;
use gencache_sim::{
    collect_costs, collect_metrics, collect_sampled, compare_figure9, record_with, Comparison,
    ModelSpec, RecordedRun, RecorderOptions, Recording, StreamedRecording,
};
use gencache_workloads::{all_benchmarks, Suite, WorkloadProfile};

pub mod ingest;
pub mod paper;

/// Command-line options shared by every figure binary.
///
/// Scaling caveat: `--scale` shrinks footprints for smoke runs, but the
/// Figure 9/11 economics depend on absolute working-set-to-cache ratios;
/// below roughly 1/8 scale the small benchmarks degenerate to a handful
/// of traces and the generational layouts can look arbitrarily bad. Use
/// full scale for any result you intend to read.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Divide every footprint by this factor (1 = full scale).
    pub scale: u64,
    /// Restrict to one suite.
    pub suite: Option<Suite>,
    /// Worker-thread count; `None` defers to `GENCACHE_JOBS` and then
    /// the machine's available parallelism.
    pub jobs: Option<usize>,
    /// Write the full cache-event stream here as JSONL (one
    /// [`EventRecord`](gencache_obs::EventRecord) per line).
    pub events_out: Option<String>,
    /// Write aggregated per-benchmark and suite-merged metrics here as
    /// one JSON document.
    pub metrics_out: Option<String>,
    /// Record 1-in-N distribution values through a bounded-memory
    /// [`SamplingObserver`](gencache_obs::SamplingObserver) and add a
    /// `sampled` section to `--metrics-out` (counters stay exact).
    pub sample: Option<u64>,
    /// Seed for the sampling observer's striding/reservoir decisions.
    pub sample_seed: u64,
}

impl HarnessOptions {
    /// Parses `--scale N`, `--suite spec|interactive`, `--jobs N`,
    /// `--events-out FILE`, `--metrics-out FILE`, `--sample N` and
    /// `--sample-seed S` from `args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments; these binaries
    /// are terminal tools, so failing loudly is the right interface.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOptions {
            scale: 1,
            ..HarnessOptions::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    opts.scale = v.parse().expect("--scale must be a positive integer");
                    assert!(opts.scale > 0, "--scale must be positive");
                }
                "--suite" => {
                    let v = it.next().expect("--suite needs a value");
                    opts.suite = Some(match v.as_str() {
                        "spec" | "spec2000" => Suite::Spec2000,
                        "interactive" | "windows" => Suite::Interactive,
                        other => panic!("unknown suite {other:?}; use spec|interactive"),
                    });
                }
                "--jobs" => {
                    let v = it.next().expect("--jobs needs a value");
                    let jobs = v.parse().expect("--jobs must be a positive integer");
                    assert!(jobs > 0, "--jobs must be positive");
                    opts.jobs = Some(jobs);
                }
                "--events-out" => {
                    opts.events_out = Some(it.next().expect("--events-out needs a file path"));
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(it.next().expect("--metrics-out needs a file path"));
                }
                "--sample" => {
                    let v = it.next().expect("--sample needs a value");
                    let n: u64 = v.parse().expect("--sample must be a positive integer");
                    assert!(n > 0, "--sample must be positive");
                    opts.sample = Some(n);
                }
                "--sample-seed" => {
                    let v = it.next().expect("--sample-seed needs a value");
                    opts.sample_seed = v.parse().expect("--sample-seed must be an integer");
                }
                other => panic!(
                    "unknown argument {other:?}; use --scale N / --suite S / --jobs N / \
                     --events-out FILE / --metrics-out FILE / --sample N / --sample-seed S"
                ),
            }
        }
        opts
    }

    /// The resolved worker-thread count: `--jobs`, else `GENCACHE_JOBS`,
    /// else the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        gencache_sim::par::effective_jobs(self.jobs)
    }

    /// The sampling knobs implied by `--sample N` / `--sample-seed S`:
    /// 1-in-N histogram striding and churn tracking, a 512-sample
    /// timeline cap, and a 1024-value reuse reservoir. `None` when
    /// `--sample` was not given.
    pub fn sampling_params(&self) -> Option<SamplingParams> {
        self.sample.map(|n| SamplingParams {
            stride: n,
            timeline_cap: 512,
            churn_every: n,
            reservoir: 1024,
            seed: self.sample_seed,
        })
    }

    /// The benchmark profiles selected by these options.
    pub fn profiles(&self) -> Vec<WorkloadProfile> {
        all_benchmarks()
            .into_iter()
            .filter(|p| self.suite.is_none_or(|s| p.suite == s))
            .map(|p| {
                if self.scale > 1 {
                    p.scaled_down(self.scale)
                } else {
                    p
                }
            })
            .collect()
    }
}

/// Records every selected benchmark with default recorder options,
/// fanning benchmarks across the harness's worker threads. Output order
/// matches [`HarnessOptions::profiles`] regardless of the job count.
pub fn record_all(opts: &HarnessOptions) -> Vec<Run> {
    let wants: Vec<_> = opts
        .profiles()
        .into_iter()
        .map(|p| (p, RecorderOptions::default()))
        .collect();
    record_profiles(&wants, opts.effective_jobs())
}

/// Records each `(profile, options)` pair, fanning them across `jobs`
/// worker threads and printing the batch's wall-clock time to stderr.
/// Output order matches `wants` regardless of the job count.
pub(crate) fn record_profiles(wants: &[(WorkloadProfile, RecorderOptions)], jobs: usize) -> Vec<Run> {
    let started = Instant::now();
    let runs = par_map(wants, jobs, |(p, options)| {
        let run = record_with(p, *options).expect("calibrated profiles always plan");
        (p.clone(), run)
    });
    eprintln!(
        "recorded {} runs in {:.3}s ({jobs} jobs)",
        runs.len(),
        started.elapsed().as_secs_f64()
    );
    runs
}

/// Replays every recorded run through the Figure 9 three-configuration
/// comparison, fanning benchmarks across the harness's worker threads
/// and printing the wall-clock time to stderr. Output order matches
/// `runs` and is bit-identical for every job count.
pub fn compare_all<R: Borrow<Run> + Sync>(
    opts: &HarnessOptions,
    runs: &[R],
) -> Vec<(WorkloadProfile, Comparison)> {
    let jobs = opts.effective_jobs();
    let started = Instant::now();
    let out = par_map(runs, jobs, |run| {
        let (profile, run) = run.borrow();
        (profile.clone(), compare_figure9(&run.log))
    });
    eprintln!(
        "replayed {} runs in {:.3}s ({jobs} jobs)",
        out.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// A recorded benchmark paired with its profile.
pub type Run = (WorkloadProfile, RecordedRun);

/// A probed bounded-memory recording paired with its profile — the
/// counterpart of [`Run`] that holds run facts instead of a log. The serve
/// daemon's `fetch` exports these.
pub type StreamedRun = (WorkloadProfile, StreamedRecording);

/// The organizations exported by `--events-out` / `--metrics-out`: the
/// unified baseline and the paper's best-overall generational layout
/// (45%–10%–45%, promote on first probation hit).
pub fn export_specs() -> [(&'static str, ModelSpec); 2] {
    [
        ("unified", ModelSpec::Unified),
        ("gen-45-10-45@hit1", ModelSpec::best_generational()),
    ]
}

/// Timeline sampling interval giving roughly 64 occupancy samples per
/// replay. Keyed on access counts, not wall clock, so the timeline is
/// deterministic — and reproducible by the offline simulator, whose
/// reconstructed log preserves the access count exactly.
pub fn sample_interval(log: &gencache_sim::AccessLog) -> u64 {
    (log.access_count() / 64).max(1)
}

/// Honors `--events-out` and `--metrics-out`: replays every recorded
/// run through the [`export_specs`] models with instrumentation attached
/// and writes the requested artifacts. A no-op when neither flag is set.
pub fn export_telemetry(opts: &HarnessOptions, runs: &[&Run]) -> io::Result<()> {
    if let Some(path) = &opts.events_out {
        let runs: Vec<(WorkloadProfile, &RecordedRun)> =
            runs.iter().map(|(p, r)| (p.clone(), r)).collect();
        let (mut writer, lines) = stream_events_to(BufWriter::new(File::create(path)?), &runs)?;
        writer.flush()?;
        eprintln!("wrote {lines} events to {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, runs, opts)?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// One model's section of the metrics document: exact aggregates, the
/// Table 2 cost attribution, (under `--sample`) the bounded-memory
/// sampled report, (under `--oracle`) the Belady-regret attribution,
/// (under `--windows`) the windowed time-series with drift annotations,
/// and (for adaptive specs) the controller's switch report. Optional
/// sections are emitted only when present, so documents produced
/// without them keep their exact bytes.
fn spec_section(
    metrics: &MetricsReport,
    costs: &CostReport,
    sampled: Option<&SampledReport>,
    regret: Option<&RegretReport>,
    windows: Option<&WindowReport>,
    switches: Option<&SwitchReport>,
) -> Value {
    let mut pairs = vec![
        ("metrics".to_string(), metrics.to_value()),
        ("costs".to_string(), costs.to_value()),
    ];
    if let Some(s) = sampled {
        pairs.push(("sampled".to_string(), s.to_value()));
    }
    if let Some(r) = regret {
        pairs.push(("regret".to_string(), r.to_value()));
    }
    if let Some(w) = windows {
        pairs.push(("windows".to_string(), w.to_value()));
    }
    if let Some(s) = switches {
        pairs.push(("switches".to_string(), s.to_value()));
    }
    Value::Object(pairs)
}

/// Writes a v2 `gencache-events` export of `runs` into `writer`: the
/// header, then for each (benchmark, exported model) a [`RunMeta`] line
/// followed by that model's event lines. The one writer of the layout:
/// `--events-out` passes materialized [`Run`]s, the serve daemon's
/// `fetch` passes bounded-memory [`StreamedRun`]s, and both produce the
/// same bytes. Returns the writer and the number of lines written.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn stream_events_to<W: Write, R: Recording>(
    mut writer: W,
    runs: &[(WorkloadProfile, R)],
) -> io::Result<(W, u64)> {
    let header =
        serde_json::to_string(&StreamHeader::current()).map_err(|e| io::Error::other(format!("{e:?}")))?;
    writeln!(writer, "{header}")?;
    let mut lines = 1u64;
    for (profile, run) in runs {
        for (label, spec) in export_specs() {
            // The run facts the events alone cannot reproduce; the
            // offline simulator rebuilds capacity / cost attribution
            // from these.
            let meta = RunMeta {
                source: profile.name.clone(),
                model: label.to_string(),
                duration_us: run.duration().as_micros(),
                peak_trace_bytes: run.peak_trace_bytes(),
                phases: profile.phases.max(1),
            };
            let meta = serde_json::to_string(&meta).map_err(|e| io::Error::other(format!("{e:?}")))?;
            writeln!(writer, "{meta}")?;
            lines += 1;
            let sink = JsonlSink::new(writer, profile.name.clone(), label);
            let (_, sink) = run.replay_observed(spec, sink);
            lines += sink.lines();
            writer = sink.finish()?;
        }
    }
    Ok((writer, lines))
}

/// Per-benchmark artifacts for one exported model: exact metrics, cost
/// attribution, optional sampled report, optional Belady-regret
/// attribution, optional windowed time-series, and (adaptive specs
/// only) the policy controller's switch report.
pub type SpecReports = (
    MetricsReport,
    CostReport,
    Option<SampledReport>,
    Option<RegretReport>,
    Option<WindowReport>,
    Option<SwitchReport>,
);

/// Assembles the `--metrics-out` document from per-benchmark report
/// rows: one entry per benchmark, each carrying one [`SpecReports`] per
/// label in `labels` order.
///
/// Shared by the live export and the offline `simulate` tool — both
/// paths produce a document through this one function, so a simulation
/// of a recorded stream under its original configuration is comparable
/// to the live document byte-for-byte. Suite-level merges fold rows in
/// input order, keeping the document identical for every job count.
pub fn metrics_doc(labels: &[String], benchmarks: &[(String, Vec<SpecReports>)]) -> Value {
    let bench_values = benchmarks
        .iter()
        .map(|(name, reports)| benchmark_entry(name, labels, reports))
        .collect();
    Value::Object(vec![
        ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
        ("version".to_string(), Value::UInt(u64::from(METRICS_VERSION))),
        (
            "suite".to_string(),
            suite_section(
                labels,
                benchmarks.iter().map(|(_, reports)| reports.as_slice()),
            ),
        ),
        ("benchmarks".to_string(), Value::Array(bench_values)),
    ])
}

/// One `benchmarks` element of the metrics document. It depends on its
/// own benchmark's reports only.
fn benchmark_entry(name: &str, labels: &[String], reports: &[SpecReports]) -> Value {
    let mut pairs = vec![("benchmark".to_string(), Value::Str(name.to_string()))];
    for (label, (metrics, costs, sampled, regret, windows, switches)) in labels.iter().zip(reports)
    {
        pairs.push((
            label.clone(),
            spec_section(
                metrics,
                costs,
                sampled.as_ref(),
                regret.as_ref(),
                windows.as_ref(),
                switches.as_ref(),
            ),
        ));
    }
    Value::Object(pairs)
}

/// The document's `suite` section: each label's reports folded across
/// the benchmark `rows` in the order given. Float sums and timeline
/// concatenation depend on that order.
pub(crate) fn suite_section<'a>(
    labels: &[String],
    rows: impl IntoIterator<Item = &'a [SpecReports]>,
) -> Value {
    let mut suite: Vec<SpecReports> = labels
        .iter()
        .map(|_| (MetricsReport::new(), CostReport::new(1), None, None, None, None))
        .collect();
    for reports in rows {
        for ((metrics, costs, sampled, regret, windows, switches), merged) in
            reports.iter().zip(suite.iter_mut())
        {
            merged.0.merge(metrics);
            merged.1.merge(costs);
            if let Some(s) = sampled {
                match merged.2.as_mut() {
                    None => merged.2 = Some(s.clone()),
                    Some(m) => m.merge(s),
                }
            }
            if let Some(r) = regret {
                match merged.3.as_mut() {
                    None => merged.3 = Some(r.clone()),
                    Some(m) => m.merge(r),
                }
            }
            if let Some(w) = windows {
                match merged.4.as_mut() {
                    None => merged.4 = Some(w.clone()),
                    Some(m) => m.merge(w),
                }
            }
            if let Some(s) = switches {
                match merged.5.as_mut() {
                    None => merged.5 = Some(s.clone()),
                    Some(m) => m.merge(s),
                }
            }
        }
    }
    Value::Object(
        labels
            .iter()
            .zip(&suite)
            .map(
                |(label, (metrics, costs, sampled, regret, windows, switches))| {
                    (
                        label.clone(),
                        spec_section(
                            metrics,
                            costs,
                            sampled.as_ref(),
                            regret.as_ref(),
                            windows.as_ref(),
                            switches.as_ref(),
                        ),
                    )
                },
            )
            .collect(),
    )
}

/// Renders a metrics document from its `suite` section and the text of
/// its `benchmarks` elements, which are spliced verbatim. When each
/// element is the rendered entry [`metrics_doc`] builds for it, the
/// result is byte-identical to rendering the whole tree.
pub(crate) fn metrics_doc_text(suite: &Value, benchmarks: &[&str]) -> String {
    let mut out = String::with_capacity(benchmarks.iter().map(|b| b.len() + 1).sum::<usize>() + 64);
    out.push_str("{\"schema\":");
    serde_json::write_value(&mut out, &Value::Str(METRICS_SCHEMA.to_string()));
    out.push_str(",\"version\":");
    serde_json::write_value(&mut out, &Value::UInt(u64::from(METRICS_VERSION)));
    out.push_str(",\"suite\":");
    serde_json::write_value(&mut out, suite);
    out.push_str(",\"benchmarks\":[");
    for (i, bench) in benchmarks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(bench);
    }
    out.push_str("]}");
    out
}

/// Serializes an assembled [`Value`] tree to JSON text — the one
/// rendering every consumer shares, so documents that must compare
/// byte-for-byte (live export, offline simulator, serve daemon) all go
/// through it.
pub fn value_to_json(doc: &Value) -> String {
    serde_json::value_to_string(doc)
}

/// Serializes an assembled metrics document to `path` (single JSON
/// document, trailing newline).
pub fn write_metrics_doc(path: &str, doc: Value) -> io::Result<()> {
    let json = value_to_json(&doc);
    let mut file = File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

fn write_metrics(path: &str, runs: &[&Run], opts: &HarnessOptions) -> io::Result<()> {
    let jobs = opts.effective_jobs();
    let sampling = opts.sampling_params();
    // Per-benchmark reports fan out across workers; document assembly
    // folds them in input-index order, so the output is bit-identical
    // for every jobs value.
    let per_bench: Vec<Vec<SpecReports>> = par_map(runs, jobs, |&(profile, run)| {
        export_specs()
            .iter()
            .map(|&(_, spec)| {
                let every = sample_interval(&run.log);
                let metrics = collect_metrics(&run.log, spec, every).1;
                let costs = collect_costs(&run.log, spec, profile.phases.max(1)).1;
                let sampled = sampling.map(|p| collect_sampled(&run.log, spec, p, every).1);
                (metrics, costs, sampled, None, None, None)
            })
            .collect()
    });
    let labels: Vec<String> = export_specs()
        .iter()
        .map(|&(label, _)| label.to_string())
        .collect();
    let benchmarks: Vec<(String, Vec<SpecReports>)> = runs
        .iter()
        .zip(per_bench)
        .map(|((profile, _), reports)| (profile.name.clone(), reports))
        .collect();
    write_metrics_doc(path, metrics_doc(&labels, &benchmarks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = HarnessOptions::parse(args(&[]));
        assert_eq!(o.scale, 1);
        assert_eq!(o.suite, None);
    }

    #[test]
    fn parse_scale_and_suite() {
        let o = HarnessOptions::parse(args(&["--scale", "8", "--suite", "spec"]));
        assert_eq!(o.scale, 8);
        assert_eq!(o.suite, Some(Suite::Spec2000));
        let o = HarnessOptions::parse(args(&["--suite", "interactive"]));
        assert_eq!(o.suite, Some(Suite::Interactive));
    }

    #[test]
    fn parse_jobs() {
        let o = HarnessOptions::parse(args(&[]));
        assert_eq!(o.jobs, None);
        assert!(o.effective_jobs() >= 1);
        let o = HarnessOptions::parse(args(&["--jobs", "4"]));
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.effective_jobs(), 4);
    }

    #[test]
    fn parse_sample_flags() {
        let o = HarnessOptions::parse(args(&["--sample", "8", "--sample-seed", "42"]));
        assert_eq!(o.sample, Some(8));
        assert_eq!(o.sample_seed, 42);
        let p = o.sampling_params().unwrap();
        assert_eq!(p.stride, 8);
        assert_eq!(p.churn_every, 8);
        assert_eq!(p.seed, 42);
        assert!(HarnessOptions::parse(args(&[])).sampling_params().is_none());
    }

    #[test]
    #[should_panic(expected = "--jobs must be positive")]
    fn parse_rejects_zero_jobs() {
        let _ = HarnessOptions::parse(args(&["--jobs", "0"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_rejects_garbage() {
        let _ = HarnessOptions::parse(args(&["--bogus"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument \"--stream\"")]
    fn parse_rejects_retired_stream_flag() {
        let _ = HarnessOptions::parse(args(&["--stream"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument \"--progress\"")]
    fn parse_rejects_retired_progress_flag() {
        let _ = HarnessOptions::parse(args(&["--progress"]));
    }

    #[test]
    #[should_panic(expected = "unknown suite \"adversarial\"; use spec|interactive")]
    fn parse_rejects_adversarial_suite() {
        let _ = HarnessOptions::parse(args(&["--suite", "adversarial"]));
    }

    #[test]
    fn profiles_filter_by_suite() {
        let o = HarnessOptions::parse(args(&["--suite", "spec", "--scale", "64"]));
        let ps = o.profiles();
        assert_eq!(ps.len(), 26);
        assert!(ps.iter().all(|p| p.suite == Suite::Spec2000));
    }
}
