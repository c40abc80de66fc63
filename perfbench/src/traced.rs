//! The traced run: re-executes a workload's input in-process and times
//! the calls into each layer's public functions, one span per call site.
//! The program itself carries no tracing; everything here is measured
//! from the benchmark's side of each call.
//!
//! A pass mirrors the served path. For fleet-grid the export is split by
//! benchmark exactly as the router splits it, every shard's sub-job runs
//! in turn (the shards run in parallel in the fleet, so the in-process
//! job time is the split, the slowest sub-job and the merge), and the
//! shard documents are merged. Every pass checks its document against the
//! reference and sends one job over the wire to time the client side.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gencache_bench::ingest::{
    classify_line, merge_metrics_docs, merge_sim_tables, render_sim_tables, resolve_sim_specs,
    sim_metrics_doc, BenchSim, RouteClass, SimJobOutput, StreamIngest,
};
use gencache_bench::{sample_interval, value_to_json};
use gencache_obs::{oracle_replay, NextUseIndex};
use gencache_serve::JobSpec;
use gencache_sim::{
    compare_figure9, record, simulate_costs, simulate_metrics, simulate_regret, simulate_switches,
    ReplayResult, SimulatedSpec,
};
use gencache_workloads::{ExecutionPlan, WorkloadProfile};

use crate::digest::{Digest, ResultDigests};
use crate::inputs::{self, reference, Export, Job};
use crate::service::{Service, PLACEMENT};
use crate::stats::median;
use crate::wire;
use crate::{Metric, Outcome, Workload};

/// How a metric's per-pass values become the run's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Times and rates: the median over passes.
    Median,
    /// Exact counts: identical in every pass, or the run fails.
    Exact,
    /// Event counts that may legitimately vary: the total.
    Sum,
}

use Fold::{Exact, Median, Sum};

/// Every per-layer metric, in report order. A layer a workload does not
/// run reads 0.
const LAYERS: [(&str, &str, Fold); 35] = [
    ("workloads.generate_s", "s", Median),
    ("frontend.record_s", "s", Median),
    ("frontend.traces_created", "count", Exact),
    ("frontend.accesses", "count", Exact),
    ("obs.export_s", "s", Median),
    ("obs.export_bytes", "bytes", Exact),
    ("ingest.decode_s", "s", Median),
    ("ingest.lines", "count", Exact),
    ("ingest.lines_per_s", "1/s", Median),
    ("ingest.verify_frac", "ratio", Exact),
    ("ingest.reconstruct_s", "s", Median),
    ("replay.metrics_s", "s", Median),
    ("replay.costs_s", "s", Median),
    ("replay.regret_s", "s", Median),
    ("replay.switches_s", "s", Median),
    ("replay.fig9_s", "s", Median),
    ("replay.cells", "count", Exact),
    ("replay.ops_per_s", "1/s", Median),
    ("oracle.index_s", "s", Median),
    ("oracle.replay_s", "s", Median),
    ("core.misses", "count", Exact),
    ("core.promotions", "count", Exact),
    ("cache.evictions", "count", Exact),
    ("render.doc_s", "s", Median),
    ("render.table_s", "s", Median),
    ("render.doc_bytes", "bytes", Exact),
    ("serve.upload_s", "s", Median),
    ("serve.wait_s", "s", Median),
    ("serve.reply_s", "s", Median),
    ("serve.daemon_self_s", "s", Median),
    ("serve.busy_retries", "count", Sum),
    ("shard.split_s", "s", Median),
    ("shard.merge_s", "s", Median),
    ("shard.subjobs", "count", Exact),
    ("shard.slowest_over_mean", "ratio", Median),
];

/// One pass's values, keyed by metric name.
#[derive(Debug, Default)]
struct Pass(BTreeMap<&'static str, f64>);

impl Pass {
    fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYERS.iter().any(|l| l.0 == name), "unknown metric {name}");
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn count_replay(&mut self, r: &ReplayResult) {
        let m = &r.metrics;
        self.add("core.misses", m.misses as f64);
        self.add(
            "core.promotions",
            (m.promotions_to_probation + m.promotions_to_persistent) as f64,
        );
        self.add("cache.evictions", r.ledger.eviction_events as f64);
    }
}

/// Runs traced passes of `workload` until `seconds` have passed (at
/// least one).
///
/// # Errors
///
/// Fails when set-up fails, as in the end-to-end run.
pub fn run(workload: Workload, bins: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let served = match workload {
        Workload::ServeUpload => Some(Service::single(bins)?),
        Workload::FleetGrid => Some(Service::fleet(bins)?),
        Workload::PaperFigs => None,
    };
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut passes = Vec::new();
    let profiles = workload.profiles(seed)?;
    let mut started = Instant::now();
    match &served {
        Some(service) => {
            let job = Job::new(workload.job_spec(), inputs::record_export(&profiles)?);
            let expected = reference(&job)?;
            let mut buf = Vec::new();
            // Untimed warm-up, as in the end-to-end run.
            attempted += 1;
            let warm_up = wire::submit(service.addr(), &job, &mut buf);
            failures.extend(wire::check(&warm_up, &expected));
            started = Instant::now();
            while passes.is_empty() || started.elapsed().as_secs() < seconds {
                attempted += 1;
                match served_pass(workload, &profiles, service, &job, &expected, &mut buf) {
                    Ok(p) => passes.push(p),
                    Err(e) => {
                        failures.push(e);
                        break;
                    }
                }
            }
        }
        None => {
            while passes.is_empty() || started.elapsed().as_secs() < seconds {
                attempted += 1;
                passes.push(figures_pass(&profiles)?);
            }
        }
    }
    drop(served);

    let mut metrics = Vec::with_capacity(LAYERS.len());
    for (name, unit, fold) in LAYERS {
        let values: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
        let value = match fold {
            Median if values.is_empty() => 0.0,
            Median => median(&values),
            Sum => values.iter().sum(),
            Exact => {
                let first = values.first().copied().unwrap_or(0.0);
                if values.iter().any(|&v| v != first) {
                    failures.push(format!("{name} differs between passes: {values:?}"));
                }
                first
            }
        };
        let note = match fold {
            Median => format!("median of {} passes", values.len()),
            Exact => "exact, same in every pass".to_string(),
            Sum => format!("total over {} passes", values.len()),
        };
        metrics.push(Metric::new(name, unit, value, note));
    }
    let mut notes = vec![format!(
        "input: seed {seed}, {}; {} traced passes in {:.1} s",
        workload.input_label(),
        passes.len(),
        started.elapsed().as_secs_f64()
    )];
    if workload == Workload::PaperFigs {
        notes.push("input: paper-figs ignores --seed, like the figure binaries".to_string());
    } else {
        notes.push(format!(
            "input: profile seeds {}",
            inputs::profile_seeds(&profiles)
        ));
    }
    notes.extend(failures.iter().map(|f| format!("failure: {f}")));
    Ok(Outcome {
        metrics,
        shown: Vec::new(),
        attempted,
        failed: failures.len() as u64,
        notes,
    })
}

/// Event-stream generation: plans each profile and drains its stream.
fn generate(profiles: &[WorkloadProfile], pass: &mut Pass) -> Result<(), String> {
    for p in profiles {
        pass.time("workloads.generate_s", || {
            let plan = ExecutionPlan::from_profile(p).map_err(|e| format!("{}: {e:?}", p.name))?;
            black_box(plan.stream().map(black_box).count());
            Ok::<_, String>(())
        })?;
    }
    Ok(())
}

fn served_pass(
    workload: Workload,
    profiles: &[WorkloadProfile],
    service: &Service,
    job: &Job,
    expected: &ResultDigests,
    buf: &mut Vec<u8>,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    generate(profiles, &mut pass)?;
    for p in profiles {
        let run = pass
            .time("frontend.record_s", || record(p))
            .map_err(|e| format!("{}: {e:?}", p.name))?;
        pass.add("frontend.traces_created", run.summary.traces_created as f64);
        pass.add("frontend.accesses", run.summary.trace_accesses as f64);
    }
    let recs = inputs::probe(profiles)?;
    let export = pass.time("obs.export_s", || inputs::export(&recs))?;
    pass.add("obs.export_bytes", export.bytes.len() as f64);
    if export.bytes != job.export.bytes {
        return Err("the traced export differs from the served one".to_string());
    }

    let (uploads, order) = if workload == Workload::FleetGrid {
        let split = pass.time("shard.split_s", || split(&export))?;
        pass.add("shard.subjobs", split.0.len() as f64);
        split
    } else {
        (vec![export.lines().collect()], Vec::new())
    };
    let mut shard_s = Vec::new();
    let mut docs = Vec::new();
    let mut tables = Vec::new();
    let mut replayed = 0;
    for lines in &uploads {
        let started = Instant::now();
        let (doc, table, ops) = sub_job(lines, &job.spec, &mut pass)?;
        shard_s.push(started.elapsed().as_secs_f64());
        docs.push(doc);
        tables.push(table);
        replayed += ops;
    }
    let doc = if workload == Workload::FleetGrid {
        pass.time("shard.merge_s", || merge(&order, &docs, &tables))?
    } else {
        docs.pop().expect("one upload")
    };
    pass.add("render.doc_bytes", doc.len() as f64);
    if Digest::of(doc.as_bytes()) != expected.doc {
        return Err(format!(
            "traced document {} differs from the reference {}",
            Digest::of(doc.as_bytes()),
            expected.doc
        ));
    }
    let verify = verify_only_lines(&export) as f64;
    pass.add("ingest.verify_frac", verify / pass.get("ingest.lines"));
    pass.add(
        "ingest.lines_per_s",
        pass.get("ingest.lines") / pass.get("ingest.decode_s"),
    );
    let replay_s =
        pass.get("replay.metrics_s") + pass.get("replay.costs_s") + pass.get("replay.regret_s");
    pass.add("replay.ops_per_s", replayed as f64 / replay_s);
    let slowest = shard_s.iter().copied().fold(0.0, f64::max);
    if workload == Workload::FleetGrid {
        let mean = shard_s.iter().sum::<f64>() / shard_s.len() as f64;
        pass.add("shard.slowest_over_mean", slowest / mean);
    }

    let submitted = wire::submit(service.addr(), job, buf);
    if let Some(why) = wire::check(&submitted, expected) {
        return Err(why);
    }
    let s = submitted.expect("checked above");
    let (upload, wait) = (s.split.upload.as_secs_f64(), s.split.wait.as_secs_f64());
    pass.add("serve.upload_s", upload);
    pass.add("serve.wait_s", wait);
    pass.add("serve.reply_s", s.split.reply.as_secs_f64());
    pass.add("serve.busy_retries", f64::from(s.busy_retries));
    // The daemon decodes while the upload streams in, so the in-process
    // job time is set against the upload and the wait together.
    let in_process = pass.get("shard.split_s") + slowest + pass.get("shard.merge_s");
    pass.add("serve.daemon_self_s", upload + wait - in_process);
    Ok(pass)
}

/// Splits an export by benchmark the way the router does, broadcasting
/// the header: one line list per shard of [`PLACEMENT`], plus the
/// benchmarks in upload order.
fn split(export: &Export) -> Result<(Vec<Vec<&str>>, Vec<String>), String> {
    let shards = PLACEMENT.iter().map(|p| p.1).max().unwrap_or(0) + 1;
    let mut uploads: Vec<Vec<&str>> = vec![Vec::new(); shards];
    let mut order: Vec<String> = Vec::new();
    for line in export.lines() {
        match classify_line(line)? {
            RouteClass::Blank => {}
            RouteClass::Header => uploads.iter_mut().for_each(|u| u.push(line)),
            RouteClass::Stream(bench) => {
                let shard = PLACEMENT
                    .iter()
                    .find(|p| p.0 == bench)
                    .ok_or_else(|| format!("{bench} has no pinned shard"))?
                    .1;
                if !order.contains(&bench) {
                    order.push(bench);
                }
                uploads[shard].push(line);
            }
        }
    }
    Ok((uploads, order))
}

/// One daemon's job on `lines`, call by call as `run_sim_job` makes
/// them on a one-thread worker. Returns the rendered document and table,
/// and the access-log records replayed.
fn sub_job(
    lines: &[&str],
    spec: &JobSpec,
    pass: &mut Pass,
) -> Result<(String, String, u64), String> {
    let mut ingest = StreamIngest::new();
    pass.time("ingest.decode_s", || {
        lines.iter().try_for_each(|line| ingest.push_line(line))
    })?;
    pass.add("ingest.lines", ingest.lines() as f64);
    let inputs = pass.time("ingest.reconstruct_s", || {
        ingest.into_inputs(spec.bench.as_deref(), spec.model.as_deref(), spec.capacity)
    })?;
    let specs = resolve_sim_specs(&spec.specs, spec.grid)?;
    let indexes: Vec<Option<NextUseIndex>> = if spec.oracle {
        pass.time("oracle.index_s", || {
            inputs
                .iter()
                .map(|input| Some(NextUseIndex::build(&input.trace)))
                .collect()
        })
    } else {
        inputs.iter().map(|_| None).collect()
    };
    let mut benches = Vec::with_capacity(inputs.len());
    let mut replayed = 0;
    for (input, index) in inputs.iter().zip(&indexes) {
        let mut sims = Vec::with_capacity(specs.len());
        for &cell in &specs {
            let (log, capacity, phases) = (&input.log, input.capacity, input.phases);
            let (result, metrics) = pass.time("replay.metrics_s", || {
                simulate_metrics(log, cell, capacity, sample_interval(log))
            });
            let (_, costs) = pass.time("replay.costs_s", || {
                simulate_costs(log, cell, capacity, phases)
            });
            let regret = index.as_ref().map(|i| {
                pass.time("replay.regret_s", || {
                    simulate_regret(log, cell, capacity, phases, i).1
                })
            });
            let switches = pass.time("replay.switches_s", || {
                simulate_switches(log, cell, capacity)
            });
            let passes = 2 + u64::from(regret.is_some());
            pass.add("replay.cells", 1.0);
            replayed += log.records.len() as u64 * passes;
            pass.count_replay(&result);
            sims.push(SimulatedSpec {
                label: cell.label(),
                result,
                metrics,
                costs,
                regret,
                windows: None,
                switches,
            });
        }
        let oracle = spec.oracle.then(|| {
            pass.time("oracle.replay_s", || {
                oracle_replay(&input.trace, input.capacity)
            })
        });
        benches.push(BenchSim {
            name: input.name.clone(),
            ops: input.trace.ops.len() as u64,
            capacity: input.capacity,
            phases: input.phases,
            cell_us: vec![0; sims.len()],
            sims,
            oracle,
        });
    }
    let out = SimJobOutput {
        labels: specs.iter().map(|s| s.label()).collect(),
        benches,
    };
    let doc = pass.time("render.doc_s", || value_to_json(&sim_metrics_doc(&out)));
    let table = pass.time("render.table_s", || render_sim_tables(&out));
    Ok((doc, table, replayed))
}

/// The router's merge: parse each shard's document, merge documents and
/// tables, render the reply document.
fn merge(order: &[String], docs: &[String], tables: &[String]) -> Result<String, String> {
    let values = docs
        .iter()
        .map(|d| serde_json::value_from_str(d).map_err(|e| format!("shard doc: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge_metrics_docs(order, &values)?;
    black_box(merge_sim_tables(order, tables)?);
    Ok(value_to_json(&merged))
}

/// Lines of model streams after a benchmark's first: the decoder only
/// checks them against the first stream's trace.
fn verify_only_lines(export: &Export) -> u64 {
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    let mut n = 0;
    for line in export.lines() {
        let Some(rest) = line.strip_prefix("{\"source\":\"") else {
            continue;
        };
        let Some((source, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(model) = rest
            .strip_prefix(",\"model\":\"")
            .and_then(|r| r.split_once('"'))
            .map(|(m, _)| m)
        else {
            continue;
        };
        if *first.entry(source).or_insert(model) != model {
            n += 1;
        }
    }
    n
}

/// The figure binaries' in-process work, once: record each benchmark
/// and replay it through the Figure 9 configurations. (Each of the three
/// binaries does this; the traced pass does it once.)
fn figures_pass(profiles: &[WorkloadProfile]) -> Result<Pass, String> {
    let mut pass = Pass::default();
    generate(profiles, &mut pass)?;
    let mut ops = 0u64;
    for p in profiles {
        let run = pass
            .time("frontend.record_s", || record(p))
            .map_err(|e| format!("{}: {e:?}", p.name))?;
        pass.add("frontend.traces_created", run.summary.traces_created as f64);
        pass.add("frontend.accesses", run.summary.trace_accesses as f64);
        let c = pass.time("replay.fig9_s", || compare_figure9(&run.log));
        for r in std::iter::once(&c.unified).chain(&c.generational) {
            pass.count_replay(r);
            pass.add("replay.cells", 1.0);
            ops += run.log.records.len() as u64;
        }
    }
    pass.add("replay.ops_per_s", ops as f64 / pass.get("replay.fig9_s"));
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn export(lines: &[&str]) -> Export {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        Export {
            bytes: text.into_bytes(),
            lines: lines.len() as u64,
        }
    }

    const LINES: [&str; 6] = [
        r#"{"schema":"gencache-events","version":2}"#,
        r#"{"source":"word","model":"unified","duration_us":1}"#,
        r#"{"source":"word","model":"unified","event":{}}"#,
        r#"{"source":"word","model":"gen","duration_us":1}"#,
        r#"{"source":"word","model":"gen","event":{}}"#,
        r#"{"source":"gcc","model":"unified","event":{}}"#,
    ];

    #[test]
    fn later_model_streams_only_verify() {
        assert_eq!(verify_only_lines(&export(&LINES)), 2);
    }

    #[test]
    fn split_broadcasts_the_header_and_routes_by_placement() {
        let e = export(&LINES);
        let (uploads, order) = split(&e).unwrap();
        assert_eq!(order, ["word", "gcc"]);
        assert_eq!(uploads[0], [LINES[0], LINES[5]], "gcc's shard");
        assert_eq!(
            uploads[1],
            [LINES[0], LINES[1], LINES[2], LINES[3], LINES[4]]
        );
    }
}
