//! Bounded-memory ingestion of `gencache-events` exports, and the
//! shared what-if simulation job runner.
//!
//! Three consumers drive the same machinery: the offline `simulate`
//! binary (file or stdin), the `gencache-serve` daemon (lines arriving
//! over TCP through a bounded channel), and tests. [`StreamIngest`]
//! consumes an export **one line at a time** and keeps only
//!
//! * the first-seen model stream's reconstructed frontend trace per
//!   benchmark (the reference), and
//! * an O(1) verification cursor per additional model stream,
//!
//! so peak memory is O(reconstructed frontend trace + per-trace size
//! maps), never O(event-stream length) — the raw events (hits, misses,
//! insertions, evictions, promotions…) are inverted on the fly by
//! [`TraceRebuilder`] and dropped. Cross-stream verification is the same
//! invariant the offline simulator enforces: every model stream of a
//! benchmark must reconstruct the *identical* frontend trace, else the
//! export mixes runs.
//!
//! [`run_sim_job`] then replays the recovered traces against a spec
//! list. The serve daemon and the offline tool both assemble their
//! metrics documents through [`metrics_doc`], so a served reply is
//! byte-identical to `simulate --metrics-out` on the same export.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::sync::atomic::{AtomicBool, Ordering};

use gencache_obs::{
    decode_event_line, oracle_replay, parse_stream_line, CacheEvent, CostObserver, CostReport,
    MetricsObserver, MetricsReport, NextUseIndex, OracleResult, RegretObserver, RegretReport,
    RunMeta, SimTrace, StreamLine, TraceRebuilder, WindowObserver, WindowReport, METRICS_SCHEMA,
    METRICS_VERSION, TOP_REGRET,
};
use gencache_core::SwitchReport;
use gencache_sim::par::{effective_jobs, par_map};
use gencache_sim::report::TextTable;
use gencache_sim::{
    parse_spec, policy_grid, proportion_grid, replay_sim_observed, trace_to_log, AccessLog,
    ModelSpec, SimSpec, SimulatedSpec,
};
use serde::{Deserialize, Value};
use serde_json::Canonical;

use crate::{
    export_specs, metrics_doc, metrics_doc_text, sample_interval, suite_section, SpecReports,
};

/// Opens `path` for line reading, with `-` meaning stdin — so exports
/// can be piped (`gencache-client fetch … | simulate --events -`)
/// without temp files.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be opened.
pub fn open_lines(path: &str) -> io::Result<Box<dyn BufRead>> {
    if path == "-" {
        Ok(Box::new(BufReader::new(io::stdin())))
    } else {
        Ok(Box::new(BufReader::new(File::open(path)?)))
    }
}

/// How one model stream relates to its benchmark's reference trace.
enum ModelRole {
    /// First stream seen for the benchmark: its ops *are* the reference.
    Builder,
    /// Later stream: verified op-by-op against the reference with a
    /// cursor — O(1) extra memory per stream.
    Checker { cursor: usize },
}

/// Ingestion state for one model stream.
struct ModelState {
    rebuilder: TraceRebuilder,
    role: ModelRole,
}

/// Ingestion state for one benchmark.
struct BenchIngest {
    name: String,
    models: Vec<String>,
    meta: BTreeMap<String, RunMeta>,
    reference: SimTrace,
    /// One entry per model stream that produced events, in arrival
    /// order.
    states: Vec<(String, ModelState)>,
}

/// The `(source, model)` stream currently delivering events, with the
/// indexes of its bench and model state, so a line of the same stream
/// costs neither an allocation nor a lookup.
struct ActiveStream {
    source: String,
    model: String,
    bench: usize,
    state: usize,
}

/// Incremental, bounded-memory parser for a v2 `gencache-events`
/// export. Feed lines with [`push_line`](StreamIngest::push_line), then
/// convert with [`into_inputs`](StreamIngest::into_inputs).
#[derive(Default)]
pub struct StreamIngest {
    saw_header: bool,
    lines: u64,
    bytes: u64,
    /// Benchmarks in first-appearance order.
    benches: Vec<BenchIngest>,
    /// The stream currently delivering events; a previously-seen stream
    /// reappearing after another means the upload interleaves streams,
    /// which the O(1) cursor verification cannot process — caught here
    /// with a clear error instead of a confusing op-by-op divergence
    /// report.
    active: Option<ActiveStream>,
}

impl std::fmt::Debug for StreamIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamIngest")
            .field("lines", &self.lines)
            .field("bytes", &self.bytes)
            .field(
                "benchmarks",
                &self.benches.iter().map(|b| &b.name).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl StreamIngest {
    /// An ingest with nothing consumed yet.
    pub fn new() -> Self {
        StreamIngest::default()
    }

    /// Non-empty lines consumed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Bytes consumed so far (including line terminators).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether a schema header line has been seen yet.
    pub fn has_header(&self) -> bool {
        self.saw_header
    }

    /// Consumes one export line. Blank lines are counted as bytes but
    /// otherwise ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line, an invalid header,
    /// or a cross-stream divergence (streams that cannot come from the
    /// same frontend run).
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        self.bytes += line.len() as u64 + 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        self.lines += 1;
        if let Some(decoded) = decode_event_line(line) {
            return self.push_event(decoded.source, decoded.model, &decoded.event);
        }
        match parse_stream_line(line)? {
            StreamLine::Header(header) => {
                header.validate()?;
                self.saw_header = true;
            }
            StreamLine::Meta(meta) => {
                let b = bench_index(&mut self.benches, &meta.source);
                let bench = &mut self.benches[b];
                if !bench.models.contains(&meta.model) {
                    bench.models.push(meta.model.clone());
                }
                bench.meta.insert(meta.model.clone(), meta);
            }
            StreamLine::Event(record) => {
                self.push_event(&record.source, &record.model, &record.event)?;
            }
        }
        Ok(())
    }

    /// Feeds one event of the `(source, model)` stream to its rebuilder
    /// and verifies the recovered op against the benchmark's reference.
    fn push_event(&mut self, source: &str, model: &str, event: &CacheEvent) -> Result<(), String> {
        let (b, m) = match &self.active {
            Some(a) if a.source == source && a.model == model => (a.bench, a.state),
            _ => self.switch_stream(source, model)?,
        };
        let bench = &mut self.benches[b];
        let state = &mut bench.states[m].1;
        let op = state
            .rebuilder
            .push(event)
            .map_err(|e| format!("{source} [{model}]: {e}"))?;
        if let Some(op) = op {
            match &mut state.role {
                ModelRole::Builder => bench.reference.ops.push(op),
                ModelRole::Checker { cursor } => {
                    if bench.reference.ops.get(*cursor) != Some(&op) {
                        return Err(format!(
                            "{source}: stream for {model:?} diverges from the \
                             benchmark's reference frontend trace at op {} — the \
                             export mixes runs (or interleaves streams out of \
                             export order)",
                            *cursor
                        ));
                    }
                    *cursor += 1;
                }
            }
        }
        Ok(())
    }

    /// Makes `(source, model)` the active stream, opening its model
    /// state; returns the bench and state indexes.
    fn switch_stream(&mut self, source: &str, model: &str) -> Result<(usize, usize), String> {
        let b = bench_index(&mut self.benches, source);
        let bench = &mut self.benches[b];
        if bench.states.iter().any(|(m, _)| m == model) {
            return Err(format!(
                "{source}: stream for model {model:?} reappears after \
                 another stream — the upload interleaves (source, model) \
                 streams; lines must stay grouped per stream exactly as \
                 the exporter writes them"
            ));
        }
        if !bench.models.iter().any(|m| m == model) {
            bench.models.push(model.to_string());
        }
        // The first stream that produces events builds the reference;
        // everything after verifies against it.
        let role = if bench.states.is_empty() {
            ModelRole::Builder
        } else {
            ModelRole::Checker { cursor: 0 }
        };
        bench.states.push((
            model.to_string(),
            ModelState {
                rebuilder: TraceRebuilder::new(),
                role,
            },
        ));
        let m = bench.states.len() - 1;
        self.active = Some(ActiveStream {
            source: source.to_string(),
            model: model.to_string(),
            bench: b,
            state: m,
        });
        Ok((b, m))
    }

    /// Finishes ingestion: checks every verified stream covered the full
    /// reference trace and converts each selected benchmark into a
    /// simulation input.
    ///
    /// `bench` restricts to one benchmark; `model` picks which stream's
    /// run metadata fixes capacity/duration/phases (default: the
    /// first-appearing model); `capacity` overrides the budget (and is
    /// required for pre-v2 exports with no metadata).
    ///
    /// # Errors
    ///
    /// Returns a description of an empty export, a missing
    /// benchmark/model, a truncated verified stream, or missing run
    /// metadata without a `capacity` override.
    pub fn into_inputs(
        self,
        bench: Option<&str>,
        model: Option<&str>,
        capacity: Option<u64>,
    ) -> Result<Vec<SimJobInput>, String> {
        if self.benches.is_empty() {
            return Err("export contains no event streams".to_string());
        }
        let mut inputs = Vec::new();
        for b in &self.benches {
            let name = &b.name;
            if bench.is_some_and(|want| want != name) {
                continue;
            }
            let chosen = match model {
                Some(label) => {
                    if !b.states.iter().any(|(m, _)| m == label) {
                        return Err(format!(
                            "{name}: no stream for model {label:?}; available: {}",
                            b.models.join(", ")
                        ));
                    }
                    label.to_string()
                }
                None => b.models.first().expect("non-empty bench").clone(),
            };
            let mut states: Vec<&(String, ModelState)> = b.states.iter().collect();
            states.sort_by(|x, y| x.0.cmp(&y.0));
            for (m, state) in states {
                if let ModelRole::Checker { cursor } = state.role {
                    if cursor != b.reference.ops.len() {
                        return Err(format!(
                            "{name}: streams reconstruct different frontend traces \
                             ({} vs {} ops for {m:?}) — the export mixes runs",
                            b.reference.ops.len(),
                            cursor
                        ));
                    }
                }
            }
            let meta = b.meta.get(&chosen);
            let peak = match (meta, capacity) {
                (Some(m), _) => m.peak_trace_bytes,
                // Pre-v2 stream: peak footprint unknown; an explicit
                // capacity pins the budget and the peak is only cosmetic.
                (None, Some(capacity)) => capacity * 2,
                (None, None) => {
                    return Err(format!(
                        "{name}: stream carries no run metadata (pre-v2 export); \
                         pass --capacity to fix the cache budget"
                    ))
                }
            };
            let duration_us = meta.map_or_else(
                || {
                    b.reference
                        .ops
                        .iter()
                        .filter_map(|op| match *op {
                            gencache_obs::TraceOp::Create { time, .. }
                            | gencache_obs::TraceOp::Access { time, .. }
                            | gencache_obs::TraceOp::Invalidate { time, .. } => {
                                Some(time.as_micros())
                            }
                            _ => None,
                        })
                        .max()
                        .map_or(0, |t| t + 1)
                },
                |m| m.duration_us,
            );
            let cap = capacity.unwrap_or_else(|| (peak / 2).max(1));
            let phases = meta.map_or(1, |m| m.phases.max(1));
            let trace = b.reference.clone();
            let log = trace_to_log(&trace, name.clone(), duration_us, peak);
            inputs.push(SimJobInput {
                name: name.clone(),
                trace,
                log,
                capacity: cap,
                phases,
            });
        }
        if inputs.is_empty() {
            return Err(match bench {
                Some(want) => format!(
                    "benchmark {want:?} not in export; available: {}",
                    self.benches
                        .iter()
                        .map(|b| b.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                None => "no benchmarks selected".to_string(),
            });
        }
        Ok(inputs)
    }
}

/// The index of `source`'s bench, opened on first appearance.
fn bench_index(benches: &mut Vec<BenchIngest>, source: &str) -> usize {
    benches
        .iter()
        .position(|b| b.name == source)
        .unwrap_or_else(|| {
            benches.push(BenchIngest {
                name: source.to_string(),
                models: Vec::new(),
                meta: BTreeMap::new(),
                reference: SimTrace::default(),
                states: Vec::new(),
            });
            benches.len() - 1
        })
}

/// One benchmark ready to simulate: its recovered frontend trace plus
/// the replay parameters the events alone cannot supply.
#[derive(Debug)]
pub struct SimJobInput {
    /// Benchmark name (the export's `source`).
    pub name: String,
    /// The recovered frontend request trace.
    pub trace: SimTrace,
    /// The trace re-synthesized as a replayable access log.
    pub log: AccessLog,
    /// Cache budget in bytes.
    pub capacity: u64,
    /// Cost-attribution phase count.
    pub phases: u32,
}

/// Resolves a simulation spec list: explicit labels, plus the §6 sweep
/// grid under `grid`, defaulting to the live export's configurations.
/// Deduped by label, keeping first appearance.
///
/// # Errors
///
/// Returns the parse error of the first malformed label.
pub fn resolve_sim_specs(labels: &[String], grid: bool) -> Result<Vec<SimSpec>, String> {
    let mut specs = Vec::new();
    for label in labels {
        specs.push(parse_spec(label)?);
    }
    if grid {
        specs.push(SimSpec::Model(ModelSpec::Unified));
        for proportions in proportion_grid() {
            for policy in policy_grid() {
                specs.push(SimSpec::Model(ModelSpec::Generational {
                    proportions,
                    policy,
                }));
            }
        }
    }
    if specs.is_empty() {
        for (_, spec) in export_specs() {
            specs.push(SimSpec::Model(spec));
        }
    }
    let mut seen = Vec::new();
    specs.retain(|s| {
        let label = s.label();
        if seen.contains(&label) {
            false
        } else {
            seen.push(label);
            true
        }
    });
    Ok(specs)
}

/// One simulated benchmark: every spec's outcome plus the optional
/// oracle lower bound.
#[derive(Debug)]
pub struct BenchSim {
    /// Benchmark name.
    pub name: String,
    /// Frontend ops replayed.
    pub ops: u64,
    /// Cache budget in bytes.
    pub capacity: u64,
    /// Cost-attribution phase count.
    pub phases: u32,
    /// One outcome per spec, in spec order.
    pub sims: Vec<SimulatedSpec>,
    /// Replay wall-clock per spec cell in microseconds, in spec order —
    /// telemetry only, never part of the metrics document.
    pub cell_us: Vec<u64>,
    /// Belady-style furthest-next-use lower bound, when requested.
    pub oracle: Option<OracleResult>,
}

/// A complete simulation job outcome, in input order.
#[derive(Debug)]
pub struct SimJobOutput {
    /// Spec labels, in spec order (the metrics document's columns).
    pub labels: Vec<String>,
    /// Per-benchmark outcomes.
    pub benches: Vec<BenchSim>,
}

/// Per-job analysis knobs shared by every `run_sim_job` caller: the
/// offline `simulate` tool, the serve daemon, and the fleet router all
/// thread the same options through, so a served reply stays
/// byte-identical to the offline document for the same knob values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimJobOptions {
    /// Replay the Belady oracle per benchmark and attach a regret
    /// attribution to every cell.
    pub oracle: bool,
    /// Fold every cell's event stream into a windowed time-series
    /// report with drift annotations.
    pub windows: bool,
    /// Window width in accesses for the `windows` report. `None` keeps
    /// the default: the timeline sample interval (≈ accesses / 64).
    pub window_width: Option<u64>,
    /// Cap on per-trace regret contributors kept per phase and in the
    /// run total. `None` keeps the default cap.
    pub regret_top: Option<usize>,
}

impl SimJobOptions {
    /// Options with one knob set: `oracle`, everything else default —
    /// the most common caller shape.
    pub fn oracle(oracle: bool) -> Self {
        SimJobOptions {
            oracle,
            ..SimJobOptions::default()
        }
    }
}

/// Runs the benchmark × spec cross product across `jobs` workers,
/// reassembling in input order — bit-identical for any worker count,
/// and byte-identical whether driven by the offline tool or the serve
/// daemon. Each cell is replayed exactly once, through one composed
/// observer that feeds every report. When `options.windows` is set,
/// every cell also folds its event stream into a windowed time-series
/// report with drift annotations (window width =
/// `options.window_width`, defaulting to the timeline sample interval).
/// Adaptive cells also attach their policy controller's switch report.
///
/// `cancel` is polled between cells: once set (deadline expiry,
/// shutdown), remaining cells are skipped and the job returns an error
/// instead of a partial result.
///
/// # Errors
///
/// Returns `"job canceled"`-style text when `cancel` fired.
pub fn run_sim_job(
    inputs: &[SimJobInput],
    specs: &[SimSpec],
    options: SimJobOptions,
    jobs: usize,
    cancel: Option<&AtomicBool>,
) -> Result<SimJobOutput, String> {
    let canceled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let cells: Vec<(usize, SimSpec)> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| specs.iter().map(move |&s| (i, s)))
        .collect();
    // Under --oracle every cell also gets a Belady-regret walk, which
    // needs the clairvoyant next-use index of its input's frontend
    // trace. Built once per input, shared by all of that input's cells.
    let indexes: Vec<Option<NextUseIndex>> = inputs
        .iter()
        .map(|input| options.oracle.then(|| NextUseIndex::build(&input.trace)))
        .collect();
    let regret_top = options.regret_top.unwrap_or(TOP_REGRET);
    let simulated: Vec<Option<(SimulatedSpec, u64)>> = par_map(&cells, jobs, |&(i, spec)| {
        if canceled() {
            return None;
        }
        let started = std::time::Instant::now();
        let input = &inputs[i];
        let every = sample_interval(&input.log);
        let duration_us = input.log.duration.as_micros();
        // One replay per cell: every report rides the same event stream.
        let observer = (
            (
                MetricsObserver::with_timeline(every),
                CostObserver::with_phases(input.phases, duration_us),
            ),
            (
                indexes[i].as_ref().map(|index| {
                    RegretObserver::with_top(index, input.phases, duration_us, regret_top)
                }),
                options
                    .windows
                    .then(|| WindowObserver::new(options.window_width.unwrap_or(every).max(1))),
            ),
        );
        let (result, ((metrics, costs), (regret, windows)), switches) =
            replay_sim_observed(&input.log, spec, input.capacity, observer);
        let sim = SimulatedSpec {
            label: spec.label(),
            result,
            metrics: metrics.report(),
            costs: costs.into_report(),
            regret: regret.map(|r| r.report()),
            windows: windows.map(|w| w.report()),
            switches,
        };
        Some((sim, started.elapsed().as_micros() as u64))
    });
    if canceled() || simulated.iter().any(Option::is_none) {
        return Err("job canceled before completion (deadline or shutdown)".to_string());
    }
    let (simulated, cell_us): (Vec<SimulatedSpec>, Vec<u64>) =
        simulated.into_iter().flatten().unzip();
    let oracles: Vec<Option<OracleResult>> = if options.oracle {
        let results = par_map(inputs, jobs, |input| {
            if canceled() {
                None
            } else {
                Some(oracle_replay(&input.trace, input.capacity))
            }
        });
        if results.iter().any(Option::is_none) {
            return Err("job canceled before completion (deadline or shutdown)".to_string());
        }
        results
    } else {
        inputs.iter().map(|_| None).collect()
    };
    let per_bench = specs.len().max(1);
    let benches = inputs
        .iter()
        .zip(simulated.chunks(per_bench))
        .zip(cell_us.chunks(per_bench))
        .zip(oracles)
        .map(|(((input, sims), cells), oracle)| BenchSim {
            name: input.name.clone(),
            ops: input.trace.ops.len() as u64,
            capacity: input.capacity,
            phases: input.phases,
            sims: sims.to_vec(),
            cell_us: cells.to_vec(),
            oracle,
        })
        .collect();
    Ok(SimJobOutput {
        labels: specs.iter().map(|s| s.label()).collect(),
        benches,
    })
}

/// Assembles the job's metrics document — the same
/// [`metrics_doc`] the live export and the offline simulator use, so
/// every consumer's document is byte-comparable.
pub fn sim_metrics_doc(out: &SimJobOutput) -> Value {
    let benchmarks: Vec<(String, Vec<SpecReports>)> = out
        .benches
        .iter()
        .map(|b| {
            let reports = b
                .sims
                .iter()
                .map(|sim| {
                    (
                        sim.metrics.clone(),
                        sim.costs.clone(),
                        None,
                        sim.regret.clone(),
                        sim.windows.clone(),
                        sim.switches.clone(),
                    )
                })
                .collect();
            (b.name.clone(), reports)
        })
        .collect();
    metrics_doc(&out.labels, &benchmarks)
}

/// Renders the human-readable per-benchmark result tables (the offline
/// tool's stdout and the client's `--table` display).
pub fn render_sim_tables(out: &SimJobOutput) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for bench in &out.benches {
        let _ = writeln!(
            text,
            "\n=== {}: {} ops, capacity {} bytes, {} phases ===",
            bench.name, bench.ops, bench.capacity, bench.phases,
        );
        let with_regret = bench.sims.iter().any(|s| s.regret.is_some());
        if with_regret {
            let mut table = TextTable::new([
                "spec", "accesses", "hits", "misses", "miss%", "Minstr", "regret",
            ]);
            for sim in &bench.sims {
                table.row([
                    sim.label.clone(),
                    sim.metrics.accesses.to_string(),
                    sim.metrics.hits.to_string(),
                    sim.metrics.misses.to_string(),
                    format!("{:.2}", sim.metrics.miss_rate() * 100.0),
                    format!("{:.2}", sim.costs.total.total() / 1e6),
                    sim.regret
                        .as_ref()
                        .map_or_else(|| "-".to_string(), |r| r.total.regret_sum.to_string()),
                ]);
            }
            if let Some(oracle) = &bench.oracle {
                table.row([
                    "oracle".to_string(),
                    oracle.accesses.to_string(),
                    oracle.hits.to_string(),
                    oracle.misses.to_string(),
                    format!("{:.2}", oracle.miss_rate() * 100.0),
                    "lower bound".to_string(),
                    "0".to_string(),
                ]);
            }
            text.push_str(&table.render());
            continue;
        }
        let mut table = TextTable::new(["spec", "accesses", "hits", "misses", "miss%", "Minstr"]);
        for sim in &bench.sims {
            table.row([
                sim.label.clone(),
                sim.metrics.accesses.to_string(),
                sim.metrics.hits.to_string(),
                sim.metrics.misses.to_string(),
                format!("{:.2}", sim.metrics.miss_rate() * 100.0),
                format!("{:.2}", sim.costs.total.total() / 1e6),
            ]);
        }
        if let Some(oracle) = &bench.oracle {
            table.row([
                "oracle".to_string(),
                oracle.accesses.to_string(),
                oracle.hits.to_string(),
                oracle.misses.to_string(),
                format!("{:.2}", oracle.miss_rate() * 100.0),
                "lower bound".to_string(),
            ]);
        }
        text.push_str(&table.render());
    }
    text
}

/// How a fleet router classifies one upload line for per-benchmark
/// routing (see `gencache-shard`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteClass {
    /// Blank — counted but never forwarded.
    Blank,
    /// The export's schema header — broadcast to every sub-upload.
    Header,
    /// A stream line belonging to the named benchmark (`source`).
    Stream(String),
}

/// Classifies an export line for routing. Fast path: export records
/// serialize `source` as their *first* key, so a prefix scan recovers
/// the routing key without JSON parsing; headers and anything unusual
/// fall back to the full parser so diagnostics match single-node ingest.
///
/// # Errors
///
/// Returns the same description single-node ingest would give for a
/// malformed line.
pub fn classify_line(line: &str) -> Result<RouteClass, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(RouteClass::Blank);
    }
    if let Some(rest) = trimmed.strip_prefix("{\"source\":\"") {
        if let Some(end) = rest.find('"') {
            if !rest[..end].contains('\\') {
                return Ok(RouteClass::Stream(rest[..end].to_string()));
            }
        }
    }
    match parse_stream_line(trimmed)? {
        StreamLine::Header(_) => Ok(RouteClass::Header),
        StreamLine::Meta(meta) => Ok(RouteClass::Stream(meta.source)),
        StreamLine::Event(record) => Ok(RouteClass::Stream(record.source)),
    }
}

fn doc_field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// One shard's metrics document, split for the merge: the header
/// fields it is checked by, and the text of each `benchmarks` element.
/// A field is `None` when the document lacks it (or has the wrong
/// kind of value there).
struct ShardDoc<'a> {
    schema: Option<Value>,
    version: Option<Value>,
    labels: Option<Vec<String>>,
    benches: Option<Vec<Cow<'a, str>>>,
}

impl<'a> ShardDoc<'a> {
    /// Splits a document in the exact shape and canonical form
    /// [`metrics_doc_text`] writes, without building its tree; the
    /// elements borrow `text`. `None` for anything else.
    fn split(text: &'a str) -> Option<ShardDoc<'a>> {
        let mut c = Canonical::new(text);
        c.lit("{\"schema\":")?;
        let schema = serde_json::value_from_str(c.value()?).ok()?;
        c.lit(",\"version\":")?;
        let version = serde_json::value_from_str(c.value()?).ok()?;
        c.lit(",\"suite\":")?;
        let mut labels = Vec::new();
        c.object(|c, label| {
            labels.push(label.into_owned());
            c.value().map(drop)
        })?;
        c.lit(",\"benchmarks\":")?;
        let mut benches = Vec::new();
        c.array(|c| {
            benches.push(Cow::Borrowed(c.value()?));
            Some(())
        })?;
        c.lit("}")?;
        c.at_end().then_some(ShardDoc {
            schema: Some(schema),
            version: Some(version),
            labels: Some(labels),
            benches: Some(benches),
        })
    }

    /// Splits a parsed document, rendering each element: the general
    /// path for text [`split`](ShardDoc::split) declines.
    fn from_tree(doc: &Value) -> ShardDoc<'static> {
        ShardDoc {
            schema: doc_field(doc, "schema").cloned(),
            version: doc_field(doc, "version").cloned(),
            labels: doc_field(doc, "suite")
                .and_then(Value::as_object)
                .map(|suite| suite.iter().map(|(k, _)| k.clone()).collect()),
            benches: doc_field(doc, "benchmarks")
                .and_then(Value::as_array)
                .map(|benches| {
                    benches
                        .iter()
                        .map(|b| Cow::Owned(crate::value_to_json(b)))
                        .collect()
                }),
        }
    }
}

/// Types one `benchmarks` element into its benchmark name and one
/// report row per label.
fn bench_reports(bench: &str, labels: &[String]) -> Result<(String, Vec<SpecReports>), String> {
    let bench = serde_json::value_from_str(bench)
        .map_err(|e| format!("shard doc has an unparseable benchmark entry: {e}"))?;
    let name = match doc_field(&bench, "benchmark") {
        Some(Value::Str(name)) => name.clone(),
        other => return Err(format!("benchmark entry names {other:?}")),
    };
    let mut reports: Vec<SpecReports> = Vec::with_capacity(labels.len());
    for label in labels {
        let section = doc_field(&bench, label)
            .ok_or_else(|| format!("{name}: no section for spec {label:?}"))?;
        if doc_field(section, "sampled").is_some() {
            return Err(format!(
                "{name}/{label}: sampled sections cannot be fleet-merged"
            ));
        }
        let metrics = doc_field(section, "metrics")
            .ok_or_else(|| format!("{name}/{label}: no metrics"))
            .and_then(|v| {
                MetricsReport::from_value(v)
                    .map_err(|e| format!("{name}/{label}: bad metrics: {e}"))
            })?;
        let costs = doc_field(section, "costs")
            .ok_or_else(|| format!("{name}/{label}: no costs"))
            .and_then(|v| {
                CostReport::from_value(v).map_err(|e| format!("{name}/{label}: bad costs: {e}"))
            })?;
        let regret = match doc_field(section, "regret") {
            Some(v) => Some(
                RegretReport::from_value(v)
                    .map_err(|e| format!("{name}/{label}: bad regret: {e}"))?,
            ),
            None => None,
        };
        let windows = match doc_field(section, "windows") {
            Some(v) => Some(
                WindowReport::from_value(v)
                    .map_err(|e| format!("{name}/{label}: bad windows: {e}"))?,
            ),
            None => None,
        };
        let switches = match doc_field(section, "switches") {
            Some(v) => Some(
                SwitchReport::from_value(v)
                    .map_err(|e| format!("{name}/{label}: bad switches: {e}"))?,
            ),
            None => None,
        };
        reports.push((metrics, costs, None, regret, windows, switches));
    }
    Ok((name, reports))
}

/// Merges per-shard metrics documents, given as text, back into the
/// text of the single document the whole job would have produced on
/// one node.
///
/// A `benchmarks` element depends only on its own benchmark, so each
/// shard's element text is already the single-node text: the elements
/// are spliced verbatim in `order` (the upload's first-appearance
/// order). Only the `suite` section changes — its float sums and
/// timeline concatenation depend on the benchmark order — so every
/// element is parsed into its typed reports, the suite is folded in
/// `order` exactly as [`metrics_doc`] folds it, and only the suite is
/// rendered. The result is **byte-identical** to the single-node
/// document.
///
/// Shard documents in the canonical form the shards write are split
/// without building their trees; any other document is parsed and its
/// elements re-rendered, so it merges exactly as a tree would.
///
/// # Errors
///
/// Returns a description when a document does not parse, has the wrong
/// schema, the shards disagree on spec labels, a benchmark is missing,
/// duplicated, or unknown to `order`, or a section fails to
/// deserialize or is a `sampled` section.
pub fn merge_metrics_texts<S: AsRef<str>>(order: &[String], docs: &[S]) -> Result<String, String> {
    let mut split = Vec::with_capacity(docs.len());
    for doc in docs {
        let doc = doc.as_ref();
        split.push(match ShardDoc::split(doc) {
            Some(parts) => parts,
            None => ShardDoc::from_tree(
                &serde_json::value_from_str(doc)
                    .map_err(|e| format!("shard returned an unparseable doc: {e}"))?,
            ),
        });
    }
    merge_shard_docs(order, split)
}

/// The merge behind [`merge_metrics_texts`] and [`merge_metrics_docs`]:
/// checks the split documents and assembles the merged text.
fn merge_shard_docs(order: &[String], docs: Vec<ShardDoc<'_>>) -> Result<String, String> {
    // Typing the entries is most of the merge's work and each entry is
    // independent, so they are typed up front across workers, each
    // against its own document's labels. The loop below still meets
    // every error in document order.
    let entries: Vec<(&str, &[String])> = docs
        .iter()
        .filter_map(|doc| Some((doc.benches.as_ref()?, doc.labels.as_ref()?)))
        .flat_map(|(benches, labels)| benches.iter().map(move |b| (b.as_ref(), labels.as_slice())))
        .collect();
    let mut typed = par_map(&entries, effective_jobs(None), |(bench, labels)| {
        bench_reports(bench, labels)
    })
    .into_iter();
    let mut labels: Option<Vec<String>> = None;
    let mut sections: BTreeMap<String, (Vec<SpecReports>, Cow<'_, str>)> = BTreeMap::new();
    for doc in docs {
        match &doc.schema {
            Some(Value::Str(s)) if s == METRICS_SCHEMA => {}
            other => {
                return Err(format!(
                    "shard doc has schema {:?}, not {METRICS_SCHEMA:?}",
                    other.as_ref()
                ))
            }
        }
        match &doc.version {
            Some(Value::UInt(v)) if *v == u64::from(METRICS_VERSION) => {}
            other => {
                return Err(format!(
                    "shard doc has version {:?}, not {METRICS_VERSION}",
                    other.as_ref()
                ))
            }
        }
        let doc_labels = doc.labels.ok_or("shard doc has no suite section")?;
        match &labels {
            None => labels = Some(doc_labels),
            Some(first) if *first == doc_labels => {}
            Some(first) => {
                return Err(format!(
                    "shards disagree on spec labels: {first:?} vs {doc_labels:?}"
                ))
            }
        }
        let benches = doc.benches.ok_or("shard doc has no benchmarks section")?;
        for bench in benches {
            let (name, reports) = typed.next().expect("one typed result per entry")?;
            if sections.insert(name.clone(), (reports, bench)).is_some() {
                return Err(format!(
                    "benchmark {name:?} appears in more than one shard doc"
                ));
            }
        }
    }
    let labels = labels.ok_or("no shard documents to merge")?;
    let mut benchmarks = Vec::with_capacity(order.len());
    for name in order {
        benchmarks.push(
            sections
                .remove(name)
                .ok_or_else(|| format!("no shard produced benchmark {name:?}"))?,
        );
    }
    if let Some(extra) = sections.keys().next() {
        return Err(format!("shard docs contain unexpected benchmark {extra:?}"));
    }
    let suite = suite_section(
        &labels,
        benchmarks.iter().map(|(reports, _)| reports.as_slice()),
    );
    let texts: Vec<&str> = benchmarks.iter().map(|(_, text)| text.as_ref()).collect();
    Ok(metrics_doc_text(&suite, &texts))
}

/// Merges per-shard metrics documents given as trees: the
/// [`merge_metrics_texts`] merge, returning the merged tree.
///
/// # Errors
///
/// As [`merge_metrics_texts`].
pub fn merge_metrics_docs(order: &[String], docs: &[Value]) -> Result<Value, String> {
    let merged = merge_shard_docs(order, docs.iter().map(ShardDoc::from_tree).collect())?;
    serde_json::value_from_str(&merged).map_err(|e| format!("merged doc does not parse: {e}"))
}

/// Merges per-shard result tables (the human-readable rendering) back
/// into single-node order. Each benchmark's segment starts with the
/// `\n=== name: …` banner [`render_sim_tables`] writes, which is the
/// split point.
///
/// # Errors
///
/// Returns a description when a benchmark is missing, duplicated, or
/// unknown to `order`.
pub fn merge_sim_tables(order: &[String], tables: &[String]) -> Result<String, String> {
    let mut segments: BTreeMap<String, String> = BTreeMap::new();
    for table in tables {
        for seg in table.split("\n=== ") {
            if seg.is_empty() {
                continue;
            }
            let name = seg.split(':').next().unwrap_or_default();
            if name.is_empty() {
                return Err(format!("malformed result table segment {seg:?}"));
            }
            if segments
                .insert(name.to_string(), format!("\n=== {seg}"))
                .is_some()
            {
                return Err(format!(
                    "benchmark {name:?} appears in more than one shard table"
                ));
            }
        }
    }
    let mut text = String::new();
    for name in order {
        match segments.remove(name) {
            Some(seg) => text.push_str(&seg),
            None => return Err(format!("no shard table covers benchmark {name:?}")),
        }
    }
    if let Some(extra) = segments.keys().next() {
        return Err(format!("shard tables contain unexpected benchmark {extra:?}"));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A v2 export of the first `benches` interactive benchmarks at
    /// scale 64, built in memory so parallel tests share no files.
    fn suite_export(benches: usize) -> String {
        let opts = crate::HarnessOptions {
            scale: 64,
            suite: Some(gencache_workloads::Suite::Interactive),
            ..crate::HarnessOptions::default()
        };
        let runs: Vec<crate::Run> = opts.profiles()[..benches]
            .iter()
            .map(|p| (p.clone(), gencache_sim::record(p).unwrap()))
            .collect();
        let (bytes, _) = crate::stream_events_to(Vec::new(), &runs).unwrap();
        String::from_utf8(bytes).unwrap()
    }

    fn tiny_export() -> String {
        suite_export(1)
    }

    #[test]
    fn line_at_a_time_ingest_matches_bulk_reconstruction() {
        let text = tiny_export();
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        assert!(ingest.has_header());
        assert!(ingest.bytes() >= text.len() as u64);
        let inputs = ingest.into_inputs(None, None, None).unwrap();
        assert_eq!(inputs.len(), 1);
        assert!(inputs[0].trace.access_count() > 0);
        assert_eq!(inputs[0].log.access_count(), inputs[0].trace.access_count());
    }

    #[test]
    fn truncated_checker_stream_is_rejected() {
        let text = tiny_export();
        let mut ingest = StreamIngest::new();
        // Drop the final line (part of the second model's stream): the
        // checker cursor cannot reach the reference length.
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len() - 1] {
            ingest.push_line(line).unwrap();
        }
        let err = ingest.into_inputs(None, None, None).unwrap_err();
        assert!(
            err.contains("different frontend traces"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn garbage_line_is_a_clean_error() {
        let mut ingest = StreamIngest::new();
        assert!(ingest.push_line("{not json").is_err());
        assert!(StreamIngest::new().push_line("[1,2,3]").is_err());
    }

    #[test]
    fn interleaved_streams_get_a_clear_error() {
        let text = tiny_export();
        let lines: Vec<&str> = text.lines().collect();
        // Replaying the first model's first event after the second
        // model's stream makes the first stream "reappear".
        let (first_event, first_model) = lines
            .iter()
            .find_map(|l| match parse_stream_line(l) {
                Ok(StreamLine::Event(r)) => Some((*l, r.model)),
                _ => None,
            })
            .expect("export has event lines");
        let mut ingest = StreamIngest::new();
        for line in &lines {
            ingest.push_line(line).unwrap();
        }
        let err = ingest.push_line(first_event).unwrap_err();
        assert!(err.contains("interleaves"), "unexpected error: {err}");
        assert!(
            err.contains(&first_model),
            "error does not name the offending stream: {err}"
        );
    }

    #[test]
    fn classify_line_routes_by_source() {
        let text = tiny_export();
        let mut saw_header = false;
        let mut saw_stream = false;
        for line in text.lines() {
            match classify_line(line).unwrap() {
                RouteClass::Header => saw_header = true,
                RouteClass::Stream(name) => {
                    assert!(!name.is_empty());
                    saw_stream = true;
                }
                RouteClass::Blank => {}
            }
        }
        assert!(saw_header && saw_stream);
        assert_eq!(classify_line("   ").unwrap(), RouteClass::Blank);
        assert!(classify_line("{not json").is_err());
    }

    #[test]
    fn fleet_merge_reassembles_byte_identical_docs() {
        let text = suite_export(2);
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let mut inputs = ingest.into_inputs(None, None, None).unwrap();
        assert_eq!(inputs.len(), 2);
        let order: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
        let specs = resolve_sim_specs(&[], false).unwrap();
        let whole = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, None).unwrap();
        let whole_doc = crate::value_to_json(&sim_metrics_doc(&whole));
        let whole_table = render_sim_tables(&whole);
        // Split the job as the fleet router would: one benchmark per
        // "shard", merged back in upload order.
        let second = inputs.split_off(1);
        let out_a = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, None).unwrap();
        let out_b = run_sim_job(&second, &specs, SimJobOptions::default(), 1, None).unwrap();
        let docs = [sim_metrics_doc(&out_b), sim_metrics_doc(&out_a)];
        let merged = merge_metrics_docs(&order, &docs).unwrap();
        assert_eq!(
            crate::value_to_json(&merged),
            whole_doc,
            "fleet-merged doc is not byte-identical"
        );
        let tables = [render_sim_tables(&out_b), render_sim_tables(&out_a)];
        assert_eq!(merge_sim_tables(&order, &tables).unwrap(), whole_table);
        // A missing benchmark is an error, not a silent gap.
        let err = merge_metrics_docs(&order, &docs[..1]).unwrap_err();
        assert!(err.contains("no shard produced"), "unexpected error: {err}");
    }

    #[test]
    fn fleet_merge_splices_optional_sections_in_upload_order() {
        let text = suite_export(3);
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let mut inputs = ingest.into_inputs(None, None, None).unwrap();
        assert_eq!(inputs.len(), 3);
        let order: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
        let specs = resolve_sim_specs(&["adaptive".to_string(), "lru".to_string()], false).unwrap();
        let options = SimJobOptions {
            oracle: true,
            windows: true,
            window_width: Some(32),
            regret_top: Some(8),
        };
        let whole = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
        let whole_doc = crate::value_to_json(&sim_metrics_doc(&whole));
        for section in ["\"regret\"", "\"windows\"", "\"switches\""] {
            assert!(
                whole_doc.contains(section),
                "single-node doc has no {section} section"
            );
        }
        // A 3-way split, one benchmark per shard, whose documents arrive
        // in an order other than the upload's.
        let third = inputs.split_off(2);
        let second = inputs.split_off(1);
        let shard_doc = |part: &[SimJobInput]| {
            crate::value_to_json(&sim_metrics_doc(
                &run_sim_job(part, &specs, options, 1, None).unwrap(),
            ))
        };
        let docs = [shard_doc(&third), shard_doc(&inputs), shard_doc(&second)];
        assert_eq!(
            merge_metrics_texts(&order, &docs).unwrap(),
            whole_doc,
            "text-merged doc is not byte-identical"
        );
        // Off-shape shard text (here: whitespace) takes the general path
        // to the same bytes, and so do the trees.
        let spaced: Vec<String> = docs.iter().map(|d| format!(" {d}\n")).collect();
        assert_eq!(merge_metrics_texts(&order, &spaced).unwrap(), whole_doc);
        let trees: Vec<Value> = docs
            .iter()
            .map(|d| serde_json::value_from_str(d).unwrap())
            .collect();
        assert_eq!(
            crate::value_to_json(&merge_metrics_docs(&order, &trees).unwrap()),
            whole_doc
        );
    }

    /// A deterministic single-benchmark input: `traces` traces of 100
    /// bytes cycled through a cache that holds half of them.
    fn synthetic_input(name: &str, traces: u64) -> SimJobInput {
        use gencache_cache::TraceId;
        use gencache_obs::TraceOp;
        use gencache_program::Time;

        let mut ops = vec![];
        for id in 0..traces {
            ops.push(TraceOp::Create {
                id: TraceId::new(id),
                bytes: 100,
                time: Time::from_micros(id),
            });
        }
        for round in 0..20u64 {
            for id in 0..traces {
                ops.push(TraceOp::Access {
                    id: TraceId::new((id + round) % traces),
                    time: Time::from_micros(100 + round * traces + id),
                });
            }
        }
        let trace = SimTrace { ops };
        SimJobInput {
            name: name.to_string(),
            log: trace_to_log(&trace, name, 1_000_000, traces * 100),
            trace,
            capacity: traces * 50,
            phases: 4,
        }
    }

    fn members(v: &mut Value) -> &mut Vec<(String, Value)> {
        match v {
            Value::Object(pairs) => pairs,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn member<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        &mut members(v)
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("member exists")
            .1
    }

    fn first_bench(doc: &mut Value) -> &mut Value {
        match member(doc, "benchmarks") {
            Value::Array(items) => &mut items[0],
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn fleet_merge_errors_are_unchanged() {
        let specs = resolve_sim_specs(&["lru".to_string(), "unified".to_string()], false).unwrap();
        let options = SimJobOptions::default();
        let doc_for = |name: &str| {
            let out = run_sim_job(&[synthetic_input(name, 12)], &specs, options, 1, None).unwrap();
            serde_json::value_from_str(&crate::value_to_json(&sim_metrics_doc(&out))).unwrap()
        };
        let (a, b) = (doc_for("a"), doc_for("b"));
        let order = ["a".to_string(), "b".to_string()];
        let edited = |doc: &Value, edit: &dyn Fn(&mut Value)| {
            let mut doc = doc.clone();
            edit(&mut doc);
            doc
        };
        let cases: Vec<(Vec<Value>, &[String], &str)> = vec![
            (
                vec![
                    edited(&a, &|d| *member(d, "schema") = Value::Str("other".into())),
                    b.clone(),
                ],
                &order,
                "shard doc has schema Some(Str(\"other\")), not \"gencache-metrics\"",
            ),
            (
                vec![edited(&a, &|d| members(d).retain(|(k, _)| k != "schema"))],
                &order,
                "shard doc has schema None, not \"gencache-metrics\"",
            ),
            (
                vec![
                    a.clone(),
                    edited(&b, &|d| *member(d, "version") = Value::UInt(1)),
                ],
                &order,
                "shard doc has version Some(UInt(1)), not 2",
            ),
            (
                vec![edited(&a, &|d| *member(d, "suite") = Value::Array(vec![]))],
                &order,
                "shard doc has no suite section",
            ),
            (
                vec![
                    a.clone(),
                    edited(&b, &|d| members(member(d, "suite")).truncate(1)),
                ],
                &order,
                "shards disagree on spec labels: [\"lru\", \"unified\"] vs [\"lru\"]",
            ),
            (
                vec![edited(&a, &|d| {
                    members(d).retain(|(k, _)| k != "benchmarks")
                })],
                &order,
                "shard doc has no benchmarks section",
            ),
            (
                vec![edited(&a, &|d| {
                    *member(first_bench(d), "benchmark") = Value::UInt(5)
                })],
                &order,
                "benchmark entry names Some(UInt(5))",
            ),
            (
                vec![edited(&a, &|d| members(first_bench(d)).truncate(2))],
                &order,
                "a: no section for spec \"unified\"",
            ),
            (
                vec![edited(&a, &|d| {
                    members(member(first_bench(d), "lru")).push(("sampled".into(), Value::Null))
                })],
                &order,
                "a/lru: sampled sections cannot be fleet-merged",
            ),
            (
                vec![edited(&a, &|d| {
                    members(member(first_bench(d), "lru")).retain(|(k, _)| k != "metrics")
                })],
                &order,
                "a/lru: no metrics",
            ),
            (
                vec![edited(&a, &|d| {
                    members(member(first_bench(d), "lru")).retain(|(k, _)| k != "costs")
                })],
                &order,
                "a/lru: no costs",
            ),
            (
                vec![edited(&a, &|d| {
                    *member(member(first_bench(d), "lru"), "metrics") = Value::UInt(5)
                })],
                &order,
                "a/lru: bad metrics: expected object for MetricsReport, got UInt(5)",
            ),
            (
                vec![edited(&a, &|d| {
                    *member(member(first_bench(d), "unified"), "costs") = Value::Null
                })],
                &order,
                "a/unified: bad costs: expected object for CostReport, got Null",
            ),
            (
                vec![edited(&a, &|d| {
                    members(member(first_bench(d), "lru"))
                        .push(("regret".into(), Value::Bool(true)))
                })],
                &order,
                "a/lru: bad regret: expected object for RegretReport, got Bool(true)",
            ),
            (
                vec![edited(&a, &|d| {
                    members(member(first_bench(d), "lru")).push(("windows".into(), Value::UInt(0)))
                })],
                &order,
                "a/lru: bad windows: expected object for WindowReport, got UInt(0)",
            ),
            (
                vec![edited(&a, &|d| {
                    members(member(first_bench(d), "lru"))
                        .push(("switches".into(), Value::Array(vec![])))
                })],
                &order,
                "a/lru: bad switches: expected object for SwitchReport, got Array([])",
            ),
            (
                vec![a.clone(), a.clone()],
                &order,
                "benchmark \"a\" appears in more than one shard doc",
            ),
            (vec![], &order, "no shard documents to merge"),
            (vec![a.clone()], &order, "no shard produced benchmark \"b\""),
            (
                vec![a.clone(), b.clone()],
                &order[..1],
                "shard docs contain unexpected benchmark \"b\"",
            ),
        ];
        for (docs, order, want) in cases {
            let texts: Vec<String> = docs.iter().map(crate::value_to_json).collect();
            assert_eq!(merge_metrics_texts(order, &texts).unwrap_err(), want);
            assert_eq!(merge_metrics_docs(order, &docs).unwrap_err(), want);
        }
        let texts = [crate::value_to_json(&a), "{\"schema\":".to_string()];
        assert_eq!(
            merge_metrics_texts(&order, &texts).unwrap_err(),
            "shard returned an unparseable doc: unexpected byte None at 10"
        );
        // The unbroken pair merges to the single-node bytes.
        let both = [synthetic_input("a", 12), synthetic_input("b", 12)];
        let whole = run_sim_job(&both, &specs, options, 1, None).unwrap();
        let texts = [crate::value_to_json(&b), crate::value_to_json(&a)];
        assert_eq!(
            merge_metrics_texts(&order, &texts).unwrap(),
            crate::value_to_json(&sim_metrics_doc(&whole))
        );
    }

    #[test]
    fn adaptive_doc_is_jobs_invariant() {
        let text = suite_export(2);
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let inputs = ingest.into_inputs(None, None, None).unwrap();
        let specs = resolve_sim_specs(
            &["adaptive".to_string(), "lru".to_string()],
            false,
        )
        .unwrap();
        let options = SimJobOptions {
            oracle: true,
            windows: true,
            window_width: Some(32),
            regret_top: Some(8),
        };
        let serial = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
        let serial_doc = crate::value_to_json(&sim_metrics_doc(&serial));
        assert!(
            serial_doc.contains("\"switches\""),
            "adaptive spec must emit a switches section"
        );
        for jobs in [2, 8] {
            let par = run_sim_job(&inputs, &specs, options, jobs, None).unwrap();
            assert_eq!(
                crate::value_to_json(&sim_metrics_doc(&par)),
                serial_doc,
                "adaptive doc with {jobs} jobs diverged from serial"
            );
        }
    }

    #[test]
    fn grid_is_jobs_invariant() {
        let inputs = [synthetic_input("grid", 12)];
        let specs = resolve_sim_specs(
            &["unified", "gen-45-10-45@hit1", "lru", "adaptive"].map(String::from),
            false,
        )
        .unwrap();
        let options = SimJobOptions {
            oracle: true,
            windows: true,
            ..SimJobOptions::default()
        };
        let serial = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
        let sims = &serial.benches[0].sims;
        assert!(
            sims.iter()
                .any(|s| s.regret.as_ref().is_some_and(|r| r.total.evictions > 0)),
            "a 600-byte budget over 1200 bytes of traces must evict"
        );
        assert!(
            sims.iter()
                .all(|s| s.switches.is_some() == (s.label == "adaptive")),
            "only adaptive specs carry a switch report"
        );
        assert!(
            sims.iter()
                .all(|s| s.windows.as_ref().is_some_and(|w| !w.windows.is_empty())),
            "windowed reports must be populated when requested"
        );
        let serial_doc = crate::value_to_json(&sim_metrics_doc(&serial));
        for jobs in [2, 8] {
            let par = run_sim_job(&inputs, &specs, options, jobs, None).unwrap();
            assert_eq!(
                crate::value_to_json(&sim_metrics_doc(&par)),
                serial_doc,
                "grid doc with {jobs} jobs diverged from serial"
            );
            for (a, b) in sims.iter().zip(&par.benches[0].sims) {
                assert_eq!(
                    a.result.metrics, b.result.metrics,
                    "{} jobs={jobs}",
                    a.label
                );
            }
        }
        let bare = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, None).unwrap();
        assert!(bare.benches[0]
            .sims
            .iter()
            .all(|s| s.regret.is_none() && s.windows.is_none()));
    }

    #[test]
    fn canceled_job_returns_error_not_partial_output() {
        let text = tiny_export();
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let inputs = ingest.into_inputs(None, None, None).unwrap();
        let specs = resolve_sim_specs(&[], false).unwrap();
        let cancel = AtomicBool::new(true);
        let err = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, Some(&cancel)).unwrap_err();
        assert!(err.contains("canceled"), "unexpected error: {err}");
    }
}
