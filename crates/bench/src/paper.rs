//! Every paper artifact as a render function over shared recordings.
//!
//! The tables, figures and extension studies in `results/` are views of a
//! few recorded benchmark runs. An [`Artifact`] pairs a `results/` file
//! stem with a function that renders its text from a [`Paper`] session.
//! The session records each distinct recording — a profile at its scale
//! and thread count, plus its [`RecorderOptions`] — the first time an
//! artifact asks for it, and serves every later request from memory.
//!
//! The `paper` binary renders all [`ARTIFACTS`] from one session, so a
//! full run records the suite once. Each figure binary is a shim that
//! renders its artifact from a private session ([`print_artifact`]);
//! both paths run the same render function over the same recordings,
//! so they print the same bytes.

use std::fmt::{self, Write};

use gencache_cache::{
    ClockCache, CodeCache, EvictionCause, FlushCache, LruCache, PseudoCircularCache,
};
use gencache_core::{
    cost, overhead_ratio, CacheModel, GenerationalConfig, GenerationalModel, PromotionPolicy,
    Proportions, UnifiedModel,
};
use gencache_frontend::Engine;
use gencache_sim::par::par_map;
use gencache_sim::report::{arithmetic_mean, bar, fmt_bytes, fmt_pct, geometric_mean, TextTable};
use gencache_sim::{
    best_point, replay_into, replay_thread_private, replay_thread_shared, replay_with_linking,
    reuse_profile, sweep_with_jobs, BudgetSplit, Comparison, LinkableModel, LogRecord,
    RecorderOptions, ReplayCursor, ReplayStep, SweepPoint, ThreadCacheKind,
};
use gencache_workloads::{benchmark, interactive, ExecutionPlan, Suite, WorkloadProfile};

use crate::{compare_all, export_telemetry, record_profiles, HarnessOptions, Run};

/// One recording: a profile (at its scale and thread count) and the
/// recorder options.
type Want = (WorkloadProfile, RecorderOptions);

/// One `results/` artifact: its file stem, the recordings it reads, and
/// its render function.
#[derive(Debug)]
pub struct Artifact {
    /// The file stem under `results/`, which is also the name of the
    /// binary that prints this artifact alone.
    pub name: &'static str,
    reads: fn(&Paper) -> Vec<Want>,
    render: fn(&mut Paper, &mut String) -> fmt::Result,
}

impl Artifact {
    /// Renders this artifact's text from `paper`'s recordings, recording
    /// whatever the session does not hold yet.
    pub fn render(&self, paper: &mut Paper) -> String {
        let mut out = String::new();
        (self.render)(paper, &mut out).expect("writing to a String cannot fail");
        out
    }
}

/// Declares [`ARTIFACTS`]: each artifact is named after its render
/// function and lists the recordings it reads.
macro_rules! artifacts {
    ($($render:ident: $reads:expr,)*) => {
        /// Every artifact of `results/`, grouped by the recordings they
        /// read so a full run can drop each group's recordings before the
        /// next group records its own.
        pub const ARTIFACTS: &[Artifact] = &[$(Artifact {
            name: stringify!($render),
            reads: $reads,
            render: $render,
        }),*];
    };
}

artifacts! {
    table1_benchmarks: |_| Vec::new(),
    table2_costs: |_| Vec::new(),
    sweep_trace_threshold: |_| Vec::new(),
    fig1_max_cache_size: Paper::suite_wants,
    fig2_code_expansion: Paper::suite_wants,
    fig3_insertion_rate: Paper::suite_wants,
    fig4_unmapped: Paper::suite_wants,
    fig6_lifetimes: Paper::suite_wants,
    fig9_miss_rates: Paper::suite_wants,
    fig10_misses_eliminated: Paper::suite_wants,
    fig11_overhead: Paper::suite_wants,
    ablate_local_policy: Paper::suite_wants,
    ablate_probation: Paper::suite_wants,
    ablate_defrag: Paper::suite_wants,
    ablate_linking: Paper::suite_wants,
    threaded_caches: Paper::suite_wants,
    analyze_reuse: Paper::suite_wants,
    sweep_proportions: Paper::sweep_wants,
    best_configs: Paper::best_configs_wants,
    thread_duplication: Paper::thread_wants,
    ablate_exceptions: Paper::exception_wants,
}

/// Renders the artifact `name` from a private session.
///
/// # Panics
///
/// Panics if no artifact has that name.
pub fn render_one(name: &str, opts: &HarnessOptions) -> String {
    let artifact = ARTIFACTS
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("no artifact named {name:?}"));
    artifact.render(&mut Paper::new(opts.clone()))
}

/// The whole `main` of a figure binary: parses the process arguments
/// and prints the artifact `name` to stdout.
pub fn print_artifact(name: &str) {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    print!("{}", render_one(name, &opts));
}

/// A rendering session: the harness options and the recordings made so
/// far.
#[derive(Debug)]
pub struct Paper {
    opts: HarnessOptions,
    recorded: Vec<(RecorderOptions, Run)>,
    exported: bool,
    comparisons: Option<Vec<(WorkloadProfile, Comparison)>>,
}

impl Paper {
    /// A session with no recordings yet.
    pub fn new(opts: HarnessOptions) -> Self {
        Paper {
            opts,
            recorded: Vec::new(),
            exported: false,
            comparisons: None,
        }
    }

    /// Renders every artifact in [`ARTIFACTS`] order, handing each text
    /// to `emit` as soon as it is ready. Each distinct recording is made
    /// once, and dropped when no later artifact reads it.
    pub fn render_all(&mut self, mut emit: impl FnMut(&'static str, String)) {
        let reads: Vec<Vec<Want>> = ARTIFACTS.iter().map(|a| (a.reads)(self)).collect();
        for (i, artifact) in ARTIFACTS.iter().enumerate() {
            emit(artifact.name, artifact.render(self));
            let later = reads[i + 1..].concat();
            self.recorded
                .retain(|(o, (p, _))| later.iter().any(|(lp, lo)| lp == p && lo == o));
        }
    }

    fn jobs(&self) -> usize {
        self.opts.effective_jobs()
    }

    /// The built-in benchmark `name`, scaled down by `--scale`.
    fn profile(&self, name: &str) -> WorkloadProfile {
        let profile = benchmark(name).expect("known benchmark");
        if self.opts.scale > 1 {
            profile.scaled_down(self.opts.scale)
        } else {
            profile
        }
    }

    fn find(&self, (profile, options): &Want) -> Option<usize> {
        self.recorded
            .iter()
            .position(|(o, (p, _))| p == profile && o == options)
    }

    /// The recordings of `wants`, in order. Those this session does not
    /// hold yet are recorded first, in one fan-out.
    fn runs(&mut self, wants: &[Want]) -> Vec<&Run> {
        let missing: Vec<_> = wants
            .iter()
            .filter(|want| self.find(want).is_none())
            .cloned()
            .collect();
        if !missing.is_empty() {
            let runs = record_profiles(&missing, self.jobs());
            self.recorded
                .extend(missing.iter().map(|&(_, options)| options).zip(runs));
        }
        wants
            .iter()
            .map(|want| &self.recorded[self.find(want).expect("recorded above")].1)
            .collect()
    }

    /// The selected suite with default options, at `scale`.
    fn suite_at(&self, scale: u64) -> Vec<Want> {
        let opts = HarnessOptions {
            scale,
            ..self.opts.clone()
        };
        opts.profiles()
            .into_iter()
            .map(|p| (p, RecorderOptions::default()))
            .collect()
    }

    /// The selected suite at the run's scale.
    fn suite_wants(&self) -> Vec<Want> {
        self.suite_at(self.opts.scale)
    }

    /// `crafty` and `word` at the run's scale.
    fn sweep_wants(&self) -> Vec<Want> {
        ["crafty", "word"]
            .map(|name| (self.profile(name), RecorderOptions::default()))
            .into()
    }

    /// The scale of the studies too costly for full scale
    /// ([`best_configs`], [`thread_duplication`]): 1/4 unless `--scale`
    /// is given.
    fn quarter_scale(&self) -> u64 {
        if self.opts.scale > 1 {
            self.opts.scale
        } else {
            4
        }
    }

    fn best_configs_wants(&self) -> Vec<Want> {
        self.suite_at(self.quarter_scale())
    }

    /// `excel`, `pinball` and `crafty` with 1, 2 and 4 guest threads.
    fn thread_wants(&self) -> Vec<Want> {
        ["excel", "pinball", "crafty"]
            .into_iter()
            .flat_map(|name| {
                let base = benchmark(name)
                    .expect("built-in")
                    .scaled_down(self.quarter_scale());
                [1u32, 2, 4].map(|threads| {
                    let mut profile = base.clone();
                    profile.threads = threads;
                    (profile, RecorderOptions::default())
                })
            })
            .collect()
    }

    /// `word` at the run's scale under four exception rates.
    fn exception_wants(&self) -> Vec<Want> {
        [0.0, 1e-4, 1e-3, 1e-2]
            .map(|exception_rate| {
                let options = RecorderOptions {
                    exception_rate,
                    pin_window: 64,
                };
                (self.profile("word"), options)
            })
            .into()
    }

    /// The selected suite at the run's scale. The telemetry flags
    /// (`--events-out`, `--metrics-out`) export it once per session.
    fn suite(&mut self) -> Vec<&Run> {
        let wants = self.suite_wants();
        if !self.exported {
            self.exported = true;
            let opts = self.opts.clone();
            export_telemetry(&opts, &self.runs(&wants)).expect("telemetry export failed");
        }
        self.runs(&wants)
    }

    /// The suite, and `cell` run for every (benchmark, cell index) pair
    /// in one fan-out: each benchmark's `cells` results in cell order,
    /// the same for any job count.
    fn suite_cells<R: Send>(
        &mut self,
        cells: usize,
        cell: impl Fn(&Run, usize) -> R + Sync,
    ) -> (Vec<&Run>, Vec<Vec<R>>) {
        let jobs = self.jobs();
        let runs = self.suite();
        let pairs: Vec<(usize, usize)> = (0..runs.len())
            .flat_map(|r| (0..cells).map(move |c| (r, c)))
            .collect();
        let mut flat = par_map(&pairs, jobs, |&(r, c)| cell(runs[r], c)).into_iter();
        let results = runs
            .iter()
            .map(|_| flat.by_ref().take(cells).collect())
            .collect();
        (runs, results)
    }

    /// The Figure 9 comparison of every suite benchmark, replayed once
    /// per session.
    fn comparisons(&mut self) -> &[(WorkloadProfile, Comparison)] {
        if self.comparisons.is_none() {
            let opts = self.opts.clone();
            let comparisons = compare_all(&opts, &self.suite());
            self.comparisons = Some(comparisons);
        }
        self.comparisons.as_deref().expect("set above")
    }
}

/// The paper's standard budget for `run`: half its unbounded peak.
fn half_peak((_, run): &Run) -> u64 {
    (run.log.peak_trace_bytes / 2).max(1)
}

/// Renders `section` for each non-empty suite of `rows` under the
/// paper's "(a) SPEC2000" / "(b) Interactive" headings.
fn per_suite<'a, T: 'a>(
    out: &mut String,
    rows: impl IntoIterator<Item = &'a (WorkloadProfile, T)>,
    mut section: impl FnMut(&mut String, &[&'a (WorkloadProfile, T)]) -> fmt::Result,
) -> fmt::Result {
    let (spec, inter): (Vec<_>, Vec<_>) = rows
        .into_iter()
        .partition(|(p, _)| p.suite == Suite::Spec2000);
    for (title, rows) in [
        ("a) SPEC2000 Benchmarks", spec),
        ("b) Interactive Windows Benchmarks", inter),
    ] {
        if !rows.is_empty() {
            writeln!(out, "\n({title})")?;
            section(out, &rows)?;
        }
    }
    Ok(())
}

/// Appends a `Benchmark | header | bar` table with one value per row,
/// bars scaled to the largest value or `floor`, whichever is larger.
fn bar_table<T>(
    out: &mut String,
    header: &str,
    rows: &[&(WorkloadProfile, T)],
    values: &[f64],
    floor: f64,
    cell: impl Fn(f64) -> String,
) {
    let max = values.iter().copied().fold(floor, f64::max);
    let mut table = TextTable::new(["Benchmark", header, ""]);
    for ((p, _), &v) in rows.iter().zip(values) {
        table.row([p.name.clone(), cell(v), bar(v, max, 40)]);
    }
    out.push_str(&table.render());
}

/// The unweighted mean of `values`, 0 when there are none.
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    arithmetic_mean(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// A sweep point's proportions as `nursery-probation-persistent`
/// percentages.
fn layout(pt: &SweepPoint) -> String {
    format!(
        "{:.0}-{:.0}-{:.0}",
        pt.nursery * 100.0,
        pt.probation * 100.0,
        pt.persistent * 100.0
    )
}

/// Table 1: the interactive Windows benchmarks used in the evaluation.
fn table1_benchmarks(_: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Table 1. Interactive Windows benchmarks used in our evaluation.\n\n");
    let mut table = TextTable::new(["Name", "Seconds", "Description"]);
    for p in interactive() {
        table.row([
            p.name.clone(),
            format!("{:.0}", p.duration_secs),
            p.description.clone(),
        ]);
    }
    out.push_str(&table.render());
    Ok(())
}

/// Table 2: the instruction-overhead cost model, with the paper's
/// median-trace worked example.
fn table2_costs(_: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Table 2. Overheads used in our evaluation.\n\n");
    let mut table = TextTable::new(["Description", "Overhead (instructions)"]);
    table.row(["Trace Generation", "865 * (traceSizeBytes)^(0.8)"]);
    table.row(["DR Context Switch", "25"]);
    table.row(["Evictions", "2.75 * traceSizeBytes + 2650"]);
    table.row(["Promotions", "22 * traceSizeBytes + 8030"]);
    out.push_str(&table.render());

    out.push_str("\nWorked example for the paper's 242-byte median trace:\n");
    for (what, instructions, paper) in [
        ("trace generation ", cost::trace_generation(242), "69,834"),
        ("eviction         ", cost::eviction(242), " 3,316"),
        ("promotion        ", cost::promotion(242), "13,354"),
        ("full miss service", cost::miss_service(242), "~85,000"),
    ] {
        writeln!(
            out,
            "  {what}: {instructions:>10.0} instructions (paper: {paper})"
        )?;
    }
    Ok(())
}

/// Figure 1: maximum code cache size under an unbounded cache.
fn fig1_max_cache_size(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 1. Maximum code cache size reached with an unbounded cache.\n");
    per_suite(out, p.suite(), |out, runs| {
        let bytes: Vec<f64> = runs
            .iter()
            .map(|(_, r)| r.summary.max_cache_bytes as f64)
            .collect();
        bar_table(out, "Max cache", runs, &bytes, 0.0, |v| fmt_bytes(v as u64));
        let avg = mean(bytes);
        writeln!(out, "average: {}", fmt_bytes(avg as u64))
    })
}

/// Figure 2: code expansion — final cache size over application
/// footprint (Equation 1).
fn fig2_code_expansion(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 2. Code expansion (finalCacheSize / applicationFootprint).\n");
    per_suite(out, p.suite(), |out, runs| {
        let vals: Vec<f64> = runs
            .iter()
            .map(|(_, r)| r.summary.code_expansion_pct)
            .collect();
        bar_table(out, "Expansion", runs, &vals, 0.0, |v| format!("{v:.0}%"));
        let avg = mean(vals.iter().copied());
        let sd = (vals.iter().map(|v| (v - avg).powi(2)).sum::<f64>() / vals.len() as f64).sqrt();
        writeln!(out, "average: {avg:.0}%  std dev: {sd:.0}%")
    })
}

/// Figure 3: trace insertion rate into the code cache (KB/s).
fn fig3_insertion_rate(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 3. Trace insertion rate (KB of traces per second).\n");
    per_suite(out, p.suite(), |out, runs| {
        let rates: Vec<f64> = runs
            .iter()
            .map(|(_, r)| r.summary.insertion_rate_kbps)
            .collect();
        bar_table(out, "KB/s", runs, &rates, 0.0, |v| format!("{v:.1}"));
        let below5 = rates.iter().filter(|&&v| v < 5.0).count();
        writeln!(out, "benchmarks below 5 KB/s: {below5} of {}", runs.len())
    })
}

/// Figure 4: percentage of code traces that must be removed from the
/// code cache due to unmapped memory.
fn fig4_unmapped(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 4. Trace bytes deleted due to unmapped memory (%).\n");
    let (spec, inter): (Vec<&Run>, Vec<&Run>) = p
        .suite()
        .into_iter()
        .partition(|(p, _)| p.suite == Suite::Spec2000);
    let unmapped = |rows: &[&Run]| -> Vec<f64> {
        rows.iter()
            .map(|(_, r)| r.summary.unmapped_frac * 100.0)
            .collect()
    };
    if !spec.is_empty() {
        let avg = mean(unmapped(&spec));
        writeln!(
            out,
            "\nSPEC2000: average {avg:.1}% (code is never unmapped mid-run)"
        )?;
    }
    if !inter.is_empty() {
        out.push_str("\n(Interactive Windows Benchmarks)\n");
        let vals = unmapped(&inter);
        bar_table(out, "Unmapped", &inter, &vals, 0.0, |v| format!("{v:.1}%"));
        writeln!(out, "average: {:.1}% (paper: ~15%)", mean(vals))?;
    }
    Ok(())
}

const LIFETIME_BUCKETS: [&str; 5] = ["<20%", "20-40%", "40-60%", "60-80%", ">80%"];

/// Figure 6: lifetimes of traces as a percentage of total execution time
/// (Equation 2). The y-axis is the unweighted (static) share of traces
/// in each lifetime bucket; the paper's observation is the U shape.
fn fig6_lifetimes(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 6. Trace lifetimes as a percentage of execution time.\n");
    per_suite(out, p.suite(), |out, runs| {
        let mut table = TextTable::new(
            std::iter::once("Benchmark")
                .chain(LIFETIME_BUCKETS)
                .chain(["U-shaped"]),
        );
        let mut sums = [0.0f64; 5];
        for (p, r) in runs {
            let f = r.summary.lifetimes.fractions();
            for (s, v) in sums.iter_mut().zip(&f) {
                *s += v;
            }
            let shaped = if r.summary.lifetimes.is_u_shaped() {
                "yes"
            } else {
                "no"
            };
            table.row(
                std::iter::once(p.name.clone())
                    .chain(f.iter().map(|v| format!("{:.0}%", v * 100.0)))
                    .chain([shaped.to_owned()]),
            );
        }
        out.push_str(&table.render());
        out.push_str("\nsuite average distribution:\n");
        let n = runs.len() as f64;
        let max = sums.iter().copied().fold(0.0f64, f64::max) / n;
        for (label, s) in LIFETIME_BUCKETS.iter().zip(sums) {
            let v = s / n;
            writeln!(out, "  {label:>7} {:>4.0}% {}", v * 100.0, bar(v, max, 40))?;
        }
        Ok(())
    })
}

/// Figure 9: cache miss-rate reduction of generational code caches over
/// a unified cache. Three layouts are compared, every cache sized so
/// the generational total equals the unified baseline (0.5 × maxCache).
fn fig9_miss_rates(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 9. Miss-rate reduction of generational caches over a unified cache.\n");
    out.push_str(
        "Configurations: nursery-probation-persistent proportions; @N = promotion rule.\n",
    );
    per_suite(out, p.comparisons(), |out, comparisons| {
        let mut table = TextTable::new([
            "Benchmark",
            "unified miss",
            "33-33-33 @10",
            "45-10-45 @hit1",
            "25-50-25 @5",
        ]);
        for (p, c) in comparisons {
            let unified = format!("{:.2}%", c.unified.miss_rate() * 100.0);
            let reductions = (0..3).map(|i| fmt_pct(c.miss_rate_reduction(i)));
            table.row([p.name.clone(), unified].into_iter().chain(reductions));
        }
        out.push_str(&table.render());
        let avg = |i| {
            fmt_pct(mean(
                comparisons.iter().map(|(_, c)| c.miss_rate_reduction(i)),
            ))
        };
        writeln!(
            out,
            "average (unweighted arithmetic mean): {} / {} / {}",
            avg(0),
            avg(1),
            avg(2)
        )
    })
}

/// Figure 10: total number of cache misses eliminated by generational
/// code caches compared to a unified cache (the paper plots this on a
/// logarithmic axis; we print the raw counts).
fn fig10_misses_eliminated(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str(
        "Figure 10. Cache misses eliminated vs a unified cache (log-scale in the paper).\n",
    );
    let mut table = TextTable::new([
        "Benchmark",
        "33-33-33 @10",
        "45-10-45 @hit1",
        "25-50-25 @5",
        "log10|best|",
    ]);
    for (p, c) in p.comparisons() {
        let best = (0..3).map(|i| c.misses_eliminated(i)).max().unwrap_or(0);
        let log = if best > 0 { (best as f64).log10() } else { 0.0 };
        table.row([
            p.name.clone(),
            c.misses_eliminated(0).to_string(),
            c.misses_eliminated(1).to_string(),
            c.misses_eliminated(2).to_string(),
            format!("{log:.1}"),
        ]);
    }
    out.push_str(&table.render());
    Ok(())
}

/// Figure 11: instruction-overhead ratio of generational caches to a
/// unified cache (Equation 3), for the best 45%-10%-45% layout. Values
/// below 100% mean the generational scheme spends fewer instructions on
/// cache management; smaller is better.
fn fig11_overhead(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Figure 11. Instruction-overhead ratio (generational 45-10-45 / unified).\n");
    let mut all = Vec::new();
    per_suite(out, p.comparisons(), |out, rows| {
        let ratios: Vec<f64> = rows.iter().map(|(_, c)| c.overhead_ratio(1)).collect();
        bar_table(out, "Overhead ratio", rows, &ratios, 1.0, |r| {
            format!("{:.1}%", r * 100.0)
        });
        all.extend(ratios);
        Ok(())
    })?;
    if let Some(geo) = geometric_mean(&all) {
        writeln!(
            out,
            "\ngeometric-mean overhead ratio: {:.1}% (paper: 80.7%, i.e. a 19.3% reduction)",
            geo * 100.0
        )?;
    }
    Ok(())
}

/// Section 6 configuration sweep over `crafty` and `word`: generational
/// cache proportions versus promotion policy, reproducing the paper's
/// two observations — no universal win from unbalanced nursery/persistent
/// sizing, and the link between probation-cache size and promotion
/// threshold.
fn sweep_proportions(p: &mut Paper, out: &mut String) -> fmt::Result {
    let jobs = p.jobs();
    let wants = p.sweep_wants();
    for (profile, run) in p.runs(&wants) {
        let name = &profile.name;
        let points = sweep_with_jobs(&run.log, jobs);
        writeln!(
            out,
            "\nSweep over {name}: miss-rate reduction / overhead ratio vs unified"
        )?;
        let mut table =
            TextTable::new(["proportions", "policy", "miss reduction", "overhead ratio"]);
        for pt in &points {
            table.row([
                layout(pt),
                pt.promotion.to_string(),
                fmt_pct(pt.miss_rate_reduction),
                format!("{:.1}%", pt.overhead_ratio * 100.0),
            ]);
        }
        out.push_str(&table.render());
        if let Some(best) = best_point(&points) {
            writeln!(
                out,
                "best: {} {} ({} miss reduction)",
                layout(best),
                best.promotion,
                fmt_pct(best.miss_rate_reduction),
            )?;
        }
    }
    Ok(())
}

/// Sensitivity of trace formation to the trace-creation threshold
/// (Section 4.1 fixes it at DynamoRIO's default of 50; this extension
/// sweeps it). Lower thresholds create more, colder traces — inflating
/// the cache and the management load; higher thresholds delay
/// trace-cache entry and shrink coverage. Runs the frontend directly, so
/// it shares no recording.
fn sweep_trace_threshold(p: &mut Paper, out: &mut String) -> fmt::Result {
    let scale = if p.opts.scale > 1 { p.opts.scale } else { 8 };
    let profile = benchmark("excel")
        .expect("built-in benchmark")
        .scaled_down(scale);
    let plan = ExecutionPlan::from_profile(&profile).expect("calibrated profile");

    writeln!(
        out,
        "Trace-creation-threshold sweep on `excel` (1/{scale} scale)."
    )?;
    let mut table = TextTable::new([
        "threshold",
        "traces",
        "trace bytes",
        "accesses",
        "trace exits",
    ]);
    for threshold in [10u32, 25, 50, 75, 100, 200] {
        let mut engine = Engine::with_threshold(plan.image().clone(), threshold);
        for ev in plan.stream() {
            engine.on_event(ev, &mut |_| {});
        }
        let s = engine.stats();
        table.row([
            threshold.to_string(),
            s.traces_created.to_string(),
            fmt_bytes(s.trace_bytes_created),
            s.trace_accesses.to_string(),
            s.trace_exits.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\n(the paper, like DynamoRIO, uses threshold 50)\n");
    Ok(())
}

/// Local-policy ablation (Section 4): pseudo-circular (the paper's
/// choice) versus LRU, clock and Dynamo-style flush-on-full, each as the
/// single unified trace cache at 0.5 × maxCache.
///
/// Expected shape (prior work, INTERACT 2002): pseudo-circular matches
/// or beats LRU at far lower bookkeeping cost and with zero
/// placement-induced fragmentation; preemptive flushing trails both.
fn ablate_local_policy(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Local-policy ablation: unified cache at 0.5 x maxCache per policy.\n");
    // Per benchmark and policy: (miss rate, fragmentation ratio).
    let (runs, results) = p.suite_cells(4, |run, cell| {
        let cap = half_peak(run);
        let (name, cache): (&str, Box<dyn CodeCache>) = match cell {
            0 => ("pseudo-circular", Box::new(PseudoCircularCache::new(cap))),
            1 => ("lru", Box::new(LruCache::new(cap))),
            2 => ("clock", Box::new(ClockCache::new(cap))),
            _ => ("flush", Box::new(FlushCache::new(cap))),
        };
        let mut model = UnifiedModel::with_cache(name, cache);
        replay_into(&run.1.log, &mut model);
        (
            model.metrics().miss_rate(),
            model.cache().fragmentation().fragmentation_ratio(),
        )
    });
    let mut table = TextTable::new([
        "Benchmark",
        "pseudo-circ miss",
        "LRU miss",
        "clock miss",
        "flush miss",
        "LRU frag",
        "pc frag",
    ]);
    for ((p, _), r) in runs.iter().zip(&results) {
        let misses = r.iter().map(|(miss, _)| format!("{:.2}%", miss * 100.0));
        let frags = [r[1].1, r[0].1].map(|frag| format!("{frag:.2}"));
        table.row(std::iter::once(p.name.clone()).chain(misses).chain(frags));
    }
    out.push_str(&table.render());
    let mean_miss = |policy: usize| mean(results.iter().map(|r| r[policy].0)) * 100.0;
    writeln!(
        out,
        "average miss rates: pseudo-circular {:.2}%  LRU {:.2}%  clock {:.2}%  flush {:.2}%",
        mean_miss(0),
        mean_miss(1),
        mean_miss(2),
        mean_miss(3),
    )
}

/// Probation-cache ablation (Section 5.3): the full three-generation
/// hierarchy versus a two-generation variant with no probation cache
/// (every nursery evictee is promoted straight to the persistent cache).
///
/// Expected shape: without the probation filter, short-lived traces
/// flood the persistent cache and evict long-lived tenants, giving up
/// much of the generational win.
fn ablate_probation(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Probation ablation: 45-10-45 promote-on-hit(1) vs 50-0-50 (no probation).\n");
    // Per benchmark: unified, with probation, without probation.
    let (runs, results) = p.suite_cells(3, |run, cell| {
        let cap = half_peak(run);
        let hit1 = PromotionPolicy::OnHit { hits: 1 };
        let mut model: Box<dyn CacheModel> = match cell {
            0 => Box::new(UnifiedModel::new(cap)),
            1 => Box::new(GenerationalModel::new(GenerationalConfig::new(
                cap,
                Proportions::best_overall(),
                hit1,
            ))),
            _ => Box::new(GenerationalModel::new(GenerationalConfig::new(
                cap,
                Proportions::new(0.5, 0.0, 0.5),
                hit1,
            ))),
        };
        replay_into(&run.1.log, model.as_mut());
        (model.metrics().miss_rate(), *model.ledger())
    });
    let mut table = TextTable::new([
        "Benchmark",
        "with probation",
        "no probation",
        "ratio w/",
        "ratio w/o",
    ]);
    let mut with = Vec::new();
    let mut without = Vec::new();
    for ((p, _), r) in runs.iter().zip(&results) {
        let (u, unified) = r[0];
        let red = |i: usize| if u == 0.0 { 0.0 } else { (u - r[i].0) / u };
        with.push(red(1));
        without.push(red(2));
        table.row([
            p.name.clone(),
            fmt_pct(red(1)),
            fmt_pct(red(2)),
            format!("{:.1}%", overhead_ratio(&r[1].1, &unified) * 100.0),
            format!("{:.1}%", overhead_ratio(&r[2].1, &unified) * 100.0),
        ]);
    }
    out.push_str(&table.render());
    writeln!(
        out,
        "average miss-rate reduction: with probation {}  without {}",
        fmt_pct(mean(with)),
        fmt_pct(mean(without)),
    )
}

/// Replays `run` into a bare LRU cache, returning `(accesses, misses,
/// compaction passes, bytes moved)`. The counters live on [`LruCache`]
/// itself, which a [`UnifiedModel`] hides behind `dyn CodeCache`, so
/// this drives the cache from the shared [`ReplayCursor`] directly.
fn replay_lru(run: &Run, mut cache: LruCache) -> (u64, u64, u64, u64) {
    let mut cursor = ReplayCursor::new();
    let (mut accesses, mut misses) = (0u64, 0u64);
    for record in &run.1.log.records {
        match cursor.step(record) {
            ReplayStep::Access(rec, time) => {
                accesses += 1;
                if matches!(record, LogRecord::Create { .. }) || !cache.touch(rec.id, time) {
                    misses += 1;
                    let _ = cache.insert(rec, time);
                }
            }
            ReplayStep::Unmap(id, _) => {
                cache.remove(id, EvictionCause::Unmapped);
            }
            ReplayStep::Pin(id, pinned, _) => {
                cache.set_pinned(id, pinned);
            }
        }
    }
    (
        accesses,
        misses,
        cache.defrag_runs(),
        cache.defrag_moved_bytes(),
    )
}

/// Defragmentation ablation (Section 4.2): the paper argues a local
/// policy "must either include a defragmentation step, or make efforts
/// to minimize the fragmentation". This extension quantifies the trade:
/// plain LRU (fragmentation → extra evictions) versus LRU with automatic
/// compaction (relocation work instead), with the relocation bill priced
/// by the Table 2 promotion formula.
fn ablate_defrag(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Defragmentation ablation: plain LRU vs LRU with compaction (0.5 x maxCache).\n");
    let (runs, results) = p.suite_cells(2, |run, cell| {
        let cap = half_peak(run);
        replay_lru(
            run,
            if cell == 0 {
                LruCache::new(cap)
            } else {
                LruCache::with_defrag_threshold(cap, 0.25)
            },
        )
    });
    let mut table = TextTable::new([
        "Benchmark",
        "LRU miss",
        "LRU+defrag miss",
        "defrag runs",
        "moved bytes",
        "relocation cost",
    ]);
    let mut plain_rates = Vec::new();
    let mut defrag_rates = Vec::new();
    for ((p, r), cells) in runs.iter().zip(&results) {
        let (acc, plain_misses, _, _) = cells[0];
        let (_, defrag_misses, defrag_runs, moved_bytes) = cells[1];
        // Price the relocations: moved bytes at the Table 2 promotion
        // formula's rate, approximating each moved trace by the median
        // trace size.
        let median = r.log.median_trace_bytes().max(1);
        let moved_traces = moved_bytes / u64::from(median);
        let relocation_cost = moved_traces as f64 * cost::promotion(median);

        plain_rates.push(plain_misses as f64 / acc as f64);
        defrag_rates.push(defrag_misses as f64 / acc as f64);
        table.row([
            p.name.clone(),
            format!("{:.2}%", plain_misses as f64 / acc as f64 * 100.0),
            format!("{:.2}%", defrag_misses as f64 / acc as f64 * 100.0),
            defrag_runs.to_string(),
            moved_bytes.to_string(),
            format!("{relocation_cost:.2e} instr"),
        ]);
    }
    out.push_str(&table.render());
    writeln!(
        out,
        "average miss rates: LRU {:.2}%  LRU+defrag {:.2}%",
        mean(plain_rates) * 100.0,
        mean(defrag_rates) * 100.0,
    )
}

/// Undeletable-trace ablation (Section 4.2): sensitivity of the unified
/// pseudo-circular cache to the rate of exceptions pinning traces in the
/// cache. Pinned traces force the eviction pointer to reset past them;
/// higher pin rates mean more disturbed FIFO order and more
/// fragmentation pressure.
fn ablate_exceptions(p: &mut Paper, out: &mut String) -> fmt::Result {
    let jobs = p.jobs();
    let wants = p.exception_wants();
    out.push_str("Undeletable-trace sensitivity on `word`: exception rate vs miss rate.\n");
    let runs = p.runs(&wants);
    let rows = par_map(&runs, jobs, |run| {
        let log = &run.1.log;
        let pins = log
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Pin { .. }));
        let mut model = UnifiedModel::new(half_peak(run));
        replay_into(log, &mut model);
        (pins.count(), *model.metrics())
    });
    let mut table = TextTable::new(["exception rate", "pins", "miss rate", "uncachable inserts"]);
    for ((_, options), (pins, metrics)) in wants.iter().zip(rows) {
        table.row([
            format!("{:.0e}", options.exception_rate),
            pins.to_string(),
            format!("{:.3}%", metrics.miss_rate() * 100.0),
            metrics.uncachable.to_string(),
        ]);
    }
    out.push_str(&table.render());
    Ok(())
}

/// Trace-linking analysis (extension).
///
/// Dynamic optimizers link traces so inter-trace transitions bypass the
/// dispatcher; an eviction severs every link into the victim. This study
/// replays each benchmark while tracking the link graph, comparing how
/// many transitions run linked under the unified baseline versus the
/// generational hierarchy — cache organizations that keep long-lived
/// traces resident also keep their links warm.
fn ablate_linking(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Trace-linking analysis: linked-transition fraction and dispatcher switches.\n");
    let (runs, reports) = p.suite_cells(2, |run, cell| {
        let cap = half_peak(run);
        let mut model: Box<dyn LinkableModel> = if cell == 0 {
            Box::new(UnifiedModel::new(cap))
        } else {
            Box::new(GenerationalModel::new(
                GenerationalConfig::figure9_configs(cap)[1],
            ))
        };
        replay_with_linking(&run.1.log, model.as_mut())
    });
    let mut table = TextTable::new([
        "Benchmark",
        "unified linked",
        "gen linked",
        "unified ctx-sw",
        "gen ctx-sw",
        "severed (uni/gen)",
    ]);
    for ((p, _), r) in runs.iter().zip(&reports) {
        let (uni, g) = (&r[0], &r[1]);
        table.row([
            p.name.clone(),
            format!("{:.1}%", uni.linked_fraction() * 100.0),
            format!("{:.1}%", g.linked_fraction() * 100.0),
            uni.context_switches().to_string(),
            g.context_switches().to_string(),
            format!("{}/{}", uni.links_severed, g.links_severed),
        ]);
    }
    out.push_str(&table.render());
    let mean_linked = |cell: usize| mean(reports.iter().map(|r| r[cell].linked_fraction())) * 100.0;
    writeln!(
        out,
        "average linked-transition fraction: unified {:.1}%  generational {:.1}%",
        mean_linked(0),
        mean_linked(1),
    )
}

/// Thread-private versus thread-shared code caches (extension).
///
/// DynamoRIO's caches are thread-private; the paper's generational
/// design multiplies the caches per thread further. Privacy removes
/// synchronization but fragments the capacity budget. This study splits
/// each benchmark's traces across simulated threads (by code module),
/// gives each thread `1/T` of the 0.5 × maxCache budget, and compares
/// the summed miss behaviour against a single shared cache.
fn threaded_caches(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Thread-private vs thread-shared caches (generational 45-10-45).\n");
    // The private layouts: thread count and budget split.
    let splits = [
        (4, BudgetSplit::Equal),
        (4, BudgetSplit::PeakProportional),
        (8, BudgetSplit::PeakProportional),
    ];
    // Per benchmark: the shared cache's miss rate, then each private
    // layout's.
    let (runs, rates) = p.suite_cells(1 + splits.len(), |run, cell| {
        let (log, capacity, kind) = (&run.1.log, half_peak(run), ThreadCacheKind::Generational);
        match cell.checked_sub(1) {
            None => replay_thread_shared(log, capacity, kind).miss_rate(),
            Some(i) => {
                let (threads, split) = splits[i];
                replay_thread_private(log, threads, capacity, kind, split).miss_rate()
            }
        }
    });
    let mut table = TextTable::new([
        "Benchmark",
        "shared miss",
        "4T equal",
        "4T peak-prop",
        "8T peak-prop",
    ]);
    let mut penalties = Vec::new();
    for ((p, _), rates) in runs.iter().zip(&rates) {
        if rates[0] > 0.0 {
            penalties.push(rates[2] / rates[0]);
        }
        table.row(
            std::iter::once(p.name.clone())
                .chain(rates.iter().map(|r| format!("{:.2}%", r * 100.0))),
        );
    }
    out.push_str(&table.render());
    writeln!(
        out,
        "average 4-thread (peak-proportional) private/shared miss-rate ratio: {:.2}x",
        mean(penalties)
    )
}

/// Per-benchmark best generational configuration (Section 6.1: "the
/// best cache configuration varied by benchmark", yet 45-10-45 with
/// promote-on-first-hit "performs best overall"). Sweeps the proportion
/// × policy grid for every benchmark and reports each winner alongside
/// the standard configuration's result.
///
/// Runs at 1/4 scale when `--scale` is not given, because the full grid
/// is 30 replays per benchmark.
fn best_configs(p: &mut Paper, out: &mut String) -> fmt::Result {
    let jobs = p.jobs();
    writeln!(
        out,
        "Best generational configuration per benchmark (scale 1/{}).",
        p.quarter_scale()
    )?;
    let wants = p.best_configs_wants();
    let runs = p.runs(&wants);
    let mut table = TextTable::new([
        "Benchmark",
        "best layout",
        "best policy",
        "best reduction",
        "45-10-45@hit1",
    ]);
    let mut wins_for_standard = 0usize;
    for (p, r) in &runs {
        let points = sweep_with_jobs(&r.log, jobs);
        let best = best_point(&points).expect("grid is nonempty");
        let standard = points
            .iter()
            .find(|pt| {
                (pt.nursery - 0.45).abs() < 1e-9
                    && matches!(pt.promotion, PromotionPolicy::OnHit { hits: 1 })
            })
            .expect("standard config is in the grid");
        if (best.miss_rate_reduction - standard.miss_rate_reduction).abs() < 1e-9 {
            wins_for_standard += 1;
        }
        table.row([
            p.name.clone(),
            layout(best),
            best.promotion.to_string(),
            fmt_pct(best.miss_rate_reduction),
            fmt_pct(standard.miss_rate_reduction),
        ]);
    }
    out.push_str(&table.render());
    writeln!(
        out,
        "\nbenchmarks where the paper's 45-10-45 promote-on-hit(1) is already optimal: {} of {}",
        wins_for_standard,
        runs.len()
    )
}

/// Reuse-distance analysis of the benchmark logs (extension).
///
/// For each benchmark, computes the byte-weighted stack-distance profile
/// and prints the analytic LRU miss-rate-versus-capacity curve around
/// the paper's operating point (0.5 × maxCache). The distribution's
/// shape explains Figure 9: short distances (nursery hits) and a far
/// spike (the long-lived working set) with little in between.
fn analyze_reuse(p: &mut Paper, out: &mut String) -> fmt::Result {
    out.push_str("Byte-weighted reuse-distance profiles and analytic LRU curves.\n");
    let (_, rows) = p.suite_cells(1, |(p, r), _| {
        let profile = reuse_profile(&r.log);
        let peak = r.log.peak_trace_bytes.max(1);
        let cold = profile.cold_accesses() as f64 / profile.total_accesses().max(1) as f64;
        [
            p.name.clone(),
            profile.median_distance().map_or("-".into(), fmt_bytes),
            profile.percentile(90).map_or("-".into(), fmt_bytes),
            format!("{:.2}%", profile.miss_rate_at(peak / 4) * 100.0),
            format!("{:.2}%", profile.miss_rate_at(peak / 2) * 100.0),
            format!("{:.2}%", profile.miss_rate_at(peak) * 100.0),
            format!("{:.2}%", cold * 100.0),
        ]
    });
    let mut table = TextTable::new([
        "Benchmark",
        "median dist",
        "p90 dist",
        "miss @25%",
        "miss @50%",
        "miss @100%",
        "cold floor",
    ]);
    for row in rows.into_iter().flatten() {
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str("\n(@X% = analytic LRU miss rate with capacity X% of the unbounded peak)\n");
    Ok(())
}

/// Per-thread trace duplication (extension).
///
/// DynamoRIO's caches are thread-private: when several threads execute
/// the same hot code, each thread's frontend independently builds its
/// own copy of the shared traces. This study records representative
/// benchmarks with 1, 2, and 4 guest threads (shared long-lived regions
/// rotate across threads; phase-local code stays thread-private) and
/// reports the cache growth that privacy costs. Runs at 1/4 scale when
/// `--scale` is not given; the single-threaded runs are the suite's.
fn thread_duplication(p: &mut Paper, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Per-thread trace duplication (thread-private frontends, 1/{} scale).",
        p.quarter_scale()
    )?;
    let wants = p.thread_wants();
    let mut table = TextTable::new([
        "Benchmark",
        "threads",
        "traces",
        "trace bytes",
        "peak trace cache",
        "growth",
    ]);
    let mut base_bytes = 0u64;
    for (profile, run) in p.runs(&wants) {
        if profile.threads == 1 {
            base_bytes = run.frontend.trace_bytes_created.max(1);
        }
        table.row([
            profile.name.clone(),
            profile.threads.to_string(),
            run.summary.traces_created.to_string(),
            fmt_bytes(run.frontend.trace_bytes_created),
            fmt_bytes(run.summary.peak_trace_bytes),
            format!(
                "{:.2}x",
                run.frontend.trace_bytes_created as f64 / base_bytes as f64
            ),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\n(growth = trace bytes relative to the single-threaded run)\n");
    Ok(())
}
