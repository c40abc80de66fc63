//! `gencache-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-upload|fleet-grid|paper-figs --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout: it builds the release binaries,
//! drives one workload for `--seconds`, checks every output against its
//! reference, prints a report and, as its last line, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod digest;
mod e2e;
mod inputs;
mod procs;
mod service;
mod stats;
mod traced;
mod wire;

use std::process::ExitCode;

use gencache_serve::JobSpec;
use gencache_workloads::{all_benchmarks, WorkloadProfile};

use crate::inputs::sized_profile;

const USAGE: &str = "usage: perfbench --workload serve-upload|fleet-grid|paper-figs \
                     --seed N --seconds S --trace 0|1";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections upload a word@64 export to one daemon.
    ServeUpload,
    /// One connection uploads a four-benchmark export with the grid and
    /// the oracle to a router over two shards.
    FleetGrid,
    /// Figures 9, 10 and 11 over the 38-benchmark suite at 1/8 scale.
    PaperFigs,
}

/// Benchmarks of the fleet-grid export, in upload order.
pub const FLEET_BENCHES: [&str; 4] = ["word", "gcc", "excel", "phaseflip"];
/// Export scale of the served workloads.
pub const EXPORT_SCALE: u64 = 64;
/// Scale of paper-figs: DESIGN.md warns that smaller benchmarks
/// degenerate below 1/8.
pub const FIGURE_SCALE: u64 = 8;

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-upload" => Some(Workload::ServeUpload),
            "fleet-grid" => Some(Workload::FleetGrid),
            "paper-figs" => Some(Workload::PaperFigs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeUpload => "serve-upload",
            Workload::FleetGrid => "fleet-grid",
            Workload::PaperFigs => "paper-figs",
        }
    }

    /// The recorded benchmarks, reseeded from `seed` at a fixed size.
    /// The figure binaries take no seed, so paper-figs ignores it.
    ///
    /// # Errors
    ///
    /// As [`sized_profile`].
    pub fn profiles(self, seed: u64) -> Result<Vec<WorkloadProfile>, String> {
        match self {
            Workload::ServeUpload => Ok(vec![sized_profile("word", EXPORT_SCALE, seed)?]),
            Workload::FleetGrid => FLEET_BENCHES
                .iter()
                .map(|b| sized_profile(b, EXPORT_SCALE, seed))
                .collect(),
            Workload::PaperFigs => Ok(all_benchmarks()
                .into_iter()
                .map(|p| p.scaled_down(FIGURE_SCALE))
                .collect()),
        }
    }

    /// The job header of a served workload: default specs, or the §6
    /// grid plus the Belady oracle.
    pub fn job_spec(self) -> JobSpec {
        JobSpec {
            grid: self == Workload::FleetGrid,
            oracle: self == Workload::FleetGrid,
            ..JobSpec::default()
        }
    }

    /// Client connections of the load generator.
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeUpload => 2,
            _ => 1,
        }
    }

    pub fn input_label(self) -> String {
        match self {
            Workload::ServeUpload => format!("word@{EXPORT_SCALE}"),
            Workload::FleetGrid => format!("{}@{EXPORT_SCALE}", FLEET_BENCHES.join("+")),
            Workload::PaperFigs => format!("38-benchmark suite@{FIGURE_SCALE}"),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the number was made, for the report.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, note: String) -> Self {
        Metric {
            name,
            unit,
            value,
            note,
        }
    }
}

/// A run's result.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further numbers the report shows but the result line leaves out.
    pub shown: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(inputs::DEFAULT_SEED),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = procs::build_binaries().and_then(|bins| {
        if args.trace {
            traced::run(args.workload, &bins, args.seed, args.seconds)
        } else {
            e2e::run(args.workload, &bins, args.seed, args.seconds)
        }
    });
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.trace {
        "traced run, per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "== perfbench {} ({mode}), seed {}, {} s",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in outcome.metrics.iter().chain(&outcome.shown) {
        let value = match m.unit {
            "count" | "bytes" => format!("{:.0}", m.value),
            _ => format!("{:.6}", m.value),
        };
        println!("  {:<26} {value:>16} {:<6} {}", m.name, m.unit, m.note);
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse_args(args(&[
            "--workload",
            "fleet-grid",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FleetGrid, 7, 20, true)
        );
        assert!(parse_args(args(&["--workload", "nope"])).is_err());
        assert!(parse_args(args(&["--workload", "paper-figs", "--trace", "2"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            metrics: vec![Metric::new("setup_s", "s", 0.5, String::new())],
            shown: vec![Metric::new("error_rate", "ratio", 0.0, String::new())],
            attempted: 3,
            failed: 0,
            notes: Vec::new(),
        };
        assert_eq!(
            out.result_line(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
