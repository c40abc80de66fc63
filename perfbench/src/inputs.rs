//! Seeded inputs and their in-process references.

use gencache_bench::ingest::{
    render_sim_tables, resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobOptions, StreamIngest,
};
use gencache_bench::{stream_events_to, StreamedRun};
use gencache_serve::proto::{encode_end, encode_job, encode_result};
use gencache_serve::JobSpec;
use gencache_sim::{RecorderOptions, StreamedRecording, DEFAULT_STREAM_DEPTH};
use gencache_workloads::{benchmark, WorkloadProfile};

use crate::digest::{result_digests, Digest, ResultDigests};

/// The seed whose replies must also match the committed golden digests.
pub const DEFAULT_SEED: u64 = 0;

/// How far a seeded recording's size may stray from the default seed's.
pub const SIZE_BAND: f64 = 0.02;
/// Salts tried per benchmark before giving up.
const MAX_SALTS: u64 = 4096;

/// `name` at `1/scale` of its footprint, reseeded with `salt` the way
/// `tests/seed_robustness.rs` does.
///
/// # Panics
///
/// Panics on a name that is not a built-in benchmark.
pub fn profile(name: &str, scale: u64, salt: u64) -> WorkloadProfile {
    let mut p = benchmark(name)
        .expect("built-in benchmark")
        .scaled_down(scale);
    p.seed ^= salt;
    p
}

fn record_count(p: &WorkloadProfile) -> Result<u64, String> {
    StreamedRecording::probe(p, RecorderOptions::default(), DEFAULT_STREAM_DEPTH)
        .map(|rec| rec.record_count())
        .map_err(|e| format!("{}: {e:?}", p.name))
}

/// `name` reseeded from `seed` at a fixed input size: the first salt
/// `seed + k·2^32` whose recording is within [`SIZE_BAND`] of the default
/// seed's record count. Reseeding alone moves a word@64 recording by
/// -6% to +32%, which would swamp every timing; this way each seed
/// changes the content (layout, schedule jitter) and not the amount of
/// work. The default seed keeps salt 0.
///
/// # Errors
///
/// Fails when the benchmark cannot be planned or no salt fits.
pub fn sized_profile(name: &str, scale: u64, seed: u64) -> Result<WorkloadProfile, String> {
    let target = record_count(&profile(name, scale, 0))? as f64;
    for k in 0..MAX_SALTS {
        let p = profile(name, scale, seed.wrapping_add(k << 32));
        if (record_count(&p)? as f64 / target - 1.0).abs() <= SIZE_BAND {
            return Ok(p);
        }
    }
    Err(format!(
        "{name}: no salt from seed {seed} within {SIZE_BAND} of the default size"
    ))
}

/// A recorded v2 export held in memory.
#[derive(Debug, Clone)]
pub struct Export {
    pub bytes: Vec<u8>,
    pub lines: u64,
}

impl Export {
    /// The export's lines, without terminators.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        std::str::from_utf8(&self.bytes)
            .expect("exports are UTF-8")
            .lines()
    }
}

/// The reseeded profiles' seeds, for the report.
pub fn profile_seeds(profiles: &[WorkloadProfile]) -> String {
    profiles
        .iter()
        .map(|p| format!("{}={:#x}", p.name, p.seed))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Probes each profile through the public recorder: one recording pass
/// that keeps the run facts the exporter needs.
///
/// # Errors
///
/// Fails when a profile cannot be planned.
pub fn probe(profiles: &[WorkloadProfile]) -> Result<Vec<StreamedRun>, String> {
    profiles
        .iter()
        .map(|p| {
            StreamedRecording::probe(p, RecorderOptions::default(), DEFAULT_STREAM_DEPTH)
                .map(|rec| (p.clone(), rec))
                .map_err(|e| format!("{}: {e:?}", p.name))
        })
        .collect()
}

/// Streams the export of probed recordings into memory.
///
/// # Errors
///
/// Fails only if the in-memory writer does, which it does not.
pub fn export(recs: &[StreamedRun]) -> Result<Export, String> {
    let (bytes, lines) = stream_events_to(Vec::new(), recs).map_err(|e| e.to_string())?;
    Ok(Export { bytes, lines })
}

/// Records the export of `profiles`.
///
/// # Errors
///
/// As [`probe`].
pub fn record_export(profiles: &[WorkloadProfile]) -> Result<Export, String> {
    export(&probe(profiles)?)
}

/// A job: its header frame plus the export it uploads.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: JobSpec,
    pub header: String,
    pub export: Export,
    pub end: String,
}

impl Job {
    pub fn new(spec: JobSpec, export: Export) -> Self {
        Job {
            header: encode_job(&spec),
            end: encode_end(export.lines),
            spec,
            export,
        }
    }
}

/// What a correct reply to a job hashes to.
///
/// # Errors
///
/// Fails when the export does not decode or the job cannot run, which
/// would make every served reply an error too.
pub fn reference(job: &Job) -> Result<ResultDigests, String> {
    let mut ingest = StreamIngest::new();
    for line in job.export.lines() {
        ingest.push_line(line)?;
    }
    let spec = &job.spec;
    let inputs = ingest.into_inputs(spec.bench.as_deref(), spec.model.as_deref(), spec.capacity)?;
    let specs = resolve_sim_specs(&spec.specs, spec.grid)?;
    let out = run_sim_job(&inputs, &specs, SimJobOptions::oracle(spec.oracle), 2, None)?;
    let frame = encode_result(
        sim_metrics_doc(&out),
        &render_sim_tables(&out),
        out.benches.len() as u64,
        out.labels.len() as u64,
        0,
    );
    result_digests(frame.as_bytes()).ok_or_else(|| "reference frame has no doc key".to_string())
}

/// The committed golden digest for `key` (`<workload> doc`), from
/// `golden/digests.txt`.
pub fn golden_digest(key: &str) -> Option<Digest> {
    include_str!("../golden/digests.txt").lines().find_map(|l| {
        let (k, v) = l.rsplit_once(' ')?;
        (k == key).then(|| Digest::parse(v)).flatten()
    })
}

/// The committed golden stdout of a figure binary at the paper-figs
/// scale.
pub fn golden_figure(bin: &str) -> Option<&'static [u8]> {
    match bin {
        "fig9_miss_rates" => Some(include_bytes!("../golden/fig9_miss_rates.txt")),
        "fig10_misses_eliminated" => Some(include_bytes!("../golden/fig10_misses_eliminated.txt")),
        "fig11_overhead" => Some(include_bytes!("../golden/fig11_overhead.txt")),
        _ => None,
    }
}
