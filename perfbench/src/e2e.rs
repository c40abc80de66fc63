//! The end-to-end run: what a user of each workload sees, with tracing
//! off.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::digest::{Digest, ResultDigests};
use crate::inputs::{
    golden_digest, golden_figure, profile_seeds, record_export, reference, Job, DEFAULT_SEED,
};
use crate::service::Service;
use crate::stats::{median, tail};
use crate::wire::{self, Submitted};
use crate::{procs, Metric, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The figure binaries paper-figs regenerates, and their arguments.
pub const FIGURES: [&str; 3] = [
    "fig9_miss_rates",
    "fig10_misses_eliminated",
    "fig11_overhead",
];
pub const FIGURE_ARGS: [&str; 2] = ["--scale", "8"];
pub const FIGURE_ENV: [(&str, &str); 1] = [("GENCACHE_JOBS", "2")];

/// Attempted and failed operations, and the timed jobs' latencies.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub busy_retries: u64,
    pub latencies_ms: Vec<f64>,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation; `failure` is why it failed, if it did.
    /// Only timed operations that succeed give a latency sample.
    pub fn record(&mut self, latency: Option<Duration>, failure: Option<String>) {
        self.attempted += 1;
        match failure {
            Some(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
            None => {
                if let Some(l) = latency {
                    self.latencies_ms.push(l.as_secs_f64() * 1e3);
                }
            }
        }
    }

    /// Counts one served job against its reference.
    pub fn record_job(
        &mut self,
        outcome: &io::Result<Submitted>,
        expected: &ResultDigests,
        timed: bool,
    ) {
        if let Ok(s) = outcome {
            self.busy_retries += u64::from(s.busy_retries);
        }
        let latency = outcome.as_ref().ok().filter(|_| timed).map(|s| s.latency);
        self.record(latency, wire::check(outcome, expected));
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_retries += other.busy_retries;
        self.latencies_ms.extend(other.latencies_ms);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `workload` end to end for `seconds`.
///
/// # Errors
///
/// Fails when set-up fails: a daemon does not start, the fleet
/// placement differs, or an input cannot be recorded.
pub fn run(workload: Workload, bins: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    match workload {
        Workload::PaperFigs => paper_figs(bins, seconds),
        _ => served(workload, bins, seed, seconds),
    }
}

fn served(workload: Workload, bins: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let profiles = workload.profiles(seed)?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_rss = Vec::with_capacity(SETUPS);
    let mut warm_ups = Vec::with_capacity(SETUPS);
    let mut exports = Vec::with_capacity(SETUPS);
    let mut current: Option<(Job, Service)> = None;
    let mut buf = Vec::new();
    for _ in 0..SETUPS {
        // Stop the previous set-up first: the fleet's ports are pinned.
        drop(current.take());
        let started = Instant::now();
        let job = Job::new(workload.job_spec(), record_export(&profiles)?);
        let service = match workload {
            Workload::FleetGrid => Service::fleet(bins)?,
            _ => Service::single(bins)?,
        };
        let warm_up = wire::submit(service.addr(), &job, &mut buf);
        setups.push(started.elapsed().as_secs_f64());
        setup_rss.push(service.peak_rss_mb()?.iter().map(|p| p.1).sum());
        warm_ups.push(warm_up);
        exports.push(Digest::of(&job.export.bytes));
        current = Some((job, service));
    }
    let (job, service) = current.expect("at least one set-up");
    if exports.iter().any(|d| *d != exports[0]) {
        return Err(format!(
            "the same seed recorded different exports: {exports:?}"
        ));
    }

    let expected = reference(&job)?;
    let mut tally = Tally::default();
    if seed == DEFAULT_SEED {
        let key = format!("{} doc", workload.name());
        match golden_digest(&key) {
            Some(golden) if golden == expected.doc => {}
            other => tally.record(
                None,
                Some(format!(
                    "reference doc {} differs from golden {other:?}",
                    expected.doc
                )),
            ),
        }
    }
    for w in &warm_ups {
        tally.record_job(w, &expected, false);
    }

    let connections = workload.connections();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let (timed, wall) = std::thread::scope(|scope| {
        let (job, expected, addr) = (&job, &expected, service.addr());
        let closed_loop = move || {
            let mut tally = Tally::default();
            let mut buf = Vec::new();
            let mut finished = Instant::now();
            while Instant::now() < deadline {
                let outcome = wire::submit(addr, job, &mut buf);
                finished = Instant::now();
                tally.record_job(&outcome, expected, true);
            }
            (tally, finished)
        };
        let others: Vec<_> = (1..connections).map(|_| scope.spawn(closed_loop)).collect();
        let (mut tally, mut last) = closed_loop();
        for handle in others {
            let (t, finished) = handle.join().expect("load thread panicked");
            tally.merge(t);
            last = last.max(finished);
        }
        (tally, last - started)
    });
    tally.merge(timed);
    let peaks = service.peak_rss_mb()?;
    let placement = service.placement.clone();
    drop(service);

    let mut notes = vec![
        format!(
            "input: seed {seed}, {} export of {} lines, {} bytes ({})",
            workload.input_label(),
            job.export.lines,
            job.export.bytes.len(),
            exports[0]
        ),
        format!("input: profile seeds {}", profile_seeds(&profiles)),
        format!(
            "load: {connections} connection(s), closed loop, {} busy retries",
            tally.busy_retries
        ),
        format!("reference: doc {} frame {}", expected.doc, expected.frame),
    ];
    notes.push(format!(
        "peak RSS by process at the end of the run: {}",
        peaks
            .iter()
            .map(|(addr, mb)| format!("{addr} {mb:.1} MiB"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some(p) = placement {
        notes.push(format!("placement, checked with route before timing: {p}"));
    }
    // The peak after one job on fresh daemons: over a whole run the
    // router's peak keeps creeping up (from about 400 to 600 MiB in a
    // few jobs, by a different amount each run) and would swamp any
    // change.
    let what = match workload {
        Workload::FleetGrid => "router and both shards, summed",
        _ => "the daemon",
    };
    let peak = (
        median(&setup_rss),
        format!(
            "{what}, after the warm-up job; median of {}: {}",
            setup_rss.len(),
            list(&setup_rss)
        ),
    );
    Ok(outcome(tally, &setups, wall, peak, notes, None))
}

fn paper_figs(bins: &Path, seconds: u64) -> Result<Outcome, String> {
    let run = |bin: &str| procs::run_figure(&bins.join(bin), &FIGURE_ARGS, &FIGURE_ENV);
    let check = |bin: &str, r: &procs::FigureRun| -> Option<String> {
        if !r.exit_ok {
            Some(format!("{bin} exited nonzero"))
        } else if golden_figure(bin) != Some(r.stdout.as_slice()) {
            Some(format!("{bin} output differs from golden/{bin}.txt"))
        } else {
            None
        }
    };
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let started = Instant::now();
        let r = run(FIGURES[0])?;
        setups.push(started.elapsed().as_secs_f64());
        tally.record(None, check(FIGURES[0], &r));
    }
    let started = Instant::now();
    let mut per_bin: Vec<Vec<f64>> = vec![Vec::new(); FIGURES.len()];
    let mut peak_kib = 0;
    // A job regenerates the three artifacts, one binary after another.
    while started.elapsed() < Duration::from_secs(seconds) {
        let job_started = Instant::now();
        let mut ok = true;
        for (i, bin) in FIGURES.iter().enumerate() {
            let r = run(bin)?;
            peak_kib = peak_kib.max(r.peak_rss_kib);
            let failure = check(bin, &r);
            ok &= failure.is_none();
            per_bin[i].push(r.wall.as_secs_f64());
            tally.record(None, failure);
        }
        if ok {
            tally
                .latencies_ms
                .push(job_started.elapsed().as_secs_f64() * 1e3);
        }
    }
    let wall = started.elapsed();
    let notes = vec![
        "input: the figure binaries take no seed flag, so paper-figs ignores --seed".to_string(),
        format!(
            "load: one job runs {} in turn at {} with {}, each output compared with golden/",
            FIGURES.join(", "),
            FIGURE_ARGS.join(" "),
            FIGURE_ENV.map(|(k, v)| format!("{k}={v}")).join(" ")
        ),
        format!(
            "median wall per binary: {}",
            FIGURES
                .iter()
                .zip(&per_bin)
                .map(|(bin, s)| format!("{bin} {:.3} s", median(s)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    let artifacts = Metric::new(
        "artifacts_s",
        "s",
        if tally.latencies_ms.is_empty() {
            0.0
        } else {
            median(&tally.latencies_ms) / 1e3
        },
        "median wall time of one regeneration of the three figures".to_string(),
    );
    let peak = (
        peak_kib as f64 / 1024.0,
        "the largest figure process".to_string(),
    );
    Ok(outcome(tally, &setups, wall, peak, notes, Some(artifacts)))
}

fn outcome(
    tally: Tally,
    setups: &[f64],
    wall: Duration,
    (peak_rss_mb, peak_of): (f64, String),
    mut notes: Vec<String>,
    extra: Option<Metric>,
) -> Outcome {
    let n = tally.latencies_ms.len();
    // With no successful job the run is already incorrect; report 0.
    let (p50, tail) = if n == 0 {
        (0.0, None)
    } else {
        (median(&tally.latencies_ms), Some(tail(&tally.latencies_ms)))
    };
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(setups),
            format!("median of {} set-ups: {}", setups.len(), list(setups)),
        ),
        Metric::new(
            "jobs_per_s",
            "1/s",
            n as f64 / wall.as_secs_f64(),
            format!("{n} completed in {:.3} s", wall.as_secs_f64()),
        ),
        Metric::new("job_p50_ms", "ms", p50, format!("median of n={n}")),
        Metric::new(
            "job_tail_ms",
            "ms",
            tail.map_or(0.0, |t| t.value),
            tail.map_or_else(|| "no samples".to_string(), |t| t.describe()),
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            peak_rss_mb,
            format!("peak RSS of {peak_of}"),
        ),
    ];
    let mut shown = vec![Metric::new(
        "error_rate",
        "ratio",
        tally.error_rate(),
        format!("{} failed of {} attempted", tally.failed, tally.attempted),
    )];
    shown.extend(extra);
    if let Some(why) = &tally.first_failure {
        notes.push(format!("first failure: {why}"));
    }
    Outcome {
        metrics,
        shown,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
    }
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{classify_reply, result_digests};
    use crate::wire::Split;

    const REPLY: &[u8] =
        br#"{"type":"result","benches":1,"specs":2,"elapsed_us":99,"table":"t","doc":{"x":1}}"#;

    fn served(line: &[u8]) -> io::Result<Submitted> {
        Ok(Submitted {
            kind: classify_reply(line),
            latency: Duration::from_millis(5),
            split: Split::default(),
            busy_retries: 0,
        })
    }

    #[test]
    fn matching_reply_counts_as_a_timed_success() {
        let expected = result_digests(REPLY).unwrap();
        let mut tally = Tally::default();
        tally.record_job(&served(REPLY), &expected, true);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        assert_eq!(tally.latencies_ms, vec![5.0]);
    }

    #[test]
    fn doctored_digest_counts_in_error_rate_and_fails_the_check() {
        let mut expected = result_digests(REPLY).unwrap();
        expected.doc.hash ^= 1;
        let mut tally = Tally::default();
        tally.record_job(&served(REPLY), &expected, true);
        tally.record_job(&served(REPLY), &result_digests(REPLY).unwrap(), true);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.error_rate(), 0.5);
        assert_eq!(
            tally.latencies_ms.len(),
            1,
            "a wrong reply gives no latency sample"
        );
        let out = outcome(
            tally,
            &[1.0],
            Duration::from_secs(1),
            (1.0, String::new()),
            Vec::new(),
            None,
        );
        assert!(!out.correct());
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("differs from the reference")));
    }

    #[test]
    fn busy_and_error_replies_are_failures() {
        let expected = result_digests(REPLY).unwrap();
        let mut tally = Tally::default();
        tally.record_job(
            &served(br#"{"type":"busy","queue_depth":4}"#),
            &expected,
            true,
        );
        tally.record_job(
            &served(br#"{"type":"error","message":"x"}"#),
            &expected,
            true,
        );
        tally.record_job(&Err(io::Error::other("refused")), &expected, true);
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }
}
