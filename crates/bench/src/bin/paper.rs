//! Regenerates every paper artifact: records each distinct recording
//! once and writes `DIR/<artifact>.txt` for each of
//! `gencache_bench::paper::ARTIFACTS`.
//!
//! Usage: `paper [--out DIR] [harness options]`. `DIR` defaults to
//! `results`; the harness options are the figure binaries' (`--scale`,
//! `--suite`, `--jobs`, the telemetry flags).

use std::path::PathBuf;
use std::time::Instant;

use gencache_bench::paper::Paper;
use gencache_bench::HarnessOptions;

fn main() {
    let mut out = PathBuf::from("results");
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = args.next().expect("--out needs a directory").into();
        } else {
            rest.push(arg);
        }
    }
    std::fs::create_dir_all(&out).expect("cannot create the output directory");
    let mut started = Instant::now();
    Paper::new(HarnessOptions::parse(rest)).render_all(|name, text| {
        let path = out.join(format!("{name}.txt"));
        std::fs::write(&path, text).expect("cannot write an artifact");
        eprintln!(
            "wrote {} in {:.3}s",
            path.display(),
            started.elapsed().as_secs_f64()
        );
        started = Instant::now();
    });
}
