//! The v2 export has one writer and two kinds of recording behind it:
//! materialized runs (`--events-out`) and bounded-memory
//! `StreamedRecording`s (the serve daemon's `fetch`, the in-memory
//! exporter). Both must give the same bytes at any channel depth, and
//! the probe's summaries must equal the recorded ones.

use gencache_bench::{record_all, stream_events_to, HarnessOptions, StreamedRun};
use gencache_sim::{RecorderOptions, StreamedRecording};
use gencache_workloads::Suite;

#[test]
fn streamed_export_is_byte_identical_to_recorded_export() {
    let opts = HarnessOptions {
        scale: 64,
        suite: Some(Suite::Interactive),
        ..HarnessOptions::default()
    };
    let runs = record_all(&opts);
    let summaries =
        serde_json::to_string(&runs.iter().map(|(_, r)| &r.summary).collect::<Vec<_>>()).unwrap();
    let (recorded, recorded_lines) = stream_events_to(Vec::new(), &runs).unwrap();
    // Depth 1 forces a producer/consumer handoff on every record.
    for depth in [1, 8] {
        let recs: Vec<StreamedRun> = opts
            .profiles()
            .into_iter()
            .map(|p| {
                let rec = StreamedRecording::probe(&p, RecorderOptions::default(), depth).unwrap();
                (p, rec)
            })
            .collect();
        let probed =
            serde_json::to_string(&recs.iter().map(|(_, r)| r.summary()).collect::<Vec<_>>())
                .unwrap();
        assert_eq!(
            summaries, probed,
            "probe summaries at depth {depth} diverged from the recorded summaries"
        );
        let (streamed, streamed_lines) = stream_events_to(Vec::new(), &recs).unwrap();
        assert_eq!(
            recorded_lines, streamed_lines,
            "line count at depth {depth}"
        );
        assert!(
            recorded == streamed,
            "export from probed recordings at depth {depth} differs from the recorded export"
        );
    }
}
