//! Fleet tests: three in-process daemons behind a `ShardRouter`, real
//! TCP end to end.
//!
//! The property under test is the tentpole guarantee: a job submitted
//! to the router — split per benchmark across shards, simulated
//! concurrently, merged — answers with *exactly* the bytes offline
//! `simulate --metrics-out` produces for the same export and specs,
//! even while shards die and come back mid-run.

use std::collections::BTreeSet;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gencache_bench::ingest::{
    resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobOptions, StreamIngest,
};
use gencache_bench::{stream_events_to, value_to_json, HarnessOptions, Run};
use gencache_serve::{
    Client, JobSpec, Reply, RetryPolicy, Server, ServerConfig, ShardConfig, ShardRouter, Span,
};
use gencache_sim::record;
use gencache_workloads::Suite;
use serde::Value;

/// Number of benchmarks in the shared export — enough that a 3-shard
/// ring gives at least two shards real work.
const BENCHES: usize = 3;

/// Records three benchmarks and returns the combined v2 export text.
fn export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let opts = HarnessOptions {
            scale: 64,
            suite: Some(Suite::Interactive),
            ..HarnessOptions::default()
        };
        let runs: Vec<Run> = opts.profiles()[..BENCHES]
            .iter()
            .map(|p| (p.clone(), record(p).unwrap()))
            .collect();
        let (bytes, _) = stream_events_to(Vec::new(), &runs).unwrap();
        String::from_utf8(bytes).unwrap()
    })
}

/// The spec set every fleet test submits: explicit labels (including
/// the adaptive controller, whose switch report must survive the merge
/// byte-for-byte) plus the §6 grid, so all shards resolve the identical
/// label list.
fn fleet_spec() -> JobSpec {
    JobSpec {
        specs: vec![
            "unified".to_string(),
            "lru".to_string(),
            "adaptive".to_string(),
        ],
        grid: true,
        ..JobSpec::default()
    }
}

/// What single-node `simulate --metrics-out` writes for this export and
/// the fleet spec set, with or without the oracle/windows sections (and
/// so with or without the optional per-spec subtrees) — the
/// byte-identity reference.
fn offline_doc_with(oracle: bool, windows: bool) -> String {
    let mut ingest = StreamIngest::new();
    for line in export().lines() {
        ingest.push_line(line).unwrap();
    }
    let inputs = ingest.into_inputs(None, None, None).unwrap();
    let spec = fleet_spec();
    let specs = resolve_sim_specs(&spec.specs, spec.grid).unwrap();
    let options = SimJobOptions {
        oracle,
        windows,
        ..SimJobOptions::default()
    };
    let out = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
    value_to_json(&sim_metrics_doc(&out))
}

fn offline_doc() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| offline_doc_with(false, false))
}

struct TestServer {
    addr: String,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start() -> TestServer {
        TestServer::with_workers(2)
    }

    fn with_workers(workers: usize) -> TestServer {
        let server = Server::bind(&ServerConfig {
            workers: Some(workers),
            queue_depth: Some(16),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().unwrap().to_string();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            flag,
            handle: Some(handle),
        }
    }

    /// Stops the daemon and waits for its drain — after this, connects
    /// to its address are refused, as if the shard crashed.
    fn kill(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .expect("server thread panicked")
                .expect("accept loop failed");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.kill();
    }
}

struct TestRouter {
    addr: String,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestRouter {
    fn start(backends: Vec<String>, health_interval: Duration) -> TestRouter {
        TestRouter::with_config(ShardConfig {
            backends,
            health_interval,
            // Patient enough to outlast multi-second debug-build
            // sub-jobs when every shard queue is briefly full.
            retry: RetryPolicy::new(8, 250),
            ..ShardConfig::default()
        })
    }

    fn with_config(config: ShardConfig) -> TestRouter {
        let router = ShardRouter::bind(&config).expect("bind router");
        let addr = router.local_addr().unwrap().to_string();
        let flag = router.shutdown_flag();
        let handle = std::thread::spawn(move || router.run());
        TestRouter {
            addr,
            flag,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::new(&self.addr)
    }
}

impl Drop for TestRouter {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .expect("router thread panicked")
                .expect("router accept loop failed");
        }
    }
}

fn submit_via(addr: &str, spec: &JobSpec) -> Reply {
    Client::new(addr)
        .submit(export().as_bytes(), spec)
        .expect("submit through router")
}

/// The benchmarks in the shared export, by stream source.
fn bench_names() -> BTreeSet<String> {
    export()
        .lines()
        .filter_map(|l| {
            l.strip_prefix("{\"source\":\"")
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
        })
        .collect()
}

/// Starts three shards and a router whose ring places the export's
/// benchmarks on at least two of them. Shards bind ephemeral ports and
/// the ring hashes their addresses, so about one fleet in nine would
/// put every benchmark on one shard; such a fleet is replaced by a
/// fresh one.
fn spread_fleet(health_interval: Duration) -> (Vec<TestServer>, TestRouter) {
    let names = bench_names();
    assert_eq!(names.len(), BENCHES);
    for _ in 0..32 {
        let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
        let router = TestRouter::start(
            shards.iter().map(|s| s.addr.clone()).collect(),
            health_interval,
        );
        let owners: BTreeSet<String> = names
            .iter()
            .map(|name| match router.client().route(name) {
                Ok(Reply::Route { addr, .. }) => addr,
                other => panic!("route failed: {other:?}"),
            })
            .collect();
        if owners.len() >= 2 {
            return (shards, router);
        }
    }
    panic!("no fleet in 32 starts placed the benchmarks on two shards");
}

#[test]
fn fleet_reply_is_byte_identical_to_offline_simulate() {
    let (shards, router) = spread_fleet(Duration::from_millis(200));

    // Oracle on: each shard doc carries a per-spec regret section, so
    // the router merge must round-trip regret byte-exactly too. (Kept
    // out of the concurrent test — the second replay pass regret costs
    // overloads a 3-shard debug-build fleet under 4 simultaneous jobs.)
    let spec = JobSpec {
        oracle: true,
        ..fleet_spec()
    };
    match submit_via(&router.addr, &spec) {
        Reply::Result {
            doc,
            table,
            benches,
            specs,
            ..
        } => {
            assert_eq!(
                doc,
                offline_doc_with(true, false),
                "fleet doc diverged from offline simulate"
            );
            assert!(
                doc.contains("\"regret\":{\"accesses\":"),
                "oracle fleet doc carries no regret section"
            );
            assert_eq!(benches, BENCHES as u64);
            assert!(specs >= 2);
            // The merged table covers every benchmark the doc covers.
            assert_eq!(
                table.matches("=== ").count(),
                BENCHES,
                "merged table is missing benchmarks:\n{table}"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Work actually spread: at least two shards routed sub-jobs.
    let Reply::Shards { doc } = router.client().shards().unwrap() else {
        panic!("shards request failed");
    };
    let routed = doc.matches("\"jobs_routed\":0").count();
    assert!(
        routed <= 1,
        "expected >=2 shards with work, table: {doc}"
    );

    // Placement introspection answers for every benchmark.
    for line in ["word", "solitaire"] {
        match router.client().route(line) {
            Ok(Reply::Route { bench, addr }) => {
                assert_eq!(bench, line);
                assert!(
                    shards.iter().any(|s| s.addr == addr),
                    "routed to unknown shard {addr}"
                );
            }
            other => panic!("route failed: {other:?}"),
        }
    }
}

#[test]
fn concurrent_fleet_clients_all_get_identical_bytes() {
    let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_millis(200),
    );
    let expected = offline_doc();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = router.addr.clone();
                scope.spawn(move || submit_via(&addr, &fleet_spec()))
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("client thread panicked") {
                Reply::Result { doc, .. } => {
                    assert_eq!(doc, expected, "concurrent client {i} diverged");
                }
                other => panic!("client {i}: unexpected reply {other:?}"),
            }
        }
    });

    // Fleet stats: the router aggregated its shards and its own view.
    let Reply::Stats { doc } = router.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    for key in [
        "\"jobs_completed\":",
        "\"jobs_panicked\":",
        "\"latency_us\":",
        "\"router\":",
        "\"fleet_jobs\":4",
        "\"shards_up\":3",
        "\"shards\":[",
        "\"upload_buffer_peak_bytes\":",
    ] {
        assert!(doc.contains(key), "fleet stats missing {key}: {doc}");
    }
    // Four real uploads went through the router, so its buffering
    // high-water mark must be nonzero.
    assert!(
        !doc.contains("\"upload_buffer_peak_bytes\":0,")
            && !doc.contains("\"upload_buffer_peak_bytes\":0}"),
        "upload buffer peak should be nonzero after fleet jobs: {doc}"
    );
}

#[test]
fn killing_a_shard_mid_fleet_degrades_gracefully() {
    let mut shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    // A long health interval: the router must discover the death on the
    // dispatch path (connection refused -> mark down -> re-route), not
    // be rescued by a timely ping.
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_secs(60),
    );

    // Find the shard that owns the first benchmark and kill exactly it,
    // so at least one sub-job is guaranteed to hit a dead backend.
    let first_bench = export()
        .lines()
        .find_map(|l| {
            l.strip_prefix("{\"source\":\"")
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
        })
        .expect("export has stream lines");
    let Ok(Reply::Route { addr: victim, .. }) = router.client().route(&first_bench) else {
        panic!("route request failed");
    };
    shards
        .iter_mut()
        .find(|s| s.addr == victim)
        .expect("victim is one of ours")
        .kill();

    // The fleet answer is still the exact offline bytes: the dead
    // shard's benchmarks failed over to live ones transparently.
    match submit_via(&router.addr, &fleet_spec()) {
        Reply::Result { doc, .. } => {
            assert_eq!(doc, offline_doc(), "failover run diverged from offline simulate");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // The router noticed: the victim is marked down and charged a
    // failover; the fleet keeps answering.
    let Reply::Shards { doc } = router.client().shards().unwrap() else {
        panic!("shards request failed");
    };
    assert!(doc.contains("\"up\":false"), "victim not marked down: {doc}");
    let Reply::Stats { doc } = router.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert!(doc.contains("\"shards_down\":1"), "stats disagree: {doc}");
    assert!(doc.contains("\"failovers\":1"), "no failover charged: {doc}");
}

#[test]
fn slow_shard_is_waited_for_not_failed_over() {
    // One worker, held by a ping well past the router's read timeout:
    // the sub-job queues behind it, so its reply is slow for certain.
    let shard = TestServer::with_workers(1);
    let read_timeout = Duration::from_millis(500);
    let router = TestRouter::with_config(ShardConfig {
        backends: vec![shard.addr.clone()],
        health_interval: Duration::from_millis(200),
        read_timeout,
        ..ShardConfig::default()
    });
    let hold = {
        let addr = shard.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(2500))
    };
    let waiting_since = std::time::Instant::now();
    loop {
        if let Ok(Reply::Stats { doc }) = Client::new(&shard.addr).stats() {
            if doc.contains("\"in_flight\":1") {
                break;
            }
        }
        assert!(
            waiting_since.elapsed() < Duration::from_secs(10),
            "the held ping never reached the worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let submitted = std::time::Instant::now();
    match submit_via(&router.addr, &fleet_spec()) {
        Reply::Result { doc, .. } => {
            assert_eq!(
                doc,
                offline_doc(),
                "slow-shard run diverged from offline simulate"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(
        submitted.elapsed() > read_timeout,
        "the sub-job was not slower than the router's read timeout"
    );
    assert!(matches!(hold.join().expect("hold thread"), Ok(Reply::Pong)));

    // Slow is not dead: the shard stays up and nothing failed over.
    let Reply::Shards { doc } = router.client().shards().unwrap() else {
        panic!("shards request failed");
    };
    assert!(
        !doc.contains("\"up\":false"),
        "slow shard marked down: {doc}"
    );
    let Reply::Stats { doc } = router.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert!(doc.contains("\"shards_down\":0"), "stats disagree: {doc}");
    assert!(
        doc.contains("\"failovers\":0"),
        "a slow shard was failed over: {doc}"
    );
}

#[test]
fn live_but_silent_shard_is_bounded_by_the_job_deadline() {
    // A stand-in shard that answers every ping but never replies to a
    // job: the router keeps waiting while the pings land, and gives up
    // at the job's deadline instead of marking the shard down.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stand-in shard");
    let addr = listener.local_addr().unwrap().to_string();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let shard = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(e) => panic!("accept failed: {e}"),
                };
                stream.set_nonblocking(false).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut first = String::new();
                reader.read_line(&mut first).unwrap();
                if first.starts_with("{\"type\":\"ping\"") {
                    writeln!(&stream, "{{\"type\":\"pong\"}}").unwrap();
                } else {
                    // Take the whole upload so the router can finish
                    // sending, then hold the connection unanswered.
                    std::io::copy(&mut reader, &mut std::io::sink()).unwrap();
                    held.push(stream);
                }
            }
        })
    };
    let router = TestRouter::with_config(ShardConfig {
        backends: vec![addr],
        health_interval: Duration::from_millis(200),
        read_timeout: Duration::from_millis(500),
        ..ShardConfig::default()
    });
    let spec = JobSpec {
        deadline_ms: Some(600),
        ..fleet_spec()
    };
    match submit_via(&router.addr, &spec) {
        Reply::Error { message } => assert!(
            message.ends_with("no reply within the job's deadline of 600ms"),
            "got {message:?}"
        ),
        other => panic!("unexpected reply {other:?}"),
    }
    // The router's own shard table (a `stats` request would ask the
    // stand-in for counters it cannot give).
    let Reply::Shards { doc } = router.client().shards().unwrap() else {
        panic!("shards request failed");
    };
    assert!(doc.contains("\"up\":true"), "live shard marked down: {doc}");
    assert!(
        doc.contains("\"failovers\":0"),
        "a live shard was failed over: {doc}"
    );
    drop(router);
    stop.store(true, Ordering::SeqCst);
    shard.join().expect("stand-in shard panicked");
}

/// Fetches and parses the span set a daemon retains for `trace_id`.
fn trace_spans(client: &Client, trace_id: &str) -> Vec<Span> {
    match client.trace(trace_id).expect("trace request") {
        Reply::Trace { doc, .. } => {
            let v = serde_json::value_from_str(&doc).expect("trace doc parses");
            let Value::Array(items) = v else {
                panic!("trace doc is not an array: {doc}");
            };
            items.iter().filter_map(Span::from_value).collect()
        }
        other => panic!("unexpected trace reply {other:?}"),
    }
}

#[test]
fn trace_id_propagates_from_client_through_router_to_every_shard() {
    let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_millis(200),
    );
    let trace_id = "feedfacefeedface";
    let spec = JobSpec {
        trace_id: Some(trace_id.to_string()),
        ..fleet_spec()
    };
    let (reply, client_spans) = router
        .client()
        .submit_with_spans(export().as_bytes(), &spec)
        .expect("submit with spans");
    assert!(matches!(reply, Reply::Result { .. }), "got {reply:?}");

    // Client-side spans all carry the stamped id under node `client`.
    assert!(!client_spans.is_empty());
    for span in &client_spans {
        assert_eq!(span.trace_id, trace_id);
        assert_eq!(span.node, "client");
    }
    for stage in ["upload", "reply_wait", "job"] {
        assert!(
            client_spans.iter().any(|s| s.stage == stage),
            "client missing {stage} span: {client_spans:?}"
        );
    }

    // The router's trace frame stitches its own spans with every live
    // shard's — one id across all three layers.
    let spans = trace_spans(&router.client(), trace_id);
    assert!(spans.iter().all(|s| s.trace_id == trace_id));
    let router_spans: Vec<&Span> =
        spans.iter().filter(|s| s.node.starts_with("router:")).collect();
    for stage in ["accept", "ingest", "merge", "reply"] {
        assert!(
            router_spans.iter().any(|s| s.stage == stage),
            "router missing {stage} span: {spans:?}"
        );
    }
    // Every dispatch target the router recorded shows up as a serve
    // node that recorded its own spans, and vice versa.
    let dispatched: BTreeSet<&str> = router_spans
        .iter()
        .filter_map(|s| s.stage.strip_prefix("dispatch:"))
        .collect();
    let served: BTreeSet<&str> = spans
        .iter()
        .filter_map(|s| s.node.strip_prefix("serve:"))
        .collect();
    assert!(!dispatched.is_empty(), "router recorded no dispatch spans");
    assert_eq!(dispatched, served, "dispatch targets and serve nodes disagree");
    // Each shard that got work timed the full serve pipeline.
    for addr in &served {
        let node = format!("serve:{addr}");
        for stage in ["accept", "queue", "ingest", "reply"] {
            assert!(
                spans.iter().any(|s| s.node == node && s.stage == stage),
                "{node} missing {stage} span"
            );
        }
        assert!(
            spans
                .iter()
                .any(|s| s.node == node && s.stage.starts_with("replay:")),
            "{node} missing replay spans"
        );
    }
}

#[test]
fn windowed_fleet_doc_is_byte_identical_to_offline_simulate() {
    let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_millis(200),
    );
    let spec = JobSpec {
        windows: true,
        ..fleet_spec()
    };
    match submit_via(&router.addr, &spec) {
        Reply::Result { doc, .. } => {
            assert_eq!(
                doc,
                offline_doc_with(false, true),
                "windowed fleet doc diverged from offline simulate --windows"
            );
            assert!(
                doc.contains("\"windows\":{\"window_accesses\":"),
                "windowed fleet doc carries no windows section"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // The plain doc is untouched by the windows machinery: same job
    // without the flag still answers the exact pre-windows bytes.
    match submit_via(&router.addr, &fleet_spec()) {
        Reply::Result { doc, .. } => assert_eq!(doc, offline_doc()),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn watch_frames_flow_through_daemon_and_router() {
    let shard = TestServer::start();
    // Straight to the daemon: one snapshot, one row, sane fields.
    let rows = Client::new(&shard.addr)
        .watch_once(100)
        .expect("daemon watch");
    assert_eq!(rows.len(), 1, "daemon watch returned {rows:?}");
    assert!(!rows[0].node.is_empty());
    assert_eq!(rows[0].jobs_total, 0);

    // Through the router: the frame carries the backend's row (stitched
    // from a live one-shot shard sample), not router-local numbers.
    let router = TestRouter::start(vec![shard.addr.clone()], Duration::from_millis(100));
    let mut frames = 0u64;
    let received = router
        .client()
        .watch(150, 2, |node, seq, rows| {
            assert!(node.starts_with("router:"), "watch frame from {node}");
            assert_eq!(seq, frames);
            assert_eq!(rows.len(), 1, "router frame rows: {rows:?}");
            assert_eq!(rows[0].node, format!("serve:{}", shard.addr));
            frames += 1;
            true
        })
        .expect("router watch");
    assert_eq!(received, 2);
    assert_eq!(frames, 2);
}

#[test]
fn single_daemon_refuses_fleet_frames() {
    let shard = TestServer::start();
    match Client::new(&shard.addr).shards() {
        Ok(Reply::Error { message }) => {
            assert!(message.contains("not a fleet router"), "got {message:?}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // And a router proxies fetch: the downloaded export simulates.
    let router = TestRouter::start(vec![shard.addr.clone()], Duration::from_millis(200));
    let mut out = Vec::new();
    let lines = router
        .client()
        .fetch("solitaire", 64, &mut out)
        .expect("fetch through the router");
    assert!(lines > 2);
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count() as u64, lines);
    let mut sink = std::io::sink();
    sink.write_all(text.as_bytes()).unwrap();
}
