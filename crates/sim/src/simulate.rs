//! Offline what-if simulation: driving hypothetical cache
//! configurations from a frontend trace recovered out of an exported
//! event stream.
//!
//! The paper's methodology records the frontend once and replays it
//! into every layout under study; the event export preserves that
//! frontend stream (including [`Noop`](gencache_obs::CacheEvent::Noop)
//! records for requests the recorded layout could not honor), so the
//! `simulate` tool can answer "what would the miss rate and Table 2
//! Minstr have been under layout X?" without re-recording. This module
//! is the engine behind it: [`trace_to_log`] rebuilds a replayable
//! [`AccessLog`] from a recovered [`SimTrace`], [`SimSpec`] names any
//! configuration — unified, generational with arbitrary proportions and
//! promotion rule, or one of the local replacement policies — and
//! [`replay_sim_observed`] replays one spec through any observer, so a
//! single pass can feed every report the live export path emits.

use gencache_cache::{
    ClockCache, CodeCache, FlushCache, LruCache, PhaseDetector, PreemptiveFlushCache,
    PseudoCircularCache, TraceRecord, UnboundedCache,
};
use gencache_core::{
    AdaptiveModel, CacheModel, Candidate, CandidateSet, GenerationalConfig, GenerationalModel,
    PromotionPolicy, Proportions, SwitchReport, UnifiedModel,
};
use gencache_obs::{
    CostObserver, CostReport, MetricsObserver, MetricsReport, NextUseIndex, NullObserver, Observer,
    RegretObserver, RegretReport, SimTrace, TraceOp, WindowReport,
};
use gencache_program::{Addr, Time};

use crate::log::{AccessLog, LogRecord};
use crate::replay::{replay_into, ReplayResult};
use crate::telemetry::ModelSpec;

/// Rebuilds a replayable [`AccessLog`] from a recovered frontend trace.
///
/// Code addresses are not recoverable from an event stream — and never
/// influence cache management — so each trace gets a deterministic
/// synthesized head address. Everything the replay machinery consumes
/// (ids, sizes, timestamps, op order) round-trips exactly.
pub fn trace_to_log(
    trace: &SimTrace,
    benchmark: impl Into<String>,
    duration_us: u64,
    peak_trace_bytes: u64,
) -> AccessLog {
    let records = trace
        .ops
        .iter()
        .map(|op| match *op {
            TraceOp::Create { id, bytes, time } => LogRecord::Create {
                record: TraceRecord::new(id, bytes, Addr::new(id.as_u64())),
                time,
            },
            TraceOp::Access { id, time } => LogRecord::Access { id, time },
            TraceOp::Invalidate { id, time } => LogRecord::Invalidate { id, time },
            TraceOp::Pin { id } => LogRecord::Pin { id },
            TraceOp::Unpin { id } => LogRecord::Unpin { id },
        })
        .collect();
    AccessLog {
        benchmark: benchmark.into(),
        records,
        duration: Time::from_micros(duration_us),
        peak_trace_bytes,
    }
}

/// A local replacement policy evaluated inside the unified-model cost
/// accounting (the Section 4 ablation set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPolicy {
    /// FIFO around a circular buffer (the paper's default).
    PseudoCircular,
    /// Least-recently-used.
    Lru,
    /// CLOCK second-chance.
    Clock,
    /// Flush everything when full.
    FlushOnFull,
    /// Flush on detected phase change.
    PreemptiveFlush,
    /// No bound at all (never misses after creation).
    Unbounded,
}

impl LocalPolicy {
    /// All six policies, in display order.
    pub const ALL: [LocalPolicy; 6] = [
        LocalPolicy::PseudoCircular,
        LocalPolicy::Lru,
        LocalPolicy::Clock,
        LocalPolicy::FlushOnFull,
        LocalPolicy::PreemptiveFlush,
        LocalPolicy::Unbounded,
    ];

    /// The policy's spec-label name.
    pub fn name(self) -> &'static str {
        match self {
            LocalPolicy::PseudoCircular => "pseudo-circular",
            LocalPolicy::Lru => "lru",
            LocalPolicy::Clock => "clock",
            LocalPolicy::FlushOnFull => "flush-on-full",
            LocalPolicy::PreemptiveFlush => "preemptive-flush",
            LocalPolicy::Unbounded => "unbounded",
        }
    }

    /// Builds the policy's cache at `capacity` bytes (ignored by
    /// [`LocalPolicy::Unbounded`]).
    pub fn build(self, capacity: u64) -> Box<dyn CodeCache> {
        match self {
            LocalPolicy::PseudoCircular => Box::new(PseudoCircularCache::new(capacity)),
            LocalPolicy::Lru => Box::new(LruCache::new(capacity)),
            LocalPolicy::Clock => Box::new(ClockCache::new(capacity)),
            LocalPolicy::FlushOnFull => Box::new(FlushCache::new(capacity)),
            LocalPolicy::PreemptiveFlush => Box::new(PreemptiveFlushCache::new(
                capacity,
                PhaseDetector::default(),
            )),
            LocalPolicy::Unbounded => Box::new(UnboundedCache::new()),
        }
    }
}

/// One hypothetical configuration the simulator can drive.
// The Adaptive variant inlines its fixed-size candidate roster because
// SimSpec must stay Copy for the par_map fan-out; boxing would lose that.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimSpec {
    /// A configuration the live export path also knows: the unified
    /// baseline or a generational hierarchy.
    Model(ModelSpec),
    /// A local replacement policy in unified cost accounting.
    Local(LocalPolicy),
    /// The adaptive policy engine auditioning a candidate set of
    /// generational configurations online.
    Adaptive(CandidateSet),
}

impl SimSpec {
    /// The canonical label for this spec — the same strings the live
    /// `--events-out` / `--metrics-out` exports use for their model
    /// sections, so simulated and recorded documents line up.
    pub fn label(&self) -> String {
        match *self {
            SimSpec::Model(ModelSpec::Unified) => "unified".to_string(),
            SimSpec::Model(ModelSpec::Generational {
                proportions,
                policy,
            }) => format!("gen-{proportions}@{}", policy_label(policy)),
            SimSpec::Local(policy) => policy.name().to_string(),
            SimSpec::Adaptive(set) => set.label(),
        }
    }
}

fn policy_label(policy: PromotionPolicy) -> String {
    match policy {
        PromotionPolicy::OnHit { hits } => format!("hit{hits}"),
        PromotionPolicy::OnEviction { threshold } => format!("evict{threshold}"),
    }
}

/// Parses a spec label back into a [`SimSpec`].
///
/// Accepted forms:
///
/// * `unified` — the pseudo-circular unified baseline;
/// * a local policy name (`lru`, `clock`, `flush-on-full`,
///   `preemptive-flush`, `pseudo-circular`, `unbounded`);
/// * `N-P-S@POLICY` (optionally prefixed `gen-`) — a generational
///   hierarchy splitting the budget N%/P%/S% (normalized, so `33-33-33`
///   means exact thirds) with promotion rule `hitK` or `evictK`, e.g.
///   `45-10-45@hit1` or `gen-30-20-50@evict5`;
/// * `adaptive` — the adaptive policy engine over its default §6
///   candidate roster;
/// * `adaptive:BODY+BODY+…` — the adaptive engine over an explicit
///   candidate list, each `BODY` an `N-P-S@POLICY` form as above (up to
///   [`gencache_core::MAX_CANDIDATES`]), index 0 initial, e.g.
///   `adaptive:45-10-45@hit1+25-50-25@evict5`.
pub fn parse_spec(label: &str) -> Result<SimSpec, String> {
    if label == "unified" {
        return Ok(SimSpec::Model(ModelSpec::Unified));
    }
    if let Some(policy) = LocalPolicy::ALL.iter().find(|p| p.name() == label) {
        return Ok(SimSpec::Local(*policy));
    }
    if label == "adaptive" {
        return Ok(SimSpec::Adaptive(CandidateSet::default_set()));
    }
    if let Some(list) = label.strip_prefix("adaptive:") {
        let candidates: Vec<Candidate> = list
            .split('+')
            .map(|body| {
                let (proportions, policy) = parse_gen_body(label, body)?;
                Ok(Candidate::new(proportions, policy))
            })
            .collect::<Result<_, String>>()?;
        return CandidateSet::new(&candidates).map(SimSpec::Adaptive);
    }
    let body = label.strip_prefix("gen-").unwrap_or(label);
    let (proportions, policy) = parse_gen_body(label, body)?;
    Ok(SimSpec::Model(ModelSpec::Generational {
        proportions,
        policy,
    }))
}

/// Parses one `N-P-S@POLICY` body (shared by the `gen-` and
/// `adaptive:` grammars); `label` is only for error messages.
fn parse_gen_body(label: &str, body: &str) -> Result<(Proportions, PromotionPolicy), String> {
    let (props, policy) = body
        .split_once('@')
        .ok_or_else(|| format!("spec {label:?} is not unified, a local policy, or N-P-S@POLICY"))?;
    let parts: Vec<f64> = props
        .split('-')
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("bad proportion {s:?} in spec {label:?}"))
        })
        .collect::<Result<_, _>>()?;
    let [nursery, probation, persistent] = parts[..] else {
        return Err(format!(
            "spec {label:?} needs exactly three proportions, got {}",
            parts.len()
        ));
    };
    if nursery < 0.0 || probation < 0.0 || persistent < 0.0 {
        return Err(format!("negative proportion in spec {label:?}"));
    }
    let sum = nursery + probation + persistent;
    if sum <= 0.0 {
        return Err(format!("zero-sum proportions in spec {label:?}"));
    }
    let proportions = Proportions::new(nursery / sum, probation / sum, persistent / sum);
    let policy = if let Some(hits) = policy.strip_prefix("hit") {
        PromotionPolicy::OnHit {
            hits: hits
                .parse()
                .map_err(|_| format!("bad hit count in spec {label:?}"))?,
        }
    } else if let Some(threshold) = policy.strip_prefix("evict") {
        PromotionPolicy::OnEviction {
            threshold: threshold
                .parse()
                .map_err(|_| format!("bad eviction threshold in spec {label:?}"))?,
        }
    } else {
        return Err(format!(
            "unknown promotion rule {policy:?} in spec {label:?}; use hitK or evictK"
        ));
    };
    Ok((proportions, policy))
}

/// Replays `log` into the configuration named by `spec` over an
/// explicit `capacity` budget, with `observer` attached. Adaptive specs
/// also return their controller's account of the run — epochs, drift
/// detections, probe auditions and committed switches — taken from the
/// same replay; every static spec returns `None`.
///
/// With `capacity == (log.peak_trace_bytes / 2).max(1)` — the paper's
/// standard rule — this is behaviorally identical to the live export
/// path's replay, which is what makes simulated reports comparable
/// byte-for-byte.
pub fn replay_sim_observed<O: Observer>(
    log: &AccessLog,
    spec: SimSpec,
    capacity: u64,
    observer: O,
) -> (ReplayResult, O, Option<SwitchReport>) {
    fn run(log: &AccessLog, model: &mut dyn CacheModel) -> ReplayResult {
        replay_into(log, model);
        ReplayResult {
            model: model.name(),
            metrics: *model.metrics(),
            ledger: *model.ledger(),
        }
    }
    match spec {
        SimSpec::Model(ModelSpec::Unified) => {
            let mut model = UnifiedModel::observed(capacity, observer);
            (run(log, &mut model), model.into_observer(), None)
        }
        SimSpec::Model(ModelSpec::Generational {
            proportions,
            policy,
        }) => {
            let config = GenerationalConfig::new(capacity, proportions, policy);
            let mut model = GenerationalModel::observed(config, observer);
            (run(log, &mut model), model.into_observer(), None)
        }
        SimSpec::Local(policy) => {
            let mut model =
                UnifiedModel::with_cache_observed(policy.name(), policy.build(capacity), observer);
            (run(log, &mut model), model.into_observer(), None)
        }
        SimSpec::Adaptive(set) => {
            let mut model = AdaptiveModel::observed(set, capacity, observer);
            let result = run(log, &mut model);
            let switches = model.switch_report();
            (result, model.into_observer(), Some(switches))
        }
    }
}

/// The adaptive controller's switch report for `spec` (see
/// [`replay_sim_observed`]); `None` for non-adaptive specs, which have
/// no controller to narrate.
pub fn simulate_switches(log: &AccessLog, spec: SimSpec, capacity: u64) -> Option<SwitchReport> {
    replay_sim_observed(log, spec, capacity, NullObserver).2
}

/// [`replay_sim_observed`] through a [`MetricsObserver`]; `sample_every`
/// as in [`collect_metrics`](crate::collect_metrics).
pub fn simulate_metrics(
    log: &AccessLog,
    spec: SimSpec,
    capacity: u64,
    sample_every: u64,
) -> (ReplayResult, MetricsReport) {
    let (result, observer, _) = replay_sim_observed(
        log,
        spec,
        capacity,
        MetricsObserver::with_timeline(sample_every),
    );
    (result, observer.report())
}

/// [`replay_sim_observed`] through a [`CostObserver`] with
/// phase-bucketed Table 2 attribution.
pub fn simulate_costs(
    log: &AccessLog,
    spec: SimSpec,
    capacity: u64,
    phases: u32,
) -> (ReplayResult, CostReport) {
    let observer = CostObserver::with_phases(phases, log.duration.as_micros());
    let (result, observer, _) = replay_sim_observed(log, spec, capacity, observer);
    (result, observer.into_report())
}

/// [`replay_sim_observed`] through a [`RegretObserver`]: every eviction
/// the configuration makes is scored against the Belady alternative the
/// `index` (built over the same frontend trace the log came from)
/// identifies, with the same phase bucketing as [`simulate_costs`].
pub fn simulate_regret(
    log: &AccessLog,
    spec: SimSpec,
    capacity: u64,
    phases: u32,
    index: &NextUseIndex,
) -> (ReplayResult, RegretReport) {
    let observer = RegretObserver::with_phases(index, phases, log.duration.as_micros());
    let (result, observer, _) = replay_sim_observed(log, spec, capacity, observer);
    (result, observer.report())
}

/// One simulated configuration's full outcome.
#[derive(Debug, Clone)]
pub struct SimulatedSpec {
    /// Canonical spec label (see [`SimSpec::label`]).
    pub label: String,
    /// Replay counters and management-cost ledger.
    pub result: ReplayResult,
    /// The aggregated metrics report, identical in shape to the live
    /// `--metrics-out` sections.
    pub metrics: MetricsReport,
    /// The Table 2 cost attribution.
    pub costs: CostReport,
    /// Decision-level Belady-regret attribution; present only when the
    /// run asked for the oracle (`--oracle`), absent otherwise so
    /// oracle-free documents keep their exact bytes.
    pub regret: Option<RegretReport>,
    /// Windowed time-series telemetry with drift annotations; present
    /// only when the run asked for it (`--windows`), absent otherwise
    /// so window-free documents keep their exact bytes.
    pub windows: Option<WindowReport>,
    /// The adaptive controller's switch narrative; present only for
    /// [`SimSpec::Adaptive`] specs, absent for every static spec so
    /// static documents keep their exact bytes.
    pub switches: Option<SwitchReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_cache::TraceId;

    #[test]
    fn spec_labels_roundtrip() {
        let specs = [
            SimSpec::Model(ModelSpec::Unified),
            SimSpec::Model(ModelSpec::best_generational()),
            SimSpec::Model(ModelSpec::Generational {
                proportions: Proportions::new(0.30, 0.20, 0.50),
                policy: PromotionPolicy::OnEviction { threshold: 5 },
            }),
            SimSpec::Local(LocalPolicy::Lru),
            SimSpec::Local(LocalPolicy::PreemptiveFlush),
            SimSpec::Adaptive(CandidateSet::default_set()),
            SimSpec::Adaptive(
                CandidateSet::new(&[
                    Candidate::new(
                        Proportions::best_overall(),
                        PromotionPolicy::OnHit { hits: 1 },
                    ),
                    Candidate::new(
                        Proportions::probation_heavy(),
                        PromotionPolicy::OnEviction { threshold: 5 },
                    ),
                ])
                .unwrap(),
            ),
        ];
        for spec in specs {
            let label = spec.label();
            let back = parse_spec(&label).unwrap();
            assert_eq!(back, spec, "label {label}");
        }
        assert_eq!(
            SimSpec::Adaptive(CandidateSet::default_set()).label(),
            "adaptive",
            "the default roster canonicalizes to the bare spec name"
        );
        assert_eq!(
            SimSpec::Model(ModelSpec::best_generational()).label(),
            "gen-45-10-45@hit1",
            "must match the live export's model label"
        );
    }

    #[test]
    fn parsed_proportions_match_literals_bitwise() {
        // Byte-for-byte comparability hinges on parsed proportions being
        // the exact doubles the grid constructors produce.
        match parse_spec("45-10-45@hit1").unwrap() {
            SimSpec::Model(ModelSpec::Generational { proportions, .. }) => {
                assert_eq!(proportions, Proportions::best_overall());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_spec("33-33-33@evict10").unwrap() {
            SimSpec::Model(ModelSpec::Generational { proportions, .. }) => {
                assert_eq!(proportions, Proportions::even_thirds());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_specs_error() {
        for bad in [
            "gen-45-10@hit1",
            "45-10-45",
            "45-10-45@promote1",
            "45-x-45@hit1",
            "0-0-0@hit1",
            "mystery",
        ] {
            assert!(parse_spec(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn trace_to_log_preserves_shape() {
        let trace = SimTrace {
            ops: vec![
                TraceOp::Create {
                    id: TraceId::new(1),
                    bytes: 120,
                    time: Time::ZERO,
                },
                TraceOp::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(5),
                },
                TraceOp::Pin {
                    id: TraceId::new(1),
                },
                TraceOp::Invalidate {
                    id: TraceId::new(1),
                    time: Time::from_micros(9),
                },
            ],
        };
        let log = trace_to_log(&trace, "w", 1_000, 240);
        assert_eq!(log.access_count(), 2);
        assert_eq!(log.trace_count(), 1);
        assert_eq!(log.peak_trace_bytes, 240);
        assert_eq!(log.duration.as_micros(), 1_000);
        assert!(matches!(
            log.records[3],
            LogRecord::Invalidate { id, .. } if id == TraceId::new(1)
        ));
    }
}
