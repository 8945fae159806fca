//! Per-layer readings for the traced run.
//!
//! Three sources, all timed from the benchmark's own files around calls
//! into each layer's public functions:
//!
//! - the live cluster: client-side calls the publisher and collector made
//!   (publish, drain, mailbox poll, grow, shrink) and the program's own
//!   counters, read through `Cluster::telemetry()`, `counters()`,
//!   `reliability_counters()` and `wire_stats()` and differenced over the
//!   paced phase;
//! - a replay of the workload's seeded inputs through each layer on its
//!   own: index, partition, policy, dispatcher and matcher engines,
//!   coalescer, wire codec, one transport hop and the sub-log;
//! - the spans recorded around all of the above (self time per layer).

use crate::live::{Live, PhaseOut};
use crate::stats::{mean, quantile};
use crate::trace::{self, span, Span};
use crate::workloads::{Spec, MATCHERS};
use crate::{put, Metrics};
use bluedove_baselines::AnyStrategy;
use bluedove_cluster::{
    Cluster, ControlMsg, FsyncPolicy, Log, LogConfig, PolicyKind, SubLogRecord,
};
use bluedove_core::{
    AdaptivePolicy, Assignment, DimIdx, DimStats, ForwardingPolicy, IndexKind, InnerKind, MatchHit,
    MatcherId, Message, MessageId, StatsView, SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::{
    BatchCfg, Coalescer, DispatcherEffect, DispatcherEngine, DispatcherEngineConfig,
    DispatcherEvent, DispatcherOut, DispatcherPort, EngineConfig, MatcherEngine, MatcherPort,
};
use bluedove_net::{
    from_bytes_shared, to_bytes, ChannelTransport, HostTransport, ReactorConfig, ReactorTransport,
};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Program counters at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    at: Instant,
    published: u64,
    deliveries: u64,
    dropped: u64,
    retried: u64,
    duplicates: u64,
    dead_lettered: u64,
    served: u64,
    frames: u64,
    bytes: u64,
    gossip: u64,
    /// `(sum µs, count)` of each histogram family read.
    hist: HashMap<&'static str, (u64, u64)>,
}

const HISTOGRAMS: [(&str, &str, &str); 4] = [
    ("queue_wait", "bluedove_matcher_queue_wait_us", ""),
    ("match", "bluedove_matcher_match_time_us", ""),
    ("forward", "bluedove_dispatcher_forward_latency_us", ""),
    ("batch", "bluedove_batch_frames", "matcher"),
];

/// Reads the program's counters now.
pub fn snap(cluster: &Cluster) -> Snap {
    let reg = cluster.telemetry();
    let (published, _matched, deliveries, dropped) = cluster.counters();
    let (retried, duplicates, dead_lettered) = cluster.reliability_counters();
    let (frames, bytes) = cluster.wire_stats();
    // Matcher ids are small integers; joins take the next free one.
    let served = (0..64u32)
        .filter_map(|m| {
            reg.counter_value(
                "bluedove_matcher_served_total",
                &[("matcher", m.to_string())],
            )
        })
        .sum();
    let mut hist = HashMap::new();
    for (key, family, component) in HISTOGRAMS {
        let labels: Vec<(&str, String)> = if component.is_empty() {
            Vec::new()
        } else {
            vec![("component", component.to_string())]
        };
        let h = reg
            .histogram_snapshot(family, &labels)
            .map_or((0, 0), |s| (s.sum_us, s.count));
        hist.insert(key, h);
    }
    Snap {
        at: Instant::now(),
        published,
        deliveries,
        dropped,
        retried,
        duplicates,
        dead_lettered,
        served,
        frames,
        bytes,
        gossip: cluster.gossip_bytes(),
        hist,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Readings of the live run: client-side calls and program counters
/// over the paced phase (`before` → `after`), the tracing overhead
/// `(p50 ms, CPU ms per publication)` and the grow/shrink pair.
pub fn live_readings(
    m: &mut Metrics,
    live: &Live,
    before: &Snap,
    after: &Snap,
    overhead: (f64, f64),
    paced: &PhaseOut,
    grow_shrink: (f64, f64),
) {
    let c = live.client_readings();
    put(
        m,
        "cluster.publish_us",
        mean(&paced.publish_us).unwrap_or(0.0),
        "us",
    );
    put(
        m,
        "cluster.drain_ns_per_delivery",
        ratio(c.drain_ns, c.drained),
        "ns",
    );
    put(
        m,
        "cluster.mailbox_poll_us",
        ratio(c.poll_ns, c.polls) / 1e3,
        "us",
    );
    put(m, "cluster.grow_ms", grow_shrink.0 * 1e3, "ms");
    put(m, "cluster.shrink_ms", grow_shrink.1 * 1e3, "ms");
    let lateness = &paced.lateness_ms;
    put(
        m,
        "generator.lateness_p50_ms",
        quantile(lateness, 0.5).unwrap_or(0.0),
        "ms",
    );
    put(
        m,
        "generator.lateness_p99_ms",
        quantile(lateness, 0.99).unwrap_or(0.0),
        "ms",
    );

    let published = after.published - before.published;
    let secs = after.at.duration_since(before.at).as_secs_f64();
    let d = |k: &str| -> (u64, u64) {
        let (s1, c1) = after.hist[k];
        let (s0, c0) = before.hist[k];
        (s1 - s0, c1 - c0)
    };
    let (qw_sum, qw_n) = d("queue_wait");
    let (mt_sum, mt_n) = d("match");
    let (fw_sum, fw_n) = d("forward");
    let (bf_sum, bf_n) = d("batch");
    let matchers = live.cluster.matcher_ids().len().max(1) as f64;
    put(m, "matcher.queue_wait_us", ratio(qw_sum, qw_n), "us");
    put(m, "matcher.match_us", ratio(mt_sum, mt_n), "us");
    put(m, "dispatcher.forward_us", ratio(fw_sum, fw_n), "us");
    put(
        m,
        "matcher.busy_frac",
        mt_sum as f64 / (secs * 1e6 * matchers),
        "ratio",
    );
    put(
        m,
        "matcher.served_per_msg",
        ratio(after.served - before.served, published),
        "count",
    );
    put(
        m,
        "matcher.retried_per_msg",
        ratio(after.retried - before.retried, published),
        "count",
    );
    put(
        m,
        "matcher.deliveries_per_msg",
        ratio(after.deliveries - before.deliveries, published),
        "count",
    );
    put(
        m,
        "reliability.duplicates_suppressed",
        (after.duplicates - before.duplicates) as f64,
        "count",
    );
    put(
        m,
        "reliability.dead_lettered",
        (after.dead_lettered - before.dead_lettered) as f64,
        "count",
    );
    put(
        m,
        "reliability.dropped",
        (after.dropped - before.dropped) as f64,
        "count",
    );
    put(
        m,
        "wire.bytes_per_msg",
        ratio(after.bytes - before.bytes, published),
        "B",
    );
    put(
        m,
        "wire.frames_per_msg",
        ratio(after.frames - before.frames, published),
        "count",
    );
    put(
        m,
        "batch.frames_per_flush",
        if bf_n == 0 { 1.0 } else { ratio(bf_sum, bf_n) },
        "count",
    );
    put(
        m,
        "gossip.bytes_per_s",
        (after.gossip - before.gossip) as f64 / secs.max(1e-9),
        "B/s",
    );

    put(m, "trace.overhead_p50_ms", overhead.0, "ms");
    put(m, "trace.overhead_cpu_ms_per_msg", overhead.1, "ms");
}

/// Runs `f` in batches until `budget` elapsed (at least once); returns
/// the mean ns per call.
fn timed<F: FnMut(usize)>(budget: Duration, batch: usize, mut f: F) -> f64 {
    let t = Instant::now();
    let mut calls = 0usize;
    let mut i = 0usize;
    loop {
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        calls += batch;
        if t.elapsed() >= budget {
            break;
        }
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// The workload's inputs as one matcher holds them under mPartition.
struct Held {
    space: bluedove_core::AttributeSpace,
    strategy: AnyStrategy,
    /// Every static subscription, with distinct ids.
    subs: Vec<Subscription>,
    /// The busiest `(matcher, dimension 0)` set's subscriptions.
    set: Vec<Subscription>,
    matcher: MatcherId,
    /// Base messages whose dimension-0 candidate is `matcher`.
    msgs: Vec<Message>,
}

fn held(spec: &Spec) -> Held {
    let strategy = AnyStrategy::bluedove(spec.space.clone(), MATCHERS);
    let subs: Vec<Subscription> = spec
        .statics
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut s = s.clone();
            s.id = SubscriptionId(i as u64 + 1);
            s.subscriber = SubscriberId(i as u64);
            s
        })
        .collect();
    let mut per: HashMap<MatcherId, Vec<Subscription>> = HashMap::new();
    for s in &subs {
        for a in strategy.as_dyn().assign(s) {
            if a.dim == DimIdx(0) {
                per.entry(a.matcher).or_default().push(s.clone());
            }
        }
    }
    let (matcher, set) = per
        .into_iter()
        .max_by_key(|(m, v)| (v.len(), std::cmp::Reverse(*m)))
        .expect("some subscription on dimension 0");
    let msgs: Vec<Message> = spec
        .base
        .iter()
        .enumerate()
        .filter(|(_, msg)| strategy.as_dyn().candidates(msg)[0].matcher == matcher)
        .map(|(i, msg)| {
            let mut msg = msg.clone();
            msg.id = MessageId(i as u64 + 1);
            msg.payload = Bytes::from((i as u64).to_le_bytes().to_vec());
            msg
        })
        .collect();
    Held {
        space: spec.space.clone(),
        strategy,
        subs,
        set,
        matcher,
        msgs,
    }
}

const BUDGET: Duration = Duration::from_millis(120);

/// Covering inserts scan the stored representatives, so a covering
/// index is built from at most this many of the set's subscriptions.
const COVERING_CAP: usize = 4000;
/// Removals timed per index (a seeded sample of the set).
const REMOVALS: usize = 1000;

fn index_layer(m: &mut Metrics, h: &Held) {
    let kinds = [
        ("cell64", IndexKind::Cell(64), h.set.len()),
        ("itree", IndexKind::IntervalTree, h.set.len()),
        (
            "cover_cell64",
            IndexKind::Covering {
                inner: InnerKind::Cell(64),
            },
            h.set.len().min(COVERING_CAP),
        ),
    ];
    for (label, kind, size) in kinds {
        let set = &h.set[..size];
        let mut idx = kind.build(&h.space, DimIdx(0));
        let t = Instant::now();
        span("core.index.insert", 0, || {
            for s in set {
                idx.insert(s.clone());
            }
        });
        let insert_ns = t.elapsed().as_nanos() as f64 / set.len() as f64;
        let bytes_per_sub = idx.memory_bytes() as f64 / idx.logical_len().max(1) as f64;
        let (mut examined, mut hits, mut n) = (0u64, 0u64, 0u64);
        let mut out: Vec<MatchHit> = Vec::new();
        let match_ns = timed(BUDGET, h.msgs.len().min(64), |i| {
            let msg = &h.msgs[i % h.msgs.len()];
            out.clear();
            examined += span("core.index.match", i as u64, || idx.matching(msg, &mut out)) as u64;
            hits += out.len() as u64;
            n += 1;
        });
        // Every k-th subscription: a fixed, spread-out sample.
        let step = (set.len() / REMOVALS).max(1);
        let victims: Vec<SubscriptionId> = set.iter().step_by(step).map(|s| s.id).collect();
        let t = Instant::now();
        span("core.index.remove", 0, || {
            for &id in &victims {
                black_box(idx.remove(id));
            }
        });
        let remove_ns = t.elapsed().as_nanos() as f64 / victims.len() as f64;
        let p = format!("core.index.{label}");
        put(m, format!("{p}.match_ns"), match_ns, "ns");
        put(
            m,
            format!("{p}.examined_per_msg"),
            ratio(examined, n),
            "count",
        );
        put(m, format!("{p}.hits_per_msg"), ratio(hits, n), "count");
        put(
            m,
            format!("{p}.useful_ratio"),
            ratio(hits, examined),
            "ratio",
        );
        put(m, format!("{p}.insert_ns"), insert_ns, "ns");
        put(m, format!("{p}.remove_ns"), remove_ns, "ns");
        put(m, format!("{p}.bytes_per_sub"), bytes_per_sub, "B");
        put(m, format!("{p}.held_subs"), set.len() as f64, "count");
    }
}

fn partition_layer(m: &mut Metrics, h: &Held, msgs: &[Message]) {
    let strat = h.strategy.as_dyn();
    let mut copies = 0u64;
    let t = Instant::now();
    span("core.partition.assign", 0, || {
        for s in &h.subs {
            copies += black_box(strat.assign(s)).len() as u64;
        }
    });
    let assign_ns = t.elapsed().as_nanos() as f64 / h.subs.len() as f64;
    let mut cands = 0u64;
    let mut n = 0u64;
    let candidates_ns = timed(BUDGET, 256, |i| {
        cands += black_box(strat.candidates(&msgs[i % msgs.len()])).len() as u64;
        n += 1;
    });
    put(m, "core.partition.assign_ns", assign_ns, "ns");
    put(
        m,
        "core.partition.copies_per_sub",
        ratio(copies, h.subs.len() as u64),
        "count",
    );
    put(m, "core.partition.candidates_ns", candidates_ns, "ns");
    put(
        m,
        "core.partition.candidates_per_msg",
        ratio(cands, n),
        "count",
    );
}

fn load_view(h: &Held, matchers: u32, k: usize) -> StatsView {
    let mut view = StatsView::new();
    for mi in 0..matchers {
        for d in 0..k {
            view.update(
                MatcherId(mi),
                DimIdx(d as u16),
                DimStats {
                    sub_count: h.subs.len() / matchers as usize,
                    queue_len: (mi as usize + d) % 3,
                    lambda: 150.0,
                    mu: 2000.0 + 100.0 * mi as f64,
                    updated_at: 0.0,
                },
            );
        }
    }
    view
}

fn policy_layer(m: &mut Metrics, h: &Held, msgs: &[Message], matchers: u32) {
    let strat = h.strategy.as_dyn();
    let cands: Vec<Vec<Assignment>> = msgs.iter().map(|msg| strat.candidates(msg)).collect();
    let view = load_view(h, matchers, h.space.k());
    let policy = AdaptivePolicy;
    let mut rng = StdRng::seed_from_u64(7);
    let ns = span("core.policy.choose", 0, || {
        timed(BUDGET, 256, |i| {
            black_box(policy.choose(&cands[i % cands.len()], &view, 0.01, &mut rng));
        })
    });
    put(m, "core.policy.choose_ns", ns, "ns");
}

/// Records the dispatcher engine's sends.
#[derive(Default)]
struct RecordingPort {
    sent: Vec<(MatcherId, DimIdx)>,
}

impl DispatcherPort for RecordingPort {
    fn send(&mut self, to: MatcherId, _addr: &str, out: DispatcherOut) -> bool {
        if let DispatcherOut::Match { dim, .. } = out {
            self.sent.push((to, dim));
        }
        true
    }
    fn sub_ack(&mut self, _subscriber: SubscriberId, _sub: SubscriptionId) {}
    fn effect(&mut self, _effect: DispatcherEffect) {}
}

fn dispatcher_layer(m: &mut Metrics, h: &Held, msgs: &[Message], matchers: u32) {
    let addrs: HashMap<MatcherId, String> = (0..matchers)
        .map(|i| (MatcherId(i), format!("m/{i}")))
        .collect();
    let mut engine = DispatcherEngine::new(DispatcherEngineConfig {
        policy: PolicyKind::Adaptive.build(),
        seed: 7,
        retry: EngineConfig::default().retry,
        version: 1,
        strategy: h.strategy.clone(),
        addrs,
    });
    let mut port = RecordingPort::default();
    let view = load_view(h, matchers, h.space.k());
    for mi in 0..matchers {
        for d in 0..h.space.k() {
            let (matcher, dim) = (MatcherId(mi), DimIdx(d as u16));
            let stats = view.get(matcher, dim);
            engine.on_event(
                0.0,
                DispatcherEvent::LoadReport {
                    matcher,
                    dim,
                    stats,
                },
                &mut port,
            );
        }
    }
    let mut total = Duration::ZERO;
    let mut n = 0u64;
    let mut next_id = 1u64;
    let start = Instant::now();
    while start.elapsed() < BUDGET || n == 0 {
        for msg in msgs.iter().take(256) {
            let mut msg = msg.clone();
            msg.id = MessageId(next_id);
            next_id += 1;
            let id = msg.id;
            let now = start.elapsed().as_secs_f64();
            port.sent.clear();
            let t = Instant::now();
            span("engine.dispatcher.publish", id.0, || {
                engine.on_event(
                    now,
                    DispatcherEvent::Publish {
                        msg,
                        admitted_us: 0,
                    },
                    &mut port,
                )
            });
            total += t.elapsed();
            n += 1;
            // Ack it at once, untimed, so the in-flight ledger stays small.
            if let Some(&(matcher, _)) = port.sent.first() {
                engine.on_event(
                    now,
                    DispatcherEvent::MatchAck {
                        msg_id: id,
                        matcher,
                        actual_us: 100,
                    },
                    &mut port,
                );
            }
        }
    }
    put(
        m,
        "engine.dispatcher.publish_ns",
        total.as_nanos() as f64 / n as f64,
        "ns",
    );
}

/// Counts the matcher engine's outputs.
#[derive(Default)]
struct CountingPort {
    deliveries: u64,
    acks: u64,
    /// Subscriber of every delivery, for the coalescer replay.
    hits: Vec<SubscriberId>,
}

impl MatcherPort for CountingPort {
    fn deliver(
        &mut self,
        subscriber: SubscriberId,
        _sub: SubscriptionId,
        _msg: &Message,
        _admitted_us: u64,
    ) {
        self.deliveries += 1;
        if self.hits.len() < 1 << 16 {
            self.hits.push(subscriber);
        }
    }
    fn ack(&mut self, _ack_to: &str, _msg_id: MessageId, _actual_us: u64) {
        self.acks += 1;
    }
    fn duplicate_suppressed(&mut self) {}
}

fn matcher_layer(m: &mut Metrics, h: &Held) -> Vec<SubscriberId> {
    let mut engine = MatcherEngine::new(h.matcher, h.space.clone(), IndexKind::Cell(64), 4096);
    for s in &h.subs {
        for a in h.strategy.as_dyn().assign(s) {
            if a.matcher == h.matcher {
                engine.insert(a.dim, s.clone());
            }
        }
    }
    let mut port = CountingPort::default();
    let mut hits: Vec<MatchHit> = Vec::new();
    let mut total = Duration::ZERO;
    let mut n = 0u64;
    let mut next_id = 1u64;
    let start = Instant::now();
    while start.elapsed() < BUDGET || n == 0 {
        for msg in h.msgs.iter().take(64) {
            let mut msg = msg.clone();
            msg.id = MessageId(next_id);
            next_id += 1;
            let id = msg.id.0;
            let now = start.elapsed().as_secs_f64();
            let t = Instant::now();
            span("engine.matcher.serve", id, || {
                span("engine.matcher.on_match_msg", id, || {
                    engine.on_match_msg(now, DimIdx(0), msg, 0, "d/0".to_string(), &mut port)
                });
                let job = span("engine.matcher.begin_service", id, || {
                    engine.begin_service(now)
                })
                .expect("the message just queued");
                hits.clear();
                let t_match = Instant::now();
                span("engine.matcher.run_match", id, || {
                    engine.run_match(&job, now, &mut hits)
                });
                let service = t_match.elapsed().as_secs_f64();
                span("engine.matcher.complete", id, || {
                    engine.complete(job, &hits, service, &mut port)
                });
            });
            total += t.elapsed();
            n += 1;
        }
    }
    put(
        m,
        "engine.matcher.serve_ns",
        total.as_nanos() as f64 / n as f64,
        "ns",
    );
    put(
        m,
        "engine.matcher.deliveries_per_msg",
        ratio(port.deliveries, n),
        "count",
    );
    port.hits
}

fn batch_layer(m: &mut Metrics, endpoints: usize, hits: &[SubscriberId]) {
    let dests: Vec<String> = (0..endpoints).map(|i| format!("s/{i}")).collect();
    let mut co: Coalescer<u64> = Coalescer::new(BatchCfg {
        max_batch: 64,
        max_delay: 0.001,
    });
    // One lane per subscriber endpoint, as a matcher delivering to every
    // endpoint of the workload ends up with.
    for d in &dests {
        co.push(0.0, d, 0);
    }
    black_box(co.flush_all());
    let hits: Vec<usize> = if hits.is_empty() {
        (0..endpoints).collect()
    } else {
        hits.iter().map(|s| s.0 as usize % endpoints).collect()
    };
    let (mut push_ns, mut pushes) = (0u128, 0u64);
    let (mut poll_ns, mut polls) = (0u128, 0u64);
    let start = Instant::now();
    let mut now = 0.0;
    let mut i = 0usize;
    while start.elapsed() < BUDGET * 2 || polls == 0 {
        // One message's worth of deliveries, then a deadline poll.
        let t = Instant::now();
        span("engine.batch.push", i as u64, || {
            for _ in 0..64 {
                let dest = &dests[hits[i % hits.len()]];
                black_box(co.push(now, dest, i as u64));
                i += 1;
            }
        });
        push_ns += t.elapsed().as_nanos();
        pushes += 64;
        now += 0.0004;
        let t = Instant::now();
        span("engine.batch.poll", i as u64, || black_box(co.poll(now)));
        poll_ns += t.elapsed().as_nanos();
        polls += 1;
    }
    put(
        m,
        "engine.batch.push_ns",
        push_ns as f64 / pushes as f64,
        "ns",
    );
    put(
        m,
        "engine.batch.poll_ns",
        poll_ns as f64 / polls as f64,
        "ns",
    );
    put(m, "engine.batch.lanes", endpoints as f64, "count");
}

fn wire_layer(m: &mut Metrics, msg: &Message) {
    let deliver = ControlMsg::Deliver {
        subscriber: SubscriberId(17),
        sub: SubscriptionId(42),
        msg: msg.clone(),
        admitted_us: 123_456,
    };
    let frames = [
        ("publish", ControlMsg::Publish(msg.clone())),
        (
            "match",
            ControlMsg::MatchMsg {
                dim: DimIdx(1),
                msg: msg.clone(),
                admitted_us: 123_456,
                ack_to: "d/0".to_string(),
            },
        ),
        ("deliver", deliver.clone()),
        ("batch64", ControlMsg::Batch(vec![deliver; 64])),
    ];
    for (label, frame) in frames {
        let mut len = 0usize;
        let enc = span("net.wire.encode", 0, || {
            timed(BUDGET / 2, 64, |_| {
                let b = to_bytes(black_box(&frame));
                len = b.len();
                black_box(b);
            })
        });
        let bytes: Bytes = to_bytes(&frame).freeze();
        let dec = span("net.wire.decode", 0, || {
            timed(BUDGET / 2, 64, |_| {
                black_box(from_bytes_shared::<ControlMsg>(bytes.clone()).expect("decodes"));
            })
        });
        put(m, format!("net.wire.{label}.encode_ns"), enc, "ns");
        put(m, format!("net.wire.{label}.decode_ns"), dec, "ns");
        put(m, format!("net.wire.{label}.bytes"), len as f64, "B");
    }
}

/// Median one-way hop through `t`: a ping-pong between two threads.
fn hop_us(t: std::sync::Arc<dyn HostTransport>, rounds: usize, label: &'static str) -> f64 {
    let ping = t.bind("bench/ping").expect("bind ping");
    let pong = t.bind("bench/pong").expect("bind pong");
    let echo_t = t.clone();
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds {
            let Ok(p) = ping.recv_timeout(Duration::from_secs(5)) else {
                return;
            };
            if echo_t.send("bench/pong", p).is_err() {
                return;
            }
        }
    });
    let payload = Bytes::from(vec![7u8; 64]);
    let mut rtt = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let t0 = Instant::now();
        let ok = span(label, i as u64, || {
            t.send("bench/ping", payload.clone()).is_ok()
                && pong.recv_timeout(Duration::from_secs(5)).is_ok()
        });
        if !ok {
            break;
        }
        rtt.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    echo.join().expect("echo thread panicked");
    quantile(&rtt, 0.5).unwrap_or(0.0)
}

fn hop_layer(m: &mut Metrics) {
    let ch: std::sync::Arc<dyn HostTransport> = std::sync::Arc::new(ChannelTransport::new());
    put(
        m,
        "net.hop_us.channel",
        hop_us(ch, 2000, "net.hop.channel"),
        "us",
    );
    let reactor = std::sync::Arc::new(
        ReactorTransport::start(ReactorConfig::default()).expect("start reactor"),
    );
    let r: std::sync::Arc<dyn HostTransport> = reactor.clone();
    put(
        m,
        "net.hop_us.reactor",
        hop_us(r, 1000, "net.hop.reactor"),
        "us",
    );
    reactor.shutdown();
}

fn sublog_layer(m: &mut Metrics, h: &Held) {
    let dir = crate::e2e::out_dir().join(format!("sublog-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LogConfig {
        segment_bytes: 1 << 20,
        fsync: FsyncPolicy::Flush,
    };
    let (mut log, _) = Log::<SubLogRecord>::open(&dir, "bench", cfg).expect("open sub-log");
    let n = h.subs.len().min(2000);
    let t = Instant::now();
    span("cluster.sublog.append", 0, || {
        for s in &h.subs[..n] {
            log.append(&SubLogRecord::Store {
                dim: DimIdx(0),
                sub: s.clone(),
            })
            .expect("append");
        }
    });
    put(
        m,
        "cluster.sublog.append_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
        "us",
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays the workload's inputs through each layer on its own.
pub fn replay(m: &mut Metrics, spec: &Spec) {
    let h = held(spec);
    let all: Vec<Message> = spec.base.clone();
    index_layer(m, &h);
    partition_layer(m, &h, &all);
    policy_layer(m, &h, &all, MATCHERS);
    dispatcher_layer(m, &h, &all, MATCHERS);
    let hits = matcher_layer(m, &h);
    batch_layer(m, spec.statics.len(), &hits);
    wire_layer(m, &h.msgs[0]);
    hop_layer(m);
    sublog_layer(m, &h);
}

/// Span names whose self time is reported, in a fixed list so every
/// workload reports the same metrics.
const SELF_TIMES: [&str; 9] = [
    "cluster.publish",
    "collector.pass",
    "collector.probes",
    "collector.bulk",
    "collector.mailboxes",
    "engine.matcher.serve",
    "engine.matcher.run_match",
    "engine.matcher.complete",
    "engine.dispatcher.publish",
];

/// Self time per layer from the recorded spans.
pub fn span_readings(m: &mut Metrics, threads: &[Vec<Span>]) {
    let totals = trace::totals(threads);
    for name in SELF_TIMES {
        let t = totals.get(name).copied().unwrap_or_default();
        put(m, format!("self_us.{name}"), t.mean_self_ns() / 1e3, "us");
    }
    put(
        m,
        "trace.spans",
        threads.iter().map(|t| t.len()).sum::<usize>() as f64,
        "count",
    );
}
