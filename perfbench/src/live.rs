//! The live cluster run: one open-loop publisher thread, one delivery
//! collector thread, and the main thread driving set-up, churn and
//! elasticity through the public `Cluster` API.

use crate::oracle::{Oracle, Receipt, Verdict};
use crate::trace::{self, span};
use bluedove_cluster::{Cluster, ClusterConfig, IndirectSubscriber, Publisher, SubscriberHandle};
use bluedove_core::{Message, Subscription};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A delivery endpoint the collector sweeps.
pub enum Endpoint {
    /// Push delivery into a per-subscriber inbox.
    Direct(SubscriberHandle),
    /// Indirect delivery, fetched from the mailbox node by polling.
    Mailbox(IndirectSubscriber),
}

impl Endpoint {
    fn subscription(&self) -> bluedove_core::SubscriptionId {
        match self {
            Endpoint::Direct(h) => h.subscription,
            Endpoint::Mailbox(m) => m.subscription,
        }
    }
}

enum Cmd {
    /// Start sweeping an endpoint for local subscription `idx`; probes
    /// are swept on every pass and feed the latency samples.
    Add {
        ep: Box<Endpoint>,
        idx: u32,
        probe: bool,
    },
    /// The subscription behind mailbox endpoint `idx` was removed: poll
    /// it rarely from now on (late deliveries are still collected).
    Retire(u32),
}

/// Sleep between collector passes.
const PASS_SLEEP: Duration = Duration::from_micros(500);
/// Period of one full sweep over the bulk (non-probe) endpoints.
const BULK_PERIOD: Duration = Duration::from_millis(100);
/// Period between polls of each live mailbox endpoint; retired mailbox
/// endpoints are polled ten times less often.
const MAILBOX_PERIOD: Duration = Duration::from_millis(25);

/// What the collector shares with the main thread.
#[derive(Default)]
struct Sink {
    /// Receipts in the chunks the collector handed over (chunks, not one
    /// growing vector, so the log never doubles its footprint at once).
    receipts: Mutex<Vec<Vec<Receipt>>>,
    /// `(seq, receipt time)` of every delivery to a probe endpoint.
    probe_hits: Mutex<Vec<(u32, Instant)>>,
    stop: AtomicBool,
    /// Deliveries decoded by `drain` and the ns spent in those calls.
    drained: AtomicU64,
    drain_ns: AtomicU64,
    /// Mailbox polls made and their total ns.
    polls: AtomicU64,
    poll_ns: AtomicU64,
    /// Deliveries logged so far, from every endpoint.
    received: AtomicU64,
}

struct Slot {
    ep: Endpoint,
    idx: u32,
    retired: bool,
}

fn seq_of(d: &bluedove_cluster::Delivery) -> Option<u32> {
    let b: [u8; 8] = d.msg.payload.as_ref().try_into().ok()?;
    u32::try_from(u64::from_le_bytes(b)).ok()
}

fn record(slot: &Slot, ds: Vec<bluedove_cluster::Delivery>, out: &mut Vec<Receipt>) -> usize {
    let own = slot.ep.subscription();
    let n = ds.len();
    for d in ds {
        let sub = if d.sub == own {
            slot.idx
        } else {
            Receipt::FOREIGN
        };
        // A payload that is not a sequence number cannot be attributed;
        // `u32::MAX` lies beyond every phase and fails the final count.
        let seq = seq_of(&d).unwrap_or(u32::MAX);
        out.push(Receipt { seq, sub });
    }
    n
}

fn drain_slot(slot: &Slot, sink: &Sink, out: &mut Vec<Receipt>) -> usize {
    match &slot.ep {
        Endpoint::Direct(h) => {
            let t = Instant::now();
            let ds = h.drain();
            sink.drain_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            sink.drained.fetch_add(ds.len() as u64, Ordering::Relaxed);
            record(slot, ds, out)
        }
        Endpoint::Mailbox(m) => {
            let t = Instant::now();
            let ds = span("cluster.mailbox_poll", u64::from(slot.idx), || m.poll(0));
            sink.poll_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            sink.polls.fetch_add(1, Ordering::Relaxed);
            match ds {
                Ok(ds) => record(slot, ds, out),
                Err(_) => 0,
            }
        }
    }
}

fn collector_loop(rx: mpsc::Receiver<Cmd>, sink: Arc<Sink>) {
    let mut probes: Vec<Slot> = Vec::new();
    let mut bulk: Vec<Slot> = Vec::new();
    let mut mailboxes: Vec<Slot> = Vec::new();
    let mut cursor = 0usize;
    let mut last_poll = Instant::now();
    let mut last_retired_poll = Instant::now();
    let mut local: Vec<Receipt> = Vec::new();
    let mut hits: Vec<(u32, Instant)> = Vec::new();
    let passes_per_sweep =
        (BULK_PERIOD.as_secs_f64() / (PASS_SLEEP.as_secs_f64() + 50e-6)).max(1.0);
    let mut pass: u64 = 0;
    loop {
        let stopping = sink.stop.load(Ordering::SeqCst);
        while let Ok(cmd) = rx.try_recv() {
            match cmd {
                Cmd::Add { ep, idx, probe } => {
                    let slot = Slot {
                        ep: *ep,
                        idx,
                        retired: false,
                    };
                    match (&slot.ep, probe) {
                        (Endpoint::Mailbox(_), _) => mailboxes.push(slot),
                        (_, true) => probes.push(slot),
                        (_, false) => bulk.push(slot),
                    }
                }
                Cmd::Retire(idx) => {
                    if let Some(s) = mailboxes.iter_mut().find(|s| s.idx == idx) {
                        s.retired = true;
                    }
                }
            }
        }
        pass += 1;
        span("collector.pass", pass, || {
            span("collector.probes", pass, || {
                for slot in &probes {
                    let before = local.len();
                    if drain_slot(slot, &sink, &mut local) > 0 {
                        let now = Instant::now();
                        hits.extend(local[before..].iter().map(|r| (r.seq, now)));
                    }
                }
            });
            span("collector.bulk", pass, || {
                let chunk = if stopping {
                    bulk.len()
                } else {
                    (bulk.len() as f64 / passes_per_sweep).ceil() as usize
                };
                for _ in 0..chunk.min(bulk.len()) {
                    cursor = (cursor + 1) % bulk.len();
                    drain_slot(&bulk[cursor], &sink, &mut local);
                }
            });
            let poll_live = stopping || last_poll.elapsed() >= MAILBOX_PERIOD;
            let poll_retired = stopping || last_retired_poll.elapsed() >= MAILBOX_PERIOD * 10;
            if poll_live || poll_retired {
                span("collector.mailboxes", pass, || {
                    for slot in &mailboxes {
                        if (slot.retired && poll_retired) || (!slot.retired && poll_live) {
                            drain_slot(slot, &sink, &mut local);
                        }
                    }
                });
                if poll_live {
                    last_poll = Instant::now();
                }
                if poll_retired {
                    last_retired_poll = Instant::now();
                }
            }
        });
        if !local.is_empty() {
            sink.received
                .fetch_add(local.len() as u64, Ordering::Relaxed);
            sink.receipts
                .lock()
                .expect("receipt log poisoned")
                .push(std::mem::take(&mut local));
        }
        if !hits.is_empty() {
            sink.probe_hits
                .lock()
                .expect("probe log poisoned")
                .append(&mut hits);
        }
        if stopping {
            break;
        }
        std::thread::sleep(PASS_SLEEP);
    }
    trace::flush_thread();
    // Endpoints drop here, after the last sweep.
}

/// Publisher progress, read by the main thread to place churn windows.
#[derive(Default)]
pub struct Progress {
    /// One past the highest sequence number whose publish call began.
    pub started: AtomicU64,
    /// One past the highest sequence number whose publish call returned.
    pub done: AtomicU64,
}

/// What the publisher did in one phase.
#[derive(Debug, Clone)]
pub struct PhaseOut {
    /// Sequence numbers published.
    pub range: Range<u64>,
    /// Offered rate.
    pub rate: f64,
    /// Due time of the first publication.
    pub start: Instant,
    /// When the last publish call returned.
    pub end: Instant,
    /// Publish time minus due time, per publication, ms.
    pub lateness_ms: Vec<f64>,
    /// Duration of each publish call, µs.
    pub publish_us: Vec<f64>,
    /// Publish calls that returned an error.
    pub failed: u64,
    /// `(seq, process CPU seconds)` read before publication `seq`, every
    /// window's worth of publications, plus one after the last.
    pub cpu_marks: Vec<(u64, f64)>,
    /// Receipt chunks and probe hits logged before the phase began: no
    /// earlier entry can belong to it, so judging it skips them.
    pub logged_before: (usize, usize),
}

impl PhaseOut {
    /// The due time of publication `seq`.
    pub fn due(&self, seq: u64) -> Instant {
        self.start + Duration::from_secs_f64((seq - self.range.start) as f64 / self.rate)
    }

    /// Rate the generator achieved over the phase.
    pub fn achieved(&self) -> f64 {
        let n = self.range.end - self.range.start;
        let span = self.end.saturating_duration_since(self.start).as_secs_f64();
        if n <= 1 || span <= 0.0 {
            return self.rate;
        }
        (n - 1) as f64 / span
    }
}

/// A running phase of paced publishing.
pub struct Phase {
    handle: JoinHandle<PhaseOut>,
    /// Sequence number of the phase's first publication.
    pub first: u64,
}

impl Phase {
    /// Whether the publisher has finished.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Waits for the publisher to finish.
    pub fn join(self) -> PhaseOut {
        self.handle.join().expect("publisher thread panicked")
    }
}

/// The live deployment with its collector and oracle.
pub struct Live {
    /// The running cluster.
    pub cluster: Cluster,
    /// The delivery oracle (mutated as subscriptions come and go).
    pub oracle: Oracle,
    base: Arc<Vec<Message>>,
    tx: mpsc::Sender<Cmd>,
    sink: Arc<Sink>,
    collector: Option<JoinHandle<()>>,
    /// Publisher progress counters.
    pub progress: Arc<Progress>,
    next_seq: u64,
}

/// One set-up of the cluster with its static population.
pub struct Setup {
    /// The cluster, all initial subscriptions acked.
    pub cluster: Cluster,
    /// One endpoint per initial subscription, in population order.
    pub handles: Vec<SubscriberHandle>,
    /// `Cluster::start` until the last initial `subscribe()` returned, s.
    pub setup_s: f64,
    /// Each blocking `subscribe` call, ms.
    pub subscribe_ms: Vec<f64>,
}

/// Starts a cluster and subscribes the whole static population.
pub fn setup(cfg: ClusterConfig, subs: &[Subscription]) -> Setup {
    let t0 = Instant::now();
    let mut cluster = Cluster::start(cfg);
    let mut handles = Vec::with_capacity(subs.len());
    let mut subscribe_ms = Vec::with_capacity(subs.len());
    for s in subs {
        let t = Instant::now();
        let h = cluster
            .subscribe(s.clone())
            .expect("initial subscribe acked");
        subscribe_ms.push(t.elapsed().as_secs_f64() * 1e3);
        handles.push(h);
    }
    Setup {
        cluster,
        handles,
        setup_s: t0.elapsed().as_secs_f64(),
        subscribe_ms,
    }
}

impl Live {
    /// Hands a set-up cluster to a fresh collector; `probe` marks which
    /// initial endpoints are swept on every pass.
    pub fn new(setup: Setup, oracle: Oracle, base: Arc<Vec<Message>>, probe: &[bool]) -> Live {
        let (tx, rx) = mpsc::channel();
        let sink = Arc::new(Sink::default());
        for (i, h) in setup.handles.into_iter().enumerate() {
            tx.send(Cmd::Add {
                ep: Box::new(Endpoint::Direct(h)),
                idx: i as u32,
                probe: probe[i],
            })
            .expect("collector inbox open");
        }
        let s2 = sink.clone();
        let collector = std::thread::Builder::new()
            .name("collector".into())
            .spawn(move || collector_loop(rx, s2))
            .expect("spawn collector");
        Live {
            cluster: setup.cluster,
            oracle,
            base,
            tx,
            sink,
            collector: Some(collector),
            progress: Arc::new(Progress::default()),
            next_seq: 0,
        }
    }

    /// Starts publishing `count` publications at `rate` per second on a
    /// publisher thread, reading process CPU every `window` publications.
    pub fn start_phase(&mut self, rate: f64, count: u64, window: u64) -> Phase {
        let first = self.next_seq;
        self.next_seq += count;
        let mut publisher = self.cluster.publisher();
        let base = self.base.clone();
        let progress = self.progress.clone();
        let logged_before = (
            self.sink
                .receipts
                .lock()
                .expect("receipt log poisoned")
                .len(),
            self.sink
                .probe_hits
                .lock()
                .expect("probe log poisoned")
                .len(),
        );
        let handle = std::thread::Builder::new()
            .name("publisher".into())
            .spawn(move || {
                let mut out = publish_loop(
                    &mut publisher,
                    &base,
                    &progress,
                    (first, count),
                    rate,
                    window,
                );
                out.logged_before = logged_before;
                out
            })
            .expect("spawn publisher");
        Phase { handle, first }
    }

    /// Runs a whole phase with nothing else happening on the main thread.
    pub fn paced(&mut self, rate: f64, seconds: f64) -> PhaseOut {
        let count = (rate * seconds).round().max(1.0) as u64;
        self.start_phase(rate, count, count).join()
    }

    /// Subscribes `sub` mid-run (directly or via the mailbox) and tells
    /// the oracle from which publication it is required. Returns the
    /// local index, the subscription id and the blocking call's ms.
    pub fn churn_subscribe(
        &mut self,
        sub: Subscription,
        mailbox: bool,
    ) -> (u32, bluedove_core::SubscriptionId, f64) {
        let mut stored = sub.clone();
        let t = Instant::now();
        let ep = if mailbox {
            Endpoint::Mailbox(
                self.cluster
                    .subscribe_indirect(sub)
                    .expect("churn subscribe"),
            )
        } else {
            Endpoint::Direct(self.cluster.subscribe(sub).expect("churn subscribe"))
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let from = self.progress.started.load(Ordering::SeqCst);
        let id = ep.subscription();
        stored.id = id;
        let idx = self.oracle.add(stored, from);
        self.tx
            .send(Cmd::Add {
                ep: Box::new(ep),
                idx,
                probe: false,
            })
            .expect("collector inbox open");
        (idx, id, ms)
    }

    /// Removes a churned subscription. Publications whose publish call
    /// returned before `to` stay required; later ones — possibly still
    /// queued at a matcher when the removal lands — are allowed.
    pub fn churn_unsubscribe(
        &mut self,
        idx: u32,
        id: bluedove_core::SubscriptionId,
        mailbox: bool,
        to: u64,
    ) {
        self.oracle.close(idx, to);
        self.cluster
            .unsubscribe_by_id(id)
            .expect("unsubscribe of a registered subscription");
        if mailbox {
            self.tx
                .send(Cmd::Retire(idx))
                .expect("collector inbox open");
        }
    }
}

fn publish_loop(
    publisher: &mut Publisher,
    base: &[Message],
    progress: &Progress,
    (first, count): (u64, u64),
    rate: f64,
    window: u64,
) -> PhaseOut {
    let cpu = || crate::procfs::cpu_seconds().unwrap_or(0.0);
    let mut cpu_marks = vec![(first, cpu())];
    let start = Instant::now() + Duration::from_millis(2);
    let cap = count.min(1 << 16) as usize;
    let mut lateness_ms = Vec::with_capacity(cap);
    let mut publish_us = Vec::with_capacity(cap);
    let mut failed = 0;
    let mut end = start;
    let mut seq = first;
    while seq < first + count {
        let due = start + Duration::from_secs_f64((seq - first) as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if seq > first && (seq - first) % window.max(1) == 0 {
            cpu_marks.push((seq, cpu()));
        }
        let b = &base[(seq % base.len() as u64) as usize];
        let msg = Message::with_payload(b.values.clone(), seq.to_le_bytes().to_vec());
        progress.started.store(seq + 1, Ordering::SeqCst);
        let t = Instant::now();
        let ok = span("cluster.publish", seq, || publisher.publish(msg)).is_ok();
        end = Instant::now();
        progress.done.store(seq + 1, Ordering::SeqCst);
        if !ok {
            failed += 1;
        }
        lateness_ms.push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
        publish_us.push((end - t).as_secs_f64() * 1e6);
        seq += 1;
    }
    trace::flush_thread();
    cpu_marks.push((seq, cpu()));
    PhaseOut {
        range: first..seq,
        rate,
        start,
        end,
        lateness_ms,
        publish_us,
        failed,
        cpu_marks,
        logged_before: (0, 0),
    }
}

/// Client-side layer readings the collector accumulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientReadings {
    /// Deliveries returned by `SubscriberHandle::drain`.
    pub drained: u64,
    /// ns spent inside `drain` calls.
    pub drain_ns: u64,
    /// `IndirectSubscriber::poll` calls.
    pub polls: u64,
    /// ns spent inside `poll` calls.
    pub poll_ns: u64,
}

impl Live {
    /// Receipts so far for the publications of `out`.
    fn received_in(&self, out: &PhaseOut) -> u64 {
        let chunks = self.sink.receipts.lock().expect("receipt log poisoned");
        chunks[out.logged_before.0..]
            .iter()
            .flatten()
            .filter(|r| out.range.contains(&u64::from(r.seq)))
            .count() as u64
    }

    /// Judges the publications of `out` now, without waiting.
    fn verify(&self, out: &PhaseOut) -> Verdict {
        let chunks = self.sink.receipts.lock().expect("receipt log poisoned");
        let v = self.oracle.verify(
            chunks[out.logged_before.0..].iter().flatten(),
            out.range.clone(),
        );
        if v.missing > 0 {
            for (seq, i) in self.oracle.missing(
                chunks[out.logged_before.0..].iter().flatten(),
                out.range.clone(),
                10,
            ) {
                eprintln!(
                    "missing: publication {seq} for subscription #{i} (required {:?})",
                    self.oracle.window(i)
                );
            }
        }
        v
    }

    /// Waits until every required delivery of `out` arrived or `limit`
    /// passed, whichever is first, and judges the phase. Never hangs.
    pub fn drain(&self, out: &PhaseOut, limit: Duration) -> Verdict {
        let deadline = Instant::now() + limit;
        let expected = self.oracle.expected(out.range.clone());
        while Instant::now() < deadline {
            if self.received_in(out) >= expected {
                let v = self.verify(out);
                if v.missing == 0 {
                    return v;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.verify(out)
    }

    /// Waits until no delivery has arrived for `quiet`, or `limit`
    /// passed: after an overload, the backlog a failed phase left behind
    /// drains before the next phase starts.
    pub fn settle(&self, quiet: Duration, limit: Duration) {
        let deadline = Instant::now() + limit;
        let mut seen = self.sink.received.load(Ordering::Relaxed);
        let mut since = Instant::now();
        while Instant::now() < deadline && since.elapsed() < quiet {
            std::thread::sleep(Duration::from_millis(20));
            let now = self.sink.received.load(Ordering::Relaxed);
            if now != seen {
                seen = now;
                since = Instant::now();
            }
        }
    }

    /// Due-time → receipt latencies (ms) of the probe deliveries of
    /// `phase`.
    pub fn latencies_ms(&self, phase: &PhaseOut) -> Vec<f64> {
        self.probe_hits(phase)
            .into_iter()
            .map(|(_, ms)| ms)
            .collect()
    }

    /// `(seq, latency ms)` of the probe deliveries of `phase`.
    pub fn probe_hits(&self, phase: &PhaseOut) -> Vec<(u64, f64)> {
        let hits = self.sink.probe_hits.lock().expect("probe log poisoned");
        hits[phase.logged_before.1..]
            .iter()
            .filter(|(seq, _)| phase.range.contains(&u64::from(*seq)))
            .map(|&(seq, at)| {
                let seq = u64::from(seq);
                (
                    seq,
                    at.saturating_duration_since(phase.due(seq)).as_secs_f64() * 1e3,
                )
            })
            .collect()
    }

    /// Collector-side readings so far.
    pub fn client_readings(&self) -> ClientReadings {
        ClientReadings {
            drained: self.sink.drained.load(Ordering::Relaxed),
            drain_ns: self.sink.drain_ns.load(Ordering::Relaxed),
            polls: self.sink.polls.load(Ordering::Relaxed),
            poll_ns: self.sink.poll_ns.load(Ordering::Relaxed),
        }
    }

    /// Stops the collector after one last full sweep, then the cluster.
    pub fn shutdown(mut self) {
        self.sink.stop.store(true, Ordering::SeqCst);
        if let Some(c) = self.collector.take() {
            c.join().expect("collector thread panicked");
        }
        self.cluster.shutdown();
    }
}
