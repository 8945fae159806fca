//! One workload run: set-up, paced phase, elasticity, the rate ladder,
//! and — when traced — the per-layer replay.

use crate::ladder::{self, Ladder, Rung, RungLimits};
use crate::live::{self, Live, PhaseOut};
use crate::oracle::{Oracle, Verdict};
use crate::stats::{self, median, quantile};
use crate::workloads::{Spec, MIGRANT_KEYS};
use crate::{layers, procfs, put, trace, Metrics, Outcome};
use bluedove_core::SubscriptionId;
use bluedove_workload::{ChurnAction, ChurnEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Endpoints the collector sweeps on every pass (latency samples):
/// enough that each paced window of `paper-40k` holds about fifteen
/// samples beyond its p99, and a rung window near saturation over ten.
const PROBES: usize = 512;
/// What a ladder rung must meet, on every workload.
const LIMITS: RungLimits = RungLimits {
    p99_ms: 100.0,
    lateness_ms: 100.0,
    min_rate_share: 0.95,
};
/// Set-ups per untraced run, at least; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untraced runs keep setting up (up to `MAX_SETUPS`) until their
/// set-ups took this long in total, so a fast set-up is timed often
/// enough for a steady median.
const SETUP_TOTAL_S: f64 = 2.5;
const MAX_SETUPS: usize = 60;
/// Warm-up before the paced phase (load reports and lazy state settle).
const WARMUP_S: f64 = 0.5;
/// Share of `--seconds` given to the paced phase.
const PACED_SHARE: f64 = 0.5;
/// Equal windows the paced phase is cut into; latency quantiles and CPU
/// per publication are computed per window and reported as the median
/// over windows, so one disturbed second cannot move a run's figure.
const WINDOWS: u64 = 8;
/// Share of `--seconds` the grow/shrink phase lasts, where a workload
/// has one.
const RESCALE_SHARE: f64 = 0.1;
/// Share of `--seconds` one ladder rung lasts.
const RUNG_SHARE: f64 = 0.035;
/// Equal windows a rung is cut into; its p99 is the median over them,
/// so a host stall inside one window cannot fail a rung while a growing
/// backlog, which raises every later window, still does.
const RUNG_WINDOWS: u64 = 4;
/// Ratio between neighbouring coarse ladder rungs (the staircase moves
/// by its square root, about 4.9 %).
const LADDER_STEP: f64 = 1.1;
/// The ladder's top rung, as a multiple of its first.
const LADDER_SPAN: f64 = 3.0;
/// Rungs of the staircase that follows the coarse climb.
const LADDER_TRIALS: usize = 6;
/// Longest wait for a phase's deliveries after its last publish.
const DRAIN: Duration = Duration::from_secs(5);
/// Longest wait after a ladder rung (the bounded drain of the stop rule).
const RUNG_DRAIN: Duration = Duration::from_secs(1);
/// After a failing rung the climb waits until no delivery arrived for
/// `SETTLE_QUIET` (at most `SETTLE_LIMIT`), so the backlog of an
/// overload does not fail the rung after it.
const SETTLE_QUIET: Duration = Duration::from_millis(300);
const SETTLE_LIMIT: Duration = Duration::from_secs(5);

/// An unsubscribed subscription is required only for publications that
/// finished publishing at least this long before the unsubscribe call:
/// a publication still queued at a matcher may legitimately miss it.
const UNSUB_GRACE: Duration = Duration::from_millis(500);

/// Where runs write their state (sub-logs, traces), inside the checkout.
pub fn out_dir() -> PathBuf {
    let d = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&d).expect("create .bench_out");
    d
}

/// Drives a running phase of `count` publications at `rate` from the
/// main thread until the publisher finishes: fires `churn` and the
/// grow/shrink pair at their fractions of the phase and, with a
/// `trace_window`, turns spans on for every odd window so traced and
/// untraced windows interleave. Returns churn subscribe latencies (ms)
/// and the grow/shrink seconds.
fn drive_phase(
    live: &mut Live,
    phase: live::Phase,
    (count, rate): (u64, f64),
    churn: &[ChurnEvent],
    rescale_at: Option<(f64, f64)>,
    trace_window: Option<u64>,
) -> (PhaseOut, Vec<f64>, (f64, f64)) {
    let seconds = count as f64 / rate;
    let start = Instant::now();
    let at = |frac: f64| start + Duration::from_secs_f64(frac * seconds);
    let mut keyed: HashMap<u64, (u32, SubscriptionId)> = HashMap::new();
    let mut sub_ms = Vec::new();
    let mut grow_shrink = (0.0, 0.0);
    let mut added = None;
    let mut events = churn.iter().peekable();
    // (time, publications done) samples: an unsubscription keeps only
    // publications at least UNSUB_GRACE old as required.
    let mut history: VecDeque<(Instant, u64)> = VecDeque::new();
    while !phase.is_finished() {
        let now = Instant::now();
        if let Some(window) = trace_window {
            let started = live.progress.started.load(Ordering::SeqCst);
            let k = started.saturating_sub(phase.first + 1) / window;
            trace::set_enabled(k % 2 == 1);
        }
        history.push_back((now, live.progress.done.load(Ordering::SeqCst)));
        let cutoff = now.checked_sub(UNSUB_GRACE).unwrap_or(start);
        while history.len() >= 2 && history[1].0 <= cutoff {
            history.pop_front();
        }
        let settled = match history.front() {
            Some(&(t, done)) if t <= cutoff => done,
            _ => 0,
        };
        let due = |pick: fn((f64, f64)) -> f64| rescale_at.is_some_and(|r| now >= at(pick(r)));
        if added.is_none() && due(|r| r.0) {
            let t = Instant::now();
            let id = trace::span("cluster.grow", 0, || live.cluster.add_matcher())
                .expect("add_matcher under load");
            grow_shrink.0 = t.elapsed().as_secs_f64();
            added = Some(id);
        }
        if let Some(id) = added {
            if due(|r| r.1) && grow_shrink.1 == 0.0 {
                let t = Instant::now();
                trace::span("cluster.shrink", 0, || live.cluster.remove_matcher(id))
                    .expect("remove_matcher under load");
                grow_shrink.1 = t.elapsed().as_secs_f64();
            }
        }
        while events.peek().is_some_and(|e| at(e.at) <= Instant::now()) {
            let e = events.next().expect("peeked");
            match &e.action {
                ChurnAction::Subscribe { key, sub } => {
                    let (idx, id, ms) = live.churn_subscribe(sub.clone(), *key < MIGRANT_KEYS);
                    sub_ms.push(ms);
                    keyed.insert(*key, (idx, id));
                }
                ChurnAction::Unsubscribe { key } => {
                    let (idx, id) = keyed.remove(key).expect("validated schedule");
                    live.churn_unsubscribe(idx, id, *key < MIGRANT_KEYS, settled);
                }
                ChurnAction::Migrate { key, sub } => {
                    let (idx, id) = keyed.remove(key).expect("validated schedule");
                    live.churn_unsubscribe(idx, id, true, settled);
                    let (idx, id, ms) = live.churn_subscribe(sub.clone(), true);
                    sub_ms.push(ms);
                    keyed.insert(*key, (idx, id));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    trace::set_enabled(false);
    (phase.join(), sub_ms, grow_shrink)
}

struct Judged {
    verdict: Verdict,
    lat_ms: Vec<f64>,
    out: PhaseOut,
}

fn judge(live: &Live, out: PhaseOut, limit: Duration) -> Judged {
    let verdict = live.drain(&out, limit);
    Judged {
        lat_ms: live.latencies_ms(&out),
        verdict,
        out,
    }
}

/// One window of the paced phase.
#[derive(Clone)]
struct Window {
    samples: usize,
    p50_ms: f64,
    p99_ms: f64,
    cpu_ms_per_msg: f64,
}

/// Cuts `out` into windows of `window` publications; a trailing partial
/// window shorter than half a window is left out.
fn windows(live: &Live, out: &PhaseOut, window: u64) -> Vec<Window> {
    let mut lat: Vec<Vec<f64>> = Vec::new();
    for (seq, ms) in live.probe_hits(out) {
        let k = ((seq - out.range.start) / window) as usize;
        if lat.len() <= k {
            lat.resize(k + 1, Vec::new());
        }
        lat[k].push(ms);
    }
    out.cpu_marks
        .windows(2)
        .enumerate()
        .filter(|(_, m)| (m[1].0 - m[0].0) * 2 >= window)
        .map(|(k, m)| {
            let v = lat.get(k).map_or(&[][..], |v| &v[..]);
            Window {
                samples: v.len(),
                p50_ms: q(v, 0.5),
                p99_ms: q(v, 0.99),
                cpu_ms_per_msg: (m[1].1 - m[0].1) * 1e3 / (m[1].0 - m[0].0) as f64,
            }
        })
        .collect()
}

/// Medians over windows of p50, p99 and CPU per publication.
fn summarize(w: &[Window]) -> (f64, f64, f64) {
    let med = |f: fn(&Window) -> f64| {
        let v: Vec<f64> = w.iter().map(f).filter(|x| x.is_finite()).collect();
        median(&v).unwrap_or(f64::NAN)
    };
    (
        med(|x| x.p50_ms),
        med(|x| x.p99_ms),
        med(|x| x.cpu_ms_per_msg),
    )
}

fn q(v: &[f64], p: f64) -> f64 {
    quantile(v, p).unwrap_or(f64::NAN)
}

/// Runs one workload and returns its outcome.
pub fn run(spec: Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut m = Metrics::new();
    eprintln!("[{}] {}", spec.name, spec.why);
    let base = Arc::new(spec.base.clone());
    let oracle = Oracle::new(spec.base.clone(), spec.statics.clone(), 2);
    let sublog_root = out_dir().join(format!("sublog-{}-{}", spec.name, std::process::id()));

    // The first set-up stays up for the live run; untraced runs set up
    // again after it (timing only), and report the median.
    let setup_once = |i: usize| {
        let mut cfg = spec.cfg.clone();
        if spec.sublog {
            cfg = cfg.log_dir(sublog_root.join(i.to_string()));
        }
        let s = live::setup(cfg, &spec.statics);
        eprintln!("[{}] setup {} took {:.3} s", spec.name, i, s.setup_s);
        s
    };
    let setup = setup_once(0);
    let mut setup_s = vec![setup.setup_s];
    let mut subscribe_p50 = vec![q(&setup.subscribe_ms, 0.5)];
    let mut subscribe_p99 = vec![q(&setup.subscribe_ms, 0.99)];

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut probe = vec![false; spec.statics.len()];
    let mut idx: Vec<usize> = (0..probe.len()).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.gen_range(0..i + 1));
    }
    for &i in idx.iter().take(PROBES) {
        probe[i] = true;
    }
    let mut live = Live::new(setup, oracle, base, &probe);

    // Warm-up: judged for correctness, not timed.
    let warm = live.paced(spec.paced_rate, WARMUP_S);
    let mut judged_total = judge(&live, warm, DRAIN).verdict;

    // The paced phase: fixed offered load, churn and rescale when the
    // workload has them, measured in WINDOWS equal windows.
    let paced_s = seconds * PACED_SHARE;
    let window = ((spec.paced_rate * paced_s / WINDOWS as f64).round() as u64).max(1);
    // Traced runs give workloads without mailbox churn one mailbox
    // subscriber, so the poll path is measured everywhere.
    if traced && spec.churn.is_empty() {
        live.churn_subscribe(spec.statics[0].clone(), true);
    }
    let before = layers::snap(&live.cluster);
    let count = window * WINDOWS;
    let phase = live.start_phase(spec.paced_rate, count, window);
    let (out, churn_sub_ms, _) = drive_phase(
        &mut live,
        phase,
        (count, spec.paced_rate),
        &spec.churn,
        None,
        traced.then_some(window),
    );
    let j = judge(&live, out, DRAIN);
    judged_total.add(&j.verdict);
    let wins = windows(&live, &j.out, window);
    for (k, x) in wins.iter().enumerate() {
        eprintln!(
            "[{}]   window {k}{}: n={} p50 {:.2} ms p99 {:.2} ms cpu {:.3} ms/msg",
            spec.name,
            if traced && k % 2 == 1 {
                " (traced)"
            } else {
                ""
            },
            x.samples,
            x.p50_ms,
            x.p99_ms,
            x.cpu_ms_per_msg
        );
    }
    let paced = summarize(&wins);
    if let Some(thin) = wins.iter().find(|w| stats::beyond(w.samples, 0.99) < 10) {
        eprintln!(
            "[{}] note: a window holds {} latency samples, fewer than ten beyond its p99",
            spec.name, thin.samples
        );
    }
    eprintln!(
        "[{}] paced {:.0}/s: {} msgs, p50 {:.2} ms, p99 {:.2} ms, cpu {:.3} ms/msg, {:?}",
        spec.name,
        spec.paced_rate,
        j.out.range.end - j.out.range.start,
        paced.0,
        paced.1,
        paced.2,
        j.verdict
    );
    // Tracing overhead: traced (odd) windows minus untraced (even) ones,
    // as (p50 ms, CPU ms per publication).
    let overhead = {
        let pick =
            |odd: usize| -> Vec<Window> { wins.iter().skip(odd).step_by(2).cloned().collect() };
        let (off, on) = (summarize(&pick(0)), summarize(&pick(1)));
        (on.0 - off.0, on.2 - off.2)
    };

    let after = layers::snap(&live.cluster);
    // Peak memory of set-up plus paced load, before the ladder overloads
    // the cluster on purpose.
    let peak_rss = procfs::peak_rss_mb().unwrap_or(f64::NAN);

    // The grow/shrink pair, at fixed positions of a phase of its own
    // under the same paced traffic: judged by the oracle, kept out of
    // the latency windows.
    let (grow_s, shrink_s) = match spec.rescale_at {
        Some(at) => {
            let count = (spec.paced_rate * seconds * RESCALE_SHARE).round() as u64;
            let phase = live.start_phase(spec.paced_rate, count, count);
            let (out, _, gs) = drive_phase(
                &mut live,
                phase,
                (count, spec.paced_rate),
                &[],
                Some(at),
                None,
            );
            let r = judge(&live, out, DRAIN);
            eprintln!(
                "[{}] rescale: grow {:.3} s, shrink {:.3} s, p99 {:.2} ms, {:?}",
                spec.name,
                gs.0,
                gs.1,
                q(&r.lat_ms, 0.99),
                r.verdict
            );
            judged_total.add(&r.verdict);
            gs
        }
        None => (0.0, 0.0),
    };
    if j.out.failed > 0 {
        eprintln!(
            "[{}] {} publish calls failed in the paced phase",
            spec.name, j.out.failed
        );
    }
    let publish_failed = j.out.failed;

    // The ladder: a coarse climb to the first failing rung, then a
    // staircase around capacity (ladder.rs). Its first rung is the paced
    // phase itself.
    let rung_s = seconds * RUNG_SHARE;
    let paced_rung = Rung {
        offered: spec.paced_rate,
        achieved: j.out.achieved(),
        p99_ms: paced.1,
        missing: judged_total.missing,
        expected: judged_total.expected,
        lateness_p99_ms: q(&j.out.lateness_ms, 0.99),
    };
    eprintln!("[{}] rung {paced_rung:?} (the paced phase)", spec.name);
    let shape = Ladder {
        start: spec.ladder_start,
        step: LADDER_STEP,
        span: LADDER_SPAN,
        trials: LADDER_TRIALS,
    };
    let climb = ladder::climb(paced_rung, &shape, &LIMITS, |rate| {
        let window = ((rate * rung_s / RUNG_WINDOWS as f64).round() as u64).max(1);
        let out = live.start_phase(rate, window * RUNG_WINDOWS, window).join();
        let j = judge(&live, out, RUNG_DRAIN);
        let rung = Rung {
            offered: rate,
            achieved: j.out.achieved(),
            p99_ms: summarize(&windows(&live, &j.out, window)).1,
            missing: j.verdict.missing,
            expected: j.verdict.expected,
            lateness_p99_ms: q(&j.out.lateness_ms, 0.99),
        };
        let failure = rung.failure(&LIMITS);
        eprintln!("[{}] rung {rung:?} -> {failure:?}", spec.name);
        if failure.is_none() {
            judged_total.add(&j.verdict);
        } else {
            live.settle(SETTLE_QUIET, SETTLE_LIMIT);
            if rung.missing > 0 {
                let late = live.drain(&j.out, Duration::ZERO);
                eprintln!(
                    "[{}]   after settling, {} of its {} missing deliveries are still missing",
                    spec.name, late.missing, rung.missing
                );
            }
        }
        rung
    });
    let sustained = climb.sustained;
    let overload_loss = climb.first_failure(&LIMITS).map_or(0.0, |r| r.loss_ratio());
    eprintln!(
        "[{}] sustained {sustained:.1}/s: mean achieved rate of rungs {:?}",
        spec.name, climb.staircase
    );

    if traced {
        layers::live_readings(
            &mut m,
            &live,
            &before,
            &after,
            overhead,
            &j.out,
            (grow_s, shrink_s),
        );
    }
    live.shutdown();
    if !traced {
        let mut i = 1;
        while i < SETUPS || (setup_s.iter().sum::<f64>() < SETUP_TOTAL_S && i < MAX_SETUPS) {
            let s = setup_once(i);
            i += 1;
            setup_s.push(s.setup_s);
            subscribe_p50.push(q(&s.subscribe_ms, 0.5));
            subscribe_p99.push(q(&s.subscribe_ms, 0.99));
            drop(s.handles);
            s.cluster.shutdown();
        }
    }
    let _ = std::fs::remove_dir_all(&sublog_root);
    // Subscribe latency: measured under load where the workload churns,
    // otherwise in set-up (median over set-ups of each one's quantile).
    let (sub_p50, sub_p99) = if spec.churn.is_empty() {
        (
            median(&subscribe_p50).unwrap_or(f64::NAN),
            median(&subscribe_p99).unwrap_or(f64::NAN),
        )
    } else {
        (q(&churn_sub_ms, 0.5), q(&churn_sub_ms, 0.99))
    };

    if traced {
        put(&mut m, "overload.loss_ratio", overload_loss, "ratio");
        put(
            &mut m,
            "overload.lost_deliveries",
            climb.lost() as f64,
            "count",
        );
        // Too noisy run-to-run on a shared 2-vCPU host for an end-to-end
        // bound (NOTES.md): reported per layer, untraced windows only.
        let untraced: Vec<Window> = wins.iter().step_by(2).cloned().collect();
        put(&mut m, "tail.delivery_p99_ms", summarize(&untraced).1, "ms");
        put(&mut m, "tail.subscribe_p99_ms", sub_p99, "ms");
        put(&mut m, "cluster.subscribe_p50_ms", sub_p50, "ms");
        trace::set_enabled(true);
        layers::replay(&mut m, &spec);
        trace::set_enabled(false);
        let spans = trace::collect();
        layers::span_readings(&mut m, &spans);
        let path = out_dir().join(format!("trace-{}-seed{seed}.jsonl", spec.name));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    } else {
        put(&mut m, "setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        put(&mut m, "delivery_p50_ms", paced.0, "ms");
        put(&mut m, "sustained_msgs_per_s", sustained, "msg/s");
        put(&mut m, "cpu_ms_per_msg", paced.2, "ms");
        put(&mut m, "peak_rss_mb", peak_rss, "MB");
    }
    eprintln!(
        "[{}] judged deliveries: {:?}; delivery_loss_ratio {:.6}; latency samples {}",
        spec.name,
        judged_total,
        judged_total.loss_ratio(),
        j.lat_ms.len()
    );
    Outcome {
        correct: judged_total.failed() == 0 && publish_failed == 0,
        attempted: judged_total.expected,
        failed: judged_total.failed(),
        metrics: m,
    }
}

/// Runs every workload, each in a process of its own (so `VmHWM` is
/// per workload), and prints one combined result line.
pub fn run_all(seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Metrics::new(),
    };
    for name in crate::workloads::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run one workload");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{name:<16} {l}");
        }
        match parse_result(last) {
            Some(o) if out.status.success() => {
                all.attempted += o.attempted;
                all.failed += o.failed;
                for (k, v) in o.metrics {
                    all.metrics.insert(format!("{name}.{k}"), v);
                }
            }
            _ => {
                all.correct = false;
                eprintln!("[{name}] failed: {}", out.status);
            }
        }
    }
    println!("{}", crate::json_line(&all));
    if all.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads back a result line this program printed.
fn parse_result(line: &str) -> Option<Outcome> {
    let num = |key: &str| -> Option<u64> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        line[at..].split([',', '}']).next()?.trim().parse().ok()
    };
    let mut metrics = Metrics::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for part in body.split("}, ") {
        let name = part.split('"').nth(1)?;
        let value: f64 = part
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = part.split("\"unit\": \"").nth(1)?.split('"').next()?;
        let unit = unit.to_string();
        metrics.insert(name.to_string(), crate::Metric { value, unit });
    }
    Some(Outcome {
        correct: line.contains("\"correct\": true"),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let mut m = Metrics::new();
        put(&mut m, "a_ms", 1.25, "ms");
        put(&mut m, "b", 3.0, "count");
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
        };
        let line = crate::json_line(&o);
        let back = parse_result(&line).unwrap();
        assert!(back.correct);
        assert_eq!(back.attempted, 10);
        assert_eq!(back.metrics["a_ms"].value, 1.25);
        assert_eq!(back.metrics["b"].unit, "count");
    }
}
