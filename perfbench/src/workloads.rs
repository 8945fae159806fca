//! The benchmark's workloads, each with the reason it was chosen.

use bluedove_cluster::{ClusterConfig, TransportKind};
use bluedove_core::{AttributeSpace, Message, Subscription};
use bluedove_net::ReactorConfig;
use bluedove_workload::{ChurnEvent, HighChurn, PaperWorkload, Scenario};
use std::time::Duration;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["paper-40k", "forward-reactor", "churn-elastic"];

/// Everything one workload run needs, generated from the seed.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload exists: the layers it loads and bypasses.
    pub why: &'static str,
    /// The attribute space.
    pub space: AttributeSpace,
    /// Cluster configuration (a sub-log directory is added per set-up
    /// when `sublog` is set).
    pub cfg: ClusterConfig,
    /// Whether the durable sub-log is on.
    pub sublog: bool,
    /// The static population, subscribed during set-up.
    pub statics: Vec<Subscription>,
    /// Base messages; publication `seq` carries `base[seq % len]`.
    pub base: Vec<Message>,
    /// Churn events, `at` rescaled to a fraction of the paced phase.
    pub churn: Vec<ChurnEvent>,
    /// Fractions of the grow/shrink phase (under paced traffic, after the
    /// paced phase) at which one matcher is added and then removed
    /// again; `None` runs no such phase.
    pub rescale_at: Option<(f64, f64)>,
    /// Offered rate of the paced phase, publications per second.
    pub paced_rate: f64,
    /// First rung of the fixed ascending ladder of offered rates.
    pub ladder_start: f64,
}

/// Matchers every workload's deployment starts with (the
/// `ClusterConfig::new` default).
pub const MATCHERS: u32 = 4;

/// Churn keys below this are mobile subscribers (mailbox delivery);
/// `HighChurn` numbers its flash-crowd keys from `1 << 20`.
pub const MIGRANT_KEYS: u64 = 1 << 20;

const BASE_MESSAGES: usize = 4096;

fn paper(
    seed: u64,
    subs: usize,
) -> (
    AttributeSpace,
    ClusterConfig,
    Vec<Subscription>,
    Vec<Message>,
) {
    let w = PaperWorkload {
        seed,
        ..PaperWorkload::default()
    };
    let statics: Vec<Subscription> = w.subscription_stream().take(subs).collect();
    let base: Vec<Message> = w.message_stream().take(BASE_MESSAGES).collect();
    let cfg = ClusterConfig::new(w.space()).seed(seed);
    (w.space(), cfg, statics, base)
}

/// Builds workload `name` from `seed`.
pub fn spec(name: &str, seed: u64) -> Option<Spec> {
    Some(match name {
        // Matching and fan-out bound: ~10k candidates examined and ~130
        // deliveries per publication on the default deployment
        // (channels, 4 matchers, Adaptive, Cell(64), acks on, batching
        // off). Index, matcher engine and fan-out carry the time; the
        // coalescer does nothing and the wire little per delivery. Paced
        // at 400/s, about a quarter of two cores: at 750/s (half of
        // them) host CPU steal doubled p50 in some runs.
        "paper-40k" => {
            let (space, cfg, statics, base) = paper(seed, 40_000);
            Spec {
                name: "paper-40k",
                why: "matching and fan-out bound: 40k paper subscriptions, ~130 deliveries per message",
                space,
                cfg,
                sublog: false,
                statics,
                base,
                churn: Vec::new(),
                rescale_at: None,
                paced_rate: 400.0,
                ladder_start: 1600.0,
            }
        }
        // Forward-bound: 1,000 subscriptions (~3 hits, ~5 µs to match)
        // on the reactor host with batching on (64 frames, 1 ms), so the
        // dispatcher, coalescer, wire codec and loopback sockets carry
        // the time. The only workload that crosses the kernel. Runnable,
        // but left out of BENCHMARK.json: its runs were too unsteady
        // (NOTES.md).
        "forward-reactor" => {
            let (space, cfg, statics, base) = paper(seed, 1_000);
            let cfg = cfg
                .transport(TransportKind::Reactor(ReactorConfig::default()))
                .max_batch(64)
                .max_delay(Duration::from_millis(1));
            Spec {
                name: "forward-reactor",
                why: "forward-bound: 1k subscriptions on the reactor host with batching on",
                space,
                cfg,
                sublog: false,
                statics,
                base,
                churn: Vec::new(),
                rescale_at: None,
                paced_rate: 2500.0,
                ladder_start: 4500.0,
            }
        }
        // Write path beside the read path: HighChurn flash crowds and
        // migrating mailbox subscribers, compressed into the paced
        // phase, with the durable sub-log on, then one grow/shrink pair at
        // fixed positions — index insert/remove, partition assignment,
        // sub-log append and replicate, mailbox re-homing and handover
        // all run under paced traffic.
        "churn-elastic" => {
            let w = HighChurn {
                seed,
                wave_size: 600,
                ..HighChurn::default()
            };
            let statics: Vec<Subscription> = w.subscription_stream().take(1_000).collect();
            let base: Vec<Message> = w.message_stream().take(BASE_MESSAGES).collect();
            let mut churn = w.churn_schedule().events().to_vec();
            let end = churn.iter().map(|e| e.at).fold(0.0, f64::max) * 1.02;
            for e in &mut churn {
                e.at /= end;
            }
            Spec {
                name: "churn-elastic",
                why:
                    "write path under load: churn waves, mailbox migrants, sub-log, grow and shrink",
                space: w.space(),
                cfg: ClusterConfig::new(w.space()).seed(seed),
                sublog: true,
                statics,
                base,
                churn,
                rescale_at: Some((0.1, 0.45)),
                paced_rate: 400.0,
                ladder_start: 4200.0,
            }
        }
        _ => return None,
    })
}
