//! End-to-end publish→delivery benchmark of a live BlueDove cluster,
//! with a traced run that replays each layer on the workload's inputs.
//!
//! ```text
//! bluedove-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones. The process
//! exits non-zero when any paced-phase delivery went wrong.

mod e2e;
mod ladder;
mod layers;
mod live;
mod oracle;
mod procfs;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: String,
}

/// Metrics by name, printed in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts `name = value unit` into `m`.
pub fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(
        name.into(),
        Metric {
            value,
            unit: unit.to_string(),
        },
    );
}

/// The outcome of one workload run.
pub struct Outcome {
    /// Whether the oracle found the paced deliveries correct.
    pub correct: bool,
    /// Deliveries the oracle expected in the judged phases.
    pub attempted: u64,
    /// Those that went wrong (missing, duplicated or misdirected).
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 40.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, m)| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return e2e::run_all(args.seed, args.seconds, args.trace);
    }
    let Some(spec) = workloads::spec(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {} (one of {:?} or all)",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let outcome = e2e::run(spec, args.seed, args.seconds, args.trace);
    for (k, m) in &outcome.metrics {
        println!("{k:<44} {:>14.4} {}", m.value, m.unit);
    }
    println!("{}", json_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
