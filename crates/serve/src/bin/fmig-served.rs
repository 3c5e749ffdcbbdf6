//! `fmig-served` — the HSM cache daemon. Binds a loopback port, prints
//! `LISTENING <addr>`, connects to the origin, and serves clients until
//! one sends `Shutdown` (see `fmig_serve::daemon`).
//!
//! Defaults are simulator-compat (oracle-exact); `--deadline`,
//! `--retry-budget`, `--breaker`, and `--queue-bound` switch on the
//! live robustness core.

use std::fmt::Display;
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::str::FromStr;

use fmig_core::{FaultScenarioId, PolicyId};
use fmig_serve::backoff::RetryPolicy;
use fmig_serve::daemon::{serve, DaemonConfig};

const USAGE: &str = "usage: fmig-served --origin HOST:PORT --capacity BYTES \
                     [--addr HOST:PORT] [--policy NAME] [--seed N] [--scenario NAME] \
                     [--span-start VMS] [--span-end VMS] \
                     [--deadline VMS] [--retry-budget N] [--breaker THRESH:COOLDOWN_VMS] \
                     [--queue-bound N]";

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, v: Option<String>) -> Result<T, String>
where
    T::Err: Display,
{
    let v = v.ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("bad {flag}: {e}"))
}

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut origin: Option<String> = None;
    let mut capacity: Option<u64> = None;
    let mut policy = PolicyId::ALL[0];
    let mut seed = 0u64;
    let mut scenario = FaultScenarioId::None;
    let mut span_start = 0i64;
    let mut span_end = 0i64;
    let mut deadline: Option<i64> = None;
    let mut retry_budget: Option<u32> = None;
    let mut breaker: Option<(u32, i64)> = None;
    let mut queue_bound: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => addr = value(flag, it.next())?,
            "--origin" => origin = Some(value(flag, it.next())?),
            "--capacity" => capacity = Some(value(flag, it.next())?),
            "--policy" => {
                let v: String = value(flag, it.next())?;
                policy = PolicyId::parse(&v).ok_or(format!("unknown policy `{v}`"))?;
            }
            "--seed" => seed = value(flag, it.next())?,
            "--scenario" => {
                let v: String = value(flag, it.next())?;
                scenario = FaultScenarioId::parse(&v).ok_or(format!("unknown scenario `{v}`"))?;
            }
            "--span-start" => span_start = value(flag, it.next())?,
            "--span-end" => span_end = value(flag, it.next())?,
            "--deadline" => deadline = Some(value(flag, it.next())?),
            "--retry-budget" => retry_budget = Some(value(flag, it.next())?),
            "--breaker" => {
                let v: String = value(flag, it.next())?;
                let (t, c) = v
                    .split_once(':')
                    .ok_or("--breaker wants THRESH:COOLDOWN_VMS")?;
                breaker = Some((
                    t.parse()
                        .map_err(|e| format!("bad breaker threshold: {e}"))?,
                    c.parse()
                        .map_err(|e| format!("bad breaker cooldown: {e}"))?,
                ));
            }
            "--queue-bound" => queue_bound = Some(value(flag, it.next())?),
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let origin = origin.ok_or(format!("--origin is required\n{USAGE}"))?;
    let capacity = capacity.ok_or(format!("--capacity is required\n{USAGE}"))?;

    let mut cfg = DaemonConfig::compat(
        origin, capacity, policy, scenario, seed, span_start, span_end,
    );
    cfg.deadline_ms = deadline;
    if let Some(budget) = retry_budget {
        cfg.retry = RetryPolicy {
            max_attempts: budget,
            ..RetryPolicy::live(seed)
        };
    }
    if let Some((threshold, cooldown)) = breaker {
        cfg.breaker_threshold = threshold;
        cfg.breaker_cooldown_ms = cooldown;
    }
    if let Some(bound) = queue_bound {
        cfg.queue_bound = bound;
    }

    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("LISTENING {local}");
    std::io::stdout().flush().ok();
    let stats = serve(listener, cfg)?;
    eprintln!(
        "fmig-served: done — {} requests, {} recalls, {} delayed hits, {} retries, {} abandoned",
        stats.requests, stats.recalls, stats.delayed_hits, stats.fetch_retries, stats.abandoned
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fmig-served: {e}");
            ExitCode::FAILURE
        }
    }
}
