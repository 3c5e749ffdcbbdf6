//! Live-mode robustness: the tiny degraded-peak cell replayed with
//! first-byte deadlines, a bounded retry budget, and (in the second
//! run) the origin circuit breaker with a bounded recall queue. The
//! daemon re-sequences requests into trace order, so every count below
//! is deterministic; they pin the abandon, shed, and retry paths.

use std::net::TcpListener;
use std::thread;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_serve::backoff::RetryPolicy;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use fmig_serve::origin;
use fmig_serve::ServiceStats;

/// The robustness knobs one run sets on top of simulator-compat mode.
struct Live {
    deadline_ms: i64,
    budget: u32,
    breaker: Option<(u32, i64)>,
    queue_bound: Option<usize>,
}

fn replay(live: Live) -> (LoadgenReport, ServiceStats) {
    let setup = loadgen::tiny_cell(FaultScenarioId::DegradedPeak);
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));

    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let mut cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        setup.capacity,
        SweepConfig::tiny().policies[0],
        setup.scenario,
        setup.seed,
        setup.span_start_vms,
        setup.span_end_vms,
    );
    cfg.deadline_ms = Some(live.deadline_ms);
    cfg.retry = RetryPolicy {
        max_attempts: live.budget,
        ..RetryPolicy::live(setup.seed)
    };
    if let Some((threshold, cooldown_ms)) = live.breaker {
        cfg.breaker_threshold = threshold;
        cfg.breaker_cooldown_ms = cooldown_ms;
    }
    if let Some(bound) = live.queue_bound {
        cfg.queue_bound = bound;
    }
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let report = loadgen::run(
        &LoadgenConfig {
            addr: daemon_addr.to_string(),
            connections: 2,
            limit: None,
            drain: true,
            stats: true,
            shutdown: true,
        },
        &setup,
    )
    .expect("loadgen run");
    let stats = daemon_thread
        .join()
        .expect("daemon thread")
        .expect("daemon serve");
    origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");

    // Every request is answered exactly once, whatever the verdict.
    assert_eq!(
        report.sent,
        report.hits
            + report.delayed_hits
            + report.recalls
            + report.writes
            + report.failed
            + report.rejected_draining
            + report.rejected_shedding
            + report.rejected_invalid,
        "a request went unanswered"
    );
    assert_eq!(report.rejected_draining, 0);
    assert_eq!(report.rejected_invalid, 0);
    // Abandoned recalls lose no writeback, and every acked write is a
    // `Done(Write)` the client saw.
    let drain = report.drain.expect("drain report");
    assert_eq!(
        drain.flush_bytes, drain.origin_flushed_bytes,
        "writeback lost"
    );
    assert_eq!(drain.acked_writes, report.writes);
    assert_eq!(drain.acked_writes, 1_941);
    (report, stats)
}

#[test]
fn deadlines_and_a_retry_budget_abandon_recalls() {
    let (report, stats) = replay(Live {
        deadline_ms: 60_000,
        budget: 2,
        breaker: None,
        queue_bound: None,
    });
    assert_eq!(stats.abandoned, 725, "abandoned");
    assert_eq!(report.failed, 739, "Failed replies");
    assert_eq!(stats.fetch_retries, 1_450, "fetch_retries");
    assert_eq!(stats.recalls, 1_040, "recalls");
    assert_eq!(report.rejected_shedding, 0, "shed");
}

#[test]
fn the_breaker_sheds_beyond_the_queue_bound() {
    let (report, stats) = replay(Live {
        deadline_ms: 30_000,
        budget: 1,
        breaker: Some((3, 600_000)),
        queue_bound: Some(2),
    });
    assert_eq!(stats.abandoned, 1_297, "abandoned");
    assert_eq!(report.failed, 1_310, "Failed replies");
    assert_eq!(stats.fetch_retries, 1_297, "fetch_retries");
    assert_eq!(stats.recalls, 1_453, "recalls");
    assert_eq!(report.rejected_shedding, 23, "shed");
}
