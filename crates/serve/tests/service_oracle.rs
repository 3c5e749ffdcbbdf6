//! In-process oracle contract: the daemon/origin split replaying the
//! tiny-preset cell must reproduce the counter-noise hierarchy engine's
//! cache decisions, every reference's outcome and wait, and the
//! degraded-mode counters exactly — for every `tiny` policy, healthy
//! and under degraded-peak chaos. This is the contract `make
//! service-smoke` enforces through the real binaries, kept in tier-1 so
//! `cargo test` covers it without process spawning.

use std::net::TcpListener;
use std::thread;

use fmig_core::{FaultScenarioId, PolicyId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, LoadgenConfig, Reply};
use fmig_serve::origin;
use fmig_serve::protocol::ServedKind;
use fmig_sim::config::SimConfig;
use fmig_sim::{HierarchySimulator, ServedBy};

fn replay(policy_id: PolicyId, scenario: FaultScenarioId, connections: usize) {
    let setup = loadgen::tiny_cell(scenario);

    let policy = policy_id.build();
    let mut outcomes = Vec::with_capacity(setup.refs.len());
    let oracle = HierarchySimulator::new(
        SimConfig::default()
            .with_seed(setup.seed)
            .with_counter_noise(true),
    )
    .run_streaming_with_faults(
        CacheConfig::with_capacity(setup.capacity),
        policy.as_ref(),
        &setup.refs,
        &scenario.plan(),
        |o| outcomes.push(o),
    );

    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));

    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        setup.capacity,
        policy_id,
        scenario,
        setup.seed,
        setup.span_start_vms,
        setup.span_end_vms,
    );
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let report = loadgen::run(
        &LoadgenConfig {
            addr: daemon_addr.to_string(),
            connections,
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

    // Exact cache-decision equality: the measured miss ratio IS the
    // oracle's.
    let c = oracle.cache;
    assert_eq!(stats.read_hits, c.read_hits, "read_hits");
    assert_eq!(stats.read_misses, c.read_misses, "read_misses");
    assert_eq!(stats.read_hit_bytes, c.read_hit_bytes, "read_hit_bytes");
    assert_eq!(stats.read_miss_bytes, c.read_miss_bytes, "read_miss_bytes");
    assert_eq!(stats.writes, c.writes, "writes");
    assert_eq!(stats.evictions, c.evictions, "evictions");
    assert_eq!(stats.evicted_bytes, c.evicted_bytes, "evicted_bytes");
    assert_eq!(stats.stall_bytes, c.stall_bytes, "stall_bytes");
    assert_eq!(
        stats.purge_flush_bytes, c.purge_flush_bytes,
        "purge_flush_bytes"
    );
    assert_eq!(stats.writeback_bytes, c.writeback_bytes, "writeback_bytes");
    assert_eq!(
        stats.fetch_retries, oracle.cache_fetch_retries,
        "fetch_retries"
    );
    assert_eq!(stats.recalls, oracle.recalls, "recalls");
    assert_eq!(stats.delayed_hits, oracle.delayed_hits, "delayed_hits");
    assert_eq!(stats.flush_jobs, oracle.flush_jobs, "flush_jobs");
    assert_eq!(stats.flush_bytes, oracle.flush_bytes, "flush_bytes");
    assert_eq!(stats.abandoned, 0, "compat mode never abandons");

    // The loadgen saw every reference answered.
    assert_eq!(report.sent, setup.refs.len() as u64);
    assert_eq!(
        report.hits + report.delayed_hits + report.recalls + report.writes,
        report.sent,
        "every request served (no failures, no rejections)"
    );

    // Durability: all flushed bytes landed at the origin.
    let drain = report.drain.expect("drain report");
    assert_eq!(
        drain.flush_bytes, drain.origin_flushed_bytes,
        "no writeback lost"
    );
    assert_eq!(drain.acked_writes, c.writes, "every write acked");

    // Every reference is served the way the oracle served it, after
    // the same virtual wait.
    assert_eq!(
        report.replies.len(),
        outcomes.len(),
        "one reply per reference"
    );
    for (reply, want) in report.replies.iter().zip(&outcomes) {
        let served = match want.served {
            ServedBy::DiskHit => ServedKind::Hit,
            ServedBy::DelayedHit => ServedKind::DelayedHit,
            ServedBy::Recall => ServedKind::Recall,
            ServedBy::DiskWrite => ServedKind::Write,
        };
        let Reply::Done {
            served: got,
            wait_vms,
        } = *reply
        else {
            panic!("{policy_id:?} ref {}: {reply:?}", want.index);
        };
        assert_eq!(
            (got, wait_vms as f64 / 1000.0),
            (served, want.wait_s),
            "{policy_id:?} {scenario:?} ref {}",
            want.index
        );
    }

    // Wait distribution vs the oracle. Daemon and origin host the same
    // tape core as the oracle and the watermark protocol preserves event
    // causality, so the histograms agree to the bucket.
    assert_eq!(
        report.read_waits.cdf_points(),
        oracle.read_wait().cdf_points(),
        "read wait distribution"
    );
    assert_eq!(
        report.read_waits.count(),
        oracle.read_wait().count(),
        "read wait sample counts"
    );

    // Degraded-mode accounting equals the oracle's to the event (all
    // zero on a healthy run).
    let fault = oracle.fault.unwrap_or_default();
    assert_eq!(stats.outage_events, fault.outage_events, "outage_events");
    assert_eq!(stats.slow_transfers, fault.slow_transfers, "slow_transfers");
    assert_eq!(
        stats.outage_wait_vms,
        (fault.outage_wait_s * 1000.0) as i64,
        "outage_wait_vms"
    );
    assert_eq!(stats.fetch_retries, fault.read_retries, "read_retries");

    // Degraded mode actually degraded: the chaos run exercises the
    // retry path.
    if scenario != FaultScenarioId::None {
        assert!(stats.fetch_retries > 0, "chaos produced no read retries");
        let budget = scenario.plan().max_read_retries as u64 * stats.recalls;
        assert!(stats.fetch_retries <= budget, "retries exceed budget");
        assert!(stats.outage_events > 0, "chaos produced no outages");
    }
}

#[test]
fn healthy_replay_matches_the_simulator_oracle() {
    for policy in SweepConfig::tiny().policies {
        replay(policy, FaultScenarioId::None, 2);
    }
}

#[test]
fn degraded_peak_replay_matches_the_simulator_oracle() {
    for policy in SweepConfig::tiny().policies {
        replay(policy, FaultScenarioId::DegradedPeak, 2);
    }
}

#[test]
fn single_connection_replay_matches_too() {
    replay(SweepConfig::tiny().policies[0], FaultScenarioId::None, 1);
}
