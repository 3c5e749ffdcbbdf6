//! The `service-live` workload: the live service replaying one seeded
//! sweep cell, checked counter for counter against the counter-noise
//! hierarchy engine.
//!
//! Set-up builds the cell and its oracle and boots `origin::serve` and
//! `daemon::serve` (simulator-compat mode) on threads of this process,
//! each on its own loopback listener, as the `fmig-origin` and
//! `fmig-served` binaries do. The measured run is one closed-loop
//! `loadgen::run` over [`CONNECTIONS`] connections, with drain, stats
//! and shutdown. Every run gets a fresh daemon and origin: the daemon's
//! cache state must start cold for the oracle to hold. Virtual-time
//! replay has no host-time arrival schedule, so there is no open-loop
//! rate sweep.
//!
//! [`pin_to_one_cpu`] keeps the whole exchange on one CPU. The protocol
//! is lockstep: every reference is a chain of hand-offs between the
//! loadgen, the daemon's socket and core threads and the origin. Spread
//! over two CPUs, each hand-off waits for the other CPU to wake, and on
//! a shared virtual machine that wait swings a run's wall time by 2x;
//! on one CPU the hand-offs are plain context switches and the run
//! measures the service's own work.

use std::net::{TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use fmig_core::{FaultScenarioId, SweepConfig};
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use fmig_serve::origin;
use fmig_sim::HierarchyMetrics;

use crate::forward::{ForwardStats, Forwarder};
use crate::gen::service_cell;
use crate::procfs;
use crate::span::Recorder;

/// NCAR scale of the replayed cell.
pub const SCALE: f64 = 0.02;
/// The cell's fault scenario.
pub const SCENARIO: FaultScenarioId = FaultScenarioId::None;
/// Replay connections (never more than the host's CPUs).
pub const CONNECTIONS: usize = 2;

/// Binds this thread, and every thread it spawns later, to the first
/// CPU it may run on.
pub fn pin_to_one_cpu() -> Result<(), String> {
    /// `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: both calls get a pointer to a live, writable mask of the
    // size they are told; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or("no CPU allowed")?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// A server thread's result and the CPU seconds the thread used.
type Served<T> = JoinHandle<Result<(T, f64), String>>;

/// Runs `serve` on a thread of its own and reports that thread's CPU
/// time when it returns.
fn spawn_server<T: Send + 'static>(
    serve: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Served<T> {
    thread::spawn(move || {
        let out = serve()?;
        Ok((out, procfs::cpu_s("/proc/thread-self/stat")?))
    })
}

fn join<T>(handle: Served<T>, what: &str) -> Result<(T, f64), String> {
    handle
        .join()
        .map_err(|_| format!("{what} thread panicked"))?
        .map_err(|e| format!("{what}: {e}"))
}

fn listener() -> Result<(TcpListener, String), String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = l.local_addr().map_err(|e| format!("local addr: {e}"))?;
    Ok((l, addr.to_string()))
}

/// One measured (or traced) iteration.
pub struct Iteration {
    /// Cell, oracle and server boot, seconds.
    pub setup_s: f64,
    /// The loadgen run, seconds.
    pub wall_s: f64,
    /// The loadgen's report.
    pub report: LoadgenReport,
    /// This process's peak resident set during the run, MiB.
    pub peak_rss_mib: f64,
    /// CPU seconds of the daemon's core (event-loop) thread.
    pub daemon_cpu_s: f64,
    /// CPU seconds of the origin thread.
    pub origin_cpu_s: f64,
    /// The rest of this process's CPU seconds during the run: the
    /// loadgen's connections and the daemon's socket threads.
    pub loadgen_cpu_s: f64,
    /// Forwarder counts, when the run was forwarded.
    pub forwarded: Option<ForwardStats>,
    /// The oracle check's verdict.
    pub verdict: Result<(), String>,
}

/// Runs one iteration: set up, replay, stop, check. With `forward`, the
/// daemon reaches the origin through a counting [`Forwarder`].
pub fn iteration(
    seed: u64,
    connections: usize,
    forward: bool,
    rec: &mut Recorder,
) -> Result<Iteration, String> {
    let start = Instant::now();
    let (cell, oracle) = rec.span("serve.cell", || service_cell(seed, SCALE, SCENARIO));
    let boot = rec.enter("serve.boot");
    let (origin_listener, origin_addr) = listener()?;
    let origin = spawn_server(move || origin::serve(origin_listener));
    let forwarder = if forward {
        Some(Forwarder::start(&origin_addr)?)
    } else {
        None
    };
    let daemon_origin = forwarder
        .as_ref()
        .map_or(origin_addr, |f| f.addr().to_string());
    let (daemon_listener, daemon_addr) = listener()?;
    let config = DaemonConfig::compat(
        daemon_origin,
        cell.capacity,
        SweepConfig::tiny().policies[0],
        cell.scenario,
        cell.seed,
        cell.span_start_vms,
        cell.span_end_vms,
    );
    let daemon = spawn_server(move || daemon::serve(daemon_listener, config));
    rec.exit(boot);
    let setup_s = start.elapsed().as_secs_f64();

    procfs::reset_peak_rss()?;
    let cpu_before = procfs::cpu_s("/proc/self/stat")?;
    let run = Instant::now();
    let report = rec.span("serve.loadgen", || {
        loadgen::run(
            &LoadgenConfig {
                addr: daemon_addr.clone(),
                connections,
                limit: None,
                drain: true,
                stats: true,
                shutdown: true,
            },
            &cell,
        )
    })?;
    let wall_s = run.elapsed().as_secs_f64();

    let stop = rec.enter("serve.stop");
    let (_, daemon_cpu_s) = join(daemon, "daemon")?;
    // The daemon's accept thread outlives its core, blocked in
    // `accept`; one more connection lets it see the stop flag and exit
    // (in the `fmig-served` binary, process exit ends it).
    let _ = TcpStream::connect(&daemon_addr);
    let forwarded = forwarder.map(Forwarder::finish).transpose()?;
    let ((), origin_cpu_s) = join(origin, "origin")?;
    let cpu_after = procfs::cpu_s("/proc/self/stat")?;
    let peak_rss_mib = procfs::peak_rss_mib()?;
    rec.exit(stop);
    rec.finish();

    let servers_cpu_s = daemon_cpu_s + origin_cpu_s + forwarded.map_or(0.0, |f| f.cpu_s);
    let loadgen_cpu_s = (cpu_after - cpu_before - servers_cpu_s).max(0.0);
    let verdict = check_counters(&report, &oracle);
    Ok(Iteration {
        setup_s,
        wall_s,
        report,
        peak_rss_mib,
        daemon_cpu_s,
        origin_cpu_s,
        loadgen_cpu_s,
        forwarded,
        verdict,
    })
}

/// Refs the run failed or refused.
pub fn refused(report: &LoadgenReport) -> u64 {
    report.failed + report.rejected_draining + report.rejected_shedding
}

/// The live accounting equals the oracle: all fifteen cache and
/// hierarchy counters exactly, no failed or refused request, no
/// abandoned recall, and no acked write without its landed writeback.
pub fn check_counters(report: &LoadgenReport, oracle: &HierarchyMetrics) -> Result<(), String> {
    let s = report.stats.ok_or("no final stats")?;
    let d = report.drain.ok_or("no drain report")?;
    let c = oracle.cache;
    let pairs = [
        ("read_hits", s.read_hits, c.read_hits),
        ("read_misses", s.read_misses, c.read_misses),
        ("read_hit_bytes", s.read_hit_bytes, c.read_hit_bytes),
        ("read_miss_bytes", s.read_miss_bytes, c.read_miss_bytes),
        ("writes", s.writes, c.writes),
        ("evictions", s.evictions, c.evictions),
        ("evicted_bytes", s.evicted_bytes, c.evicted_bytes),
        ("stall_bytes", s.stall_bytes, c.stall_bytes),
        (
            "purge_flush_bytes",
            s.purge_flush_bytes,
            c.purge_flush_bytes,
        ),
        ("writeback_bytes", s.writeback_bytes, c.writeback_bytes),
        ("fetch_retries", s.fetch_retries, oracle.cache_fetch_retries),
        ("recalls", s.recalls, oracle.recalls),
        ("delayed_hits", s.delayed_hits, oracle.delayed_hits),
        ("flush_jobs", s.flush_jobs, oracle.flush_jobs),
        ("flush_bytes", s.flush_bytes, oracle.flush_bytes),
    ];
    for (name, live, want) in pairs {
        if live != want {
            return Err(format!("{name}: live {live} != oracle {want}"));
        }
    }
    if d.flush_bytes != d.origin_flushed_bytes {
        return Err(format!(
            "writeback loss: {} bytes flushed, {} landed",
            d.flush_bytes, d.origin_flushed_bytes
        ));
    }
    if d.acked_writes != c.writes {
        return Err(format!(
            "acked writes {} != oracle writes {}",
            d.acked_writes, c.writes
        ));
    }
    if refused(report) != 0 || s.abandoned != 0 {
        return Err(format!(
            "{} refs failed or refused, {} recalls abandoned",
            refused(report),
            s.abandoned
        ));
    }
    Ok(())
}
