//! `fmig-served`: the HSM cache daemon.
//!
//! Hosts the disk core, [`fmig_sim::disk::DiskCore`] — the
//! policy-driven cache, recall coalescing, MSCP dispatch, spindles,
//! channel movers, and stall-flush gates that the closed-loop simulator
//! runs too — over its own local event queue, and sends the core's tape
//! work as `Recall` and `Flush` frames to the origin server, which
//! hosts the tape core ([`crate::origin`], [`fmig_sim::tape`]). The two
//! halves stay causally consistent through a watermark protocol: before
//! the daemon processes anything at virtual time `t` it advances the
//! origin to `t` and applies every tape event the origin emitted up to
//! `t`.
//!
//! What the daemon adds is its own: the client sockets and the reorder
//! buffer, shedding, the breaker and the retry verdicts, deadlines, the
//! job ids that validate origin replies, acked-write accounting, and
//! `Done` frames. Requests naming a file id outside the dense `u32`
//! space, or a time the virtual clock cannot hold, are answered
//! `Rejected(Invalid)`.
//!
//! # Robustness core
//!
//! Every recall carries a first-byte **deadline** (`deadline_ms`); an
//! attempt whose first byte would land past it fails like a media read
//! error. Failed attempts are retried under the daemon's
//! [`RetryPolicy`] — jittered exponential backoff up to an attempt
//! budget in live mode, the simulator's fixed backoff in compat mode —
//! and a recall that exhausts its budget is **abandoned**: its waiters
//! get `Done(Failed)` replies and the cache entry is left re-missable.
//! Persistent failures trip an origin [`CircuitBreaker`]; while it is
//! open the daemon degrades in documented order: resident data still
//! serves (serve-stale), non-resident reads beyond the bounded recall
//! queue are shed with `Rejected(Shedding)`. **Graceful shutdown**
//! (`Drain`) stops admitting work, drains every in-flight recall, and
//! flushes all dirty writeback bytes before acknowledging.
//!
//! In simulator-compat mode (no deadline, compat retry, breaker
//! disabled) a replay of a prepared trace reproduces
//! [`fmig_sim::HierarchySimulator`] in counter-noise mode reference for
//! reference — that is the oracle contract `repro service-smoke`
//! enforces.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fmig_core::{FaultScenarioId, PolicyId};
use fmig_migrate::cache::CacheConfig;
use fmig_migrate::eval::PreparedRef;
use fmig_sim::config::SimConfig;
use fmig_sim::disk::{DiskCore, DiskEvent, DiskOut, ServedBy, TapeWork};
use fmig_sim::event::{EventQueue, SimMs, MS};
use fmig_sim::noise::Draws;
use fmig_sim::tape::TapeJob;
use fmig_trace::FileId;

use crate::backoff::RetryPolicy;
use crate::breaker::{should_shed, CircuitBreaker};
use crate::protocol::{
    Frame, ProtoError, RejectReason, ServedKind, ServiceStats, NO_DEADLINE, NO_NEXT_USE,
    PROTO_VERSION,
};

/// Virtual time far past any trace: advancing here drains everything,
/// the split-engine equivalent of the simulator's final queue drain.
const DRAIN_HORIZON_VMS: SimMs = SimMs::MAX / 4;

/// Daemon configuration. [`DaemonConfig::compat`] is the
/// simulator-oracle mode the smoke test runs; the public fields let a
/// live deployment turn on deadlines, bounded retry, and the breaker.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// `host:port` of the origin (tape) server.
    pub origin_addr: String,
    /// Staging-disk capacity in bytes.
    pub capacity: u64,
    /// Victim-ranking policy.
    pub policy: PolicyId,
    /// Chaos scenario the origin materializes.
    pub scenario: FaultScenarioId,
    /// Seed shared with the origin and the oracle.
    pub seed: u64,
    /// Fault-schedule span start (first reference), virtual ms.
    pub span_start_vms: SimMs,
    /// Fault-schedule span end (last reference + slack), virtual ms.
    pub span_end_vms: SimMs,
    /// Recall first-byte deadline relative to issue; `None` disables.
    pub deadline_ms: Option<SimMs>,
    /// Retry backoff policy for failed recalls.
    pub retry: RetryPolicy,
    /// Consecutive recall failures that trip the breaker (0 disables).
    pub breaker_threshold: u32,
    /// Virtual ms the breaker stays open before a half-open probe.
    pub breaker_cooldown_ms: SimMs,
    /// In-flight recall bound while the breaker is open; misses beyond
    /// it are shed.
    pub queue_bound: usize,
}

impl DaemonConfig {
    /// The simulator-oracle configuration: no deadline, the fault
    /// plan's fixed unbounded backoff, breaker disabled.
    pub fn compat(
        origin_addr: String,
        capacity: u64,
        policy: PolicyId,
        scenario: FaultScenarioId,
        seed: u64,
        span_start_vms: SimMs,
        span_end_vms: SimMs,
    ) -> Self {
        DaemonConfig {
            origin_addr,
            capacity,
            policy,
            scenario,
            seed,
            span_start_vms,
            span_end_vms,
            deadline_ms: None,
            retry: RetryPolicy::compat(&scenario.plan(), seed),
            breaker_threshold: 0,
            breaker_cooldown_ms: 0,
            queue_bound: usize::MAX,
        }
    }
}

/// Messages from connection threads into the single-threaded core.
enum CoreMsg {
    /// New client connection and the sender feeding its writer thread.
    NewConn(u64, Sender<Frame>),
    /// A frame read from a client connection.
    Msg(u64, Frame),
    /// The client connection closed or errored.
    Gone(u64),
}

/// Who asked for a reference: its client connection and request id.
#[derive(Debug, Clone, Copy)]
struct Client {
    conn: u64,
    req: u64,
}

/// The origin's end-of-run fault accounting.
#[derive(Debug, Clone, Copy, Default)]
struct OriginReport {
    outage_events: u64,
    outage_wait_vms: i64,
    slow_transfers: u64,
}

struct Core<'p> {
    cfg: DaemonConfig,
    disk: DiskCore<'p, Client>,
    draws: Draws,
    queue: EventQueue<DiskEvent>,
    /// Origin jobs in flight, by job id: every origin reply must name
    /// one of the right kind.
    jobs: HashMap<u64, TapeWork>,
    next_job: u64,
    abandoned: u64,
    acked_writes: u64,
    acked_write_bytes: u64,
    origin_flushed_bytes: u64,
    origin_r: BufReader<TcpStream>,
    origin_w: BufWriter<TcpStream>,
    /// Origin has processed everything up to here.
    origin_clock: SimMs,
    /// Un-advanced `Recall`/`Flush` frames are in flight to the origin.
    origin_dirty: bool,
    origin_report: Option<OriginReport>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    live_recalls: usize,
    draining: bool,
    conns: HashMap<u64, Sender<Frame>>,
    /// Reorder buffer: requests process in global `req` order so a
    /// multi-connection replay is trace-order deterministic.
    pending: BTreeMap<u64, (u64, Frame)>,
    next_req: u64,
}

/// Runs the daemon on `listener` until a client sends `Shutdown`.
/// Returns the final service statistics.
pub fn serve(listener: TcpListener, cfg: DaemonConfig) -> Result<ServiceStats, String> {
    let origin = connect_origin(&cfg.origin_addr)?;
    origin.set_nodelay(true).ok();
    let mut origin_r = BufReader::new(
        origin
            .try_clone()
            .map_err(|e| format!("origin clone: {e}"))?,
    );
    let mut origin_w = BufWriter::new(origin);

    let scenario_idx = FaultScenarioId::ALL
        .iter()
        .position(|s| *s == cfg.scenario)
        .expect("every scenario is in ALL") as u8;
    Frame::OriginHello {
        version: PROTO_VERSION,
        seed: cfg.seed,
        scenario: scenario_idx,
        span_start_vms: cfg.span_start_vms,
        span_end_vms: cfg.span_end_vms,
    }
    .write_to(&mut origin_w)
    .and_then(|()| origin_w.flush().map_err(ProtoError::from))
    .map_err(|e| format!("origin hello: {e}"))?;
    match Frame::read_from(&mut origin_r) {
        Ok(Frame::OriginHelloAck { version }) if version == PROTO_VERSION => {}
        Ok(other) => return Err(format!("bad origin handshake reply: {other:?}")),
        Err(e) => return Err(format!("origin handshake: {e}")),
    }

    let policy = cfg.policy.build();
    let sim = SimConfig::default()
        .with_seed(cfg.seed)
        .with_counter_noise(true);

    let local_addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || accept_loop(listener, tx, stop));
    }

    let mut core = Core {
        retry: cfg.retry,
        breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
        disk: DiskCore::new(
            &sim,
            CacheConfig::with_capacity(cfg.capacity),
            policy.as_ref(),
        ),
        draws: Draws::new(sim.seed, sim.counter_noise),
        queue: EventQueue::new(),
        jobs: HashMap::new(),
        next_job: 0,
        cfg,
        abandoned: 0,
        acked_writes: 0,
        acked_write_bytes: 0,
        origin_flushed_bytes: 0,
        origin_r,
        origin_w,
        origin_clock: SimMs::MIN,
        origin_dirty: false,
        origin_report: None,
        live_recalls: 0,
        draining: false,
        conns: HashMap::new(),
        pending: BTreeMap::new(),
        next_req: 0,
    };

    let result = loop {
        let Ok(msg) = rx.recv() else {
            break Err("all connection threads vanished".to_string());
        };
        match msg {
            CoreMsg::NewConn(id, sender) => {
                core.conns.insert(id, sender);
            }
            CoreMsg::Gone(id) => {
                core.conns.remove(&id);
            }
            CoreMsg::Msg(id, frame) => match core.handle_client(id, frame) {
                Ok(true) => {}
                Ok(false) => break Ok(core.stats()),
                Err(e) => break Err(e),
            },
        }
    };

    // Unblock the acceptor so it drops the listener.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local_addr);
    result
}

fn connect_origin(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = e.to_string();
                thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(format!("origin {addr} unreachable: {last}"))
}

fn accept_loop(listener: TcpListener, tx: Sender<CoreMsg>, stop: Arc<AtomicBool>) {
    let mut next_id = 0u64;
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        stream.set_nodelay(true).ok();
        let id = next_id;
        next_id += 1;
        let (wtx, wrx) = mpsc::channel::<Frame>();
        // NewConn is sent before the reader thread exists, so the core
        // always learns the connection before its first frame.
        if tx.send(CoreMsg::NewConn(id, wtx)).is_err() {
            return;
        }
        let Ok(rstream) = stream.try_clone() else {
            let _ = tx.send(CoreMsg::Gone(id));
            continue;
        };
        let rtx = tx.clone();
        thread::spawn(move || {
            let mut reader = BufReader::new(rstream);
            loop {
                match Frame::read_from(&mut reader) {
                    Ok(frame) => {
                        if rtx.send(CoreMsg::Msg(id, frame)).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        let _ = rtx.send(CoreMsg::Gone(id));
                        return;
                    }
                }
            }
        });
        thread::spawn(move || {
            let mut writer = BufWriter::new(stream);
            while let Ok(frame) = wrx.recv() {
                if frame.write_to(&mut writer).is_err() || writer.flush().is_err() {
                    return;
                }
            }
        });
    }
}

impl Core<'_> {
    /// Handles one client frame. Returns `Ok(false)` on `Shutdown`.
    fn handle_client(&mut self, conn: u64, frame: Frame) -> Result<bool, String> {
        match frame {
            Frame::Hello { .. } => {
                self.send(
                    conn,
                    Frame::HelloAck {
                        version: PROTO_VERSION,
                    },
                );
            }
            Frame::ReadReq { req, .. } | Frame::WriteReq { req, .. } => {
                if self.draining {
                    self.send(
                        conn,
                        Frame::Rejected {
                            req,
                            reason: RejectReason::Draining,
                        },
                    );
                    return Ok(true);
                }
                self.pending.insert(req, (conn, frame));
                while let Some((conn, frame)) = self.pending.remove(&self.next_req) {
                    self.next_req += 1;
                    self.process_request(conn, frame)?;
                }
            }
            Frame::StatsReq => {
                let stats = self.stats();
                self.send(conn, Frame::Stats(stats));
            }
            Frame::Drain => {
                let done = self.drain()?;
                self.send(conn, done);
            }
            Frame::Shutdown => {
                let _ = Frame::Shutdown.write_to(&mut self.origin_w);
                let _ = self.origin_w.flush();
                return Ok(false);
            }
            other => return Err(format!("unexpected client frame: {other:?}")),
        }
        Ok(true)
    }

    fn send(&mut self, conn: u64, frame: Frame) {
        // A vanished client only loses its own replies.
        if let Some(s) = self.conns.get(&conn) {
            let _ = s.send(frame);
        }
    }

    fn process_request(&mut self, conn: u64, frame: Frame) -> Result<(), String> {
        let (req, file, size, time_s, next_use, device, write) = match frame {
            Frame::ReadReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            } => (req, file, size, time_s, next_use, device, false),
            Frame::WriteReq {
                req,
                file,
                size,
                time_s,
                next_use,
                device,
            } => (req, file, size, time_s, next_use, device, true),
            _ => unreachable!("only requests are sequenced"),
        };
        // Outside input: a file id past the dense id space, or a time
        // the virtual clock cannot hold, is refused, not trusted.
        let t_vms = time_s
            .checked_mul(MS)
            .filter(|t| t.unsigned_abs() < DRAIN_HORIZON_VMS as u64);
        let (Ok(file), Some(t_vms)) = (u32::try_from(file), t_vms) else {
            let reason = RejectReason::Invalid;
            self.send(conn, Frame::Rejected { req, reason });
            return Ok(());
        };
        self.advance_to(t_vms)?;
        let id = FileId::new(file);
        if !write
            && should_shed(
                self.disk.cache().contains(id),
                self.breaker.is_open(t_vms),
                self.live_recalls,
                self.cfg.queue_bound,
            )
        {
            let reason = RejectReason::Shedding;
            self.send(conn, Frame::Rejected { req, reason });
            return Ok(());
        }
        let pr = PreparedRef {
            id,
            size,
            write,
            time: time_s,
            next_use: (next_use != NO_NEXT_USE).then_some(next_use),
            device,
        };
        self.disk.arrive(&pr, Client { conn, req }, &mut self.draws);
        self.settle()
    }

    /// Carries out the disk core's outbox: local events join the queue,
    /// tape work goes to the origin, and resolved references get their
    /// `Done`.
    fn settle(&mut self) -> Result<(), String> {
        while let Some(out) = self.disk.pop_out() {
            match out {
                DiskOut::Schedule(at, ev) => self.queue.push(at, ev),
                DiskOut::Tape(job, at) => self.send_job(*job, at)?,
                DiskOut::Resolved(r) => self.done(r),
            }
        }
        Ok(())
    }

    /// Ships a tape job to the origin: a recall entering its drive
    /// queue at `at`, or a flush ready at `at`.
    fn send_job(&mut self, job: TapeJob<TapeWork>, at: SimMs) -> Result<(), String> {
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(id, job.payload);
        let frame = match job.payload {
            TapeWork::Recall(r) => {
                self.live_recalls += 1;
                Frame::Recall {
                    job: id,
                    file: self.disk.refs()[r].id.into(),
                    seq: job.seq,
                    size: job.size,
                    tier: job.tier.device(),
                    enter_vms: at,
                    deadline_vms: self.cfg.deadline_ms.map_or(NO_DEADLINE, |d| at + d),
                }
            }
            TapeWork::Flush { file, .. } => Frame::Flush {
                job: id,
                file: file.into(),
                seq: job.seq,
                size: job.size,
                tier: job.tier.device(),
                ready_vms: at,
            },
        };
        frame
            .write_to(&mut self.origin_w)
            .map_err(|e| format!("tape job send: {e}"))?;
        self.origin_dirty = true;
        Ok(())
    }

    /// Sends a resolved reference its `Done` and counts an acked write.
    fn done(&mut self, r: usize) {
        let rf = self.disk.refs()[r];
        let served = match rf.served {
            _ if rf.failed => ServedKind::Failed,
            ServedBy::DiskHit => ServedKind::Hit,
            ServedBy::DelayedHit => ServedKind::DelayedHit,
            ServedBy::Recall => ServedKind::Recall,
            ServedBy::DiskWrite => ServedKind::Write,
        };
        if rf.write {
            self.acked_writes += 1;
            self.acked_write_bytes += rf.size;
        }
        let Client { conn, req } = rf.payload;
        let wait_vms = rf.wait_ms();
        self.send(
            conn,
            Frame::Done {
                req,
                wait_vms,
                served,
            },
        );
    }

    /// Processes every local event up to `t`, keeping the origin's
    /// clock at or ahead of every local event handled — the watermark
    /// protocol that makes the split engine causally consistent.
    fn advance_to(&mut self, t: SimMs) -> Result<(), String> {
        loop {
            let next_local = self.queue.peek_time().filter(|&lt| lt <= t);
            let target = next_local.unwrap_or(t);
            if self.origin_clock < target || self.origin_dirty {
                self.origin_advance(target)?;
                continue;
            }
            match next_local {
                Some(_) => {
                    let (now, ev) = self.queue.pop().expect("peeked event");
                    self.disk.handle(now, ev, &mut self.draws);
                    self.settle()?;
                }
                None => return Ok(()),
            }
        }
    }

    /// Advances the origin to (at least) `target` and applies every
    /// tape event it emits on the way.
    fn origin_advance(&mut self, target: SimMs) -> Result<(), String> {
        let until = target.max(self.origin_clock);
        Frame::Advance { until_vms: until }
            .write_to(&mut self.origin_w)
            .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
            .map_err(|e| format!("advance send: {e}"))?;
        self.origin_dirty = false;
        loop {
            let frame =
                Frame::read_from(&mut self.origin_r).map_err(|e| format!("origin read: {e}"))?;
            match frame {
                Frame::AdvanceDone { .. } => break,
                Frame::RecallFirstByte { job, fb_vms } => {
                    let r = self.recall(job, "first byte")?;
                    self.disk.recall_first_byte(r, fb_vms);
                }
                Frame::RecallDone { job, done_vms } => {
                    let r = self.recall(job, "completion")?;
                    self.jobs.remove(&job);
                    self.disk
                        .tape_done(TapeWork::Recall(r), done_vms, &mut self.draws);
                    self.breaker.record_success();
                    self.live_recalls = self.live_recalls.saturating_sub(1);
                }
                Frame::RecallFailed {
                    job,
                    attempt,
                    failed_vms,
                    drive_free_vms,
                } => self.recall_failed(job, attempt, failed_vms, drive_free_vms)?,
                Frame::FlushDone {
                    job,
                    done_vms,
                    bytes,
                } => {
                    let work = self
                        .jobs
                        .remove(&job)
                        .filter(|w| matches!(w, TapeWork::Flush { .. }))
                        .ok_or_else(|| format!("completion for unknown flush job {job}"))?;
                    self.origin_flushed_bytes += bytes;
                    self.disk.tape_done(work, done_vms, &mut self.draws);
                }
                other => return Err(format!("unexpected origin frame: {other:?}")),
            }
            self.settle()?;
        }
        self.origin_clock = until;
        Ok(())
    }

    /// The reference whose recall origin job `job` is.
    fn recall(&self, job: u64, what: &str) -> Result<usize, String> {
        match self.jobs.get(&job) {
            Some(&TapeWork::Recall(r)) => Ok(r),
            _ => Err(format!("{what} for unknown recall job {job}")),
        }
    }

    /// A recall attempt failed (media error or deadline): re-arm the
    /// cache's outstanding fetch and decide retry vs abandon.
    fn recall_failed(
        &mut self,
        job: u64,
        attempt: u32,
        failed_vms: SimMs,
        drive_free_vms: SimMs,
    ) -> Result<(), String> {
        let r = self.recall(job, "failure")?;
        self.disk.recall_failed(r);
        self.breaker.record_failure(failed_vms);
        let verdict = if self.retry.allows(attempt) {
            let rejoin_vms = drive_free_vms + self.retry.backoff_ms(job, attempt);
            Frame::RecallRetry { job, rejoin_vms }
        } else {
            self.abandoned += 1;
            self.jobs.remove(&job);
            self.live_recalls = self.live_recalls.saturating_sub(1);
            // The requester and every coalesced waiter fail now; the
            // file stays re-missable.
            self.disk.abandon(r, failed_vms);
            Frame::RecallAbandon { job }
        };
        verdict
            .write_to(&mut self.origin_w)
            .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
            .map_err(|e| format!("retry verdict: {e}"))
    }

    /// Graceful shutdown: stop admitting, drain every in-flight recall
    /// and flush, and report the writeback accounting.
    fn drain(&mut self) -> Result<Frame, String> {
        self.draining = true;
        self.advance_to(DRAIN_HORIZON_VMS)?;
        debug_assert!(self.jobs.is_empty(), "tape jobs survived the drain");
        if self.origin_report.is_none() {
            Frame::Drain
                .write_to(&mut self.origin_w)
                .and_then(|()| self.origin_w.flush().map_err(ProtoError::from))
                .map_err(|e| format!("origin drain: {e}"))?;
            match Frame::read_from(&mut self.origin_r) {
                Ok(Frame::OriginDrainDone {
                    outage_events,
                    outage_wait_vms,
                    slow_transfers,
                    flushed_bytes,
                    ..
                }) => {
                    debug_assert_eq!(
                        flushed_bytes, self.origin_flushed_bytes,
                        "flush accounting diverged"
                    );
                    self.origin_report = Some(OriginReport {
                        outage_events,
                        outage_wait_vms,
                        slow_transfers,
                    });
                }
                Ok(other) => return Err(format!("bad origin drain reply: {other:?}")),
                Err(e) => return Err(format!("origin drain read: {e}")),
            }
        }
        let counts = self.disk.counts();
        Ok(Frame::DrainDone {
            acked_writes: self.acked_writes,
            acked_write_bytes: self.acked_write_bytes,
            flush_jobs: counts.flush_jobs,
            flush_bytes: counts.flush_bytes,
            origin_flushed_bytes: self.origin_flushed_bytes,
        })
    }

    fn stats(&self) -> ServiceStats {
        let cs = self.disk.cache().stats();
        let counts = self.disk.counts();
        let rep = self.origin_report.unwrap_or_default();
        ServiceStats {
            requests: self.disk.refs().len() as u64,
            read_hits: cs.read_hits,
            read_misses: cs.read_misses,
            read_hit_bytes: cs.read_hit_bytes,
            read_miss_bytes: cs.read_miss_bytes,
            writes: cs.writes,
            evictions: cs.evictions,
            evicted_bytes: cs.evicted_bytes,
            stall_bytes: cs.stall_bytes,
            purge_flush_bytes: cs.purge_flush_bytes,
            writeback_bytes: cs.writeback_bytes,
            fetch_retries: self.disk.cache().fetch_retries(),
            recalls: counts.recalls,
            delayed_hits: counts.delayed_hits,
            flush_jobs: counts.flush_jobs,
            flush_bytes: counts.flush_bytes,
            abandoned: self.abandoned,
            outage_events: rep.outage_events,
            outage_wait_vms: rep.outage_wait_vms,
            slow_transfers: rep.slow_transfers,
        }
    }
}
