//! The disk side of the MSS data path: the staging-disk cache decision,
//! MSCP dispatch, spindle and channel-mover contention, and the
//! write-back flushes the cache sends to tape.
//!
//! [`DiskCore`] is the one implementation of this half, as
//! [`crate::tape::TapeCore`] is of the tape half. It is sans-IO: it
//! owns the [`DiskCache`], the miss-latency feedback, the per-reference
//! state, recall coalescing, and a [`DiskPath`], but no clock and no
//! event queue. Every call appends what the host must do next to an
//! outbox ([`DiskOut`]): deliver a local event later, run a tape job,
//! or report a resolved reference. Hosts drain it after each call, in
//! order, which keeps every event-insertion order of a monolithic
//! engine. Two hosts run it:
//!
//! * [`crate::HierarchySimulator`], which hands its tape jobs to a
//!   [`crate::tape::TapeCore`] on the same queue;
//! * `fmig-served`, which sends them as frames to `fmig-origin`.
//!
//! [`MssSimulator`](crate::MssSimulator) never consults a cache, so it
//! uses only the [`DiskPath`], with its own spindle choice.
//!
//! # Timing model
//!
//! Foreground references pay a lognormal MSCP dispatch overhead, then:
//! hits and writes queue on their file's spindle and a channel mover,
//! and reach their first byte after the disk seek; misses become tape
//! recalls, and the requester's first byte is the recall's first byte
//! (cut-through staging). References to a file whose recall is still
//! outstanding **coalesce** onto it (*delayed hits*): they skip
//! dispatch and reach their first byte at `max(arrival, recall first
//! byte)`. In lazy write-back mode a reference whose admission forced a
//! dirty **stall** eviction cannot start its disk service until that
//! flush lands on tape.

use std::collections::VecDeque;

use fmig_migrate::cache::{CacheConfig, CacheOp, DiskCache, ReadResult};
use fmig_migrate::eval::PreparedRef;
use fmig_migrate::feedback::LatencyFeedback;
use fmig_migrate::policy::MigrationPolicy;
use fmig_trace::{DeviceClass, FileId};
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::event::{SimMs, MS};
use crate::metrics::Utilisation;
use crate::noise::{Draws, Subject, STAGE_DISPATCH, STAGE_RATE};
use crate::pool::Pool;
use crate::tape::{TapeJob, TapeTier};

/// How one reference reached its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedBy {
    /// Read hit on fully resident data, served at disk latency.
    DiskHit,
    /// Read coalesced onto an outstanding tape recall (delayed hit).
    DelayedHit,
    /// Read miss served by its own tape recall.
    Recall,
    /// Write absorbed by the staging disk.
    DiskWrite,
}

/// The disk spindles and channel movers, with the seek and the
/// rate-jittered transfer. Jobs are named by host-chosen ids.
#[derive(Debug)]
pub struct DiskPath {
    spindles: Vec<Pool>,
    movers: Pool,
    seek_ms: SimMs,
    rate: f64,
    rate_jitter: f64,
}

impl DiskPath {
    /// The disk hardware of `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        DiskPath {
            spindles: vec![Pool::new(1); cfg.disk_spindles.max(1)],
            movers: Pool::new(cfg.movers),
            seek_ms: (cfg.disk_seek_s * MS as f64) as SimMs,
            rate: cfg.disk_rate,
            rate_jitter: cfg.rate_jitter,
        }
    }

    /// Number of spindles.
    pub fn spindles(&self) -> usize {
        self.spindles.len()
    }

    /// Queues job `j` on `spindle`, then for a mover. True when its
    /// transfer starts now; otherwise [`DiskPath::finish`] returns it
    /// later.
    pub fn start(&mut self, j: usize, spindle: usize, now: SimMs) -> bool {
        self.spindles[spindle].acquire(j, now) && self.movers.acquire(j, now)
    }

    /// A transfer on `spindle` ended: frees its mover, then its spindle.
    /// Returns the jobs whose transfers start now, in start order.
    pub fn finish(&mut self, spindle: usize, now: SimMs) -> [Option<usize>; 2] {
        let mover_next = self.movers.release(now);
        let spindle_next = self.spindles[spindle]
            .release(now)
            .filter(|&n| self.movers.acquire(n, now));
        [mover_next, spindle_next]
    }

    /// Times job `j`'s transfer of `size` bytes starting now: its first
    /// byte follows the seek; returns `(first byte, transfer end)`.
    pub fn transfer(&self, j: usize, size: u64, now: SimMs, draws: &mut Draws) -> (SimMs, SimMs) {
        let first_byte = now + self.seek_ms;
        let jitter = 1.0
            + draws.range(
                Subject::Disk(j as u64),
                STAGE_RATE,
                -self.rate_jitter,
                self.rate_jitter,
            );
        let xfer_ms = (size as f64 / (self.rate * jitter) * 1000.0) as SimMs;
        (first_byte, first_byte + xfer_ms.max(1))
    }

    /// Sets `u.disk_spindles` and adds the movers' busy units to
    /// `u.movers`, averaged over `[start_ms, end_ms]`.
    pub fn add_utilisation(&self, u: &mut Utilisation, start_ms: SimMs, end_ms: SimMs) {
        u.disk_spindles = self
            .spindles
            .iter()
            .map(|p| p.utilisation(start_ms, end_ms))
            .sum();
        u.movers += self.movers.utilisation(start_ms, end_ms);
    }
}

/// A local event of the disk side. The core asks for it through
/// [`DiskOut::Schedule`] and expects it back through
/// [`DiskCore::handle`].
#[derive(Debug, Clone, Copy)]
pub enum DiskEvent {
    /// MSCP overhead elapsed for a foreground reference.
    Dispatch(usize),
    /// A reference's disk transfer finished.
    DiskDone(usize),
}

/// What a tape job does for the disk side: the payload of the jobs in
/// [`DiskOut::Tape`], handed back through the core's tape transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeWork {
    /// The recall issued by this reference.
    Recall(usize),
    /// A write-back flush of `file`; `gated` is the reference stalled
    /// on it.
    Flush {
        /// The file flushed.
        file: FileId,
        /// The reference whose disk service waits for this flush.
        gated: Option<usize>,
    },
}

/// Something the host must do after a [`DiskCore`] call, in order.
#[derive(Debug, Clone)]
pub enum DiskOut {
    /// Deliver the event back through [`DiskCore::handle`] at this
    /// instant.
    Schedule(SimMs, DiskEvent),
    /// Run a tape job: a recall enters its drive queue now, at the given
    /// instant; a flush is queued for it. Boxed: tape work is the rare
    /// entry, and small entries keep the per-event outbox cheap.
    Tape(Box<TapeJob<TapeWork>>, SimMs),
    /// This reference reached its first byte, or failed; its
    /// [`DiskRef`] is final.
    Resolved(usize),
}

/// One reference's state, with the host's `payload`.
#[derive(Debug, Clone, Copy)]
pub struct DiskRef<P> {
    /// The host's handle for the reference.
    pub payload: P,
    /// Arrival instant.
    pub arrival_ms: SimMs,
    /// First-byte instant once resolved (never before arrival).
    pub first_byte_ms: SimMs,
    /// Dense file id.
    pub id: FileId,
    /// Bytes referenced.
    pub size: u64,
    /// True for writes.
    pub write: bool,
    /// How the cache classified it.
    pub served: ServedBy,
    /// The file's tape tier.
    pub tape: TapeTier,
    /// The host abandoned the recall serving it.
    pub failed: bool,
    done: bool,
    /// Stall flushes that must land on tape before disk service starts.
    gate: u32,
    /// MSCP dispatch finished while gated; start when the gate clears.
    ready: bool,
    /// Counter-noise mode only: the recall's sequence number, assigned
    /// at arrival so that a replica classifying in trace order assigns
    /// the same identities. Legacy mode assigns at dispatch.
    recall_seq: u64,
}

impl<P> DiskRef<P> {
    /// True once resolved.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Milliseconds from arrival to first byte (or failure).
    pub fn wait_ms(&self) -> SimMs {
        self.first_byte_ms - self.arrival_ms
    }

    /// Disk for hits and writes, the recall's tape tier otherwise.
    pub fn device(&self) -> DeviceClass {
        match self.served {
            ServedBy::DiskHit | ServedBy::DiskWrite => DeviceClass::Disk,
            ServedBy::DelayedHit | ServedBy::Recall => self.tape.device(),
        }
    }
}

/// The disk side's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    /// Reads that coalesced onto an outstanding recall.
    pub delayed_hits: u64,
    /// Tape recalls issued.
    pub recalls: u64,
    /// Flush jobs issued (write-behind, stall, and purge flushes).
    pub flush_jobs: u64,
    /// Bytes those flush jobs carried.
    pub flush_bytes: u64,
}

/// An in-flight recall that references may coalesce onto.
#[derive(Debug, Default)]
struct Outstanding {
    first_byte_ms: Option<SimMs>,
    waiters: Vec<usize>,
}

/// The disk-side engine; see the module docs.
#[derive(Debug)]
pub struct DiskCore<'p, P> {
    cfg: SimConfig,
    cache: DiskCache<'p>,
    /// Live miss-latency estimator: fed by every resolved recall,
    /// published to the cache before every reference.
    feedback: LatencyFeedback,
    refs: Vec<DiskRef<P>>,
    /// Recalls in flight (only with coalescing on), indexed by
    /// [`FileId`]: `Some` exactly while one is outstanding.
    outstanding: Vec<Option<Outstanding>>,
    /// Each file's tape tier, from the trace's device annotations.
    file_tape: Vec<Option<TapeTier>>,
    path: DiskPath,
    /// Reusable buffer for cache side effects.
    ops: Vec<CacheOp>,
    out: VecDeque<DiskOut>,
    /// Counter-noise mode: next arrival-order recall sequence number.
    next_recall_seq: u64,
    counts: DiskCounts,
}

impl<'p, P: Copy> DiskCore<'p, P> {
    /// A cold cache of `cache` geometry ranked by `policy`, in front of
    /// `cfg`'s disk hardware.
    pub fn new(cfg: &SimConfig, cache: CacheConfig, policy: &'p dyn MigrationPolicy) -> Self {
        DiskCore {
            cfg: cfg.clone(),
            cache: DiskCache::new(cache, policy),
            feedback: LatencyFeedback::new(),
            refs: Vec::new(),
            outstanding: Vec::new(),
            file_tape: Vec::new(),
            path: DiskPath::new(cfg),
            ops: Vec::new(),
            out: VecDeque::new(),
            next_recall_seq: 0,
            counts: DiskCounts::default(),
        }
    }

    /// The cache.
    pub fn cache(&self) -> &DiskCache<'p> {
        &self.cache
    }

    /// The miss-latency feedback as it stands.
    pub fn feedback(&self) -> &LatencyFeedback {
        &self.feedback
    }

    /// Every reference so far, by arrival index.
    pub fn refs(&self) -> &[DiskRef<P>] {
        &self.refs
    }

    /// The counters so far.
    pub fn counts(&self) -> DiskCounts {
        self.counts
    }

    /// The disk path, for utilisation.
    pub fn path(&self) -> &DiskPath {
        &self.path
    }

    /// The next thing the host must do, oldest first.
    pub fn pop_out(&mut self) -> Option<DiskOut> {
        self.out.pop_front()
    }

    /// Classifies a reference arriving at `pr.time` through the cache
    /// and turns the cache's side effects into flushes. The reference's
    /// index is the length of [`DiskCore::refs`] before the call.
    pub fn arrive(&mut self, pr: &PreparedRef, payload: P, draws: &mut Draws) {
        let t_ms = pr.time * MS;
        let r = self.refs.len();
        let f = pr.id.index();
        // A file's archival tier: shelf files restage from the shelf,
        // everything else (including files the trace saw on disk) lives
        // in the silo.
        let tape = TapeTier::of(pr.device).unwrap_or(TapeTier::Silo);
        if f >= self.file_tape.len() {
            self.file_tape.resize(f + 1, None);
            self.outstanding.resize_with(f + 1, || None);
        }
        self.file_tape[f] = Some(tape);
        // Publish the miss-wait estimate for this file's tier and size
        // before classification: the touch stamps it onto the entry,
        // where latency-aware policies read it at the next purge.
        self.cache
            .set_est_miss_wait_s(self.feedback.estimate(tape.device(), pr.size));
        let coalescing = self.cfg.recall_coalescing;
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        let push = &mut |op| ops.push(op);
        let served = if pr.write {
            self.cache
                .write_with(pr.id, pr.size, pr.time, pr.next_use, push);
            ServedBy::DiskWrite
        } else {
            match self
                .cache
                .read_with(pr.id, pr.size, pr.time, pr.next_use, push)
            {
                ReadResult::Hit => ServedBy::DiskHit,
                // The bytes are already on the way, even when the file
                // was evicted (or bypassed the cache) meanwhile.
                ReadResult::DelayedHit | ReadResult::Miss
                    if coalescing && self.outstanding[f].is_some() =>
                {
                    ServedBy::DelayedHit
                }
                // A miss; or a delayed hit that pays its own fetch, with
                // coalescing off or after its recall was abandoned.
                ReadResult::DelayedHit | ReadResult::Miss => ServedBy::Recall,
            }
        };
        let recall_seq = if self.cfg.counter_noise && served == ServedBy::Recall {
            self.next_recall_seq += 1;
            self.next_recall_seq - 1
        } else {
            0
        };
        self.refs.push(DiskRef {
            payload,
            arrival_ms: t_ms,
            first_byte_ms: t_ms,
            id: pr.id,
            size: pr.size,
            write: pr.write,
            served,
            tape,
            failed: false,
            done: false,
            gate: 0,
            ready: false,
            recall_seq,
        });

        for &op in &ops {
            match op {
                CacheOp::Fetch { .. } | CacheOp::Drop { .. } => {}
                CacheOp::Writeback { id, bytes } => {
                    let at = t_ms + (self.cfg.writeback_delay_s * MS as f64) as SimMs;
                    self.flush(id, bytes, None, at);
                }
                CacheOp::StallFlush { id, bytes } => {
                    // Only disk-served foregrounds stall on the flush; a
                    // miss's recall is the longer pole and proceeds.
                    let gated = matches!(served, ServedBy::DiskHit | ServedBy::DiskWrite);
                    if gated {
                        self.refs[r].gate += 1;
                    }
                    self.flush(id, bytes, gated.then_some(r), t_ms);
                }
                CacheOp::PurgeFlush { id, bytes } => self.flush(id, bytes, None, t_ms),
            }
        }
        self.ops = ops;

        if served == ServedBy::DelayedHit {
            self.counts.delayed_hits += 1;
            let o = self.outstanding[f]
                .as_mut()
                .expect("a delayed hit joins an outstanding recall");
            match o.first_byte_ms {
                // Data already streaming to disk: served on arrival.
                Some(fb) => self.resolve(r, fb),
                None => o.waiters.push(r),
            }
        } else {
            let d = draws.lognormal_ms(
                Subject::Ref(r as u64),
                STAGE_DISPATCH,
                self.cfg.mscp_overhead_median_s,
                self.cfg.mscp_overhead_sigma,
            );
            self.out
                .push_back(DiskOut::Schedule(t_ms + d, DiskEvent::Dispatch(r)));
            if served == ServedBy::Recall && coalescing {
                self.outstanding[f] = Some(Outstanding::default());
            }
        }
    }

    /// Queues a write-back flush of `file` for `at`.
    fn flush(&mut self, file: FileId, bytes: u64, gated: Option<usize>, at: SimMs) {
        let tier = self
            .file_tape
            .get(file.index())
            .copied()
            .flatten()
            .unwrap_or(TapeTier::Silo);
        // Spawn order is classification order, which every replica of
        // the trace agrees on.
        let seq = self.counts.flush_jobs;
        self.counts.flush_jobs += 1;
        self.counts.flush_bytes += bytes;
        let job = TapeJob::new(TapeWork::Flush { file, gated }, tier, true, bytes, seq);
        self.out.push_back(DiskOut::Tape(Box::new(job), at));
    }

    /// Runs one due local event: dispatch starts disk service or issues
    /// the recall; a finished transfer hands its mover and spindle on.
    pub fn handle(&mut self, now: SimMs, ev: DiskEvent, draws: &mut Draws) {
        match ev {
            DiskEvent::Dispatch(r) => {
                let rf = &mut self.refs[r];
                match rf.served {
                    ServedBy::DiskHit | ServedBy::DiskWrite => {
                        rf.ready = true;
                        if rf.gate == 0 {
                            self.start_disk(r, now, draws);
                        }
                    }
                    ServedBy::Recall => {
                        // The sequence number keys the recall's draws and
                        // its read-error decisions.
                        let seq = if self.cfg.counter_noise {
                            rf.recall_seq
                        } else {
                            self.counts.recalls
                        };
                        self.counts.recalls += 1;
                        let job = TapeJob::new(TapeWork::Recall(r), rf.tape, false, rf.size, seq);
                        self.out.push_back(DiskOut::Tape(Box::new(job), now));
                    }
                    ServedBy::DelayedHit => unreachable!("delayed hits are never dispatched"),
                }
            }
            DiskEvent::DiskDone(r) => {
                let spindle = self.spindle(r);
                for n in self.path.finish(spindle, now).into_iter().flatten() {
                    self.transfer(n, now, draws);
                }
            }
        }
    }

    /// Files of one spindle share it by id.
    fn spindle(&self, r: usize) -> usize {
        self.refs[r].id.index() % self.path.spindles()
    }

    fn start_disk(&mut self, r: usize, now: SimMs, draws: &mut Draws) {
        if self.path.start(r, self.spindle(r), now) {
            self.transfer(r, now, draws);
        }
    }

    fn transfer(&mut self, r: usize, now: SimMs, draws: &mut Draws) {
        let (first_byte, end) = self.path.transfer(r, self.refs[r].size, now, draws);
        self.resolve(r, first_byte);
        self.out
            .push_back(DiskOut::Schedule(end, DiskEvent::DiskDone(r)));
    }

    /// The recall issued by `r` reached its first byte: it serves its
    /// issuer and every waiter coalesced onto it.
    pub fn recall_first_byte(&mut self, r: usize, at: SimMs) {
        self.resolve(r, at);
        let waiters = match self.outstanding[self.refs[r].id.index()].as_mut() {
            Some(o) => {
                o.first_byte_ms = Some(at);
                std::mem::take(&mut o.waiters)
            }
            None => Vec::new(),
        };
        for w in waiters {
            self.resolve(w, at);
        }
    }

    /// A recall attempt for `r` failed: the cache re-arms its
    /// outstanding fetch, and waiters stay coalesced for the retry.
    pub fn recall_failed(&mut self, r: usize) {
        self.cache.fetch_failed(self.refs[r].id);
    }

    /// The host gave up on the recall issued by `r` at `at`: its issuer
    /// and every coalesced waiter fail, and the next read of the file
    /// issues a fresh recall.
    pub fn abandon(&mut self, r: usize, at: SimMs) {
        let waiters = self.outstanding[self.refs[r].id.index()]
            .take()
            .map_or_else(Vec::new, |o| o.waiters);
        for w in std::iter::once(r).chain(waiters) {
            self.refs[w].failed = true;
            self.resolve(w, at);
        }
    }

    /// A tape job finished its transfer at `at`: a recalled file is
    /// fully staged, and a flush releases the reference it gated.
    pub fn tape_done(&mut self, work: TapeWork, at: SimMs, draws: &mut Draws) {
        match work {
            TapeWork::Recall(r) => {
                let file = self.refs[r].id;
                self.cache.fetch_complete(file);
                if let Some(o) = self.outstanding[file.index()].take() {
                    debug_assert!(o.waiters.is_empty(), "waiters resolve at first byte");
                }
            }
            TapeWork::Flush { gated: Some(r), .. } => {
                let rf = &mut self.refs[r];
                rf.gate -= 1;
                if rf.gate == 0 && rf.ready {
                    self.start_disk(r, at, draws);
                }
            }
            TapeWork::Flush { gated: None, .. } => {}
        }
    }

    /// Finalizes a reference's first byte. A measured recall wait
    /// (retries, outages, and queueing included) closes the feedback
    /// loop: it updates the estimate future victim rankings see.
    fn resolve(&mut self, r: usize, first_byte_ms: SimMs) {
        let rf = &mut self.refs[r];
        debug_assert!(!rf.done, "reference resolved twice");
        rf.first_byte_ms = first_byte_ms.max(rf.arrival_ms);
        rf.done = true;
        if rf.served == ServedBy::Recall && !rf.failed {
            let wait_s = rf.wait_ms() as f64 / MS as f64;
            self.feedback.record(rf.tape.device(), rf.size, wait_s);
        }
        self.out.push_back(DiskOut::Resolved(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_migrate::policy::Lru;

    fn silo_read(id: u32, time: i64) -> PreparedRef {
        PreparedRef {
            id: FileId::new(id),
            size: 1_000_000,
            write: false,
            time,
            next_use: None,
            device: DeviceClass::TapeSilo,
        }
    }

    fn drain<P: Copy>(core: &mut DiskCore<'_, P>) -> Vec<DiskOut> {
        std::iter::from_fn(|| core.pop_out()).collect()
    }

    #[test]
    fn the_path_hands_a_freed_spindle_to_its_next_job() {
        let cfg = SimConfig {
            disk_spindles: 1,
            movers: 1,
            ..SimConfig::default()
        };
        let mut path = DiskPath::new(&cfg);
        assert!(path.start(0, 0, 0));
        assert!(!path.start(1, 0, 0), "job 1 queues on the busy spindle");
        assert_eq!(path.finish(0, 10), [None, Some(1)]);
        assert_eq!(path.finish(0, 20), [None, None]);
    }

    #[test]
    fn an_abandoned_recall_fails_its_waiters_and_the_next_read_reissues() {
        let lru = Lru;
        let cfg = SimConfig::default().with_counter_noise(true);
        let mut core = DiskCore::new(&cfg, CacheConfig::with_capacity(1 << 30), &lru);
        let mut draws = Draws::new(cfg.seed, true);

        core.arrive(&silo_read(7, 0), 'a', &mut draws);
        let [DiskOut::Schedule(at, DiskEvent::Dispatch(0))] = drain(&mut core)[..] else {
            panic!("a miss is dispatched");
        };
        core.handle(at, DiskEvent::Dispatch(0), &mut draws);
        let [DiskOut::Tape(ref job, _)] = drain(&mut core)[..] else {
            panic!("dispatch issues the recall");
        };
        assert_eq!(
            (job.payload, job.write, job.seq),
            (TapeWork::Recall(0), false, 0)
        );

        core.arrive(&silo_read(7, 1), 'b', &mut draws);
        assert!(
            drain(&mut core).is_empty(),
            "the re-read waits on the recall"
        );
        assert_eq!(core.refs()[1].served, ServedBy::DelayedHit);

        core.recall_failed(0);
        core.abandon(0, 5_000);
        let outs = drain(&mut core);
        assert!(matches!(
            outs[..],
            [DiskOut::Resolved(0), DiskOut::Resolved(1)]
        ));
        assert!(core.refs()[..2].iter().all(|r| r.failed && r.done()));
        assert_eq!(core.refs()[1].wait_ms(), 4_000);

        // The cache still counts the fetch as in flight, but nothing is
        // recalling the file any more: the next read issues a recall.
        core.arrive(&silo_read(7, 9), 'c', &mut draws);
        assert_eq!(core.refs()[2].served, ServedBy::Recall);
        assert_eq!(core.counts().delayed_hits, 1);
        // A failed recall measured nothing: the estimate is untouched.
        let est = core.feedback().estimate(DeviceClass::TapeSilo, 1_000_000);
        assert_eq!(est, 0.0);
    }
}
