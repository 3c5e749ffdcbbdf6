//! The tape path: drive queue, robot or operator mount, seek, tape
//! mover, cartridge append, and unload — the stages between a request
//! reaching the MSS and its first byte that §5.1.1 of the paper blames
//! for most of the latency.
//!
//! [`TapeCore`] is the one implementation of this physics. It is
//! sans-IO: it owns the drive, mounter, and tape-mover pools, the
//! append-cartridge state, and the fault schedule's outage holds, read
//! errors, and slow-drive windows, but it keeps no clock and no event
//! queue. A [`TapeHost`] supplies those, plus the stage-timing draw
//! source, and is called back as jobs progress. Three hosts run it:
//!
//! * [`crate::MssSimulator`], the open-loop trace replay, with its
//!   shared sequential RNG;
//! * [`crate::HierarchySimulator`], the closed loop, with the shared
//!   RNG or keyed counter noise per [`SimConfig::counter_noise`];
//! * `fmig-origin`, the live service's tape server, with keyed counter
//!   noise and callbacks that become protocol frames.
//!
//! A host that keeps a single insertion-ordered queue for its own
//! events and the core's replays identically to a monolithic engine.

use fmig_migrate::eval::DegradedOutcome;
use fmig_trace::DeviceClass;

use crate::config::SimConfig;
use crate::event::{SimMs, MS};
use crate::fault::{FaultSchedule, FaultTarget, OutageWindow};
use crate::metrics::{LatencyHistogram, Utilisation};
use crate::noise::{Draws, Subject, STAGE_MOUNT, STAGE_RATE, STAGE_SEEK};
use crate::pool::Pool;

/// A tape tier: robot-mounted silo cartridges or operator-mounted
/// shelf cartridges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeTier {
    /// The StorageTek silo.
    Silo,
    /// Operator-mounted shelf tape.
    Manual,
}

impl TapeTier {
    /// The tape tier of `device`, or `None` for disk.
    pub fn of(device: DeviceClass) -> Option<Self> {
        match device {
            DeviceClass::Disk => None,
            DeviceClass::TapeSilo => Some(TapeTier::Silo),
            DeviceClass::TapeManual => Some(TapeTier::Manual),
        }
    }

    /// The device class of this tier.
    pub fn device(self) -> DeviceClass {
        match self {
            TapeTier::Silo => DeviceClass::TapeSilo,
            TapeTier::Manual => DeviceClass::TapeManual,
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// A tape-path event. The core hands it to [`TapeHost::schedule`] and
/// expects it back through [`TapeCore::handle`] when it falls due.
#[derive(Debug, Clone, Copy)]
pub enum TapeEvent {
    /// A job (re)enters its drive queue.
    Join(usize),
    /// Media mount finished.
    MountDone(usize),
    /// Tape positioned at the data, or at the start of a fresh append
    /// cartridge.
    SeekDone(usize),
    /// Data transfer finished.
    TransferDone(usize),
    /// The drive finished unloading.
    DriveFree(usize),
    /// A fault-schedule outage window opens.
    OutageStart(usize),
    /// An outage hold's repair finished.
    OutageEnd(usize),
}

/// One tape read (a recall) or write (an append) with the host's
/// `payload` attached.
#[derive(Debug, Clone, Copy)]
pub struct TapeJob<P> {
    /// The host's handle for the job, passed back in every callback.
    pub payload: P,
    /// Tier whose drives serve the job.
    pub tier: TapeTier,
    /// True for appends, false for reads.
    pub write: bool,
    /// Bytes transferred.
    pub size: u64,
    /// Identity: issue order for reads, spawn order for writes. It keys
    /// keyed stage draws and the fault schedule's read-error decisions.
    pub seq: u64,
    /// A read attempt whose first byte would land after this instant
    /// fails instead. `SimMs::MAX` disables the deadline.
    pub deadline_ms: SimMs,
    /// Failed attempts so far.
    pub attempts: u32,
    /// This attempt was chosen to fail: set at transfer start, held by
    /// a failed attempt until it rejoins its drive queue.
    failing: bool,
    /// When the job entered its current queue, for outage attribution.
    queued_ms: SimMs,
}

impl<P> TapeJob<P> {
    /// A job with no deadline and no failed attempts.
    pub fn new(payload: P, tier: TapeTier, write: bool, size: u64, seq: u64) -> Self {
        TapeJob {
            payload,
            tier,
            write,
            size,
            seq,
            deadline_ms: SimMs::MAX,
            attempts: 0,
            failing: false,
            queued_ms: 0,
        }
    }

    /// The same job with a first-byte deadline.
    pub fn with_deadline(self, deadline_ms: SimMs) -> Self {
        TapeJob {
            deadline_ms,
            ..self
        }
    }

    fn subject(&self) -> Subject {
        if self.write {
            Subject::Flush(self.seq)
        } else {
            Subject::Recall {
                seq: self.seq,
                attempt: self.attempts,
            }
        }
    }
}

/// What a host supplies to the tape core. All calls are statically
/// dispatched.
pub trait TapeHost<P> {
    /// Queues `ev` at `at`. Events due at the same instant must come
    /// back in the order they were scheduled.
    fn schedule(&mut self, at: SimMs, ev: TapeEvent);

    /// The stage-timing draw source.
    fn draws(&mut self) -> &mut Draws;

    /// `job` reached its first byte at `at`. An attempt fated to fail
    /// never does.
    fn first_byte(&mut self, job: &TapeJob<P>, at: SimMs);

    /// `job`'s transfer finished at `at`; its drive starts unloading.
    fn transfer_end(&mut self, _job: &TapeJob<P>, _at: SimMs) {}

    /// A read attempt of `job` failed at `at` (a media error or a missed
    /// deadline); `job.attempts` already counts it. Its drive is free
    /// again at `drive_free_ms`. Returns when the job rejoins its drive
    /// queue (no earlier than `drive_free_ms`), or `None` to abandon it.
    fn failed(&mut self, _job: &TapeJob<P>, _at: SimMs, _drive_free_ms: SimMs) -> Option<SimMs> {
        None
    }
}

/// A pool slot: a job, or an outage window parking one unit.
#[derive(Debug, Clone, Copy)]
enum Slot<P> {
    Job(TapeJob<P>),
    Hold(OutageWindow),
}

/// The tape-path engine; see the module docs.
#[derive(Debug)]
pub struct TapeCore<P> {
    cfg: SimConfig,
    schedule: FaultSchedule,
    /// Live jobs and holds, indexed by the ids the pools queue.
    slots: Vec<Slot<P>>,
    /// Slots whose job or hold has finished, for reuse.
    free: Vec<usize>,
    /// Drives, per tier.
    drives: [Pool; 2],
    /// Robot arms and operators, per tier.
    mounters: [Pool; 2],
    movers: Pool,
    /// Bytes left on the mounted append cartridge, per tier; starts
    /// empty so the first write mounts.
    cart_remaining: [u64; 2],
    /// Counted on every run; `read_retries` counts every failed attempt.
    degraded: DegradedOutcome,
    write_queue_wait: LatencyHistogram,
}

impl<P: Copy> TapeCore<P> {
    /// Builds the core over `cfg`'s tape hardware and schedules the
    /// fault plan's outage windows through `host`.
    pub fn new(cfg: &SimConfig, schedule: FaultSchedule, host: &mut impl TapeHost<P>) -> Self {
        for (w, window) in schedule.windows().iter().enumerate() {
            host.schedule(window.start_ms, TapeEvent::OutageStart(w));
        }
        TapeCore {
            cfg: cfg.clone(),
            schedule,
            slots: Vec::new(),
            free: Vec::new(),
            drives: [Pool::new(cfg.silo_drives), Pool::new(cfg.manual_drives)],
            mounters: [Pool::new(cfg.robot_arms), Pool::new(cfg.operators)],
            movers: Pool::new(cfg.tape_movers),
            cart_remaining: [0, 0],
            degraded: DegradedOutcome::default(),
            write_queue_wait: LatencyHistogram::new(),
        }
    }

    /// The fault schedule in force.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Outage, retry, and slow-transfer counters so far.
    pub fn degraded(&self) -> DegradedOutcome {
        self.degraded
    }

    /// Time write jobs spent queued for a drive, seconds.
    pub fn write_queue_wait(&self) -> &LatencyHistogram {
        &self.write_queue_wait
    }

    /// Mean busy units of the tape pools over `[start_ms, end_ms]`;
    /// `disk_spindles` is zero and `movers` counts tape movers only.
    pub fn utilisation(&self, start_ms: SimMs, end_ms: SimMs) -> Utilisation {
        Utilisation {
            disk_spindles: 0.0,
            silo_drives: self.drives[0].utilisation(start_ms, end_ms),
            manual_drives: self.drives[1].utilisation(start_ms, end_ms),
            robot_arms: self.mounters[0].utilisation(start_ms, end_ms),
            operators: self.mounters[1].utilisation(start_ms, end_ms),
            movers: self.movers.utilisation(start_ms, end_ms),
        }
    }

    /// Puts `job` in its drive queue now.
    pub fn admit(&mut self, job: TapeJob<P>, now: SimMs, host: &mut impl TapeHost<P>) {
        let j = self.occupy(Slot::Job(job));
        self.handle(now, TapeEvent::Join(j), host);
    }

    /// Puts `job` in its drive queue at `at`.
    pub fn admit_at(&mut self, job: TapeJob<P>, at: SimMs, host: &mut impl TapeHost<P>) {
        let j = self.occupy(Slot::Job(job));
        host.schedule(at, TapeEvent::Join(j));
    }

    /// Runs one due event.
    pub fn handle(&mut self, now: SimMs, ev: TapeEvent, host: &mut impl TapeHost<P>) {
        match ev {
            TapeEvent::Join(j) => {
                let job = self.job(j);
                job.queued_ms = now;
                job.failing = false;
                let tier = job.tier.slot();
                if self.drives[tier].acquire(j, now) {
                    self.drive_granted(j, now, host);
                }
            }
            TapeEvent::MountDone(j) => self.mount_done(j, now, host),
            TapeEvent::SeekDone(j) => {
                if self.movers.acquire(j, now) {
                    self.mover_granted(j, now, host);
                }
            }
            TapeEvent::TransferDone(j) => self.transfer_done(j, now, host),
            TapeEvent::DriveFree(j) => {
                let job = *self.job(j);
                if let Some(n) = self.drives[job.tier.slot()].release(now) {
                    self.drive_granted(n, now, host);
                }
                // Done, unless a failed attempt waits to rejoin.
                if !job.failing {
                    self.free.push(j);
                }
            }
            TapeEvent::OutageStart(w) => {
                // The hold contends for a unit like any job: a busy unit
                // "fails" as it comes free.
                let window = self.schedule.windows()[w];
                let j = self.occupy(Slot::Hold(window));
                if self.held_pool(window.target).acquire(j, now) {
                    self.hold_granted(j, now, host);
                }
            }
            TapeEvent::OutageEnd(j) => self.outage_release(j, now, host),
        }
    }

    fn occupy(&mut self, slot: Slot<P>) -> usize {
        match self.free.pop() {
            Some(j) => {
                self.slots[j] = slot;
                j
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    fn job(&mut self, j: usize) -> &mut TapeJob<P> {
        match &mut self.slots[j] {
            Slot::Job(job) => job,
            Slot::Hold(_) => unreachable!("outage holds never reach the transfer stages"),
        }
    }

    fn hold_window(&self, j: usize) -> OutageWindow {
        match self.slots[j] {
            Slot::Hold(window) => window,
            Slot::Job(_) => unreachable!("slot {j} is a job, not an outage hold"),
        }
    }

    fn held_pool(&mut self, target: FaultTarget) -> &mut Pool {
        match target {
            FaultTarget::SiloDrive => &mut self.drives[0],
            FaultTarget::ManualDrive => &mut self.drives[1],
            FaultTarget::RobotArm => &mut self.mounters[0],
            FaultTarget::Operator => &mut self.mounters[1],
        }
    }

    /// A hold owns its unit: park it until the repair time, or hand it
    /// straight back when the window elapsed while the hold queued.
    fn hold_granted(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        let end_ms = self.hold_window(j).end_ms;
        if now >= end_ms {
            self.outage_release(j, now, host);
        } else {
            self.degraded.outage_events += 1;
            host.schedule(end_ms, TapeEvent::OutageEnd(j));
        }
    }

    /// Returns a hold's unit and wakes the next waiter.
    fn outage_release(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        let target = self.hold_window(j).target;
        if let Some(n) = self.held_pool(target).release(now) {
            match target {
                FaultTarget::SiloDrive | FaultTarget::ManualDrive => {
                    self.drive_granted(n, now, host)
                }
                FaultTarget::RobotArm | FaultTarget::Operator => self.mount_started(n, now, host),
            }
        }
        self.free.push(j);
    }

    /// Drive held: append to the mounted cartridge, or mount. Reads
    /// always mount the file's cartridge; writes mount a fresh append
    /// cartridge when the current one is full.
    fn drive_granted(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        let Slot::Job(job) = &mut self.slots[j] else {
            return self.hold_granted(j, now, host);
        };
        let queued_ms = std::mem::replace(&mut job.queued_ms, now);
        let job = *job;
        if job.write {
            self.write_queue_wait
                .record((now - queued_ms).max(0) as f64 / MS as f64);
        }
        self.attribute_outage_wait(job.tier, queued_ms, now);
        let slot = job.tier.slot();
        if job.write && self.cart_remaining[slot] >= job.size {
            if self.movers.acquire(j, now) {
                self.mover_granted(j, now, host);
            }
        } else if self.mounters[slot].acquire(j, now) {
            self.mount_started(j, now, host);
        }
    }

    /// Robot arm or operator engaged: schedule the mount completion.
    fn mount_started(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        let Slot::Job(job) = self.slots[j] else {
            return self.hold_granted(j, now, host);
        };
        self.attribute_outage_wait(job.tier, job.queued_ms, now);
        let cfg = &self.cfg;
        let d = match job.tier {
            TapeTier::Silo => {
                host.draws()
                    .jitter_ms(job.subject(), STAGE_MOUNT, cfg.robot_mount_s, 0.2)
            }
            TapeTier::Manual => host.draws().lognormal_ms(
                job.subject(),
                STAGE_MOUNT,
                cfg.operator_mount_median_s,
                cfg.operator_mount_sigma,
            ),
        };
        host.schedule(now + d, TapeEvent::MountDone(j));
    }

    /// Adds the slice of a queue wait that overlapped an outage window
    /// of the job's tier to the degraded counters.
    fn attribute_outage_wait(&mut self, tier: TapeTier, queued_ms: SimMs, now: SimMs) {
        let overlap = self
            .schedule
            .outage_overlap_ms(tier.device(), queued_ms, now);
        if overlap > 0 {
            self.degraded.outage_wait_s += overlap as f64 / MS as f64;
        }
    }

    /// Mount finished: hand the mounter over and position the tape.
    fn mount_done(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        let job = *self.job(j);
        let slot = job.tier.slot();
        if let Some(n) = self.mounters[slot].release(now) {
            self.mount_started(n, now, host);
        }
        let d = if job.write {
            // Fresh append cartridge: position to the start of tape.
            self.cart_remaining[slot] = self.cfg.cartridge_bytes;
            host.draws().jitter_ms(job.subject(), STAGE_SEEK, 3.0, 0.3)
        } else {
            // Fresh mount: land at a uniform tape position.
            let seek_s = host.draws().range(
                job.subject(),
                STAGE_SEEK,
                self.cfg.tape_seek_min_s,
                self.cfg.tape_seek_max_s,
            );
            (seek_s * MS as f64) as SimMs
        };
        host.schedule(now + d, TapeEvent::SeekDone(j));
    }

    /// The transfer begins: the job's first byte, unless this read
    /// attempt is fated to fail. A failing attempt reads the tape but
    /// delivers garbage, so nobody is served and the failure surfaces
    /// at transfer end.
    fn mover_granted(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        let job = *self.job(j);
        if !job.write && (self.schedule.read_fails(job.seq, job.attempts) || now > job.deadline_ms)
        {
            self.job(j).failing = true;
        } else {
            host.first_byte(&job, now);
        }
        // A factor of exactly 1.0 (no slow window) leaves the rate
        // arithmetic bit-identical to a fault-free run.
        let factor = self.schedule.rate_factor_at(job.tier.device(), now);
        if factor < 1.0 {
            self.degraded.slow_transfers += 1;
        }
        let rate = match job.tier {
            TapeTier::Silo => self.cfg.silo_rate,
            TapeTier::Manual => self.cfg.manual_rate,
        } * factor;
        let jitter = 1.0
            + host.draws().range(
                job.subject(),
                STAGE_RATE,
                -self.cfg.rate_jitter,
                self.cfg.rate_jitter,
            );
        let xfer_ms = (job.size as f64 / (rate * jitter) * 1000.0) as SimMs;
        host.schedule(now + xfer_ms.max(1), TapeEvent::TransferDone(j));
        if job.write {
            let slot = job.tier.slot();
            self.cart_remaining[slot] = self.cart_remaining[slot].saturating_sub(job.size);
        }
    }

    /// Transfer complete: release the mover, then unload the drive. A
    /// failed attempt asks the host whether and when to retry.
    fn transfer_done(&mut self, j: usize, now: SimMs, host: &mut impl TapeHost<P>) {
        if let Some(n) = self.movers.release(now) {
            self.mover_granted(n, now, host);
        }
        let drive_free = now + (self.cfg.tape_unload_s * MS as f64) as SimMs;
        let job = self.job(j);
        if job.failing {
            job.attempts += 1;
            let job = *job;
            self.degraded.read_retries += 1;
            host.schedule(drive_free, TapeEvent::DriveFree(j));
            match host.failed(&job, now, drive_free) {
                Some(rejoin) => host.schedule(rejoin.max(drive_free), TapeEvent::Join(j)),
                None => self.job(j).failing = false,
            }
        } else {
            let job = *job;
            host.transfer_end(&job, now);
            host.schedule(drive_free, TapeEvent::DriveFree(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::fault::FaultPlan;

    /// A host that records every callback and answers failures from a
    /// script of verdicts.
    struct Recorder {
        queue: EventQueue<TapeEvent>,
        draws: Draws,
        first_bytes: Vec<(u64, SimMs)>,
        ends: Vec<(u64, SimMs)>,
        failures: Vec<(u64, u32, SimMs, SimMs)>,
        verdicts: Vec<Option<SimMs>>,
    }

    impl Recorder {
        fn new(verdicts: Vec<Option<SimMs>>) -> Self {
            Recorder {
                queue: EventQueue::new(),
                draws: Draws::new(7, true),
                first_bytes: Vec::new(),
                ends: Vec::new(),
                failures: Vec::new(),
                verdicts,
            }
        }

        fn run(&mut self, core: &mut TapeCore<u64>) {
            while let Some((now, ev)) = self.queue.pop() {
                core.handle(now, ev, self);
            }
        }
    }

    impl TapeHost<u64> for Recorder {
        fn schedule(&mut self, at: SimMs, ev: TapeEvent) {
            self.queue.push(at, ev);
        }

        fn draws(&mut self) -> &mut Draws {
            &mut self.draws
        }

        fn first_byte(&mut self, job: &TapeJob<u64>, at: SimMs) {
            self.first_bytes.push((job.payload, at));
        }

        fn transfer_end(&mut self, job: &TapeJob<u64>, at: SimMs) {
            self.ends.push((job.payload, at));
        }

        fn failed(&mut self, job: &TapeJob<u64>, at: SimMs, drive_free_ms: SimMs) -> Option<SimMs> {
            self.failures
                .push((job.payload, job.attempts, at, drive_free_ms));
            self.verdicts.remove(0)
        }
    }

    fn core(schedule: FaultSchedule, host: &mut Recorder) -> TapeCore<u64> {
        TapeCore::new(&SimConfig::default().with_seed(7), schedule, host)
    }

    fn read(id: u64, size: u64) -> TapeJob<u64> {
        TapeJob::new(id, TapeTier::Silo, false, size, id)
    }

    #[test]
    fn tiers_convert_from_tape_devices_only() {
        assert_eq!(TapeTier::of(DeviceClass::Disk), None);
        for tier in [TapeTier::Silo, TapeTier::Manual] {
            assert_eq!(TapeTier::of(tier.device()), Some(tier));
        }
    }

    #[test]
    fn a_silo_read_reaches_first_byte_then_completes() {
        let mut host = Recorder::new(vec![]);
        let mut tape = core(FaultSchedule::none(), &mut host);
        tape.admit_at(read(10, 50_000_000), 1_000, &mut host);
        host.run(&mut tape);
        let [(10, fb)] = host.first_bytes[..] else {
            panic!("first bytes: {:?}", host.first_bytes);
        };
        let [(10, done)] = host.ends[..] else {
            panic!("ends: {:?}", host.ends);
        };
        // Mount (~7 s) plus seek (10–90 s) precede the first byte; the
        // ~20 s transfer precedes completion.
        assert!(fb >= 1_000 + 7_000, "first byte too early: {fb}");
        assert!(done > fb + 10_000);
        assert_eq!(tape.drives[0].in_use(), 0, "the drive unloads");
    }

    #[test]
    fn appends_to_a_mounted_cartridge_skip_the_mount() {
        let mut host = Recorder::new(vec![]);
        let mut tape = core(FaultSchedule::none(), &mut host);
        let write = |id| TapeJob::new(id, TapeTier::Silo, true, 1_000_000, id);
        tape.admit_at(write(1), 0, &mut host);
        host.run(&mut tape);
        let first = host.ends[0].1;
        // The second write starts after the first unloaded, on the
        // cartridge that is still mounted: no mount, no seek.
        let start = first + 10_000;
        tape.admit_at(write(2), start, &mut host);
        host.run(&mut tape);
        let second = host.ends[1].1 - start;
        assert!(
            second < first / 2,
            "append should skip mount+seek: first {first} ms, second {second} ms"
        );
        assert_eq!(tape.write_queue_wait().count(), 2);
        assert_eq!(tape.slots.len(), 1, "a finished job's slot is reused");
    }

    #[test]
    fn failed_attempts_ask_the_host_and_honor_the_verdict() {
        // Attempt 0 always fails; attempt 1 always succeeds.
        let plan = FaultPlan {
            outages: vec![],
            read_error_prob: 1.0,
            max_read_retries: 1,
            retry_backoff_s: 45.0,
            slow_drive: None,
        };
        let schedule = FaultSchedule::materialize(&plan, 7, 0, 1 << 40);

        let mut host = Recorder::new(vec![Some(0)]);
        let mut tape = core(schedule.clone(), &mut host);
        tape.admit_at(read(5, 1_000_000), 0, &mut host);
        host.run(&mut tape);
        let [(5, 1, failed, drive_free)] = host.failures[..] else {
            panic!("failures: {:?}", host.failures);
        };
        assert_eq!(drive_free - failed, 5_000, "unload precedes the rejoin");
        assert_eq!(host.first_bytes.len(), 1, "only the retry is served");
        assert_eq!(host.ends.len(), 1);
        assert_eq!(tape.degraded().read_retries, 1);
        assert_eq!(
            tape.free,
            [0],
            "the slot outlives the failure, not the retry"
        );

        let mut host = Recorder::new(vec![None]);
        let mut tape = core(schedule, &mut host);
        tape.admit_at(read(6, 1_000_000), 0, &mut host);
        host.run(&mut tape);
        assert!(host.first_bytes.is_empty() && host.ends.is_empty());
        assert_eq!(tape.drives[0].in_use(), 0, "abandon still frees the drive");
        assert_eq!(tape.free, [0]);
    }

    #[test]
    fn a_missed_deadline_fails_the_attempt() {
        let mut host = Recorder::new(vec![None]);
        let mut tape = core(FaultSchedule::none(), &mut host);
        // Mount and seek always overshoot a deadline 1 ms after entry.
        tape.admit_at(read(9, 1_000_000).with_deadline(1), 0, &mut host);
        host.run(&mut tape);
        assert_eq!(host.failures.len(), 1);
        assert!(host.first_bytes.is_empty());
        assert_eq!(tape.degraded().read_retries, 1);
    }

    #[test]
    fn an_outage_parks_a_drive_until_its_repair() {
        let plan = FaultPlan {
            outages: vec![crate::fault::OutageClause {
                target: FaultTarget::SiloDrive,
                mean_up_s: 60.0,
                down_s: 600.0,
                jitter: 0.0,
            }],
            ..FaultPlan::none()
        };
        let schedule = FaultSchedule::materialize(&plan, 7, 0, 3_600_000);
        let windows = schedule.windows().len() as u64;
        assert!(windows > 0);
        let cfg = SimConfig {
            silo_drives: 1,
            ..SimConfig::default()
        };
        let mut host = Recorder::new(vec![]);
        let mut tape = TapeCore::new(&cfg, schedule, &mut host);
        let start = tape.schedule().windows()[0].start_ms;
        tape.admit_at(read(3, 1_000_000), start + 1, &mut host);
        host.run(&mut tape);
        assert_eq!(tape.degraded().outage_events, windows);
        assert!(
            tape.degraded().outage_wait_s > 0.0,
            "the read queued behind a dead drive"
        );
        let (3, fb) = host.first_bytes[0] else {
            panic!("first bytes: {:?}", host.first_bytes);
        };
        assert!(fb >= tape.schedule().windows()[0].end_ms);
    }
}
