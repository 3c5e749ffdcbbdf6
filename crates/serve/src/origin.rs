//! `fmig-origin`: the "tape" server.
//!
//! Serves one daemon session over TCP by hosting [`fmig_sim::tape`]'s
//! tape-path core — the same engine the simulators run — with keyed
//! counter noise, so every stage delay is a pure function of
//! `(seed, job identity, stage)` and a live run replays the oracle's
//! tape physics event for event. The daemon drives virtual time with
//! [`Frame::Advance`] watermarks; between watermarks the origin sits
//! idle, so the core runs exactly as far as the daemon has observed its
//! own clock. Chaos mode is a [`FaultScenarioId`] materialized into the
//! same outage / read-error / slow-drive schedule the simulator would
//! use for the handshake's seed and span — live chaos injection that
//! stays oracle-comparable.
//!
//! Protocol (daemon → origin): `OriginHello`, then any interleaving of
//! `Recall` / `Flush` enqueues and `Advance` watermarks; `Drain` asks
//! for the degraded-mode counter report; `Shutdown` (or simply closing
//! the connection) ends the session. Origin → daemon frames
//! (`RecallFirstByte`, `RecallDone`, `RecallFailed`, `FlushDone`) are
//! emitted only between an `Advance` and its `AdvanceDone`, except that
//! `RecallFailed` is a blocking round-trip: the origin waits for the
//! daemon's `RecallRetry` / `RecallAbandon` verdict before the core
//! proceeds. The daemon owns the backoff policy and the retry budget;
//! the origin owns the physics.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

use fmig_core::FaultScenarioId;
use fmig_sim::config::SimConfig;
use fmig_sim::event::{EventQueue, SimMs, MS};
use fmig_sim::fault::FaultSchedule;
use fmig_sim::noise::Draws;
use fmig_sim::tape::{TapeCore, TapeEvent, TapeHost, TapeJob, TapeTier};
use fmig_trace::DeviceClass;

use crate::protocol::{Frame, ProtoError, PROTO_VERSION};

/// The tape core's host: its event queue, its keyed draws, and the
/// daemon connection its callbacks become frames on. Emitted frames
/// ride the write buffer until the enclosing advance (or a blocking
/// failure round-trip) flushes them.
struct TcpLink {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    queue: EventQueue<TapeEvent>,
    draws: Draws,
    /// The first I/O error a callback hit; the session ends with it once
    /// the current event is done.
    err: Option<ProtoError>,
    /// Bytes landed by completed flush jobs.
    flushed_bytes: u64,
    /// Recalls completed successfully.
    recalls_completed: u64,
}

impl TcpLink {
    fn send(&mut self, frame: Frame) {
        if self.err.is_none() {
            self.err = frame.write_to(&mut self.writer).err();
        }
    }

    /// Reports a failed attempt and blocks for the daemon's verdict.
    fn verdict(&mut self, frame: Frame, job: u64) -> Result<Option<SimMs>, ProtoError> {
        frame.write_to(&mut self.writer)?;
        self.writer.flush()?;
        match Frame::read_from(&mut self.reader)? {
            Frame::RecallRetry { job: j, rejoin_vms } if j == job => Ok(Some(rejoin_vms)),
            Frame::RecallAbandon { job: j } if j == job => Ok(None),
            other => Err(ProtoError::Io(format!(
                "expected retry verdict for job {job}, got {other:?}"
            ))),
        }
    }
}

impl TapeHost<u64> for TcpLink {
    fn schedule(&mut self, at: SimMs, ev: TapeEvent) {
        self.queue.push(at, ev);
    }

    fn draws(&mut self) -> &mut Draws {
        &mut self.draws
    }

    fn first_byte(&mut self, job: &TapeJob<u64>, at: SimMs) {
        if !job.write {
            self.send(Frame::RecallFirstByte {
                job: job.payload,
                fb_vms: at,
            });
        }
    }

    fn transfer_end(&mut self, job: &TapeJob<u64>, at: SimMs) {
        if job.write {
            self.flushed_bytes += job.size;
            self.send(Frame::FlushDone {
                job: job.payload,
                done_vms: at,
                bytes: job.size,
            });
        } else {
            self.recalls_completed += 1;
            self.send(Frame::RecallDone {
                job: job.payload,
                done_vms: at,
            });
        }
    }

    fn failed(&mut self, job: &TapeJob<u64>, at: SimMs, drive_free_ms: SimMs) -> Option<SimMs> {
        if self.err.is_some() {
            return None;
        }
        let frame = Frame::RecallFailed {
            job: job.payload,
            attempt: job.attempts,
            failed_vms: at,
            drive_free_vms: drive_free_ms,
        };
        self.verdict(frame, job.payload).unwrap_or_else(|e| {
            self.err = Some(e);
            None
        })
    }
}

/// The tape tier a job frame names; disk is not one.
fn tape_tier(job: u64, tier: DeviceClass) -> Result<TapeTier, String> {
    TapeTier::of(tier).ok_or_else(|| format!("job {job}: {tier:?} is not a tape tier"))
}

/// Accepts one daemon session and serves it to completion.
///
/// Returns `Ok` on an orderly end (a `Shutdown` frame or the daemon
/// closing the connection); protocol violations are errors.
pub fn serve(listener: TcpListener) -> Result<(), String> {
    let (stream, _peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = BufWriter::new(stream);

    // Handshake: the daemon tells us the seed, chaos scenario, and the
    // virtual-time span to materialize the fault schedule over.
    let (seed, scenario, span) = match Frame::read_from(&mut reader) {
        Ok(Frame::OriginHello {
            version,
            seed,
            scenario,
            span_start_vms,
            span_end_vms,
        }) => {
            if version != PROTO_VERSION {
                return Err(format!(
                    "protocol version mismatch: daemon {version}, origin {PROTO_VERSION}"
                ));
            }
            let scenario = *FaultScenarioId::ALL
                .get(scenario as usize)
                .ok_or_else(|| format!("unknown fault scenario index {scenario}"))?;
            (seed, scenario, (span_start_vms, span_end_vms))
        }
        Ok(other) => return Err(format!("expected OriginHello, got {other:?}")),
        Err(e) => return Err(format!("handshake: {e}")),
    };
    Frame::OriginHelloAck {
        version: PROTO_VERSION,
    }
    .write_to(&mut writer)
    .and_then(|()| writer.flush().map_err(ProtoError::from))
    .map_err(|e| format!("handshake ack: {e}"))?;

    let mut link = TcpLink {
        reader,
        writer,
        queue: EventQueue::new(),
        draws: Draws::new(seed, true),
        err: None,
        flushed_bytes: 0,
        recalls_completed: 0,
    };
    let cfg = SimConfig::default().with_seed(seed);
    let schedule = FaultSchedule::materialize(&scenario.plan(), seed, span.0, span.1);
    let mut tape = TapeCore::new(&cfg, schedule, &mut link);

    loop {
        let frame = match Frame::read_from(&mut link.reader) {
            Ok(f) => f,
            // The daemon closing the socket is an orderly end.
            Err(ProtoError::Io(_)) | Err(ProtoError::Truncated) => return Ok(()),
            Err(e) => return Err(format!("read: {e}")),
        };
        let reply = match frame {
            Frame::Recall {
                job,
                seq,
                size,
                tier,
                enter_vms,
                deadline_vms,
                ..
            } => {
                let job = TapeJob::new(job, tape_tier(job, tier)?, false, size, seq)
                    .with_deadline(deadline_vms);
                tape.admit_at(job, enter_vms, &mut link);
                continue;
            }
            Frame::Flush {
                job,
                seq,
                size,
                tier,
                ready_vms,
                ..
            } => {
                let job = TapeJob::new(job, tape_tier(job, tier)?, true, size, seq);
                tape.admit_at(job, ready_vms, &mut link);
                continue;
            }
            Frame::Advance { until_vms } => {
                while link.queue.peek_time().is_some_and(|t| t <= until_vms) {
                    let (now, ev) = link.queue.pop().expect("peeked event");
                    tape.handle(now, ev, &mut link);
                    if let Some(e) = link.err.take() {
                        return Err(format!("advance to {until_vms}: {e}"));
                    }
                }
                Frame::AdvanceDone { now_vms: until_vms }
            }
            Frame::Drain => {
                let d = tape.degraded();
                Frame::OriginDrainDone {
                    outage_events: d.outage_events,
                    outage_wait_vms: (d.outage_wait_s * MS as f64) as i64,
                    slow_transfers: d.slow_transfers,
                    flushed_bytes: link.flushed_bytes,
                    recalls_completed: link.recalls_completed,
                    read_failures: d.read_retries,
                }
            }
            Frame::Shutdown => return Ok(()),
            other => return Err(format!("unexpected frame from daemon: {other:?}")),
        };
        reply
            .write_to(&mut link.writer)
            .and_then(|()| link.writer.flush().map_err(ProtoError::from))
            .map_err(|e| format!("reply: {e}"))?;
    }
}
