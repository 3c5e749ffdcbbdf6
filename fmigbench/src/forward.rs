//! A counting daemon ↔ origin TCP forwarder for the traced
//! `service-live` run.
//!
//! The daemon connects to the forwarder as if it were the origin; the
//! forwarder connects to the real origin and relays whole frames both
//! ways with `Frame::read_from` / `Frame::write_to`, counting them. It
//! flushes whenever its read buffer runs dry, so the lockstep protocol
//! never waits on it and pipelined frames stay batched.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};

use fmig_serve::{Frame, ProtoError};

use crate::procfs;

/// What the forwarder relayed, and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ForwardStats {
    /// Frames relayed daemon → origin.
    pub to_origin: u64,
    /// Frames relayed origin → daemon.
    pub to_daemon: u64,
    /// CPU seconds the two relay threads used.
    pub cpu_s: f64,
}

/// A running forwarder for one daemon connection.
pub struct Forwarder {
    addr: String,
    handle: JoinHandle<Result<ForwardStats, String>>,
}

impl Forwarder {
    /// Listens on a loopback port and relays the first connection to
    /// `origin`.
    pub fn start(origin: &str) -> Result<Forwarder, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("forwarder bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("forwarder addr: {e}"))?
            .to_string();
        let origin = origin.to_string();
        let handle = thread::spawn(move || {
            let (daemon, _) = listener
                .accept()
                .map_err(|e| format!("forwarder accept: {e}"))?;
            let origin =
                TcpStream::connect(&origin).map_err(|e| format!("forwarder → {origin}: {e}"))?;
            daemon.set_nodelay(true).ok();
            origin.set_nodelay(true).ok();
            let (d2, o2) = clone_pair(&daemon, &origin)?;
            let up = thread::spawn(move || relay(d2, o2));
            let (to_daemon, down_cpu) = relay(origin, daemon)?;
            let (to_origin, up_cpu) = up.join().map_err(|_| "relay thread panicked")??;
            Ok(ForwardStats {
                to_origin,
                to_daemon,
                cpu_s: up_cpu + down_cpu,
            })
        });
        Ok(Forwarder { addr, handle })
    }

    /// The address the daemon should use as its origin.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Waits for both directions to close and returns the counts.
    pub fn finish(self) -> Result<ForwardStats, String> {
        self.handle
            .join()
            .map_err(|_| "forwarder panicked".to_string())?
    }
}

fn clone_pair(a: &TcpStream, b: &TcpStream) -> Result<(TcpStream, TcpStream), String> {
    let err = |e: std::io::Error| format!("forwarder clone: {e}");
    Ok((a.try_clone().map_err(err)?, b.try_clone().map_err(err)?))
}

/// Relays frames `from` → `to` until `from` closes; returns the frame
/// count and this thread's CPU seconds. Half-closes `to` at the end so
/// the far side sees the same orderly end.
fn relay(from: TcpStream, to: TcpStream) -> Result<(u64, f64), String> {
    let mut reader = BufReader::new(from);
    let mut writer = BufWriter::new(to.try_clone().map_err(|e| format!("relay clone: {e}"))?);
    let mut frames = 0u64;
    loop {
        match Frame::read_from(&mut reader) {
            Ok(frame) => {
                frame
                    .write_to(&mut writer)
                    .map_err(|e| format!("relay write: {e}"))?;
                frames += 1;
                if reader.buffer().is_empty() {
                    writer.flush().map_err(|e| format!("relay flush: {e}"))?;
                }
            }
            // The sender closing its socket is an orderly end.
            Err(ProtoError::Io(_)) | Err(ProtoError::Truncated) => break,
            Err(e) => return Err(format!("relay read: {e}")),
        }
    }
    writer.flush().map_err(|e| format!("relay flush: {e}"))?;
    let _ = to.shutdown(Shutdown::Write);
    Ok((frames, procfs::cpu_s("/proc/thread-self/stat")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::service_cell;
    use crate::service::check_counters;
    use fmig_core::FaultScenarioId;
    use fmig_serve::daemon::{self, DaemonConfig};
    use fmig_serve::loadgen::{self, LoadgenConfig};
    use fmig_serve::origin;

    /// Runs one cell through origin ← forwarder ← daemon ← loadgen, all
    /// in-process, and checks the live counters against the oracle.
    fn forwarded_run(scenario: FaultScenarioId) {
        let (cell, oracle) = service_cell(9, 0.002, scenario);
        let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
        let origin_addr = origin_listener.local_addr().expect("addr").to_string();
        let origin = thread::spawn(move || origin::serve(origin_listener));
        let fwd = Forwarder::start(&origin_addr).expect("forwarder");
        let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
        let daemon_addr = daemon_listener.local_addr().expect("addr").to_string();
        let cfg = DaemonConfig::compat(
            fwd.addr().to_string(),
            cell.capacity,
            fmig_core::SweepConfig::tiny().policies[0],
            scenario,
            cell.seed,
            cell.span_start_vms,
            cell.span_end_vms,
        );
        let daemon = thread::spawn(move || daemon::serve(daemon_listener, cfg));
        let report = loadgen::run(
            &LoadgenConfig {
                addr: daemon_addr,
                connections: 2,
                limit: None,
                drain: true,
                stats: true,
                shutdown: true,
            },
            &cell,
        )
        .expect("loadgen run");
        daemon.join().expect("daemon thread").expect("daemon ok");
        let relayed = fwd.finish().expect("forwarder ok");
        origin.join().expect("origin thread").expect("origin ok");

        check_counters(&report, &oracle).expect("counters through the forwarder equal the oracle");
        assert!(relayed.to_origin > 0 && relayed.to_daemon > 0);
        // Every recall and flush is at least one request frame.
        assert!(relayed.to_origin >= oracle.recalls + oracle.flush_jobs);
    }

    #[test]
    fn forwarder_is_transparent_when_healthy() {
        forwarded_run(FaultScenarioId::None);
    }

    #[test]
    fn forwarder_is_transparent_under_faults() {
        forwarded_run(FaultScenarioId::DegradedPeak);
    }
}
