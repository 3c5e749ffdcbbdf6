//! The origin validates what the daemon sends: a well-formed job frame
//! naming the disk tier ends the session with an error instead of
//! reaching the tape physics.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use fmig_serve::origin;
use fmig_serve::protocol::{Frame, NO_DEADLINE, PROTO_VERSION};
use fmig_trace::DeviceClass;

/// Opens a session, sends `job` and then an advance past it, and
/// returns what `origin::serve` returned.
fn serve_one(job: Frame) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let addr = listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(listener));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    Frame::OriginHello {
        version: PROTO_VERSION,
        seed: 7,
        scenario: 0,
        span_start_vms: 0,
        span_end_vms: 1 << 30,
    }
    .write_to(&mut writer)
    .expect("hello");
    writer.flush().expect("flush hello");
    assert!(matches!(
        Frame::read_from(&mut reader),
        Ok(Frame::OriginHelloAck { .. })
    ));
    // The origin may already have hung up; the verdict comes from the
    // thread, not from these writes.
    let _ = job.write_to(&mut writer);
    let _ = Frame::Advance { until_vms: 1 << 30 }.write_to(&mut writer);
    let _ = writer.flush();

    origin_thread
        .join()
        .expect("the origin must not panic on outside input")
}

#[test]
fn a_disk_tier_recall_ends_the_session_with_an_error() {
    let got = serve_one(Frame::Recall {
        job: 1,
        file: 0,
        seq: 0,
        size: 1_000_000,
        tier: DeviceClass::Disk,
        enter_vms: 0,
        deadline_vms: NO_DEADLINE,
    });
    let err = got.expect_err("a disk recall is a protocol violation");
    assert!(err.contains("not a tape tier"), "{err}");
}

#[test]
fn a_disk_tier_flush_ends_the_session_with_an_error() {
    let got = serve_one(Frame::Flush {
        job: 2,
        file: 0,
        seq: 0,
        size: 1_000_000,
        tier: DeviceClass::Disk,
        ready_vms: 0,
    });
    let err = got.expect_err("a disk flush is a protocol violation");
    assert!(err.contains("not a tape tier"), "{err}");
}
