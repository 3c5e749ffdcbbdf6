//! The daemon validates what clients send: a request naming a file id
//! past the dense `u32` space, or a time the virtual clock cannot hold,
//! is answered `Rejected(Invalid)` and the daemon keeps serving.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use fmig_core::{FaultScenarioId, PolicyId};
use fmig_serve::daemon::{self, DaemonConfig};
use fmig_serve::origin;
use fmig_serve::protocol::{Frame, RejectReason, ServedKind, NO_NEXT_USE, PROTO_VERSION};
use fmig_trace::DeviceClass;

fn read(req: u64, file: u64, time_s: i64) -> Frame {
    Frame::ReadReq {
        req,
        file,
        size: 1_000_000,
        time_s,
        next_use: NO_NEXT_USE,
        device: DeviceClass::TapeSilo,
    }
}

#[test]
fn unrepresentable_requests_are_rejected_and_serving_goes_on() {
    let origin_listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = origin_listener.local_addr().expect("origin addr");
    let origin_thread = thread::spawn(move || origin::serve(origin_listener));

    let daemon_listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_listener.local_addr().expect("daemon addr");
    let cfg = DaemonConfig::compat(
        origin_addr.to_string(),
        1 << 30,
        PolicyId::ALL[0],
        FaultScenarioId::None,
        7,
        0,
        1 << 30,
    );
    let daemon_thread = thread::spawn(move || daemon::serve(daemon_listener, cfg));

    let stream = TcpStream::connect(daemon_addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let frames = [
        Frame::Hello {
            version: PROTO_VERSION,
            conn: 0,
        },
        read(0, 1 << 40, 100),
        read(1, 3, i64::MAX / 10),
        read(2, 3, 100),
        Frame::Drain,
    ];
    for frame in frames {
        frame.write_to(&mut writer).expect("send");
    }
    writer.flush().expect("flush");

    let mut replies = Vec::new();
    loop {
        match Frame::read_from(&mut reader).expect("reply") {
            Frame::HelloAck { .. } => {}
            Frame::DrainDone { .. } => break,
            other => replies.push(other),
        }
    }
    assert_eq!(
        replies[..2],
        [
            Frame::Rejected {
                req: 0,
                reason: RejectReason::Invalid,
            },
            Frame::Rejected {
                req: 1,
                reason: RejectReason::Invalid,
            },
        ]
    );
    let [Frame::Done {
        req: 2,
        served: ServedKind::Recall,
        ..
    }] = replies[2..]
    else {
        panic!("the valid request must be served: {replies:?}");
    };

    Frame::Shutdown.write_to(&mut writer).expect("shutdown");
    writer.flush().expect("flush");
    let stats = daemon_thread
        .join()
        .expect("the daemon must not panic on outside input")
        .expect("daemon serve");
    assert_eq!(
        stats.requests, 1,
        "only the valid request reached the cache"
    );
    origin_thread
        .join()
        .expect("origin thread")
        .expect("origin serve");
}
