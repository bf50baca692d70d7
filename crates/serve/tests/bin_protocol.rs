//! hosbin wire robustness on a live server: arbitrary byte soup after
//! a valid preamble must never panic or wedge the server, every
//! malformed frame gets the typed error the protocol promises (with
//! the documented keep-or-close behaviour), and pipelined replies
//! come back strictly in request order.
//!
//! The HTTP-side twin of this suite is `protocol.rs`; both hammer one
//! listener, which is itself part of the contract — protocol
//! negotiation must isolate the two wire formats completely.

use hos_core::{HosMiner, HosMinerConfig, QuerySpec, ThresholdPolicy};
use hos_data::Dataset;
use hos_serve::{codec, ApiRequest, ServeConfig, Server};
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;
use tinyhttp::bin::{self, BinClient, MAGIC};

/// Generous client-side frame cap for reading server replies.
const MAX_FRAME: usize = 8 * 1024 * 1024;

/// One shared live server for every case (leaked for the test process
/// lifetime — each case re-verifies it is healthy). The workload here
/// is read-only, so replies are deterministic across the whole file.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64, (i % 3) as f64])
            .collect();
        let miner = HosMiner::fit(
            Dataset::from_rows(&rows).unwrap(),
            HosMinerConfig {
                k: 3,
                threshold: ThresholdPolicy::Fixed(5.0),
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        let server = Server::start(
            miner,
            &ServeConfig {
                workers: 2,
                batch_max: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        std::mem::forget(server); // keep serving until process exit
        addr
    })
}

/// Health probe over BOTH protocols on the listener — hostile binary
/// traffic must not degrade the HTTP side either.
fn healthz_ok(addr: SocketAddr) -> bool {
    let mut body = Vec::new();
    let opcode = codec::encode_bin_request(&ApiRequest::Healthz, &mut body);
    let bin_ok = match BinClient::connect(addr) {
        Ok(mut cli) => {
            matches!(cli.call(opcode, &body), Ok((op, _)) if op == opcode | codec::op::REPLY)
        }
        Err(_) => false,
    };
    bin_ok
        && matches!(
            tinyhttp::client_request(addr, "GET", "/healthz", b""),
            Ok((200, _))
        )
}

/// A raw hosbin connection: preamble written, frames by hand.
fn bin_stream(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&MAGIC).unwrap();
    s
}

/// Reads one frame and asserts it is the typed error envelope,
/// returning `(status, kind)`.
fn read_error(stream: &mut TcpStream) -> (u16, String) {
    let mut body = Vec::new();
    let op = bin::read_frame(stream, &mut body, MAX_FRAME)
        .unwrap()
        .expect("an error frame before close");
    assert_eq!(op, codec::op::ERROR, "expected the error opcode");
    let (status, json) = codec::bin_reply_to_json(op, &body).unwrap();
    let kind = json
        .get("error")
        .unwrap()
        .get("kind")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        !json
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .is_empty(),
        "error frames carry a human-readable message"
    );
    (status, kind)
}

proptest! {
    // Socket-level cases are slow; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bytes after a valid preamble: every byte the server
    /// sends back parses as whole frames (typed errors, or a lucky
    /// valid reply when the soup forms a real request), the stream
    /// never ends mid-frame, and the server stays healthy on both
    /// protocols.
    #[test]
    fn byte_soup_after_the_preamble_never_wedges(
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let addr = server_addr();
        let mut stream = bin_stream(addr);
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let mut cursor = Cursor::new(raw);
        let mut body = Vec::new();
        loop {
            match bin::read_frame(&mut cursor, &mut body, MAX_FRAME) {
                Ok(None) => break, // replies ended at a frame boundary
                Ok(Some(op)) => prop_assert!(
                    op == codec::op::ERROR || op & codec::op::REPLY != 0,
                    "server sent a non-reply frame {op:#04x}"
                ),
                Err(e) => prop_assert!(false, "server reply ended mid-frame: {e}"),
            }
        }
        prop_assert!(healthz_ok(addr), "server wedged after {} bytes", bytes.len());
    }
}

/// Unknown opcodes and malformed bodies are recoverable: the typed
/// error frame comes back and the SAME connection keeps serving.
#[test]
fn recoverable_frame_errors_keep_the_connection() {
    let addr = server_addr();
    let mut stream = bin_stream(addr);
    let mut scratch = Vec::new();

    bin::write_frame(&mut stream, &mut scratch, 0x40, b"").unwrap();
    let (status, kind) = read_error(&mut stream);
    assert_eq!((status, kind.as_str()), (404, "unknown_opcode"));

    bin::write_frame(&mut stream, &mut scratch, codec::op::QUERY, &[9, 9, 9]).unwrap();
    let (status, kind) = read_error(&mut stream);
    assert_eq!((status, kind.as_str()), (400, "bad_body"));

    // A spec-level violation (query with zero specs) is bad_body too.
    bin::write_frame(
        &mut stream,
        &mut scratch,
        codec::op::QUERY,
        &0u32.to_le_bytes(),
    )
    .unwrap();
    let (status, kind) = read_error(&mut stream);
    assert_eq!((status, kind.as_str()), (400, "bad_body"));

    // After all that abuse, the same connection still answers.
    let mut body = Vec::new();
    let opcode = codec::encode_bin_request(&ApiRequest::Healthz, &mut body);
    bin::write_frame(&mut stream, &mut scratch, opcode, &body).unwrap();
    let mut reply = Vec::new();
    let rop = bin::read_frame(&mut stream, &mut reply, MAX_FRAME)
        .unwrap()
        .expect("a healthz reply");
    assert_eq!(rop, opcode | codec::op::REPLY);
    assert!(healthz_ok(addr));
}

/// Framing-level faults (empty frame, oversized declaration, cut-off
/// body) answer a typed error and then close — the stream position is
/// unrecoverable. A bad preamble never negotiates at all.
#[test]
fn fatal_frame_errors_answer_typed_then_close() {
    let addr = server_addr();

    // Empty frame: len = 0 declares no opcode.
    let mut stream = bin_stream(addr);
    stream.write_all(&0u32.to_le_bytes()).unwrap();
    let (status, kind) = read_error(&mut stream);
    assert_eq!((status, kind.as_str()), (400, "empty_frame"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection must close after a fatal framing error"
    );

    // Oversized declared length: rejected before any body is read.
    let mut stream = bin_stream(addr);
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let (status, kind) = read_error(&mut stream);
    assert_eq!((status, kind.as_str()), (413, "frame_too_large"));

    // Truncated: a 10-byte frame cut off after 3 bytes.
    let mut stream = bin_stream(addr);
    stream.write_all(&10u32.to_le_bytes()).unwrap();
    stream.write_all(&[codec::op::QUERY, 1, 2]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, kind) = read_error(&mut stream);
    assert_eq!((status, kind.as_str()), (400, "truncated"));

    // A bad preamble: silent close, nothing written back.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&[0x00, b'X', b'Y', b'Z']).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    assert!(out.is_empty(), "bad magic must close silently, got {out:?}");

    assert!(healthz_ok(addr));
}

/// Pipelined frames come back strictly in request order: the reply
/// stream is byte-identical to a sequential run of the same requests
/// on a second connection.
#[test]
fn pipelined_replies_arrive_in_request_order() {
    let addr = server_addr();
    let mut reqs = Vec::new();
    let mut body = Vec::new();
    for i in 0..8usize {
        let id = (i * 7) % 50;
        let op =
            codec::encode_bin_request(&ApiRequest::Query(vec![QuerySpec::Member(id)]), &mut body);
        reqs.push((op, body.clone()));
    }
    // Sequential reference run.
    let mut seq = BinClient::connect(addr).unwrap();
    let reference: Vec<(u8, Vec<u8>)> = reqs
        .iter()
        .map(|(op, b)| seq.call(*op, b).unwrap())
        .collect();
    // Pipelined: every send first, then every receive.
    let mut pipe = BinClient::connect(addr).unwrap();
    for (op, b) in &reqs {
        pipe.send(*op, b).unwrap();
    }
    for (i, want) in reference.iter().enumerate() {
        let (op, got) = pipe.recv().unwrap();
        assert_eq!(op, want.0, "slot {i}: opcode");
        assert_eq!(
            got,
            want.1.as_slice(),
            "slot {i}: pipelined reply must be byte-identical and in order"
        );
    }
}
