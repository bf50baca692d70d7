//! Protocol robustness: arbitrary byte soup, malformed JSON and
//! truncated requests must produce typed errors — never a panic, and
//! never a wedged server.
//!
//! Two layers: the pure parser ([`tinyhttp::read_request`]) is
//! property-tested directly over arbitrary bytes, and a live server
//! is hammered over real sockets, checking after every hostile
//! exchange that it still answers `/healthz`.

use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::Dataset;
use hos_serve::{Json, ServeConfig, Server};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;
use tinyhttp::{client_request, read_request, Limits};

/// One shared live server for every socket-level case (leaked for the
/// test process lifetime — each case re-verifies it is healthy).
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

fn healthz_ok(addr: SocketAddr) -> bool {
    matches!(client_request(addr, "GET", "/healthz", b""), Ok((200, _)))
}

/// Sends raw bytes, half-closes, reads whatever comes back.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pure request parser accepts arbitrary bytes without
    /// panicking: every outcome is a request, a clean EOF, or a
    /// typed error with a stable kind and a 4xx/5xx status.
    #[test]
    fn read_request_never_panics(bytes in prop::collection::vec(0u8..=255, 0..300)) {
        let mut cursor = std::io::Cursor::new(bytes);
        match read_request(&mut cursor, &Limits::default()) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(!e.kind().is_empty());
                prop_assert!((400..=599).contains(&e.status()));
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Tiny limits are honoured on arbitrary input too.
    #[test]
    fn read_request_respects_limits(bytes in prop::collection::vec(0u8..=255, 0..300)) {
        let limits = Limits { max_head: 32, max_body: 16 };
        let mut cursor = std::io::Cursor::new(bytes);
        if let Ok(Some(req)) = read_request(&mut cursor, &limits) {
            prop_assert!(req.body.len() <= 16);
        }
    }
}

proptest! {
    // Socket-level cases are slower; fewer of them.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary byte soup on a live socket: the server answers with
    /// an HTTP error (or closes on silence) and stays healthy.
    #[test]
    fn byte_soup_does_not_wedge_the_server(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let addr = server_addr();
        let raw = send_raw(addr, &bytes);
        if !raw.is_empty() && !bytes.starts_with(&tinyhttp::bin::MAGIC) {
            // Whatever came back is a well-formed HTTP response. (Soup
            // opening with the exact hosbin preamble negotiates the
            // binary protocol instead and gets framed errors — that
            // path has its own property suite in bin_protocol.rs.)
            prop_assert!(raw.starts_with(b"HTTP/1.1 "), "{:?}", &raw[..raw.len().min(20)]);
        }
        prop_assert!(healthz_ok(addr), "server wedged after {} bytes", bytes.len());
    }

    /// Malformed JSON bodies on a valid HTTP request: always a 400
    /// with the typed envelope, never a panic.
    #[test]
    fn malformed_json_is_typed_400(
        body in prop::collection::vec(0x20u8..=0x7e, 0..60)
            .prop_map(|b| String::from_utf8(b).expect("printable ascii")),
    ) {
        // Skip the rare case where the fuzz string is valid JSON with
        // a valid spec — that legitimately answers 200.
        let addr = server_addr();
        let head = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let resp = send_raw(addr, &raw);
        let (status, resp_body) = tinyhttp::parse_client_response(&resp).unwrap();
        if status != 200 {
            prop_assert!(status == 400 || status == 422, "status {status} for {body:?}");
            let v = Json::parse(std::str::from_utf8(&resp_body).unwrap()).unwrap();
            let kind = v.get("error").unwrap().get("kind").unwrap().as_str().unwrap();
            prop_assert!(
                ["bad_json", "bad_request", "query", "config", "index", "data"]
                    .contains(&kind),
                "unexpected kind {kind:?}"
            );
        }
        prop_assert!(healthz_ok(addr));
    }

    /// Truncated requests (body shorter than Content-Length, or a cut
    /// head): typed error or clean close, server stays healthy.
    #[test]
    fn truncated_requests_do_not_wedge(cut in 1usize..60) {
        let addr = server_addr();
        let full = b"POST /query HTTP/1.1\r\nContent-Length: 20\r\n\r\n{\"id\":0}".to_vec();
        let cut = cut.min(full.len());
        let raw = send_raw(addr, &full[..cut]);
        if let Some((status, _)) = tinyhttp::parse_client_response(&raw) {
            prop_assert!((400..=599).contains(&status));
        }
        prop_assert!(healthz_ok(addr));
    }
}

/// Deterministic spot-checks of the hostile cases the fuzz above
/// covers statistically.
#[test]
fn hostile_requests_get_typed_errors() {
    let addr = server_addr();
    for (raw, expect) in [
        (&b"NONSENSE\r\n\r\n"[..], 400u16),
        (b"GET / HTTP/9.9\r\n\r\n", 505),
        (
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            501,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            400,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            413,
        ),
    ] {
        let resp = send_raw(addr, raw);
        let (status, body) = tinyhttp::parse_client_response(&resp)
            .unwrap_or_else(|| panic!("no response for {raw:?}"));
        assert_eq!(status, expect, "for {raw:?}");
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str()
            .is_some());
    }
    // An oversized head (64 KiB of header) is cut off with 431.
    let mut huge = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    huge.extend(std::iter::repeat_n(b'a', 64 * 1024));
    let resp = send_raw(addr, &huge);
    if let Some((status, _)) = tinyhttp::parse_client_response(&resp) {
        assert_eq!(status, 431);
    }
    assert!(healthz_ok(addr));
}
