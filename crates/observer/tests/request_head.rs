//! The observer's request decoder under hostile input. An oversized head
//! and mutated GET requests get a status reply or a closed connection,
//! never a panic, and the serial serve loop goes on serving `/healthz`.

use proptest::prelude::*;
use rescue_observer::{http_get, Observer};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// A well-formed scrape request, one header per line.
const GET: &[u8] =
    b"GET /healthz HTTP/1.1\r\nHost: rescue\r\nAccept: */*\r\nConnection: close\r\n\r\n";

/// Sends `request`, closes the write half and returns the reply's status
/// code, or `None` when the connection closed without a reply. The
/// server may close before reading everything, so write errors count as
/// a closed connection.
fn send_raw(addr: SocketAddr, request: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect to the observer");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    if reply.is_empty() {
        return None;
    }
    let status = reply
        .strip_prefix(b"HTTP/1.1 ")
        .and_then(|r| std::str::from_utf8(r.get(..3)?).ok()?.parse().ok());
    Some(status.unwrap_or_else(|| panic!("not an HTTP reply: {reply:?}")))
}

#[test]
fn status_codes_of_well_formed_and_malformed_heads() {
    let observer = Observer::bind("127.0.0.1:0").unwrap();
    let addr = observer.addr();
    assert_eq!(send_raw(addr, GET), Some(200));
    assert_eq!(send_raw(addr, b"GET /nope HTTP/1.1\r\n\r\n"), Some(404));
    assert_eq!(send_raw(addr, b"POST /healthz HTTP/1.1\r\n\r\n"), Some(405));
    assert_eq!(send_raw(addr, b"GET /healthz\r\n\r\n"), Some(400));
    assert_eq!(
        send_raw(addr, b"\xff\xfe /healthz HTTP/1.1\r\n\r\n"),
        Some(400)
    );
    // A head that ends at the end of input is still served.
    assert_eq!(
        send_raw(addr, b"GET /healthz HTTP/1.1\r\nHost: rescue"),
        Some(200)
    );
    let long_header = [b"GET /healthz HTTP/1.1\r\nX: ".as_slice(), &[b'x'; 9000]].concat();
    assert!(matches!(send_raw(addr, &long_header), None | Some(431)));
    observer.shutdown();
}

/// A 1 MiB request line without a newline stops at 8 KiB: the client
/// gets a 431 or a closed connection, and the next scrape is served.
#[test]
fn a_one_mib_line_gets_431_and_the_loop_keeps_serving() {
    let observer = Observer::bind("127.0.0.1:0").unwrap();
    let addr = observer.addr();
    let status = send_raw(addr, &vec![b'a'; 1 << 20]);
    assert!(matches!(status, None | Some(431)), "{status:?}");
    assert_eq!(http_get(addr, "/healthz").unwrap(), "ok");
    observer.shutdown();
}

/// `GET` with one mutation, chosen by `kind` and placed by `a` and `b`:
/// truncated, one bit flipped, a slice spliced in elsewhere, or one line
/// dropped or duplicated.
fn mutate(kind: usize, a: u64, b: u64) -> Vec<u8> {
    let mut req = GET.to_vec();
    let at = |x: u64, n: usize| (x % n as u64) as usize;
    match kind {
        0 => req.truncate(at(a, GET.len())),
        1 => req[at(a, GET.len())] ^= 1 << (b % 8),
        2 => {
            let (lo, len) = (at(a, GET.len()), 1 + at(b, 16));
            let slice = GET[lo..(lo + len).min(GET.len())].to_vec();
            let to = at(b >> 8, GET.len() + 1);
            req.splice(to..to, slice);
        }
        _ => {
            let mut lines: Vec<&[u8]> = GET.split_inclusive(|&c| c == b'\n').collect();
            let i = at(a, lines.len());
            if kind == 3 {
                lines.remove(i);
            } else {
                lines.insert(i, lines[i]);
            }
            req = lines.concat();
        }
    }
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any mutated GET gets 200, 400, 404, 405 or 431, or a closed
    /// connection; nothing panics, and `/healthz` is served afterwards.
    #[test]
    fn mutated_requests_get_a_status_or_a_close(
        kind in 0usize..5,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let observer = Observer::bind("127.0.0.1:0").unwrap();
        let addr = observer.addr();
        let request = mutate(kind, a, b);
        let status = send_raw(addr, &request);
        prop_assert!(
            matches!(status, None | Some(200 | 400 | 404 | 405 | 431)),
            "{:?} for {:?}", status, String::from_utf8_lossy(&request)
        );
        prop_assert_eq!(http_get(addr, "/healthz").unwrap(), "ok");
        observer.shutdown();
    }
}
