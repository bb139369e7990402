//! Protocol-hostility tests for the `lcmopt serve` daemon, driven
//! in-process through `Daemon::handle_connection` with byte buffers: the
//! daemon must never panic (the worker backstop counter stays 0), must
//! answer malformed traffic with typed `ERROR` frames — keeping the
//! connection when framing is still trustworthy, closing it when not —
//! and must keep serving fresh connections afterwards.

use lcm::driver::protocol::{
    read_response, write_frame, write_request, Request, Response, ERR_BAD_FRAME, ERR_PARSE,
    ERR_TOO_LARGE, RESP_DONE, RESP_UNIT_OK,
};
use lcm::driver::serve::{ConnectionEnd, Daemon, ServeOptions};

const MODULE: &str = "fn d {
entry:
  br c, l, r
l:
  x = a + b
  jmp join
r:
  jmp join
join:
  y = a + b
  obs y
  ret
}

fn straight {
entry:
  x = a * b
  y = a * b
  obs y
  ret
}
";

fn daemon() -> Daemon {
    Daemon::start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    })
}

/// Feeds `input` as one connection and returns the decoded responses plus
/// how the connection ended.
fn roundtrip(daemon: &Daemon, input: &[u8]) -> (Vec<Response>, ConnectionEnd) {
    let mut reader = input;
    let mut out: Vec<u8> = Vec::new();
    let end = daemon.handle_connection(&mut reader, &mut out);
    let mut slice = &out[..];
    let mut responses = Vec::new();
    while let Ok(Some(r)) = read_response(&mut slice) {
        responses.push(r);
    }
    (responses, end)
}

fn optimize_request(module: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(
        &mut buf,
        &Request::Optimize {
            deadline_ms: 0,
            fuel: 0,
            module: module.to_string(),
        },
    )
    .expect("encode request");
    buf
}

/// The well-formed baseline: both units answered, DONE, clean close.
#[test]
fn valid_request_round_trips() {
    let d = daemon();
    let (responses, end) = roundtrip(&d, &optimize_request(MODULE));
    assert_eq!(end, ConnectionEnd::Closed);
    let units = responses
        .iter()
        .filter(|r| matches!(r, Response::UnitOk { .. }))
        .count();
    assert_eq!(units, 2, "{responses:?}");
    assert_eq!(responses.last(), Some(&Response::Done { ok: 2, failed: 0 }));
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn truncated_frame_is_answered_and_closed() {
    let d = daemon();
    // Claim 100 payload bytes, deliver 3: the stream tears mid-frame.
    let mut input = 100u32.to_be_bytes().to_vec();
    input.extend_from_slice(&[0x01, 0xAA, 0xBB]);
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Closed);
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Error {
                code: ERR_BAD_FRAME,
                ..
            }]
        ),
        "{responses:?}"
    );
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn torn_length_prefix_is_a_clean_close() {
    let d = daemon();
    // EOF in the middle of the 4-byte prefix: not a frame boundary.
    let (responses, end) = roundtrip(&d, &[0x00, 0x00]);
    assert_eq!(end, ConnectionEnd::Closed);
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Error {
                code: ERR_BAD_FRAME,
                ..
            }]
        ),
        "{responses:?}"
    );
    d.shutdown().unwrap();
}

#[test]
fn oversized_length_prefix_is_refused() {
    let d = daemon();
    let mut input = u32::MAX.to_be_bytes().to_vec();
    input.extend_from_slice(b"irrelevant");
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Closed);
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Error {
                code: ERR_TOO_LARGE,
                ..
            }]
        ),
        "{responses:?}"
    );
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn zero_length_frame_is_refused() {
    let d = daemon();
    let (responses, end) = roundtrip(&d, &0u32.to_be_bytes());
    assert_eq!(end, ConnectionEnd::Closed);
    assert!(
        matches!(responses.as_slice(), [Response::Error { .. }]),
        "{responses:?}"
    );
    d.shutdown().unwrap();
}

#[test]
fn unknown_tag_mid_stream_keeps_the_connection() {
    let d = daemon();
    // STATS, then a well-framed frame with a garbage tag, then STATS
    // again: length-prefixing keeps the stream in sync, so the bad frame
    // costs one typed ERROR and nothing else.
    let mut input = Vec::new();
    write_request(&mut input, &Request::Stats).unwrap();
    write_frame(&mut input, 0x7F, b"garbage").unwrap();
    write_request(&mut input, &Request::Stats).unwrap();
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Closed);
    assert!(
        matches!(
            responses.as_slice(),
            [
                Response::Stats { .. },
                Response::Error {
                    code: ERR_BAD_FRAME,
                    ..
                },
                Response::Stats { .. }
            ]
        ),
        "{responses:?}"
    );
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn invalid_utf8_module_gets_typed_error_then_serves_on() {
    let d = daemon();
    // An OPTIMIZE payload whose module bytes are not UTF-8 fails decoding;
    // the connection survives and the next request is answered in full.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u32.to_be_bytes()); // deadline_ms
    payload.extend_from_slice(&0u64.to_be_bytes()); // fuel
    payload.extend_from_slice(&[0xFF, 0xFE, 0x80]); // not UTF-8
    let mut input = Vec::new();
    write_frame(&mut input, 0x01, &payload).unwrap();
    input.extend_from_slice(&optimize_request(MODULE));
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Closed);
    assert!(
        matches!(
            responses.first(),
            Some(Response::Error {
                code: ERR_BAD_FRAME,
                ..
            })
        ),
        "{responses:?}"
    );
    assert_eq!(responses.last(), Some(&Response::Done { ok: 2, failed: 0 }));
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn module_parse_error_is_spanned_and_keeps_the_connection() {
    let d = daemon();
    let mut input = optimize_request("fn broken {\nentry:\n  x = a +\n  ret\n}\n");
    input.extend_from_slice(&optimize_request(MODULE));
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Closed);
    match responses.first() {
        Some(Response::Error {
            code: ERR_PARSE,
            message,
        }) => {
            assert!(message.contains("<request>:3:"), "{message}");
        }
        other => panic!("expected a spanned parse error, got {other:?}"),
    }
    assert_eq!(responses.last(), Some(&Response::Done { ok: 2, failed: 0 }));
    d.shutdown().unwrap();
}

/// A writer that accepts `cap` bytes and then reports a broken pipe,
/// modelling a client that disconnects mid-request.
struct HangupWriter {
    out: Vec<u8>,
    cap: usize,
}

impl std::io::Write for HangupWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.out.len() >= self.cap {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client hung up",
            ));
        }
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_serving() {
    let d = daemon();
    let input = optimize_request(MODULE);
    let mut reader = &input[..];
    // Let the response header trickle out, then hang up.
    let mut writer = HangupWriter {
        out: Vec::new(),
        cap: 8,
    };
    let end = d.handle_connection(&mut reader, &mut writer);
    assert_eq!(end, ConnectionEnd::Closed);
    // A fresh connection is served in full afterwards.
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE));
    assert_eq!(responses.last(), Some(&Response::Done { ok: 2, failed: 0 }));
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn shutdown_frame_drains_with_bye() {
    let d = daemon();
    let mut input = Vec::new();
    write_request(&mut input, &Request::Shutdown).unwrap();
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Shutdown);
    assert_eq!(responses, vec![Response::Bye]);
    // Draining refuses new admissions with a typed error.
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE));
    assert!(
        matches!(responses.as_slice(), [Response::Error { .. }]),
        "{responses:?}"
    );
    d.shutdown().unwrap();
}

/// The daemon's reuse path: re-sending a module after a content edit
/// recomputes the edited function and replays the untouched one from the
/// zero-dirty output memo, and the STATS text counts both.
#[test]
fn edited_module_resend_replays_untouched_functions_from_the_memo() {
    let d = daemon();
    let mut input = optimize_request(MODULE);
    // A content edit in one block of `d`: appending `a = 1` kills `a + b`
    // through `join`; `straight` is untouched.
    let edited = MODULE.replace("y = a + b", "y = a + b\n  a = 1");
    input.extend_from_slice(&optimize_request(&edited));
    write_request(&mut input, &Request::Stats).unwrap();
    let (responses, end) = roundtrip(&d, &input);
    assert_eq!(end, ConnectionEnd::Closed);
    let dones = responses
        .iter()
        .filter(|r| matches!(r, Response::Done { ok: 2, failed: 0 }))
        .count();
    assert_eq!(dones, 2, "{responses:?}");
    let Some(Response::Stats { text }) = responses.last() else {
        panic!("expected trailing STATS, got {responses:?}");
    };
    // No delta solver: `hits` stays 0, the recompute of `d` is counted as
    // a fallback and the replay of `straight` as zero-dirty.
    assert!(
        text.lines()
            .any(|l| l == "incremental: 0 hits, 2 memos retained"),
        "{text}"
    );
    assert!(
        text.lines()
            .any(|l| l == "edit classes: 1 fallback, 1 zero-dirty"),
        "{text}"
    );
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn response_tags_are_wire_stable() {
    // Pin the wire tags a client depends on; renumbering is a protocol
    // break, not a refactor.
    assert_eq!(RESP_UNIT_OK, 0x81);
    assert_eq!(RESP_DONE, 0x83);
}
