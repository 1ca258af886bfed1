//! Malformed-input hardening: hostile or broken bytes on the wire must
//! produce a clean `ERROR` reply or connection close — never a panic,
//! and never a wedged ingest thread. Every abuse case ends by proving
//! the server still serves a well-behaved client.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use rumor_core::OptimizerConfig;
use rumor_engine::Rumor;
use rumor_server::frame::{read_frame, write_frame};
use rumor_server::{Client, Reply, Request, Server, ServerConfig, PROTOCOL_VERSION};
use rumor_types::Tuple;

fn spawn_server() -> Server {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine
        .execute("CREATE STREAM s (a INT, b INT);")
        .expect("seed stream");
    Server::spawn(engine, ServerConfig::default()).expect("spawn server")
}

/// Proves the ingest thread still works: register, push, flush, drain.
fn assert_still_serving(server: &Server) {
    let mut client = Client::connect(server.addr()).expect("connect after abuse");
    client
        .register("probe", "SELECT * FROM s WHERE a = 1")
        .expect("register after abuse");
    let src = client.source("s").expect("source table");
    client.push(src, Tuple::ints(0, &[1, 7])).expect("push");
    client.flush().expect("flush");
    assert_eq!(client.drain("probe"), vec![Tuple::ints(0, &[1, 7])]);
    client.bye().expect("bye");
}

fn raw_connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads server replies until EOF; returns them. Panics on a read that
/// is neither a frame nor EOF (i.e. the server must close cleanly).
fn read_replies_until_eof(stream: &mut TcpStream) -> Vec<Reply> {
    let mut replies = Vec::new();
    loop {
        match read_frame(stream) {
            Ok(Some(payload)) => replies.push(Reply::decode(&payload).expect("decodable reply")),
            Ok(None) => return replies,
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
}

#[test]
fn garbage_payload_gets_error_then_close() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    // A well-formed frame whose payload is an unknown tag + noise.
    write_frame(&mut stream, &[0xEE, 1, 2, 3, 4]).unwrap();
    stream.flush().unwrap();
    let replies = read_replies_until_eof(&mut stream);
    assert!(
        replies.iter().any(
            |r| matches!(r, Reply::Error { message } if message.contains("unknown request tag"))
        ),
        "expected an ERROR reply, got {replies:?}"
    );
    assert_still_serving(&server);
}

#[test]
fn oversized_length_prefix_closes_connection() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let replies = read_replies_until_eof(&mut stream);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Error { message } if message.contains("oversized"))),
        "expected an oversized-frame ERROR, got {replies:?}"
    );
    assert_still_serving(&server);
}

#[test]
fn truncated_frame_then_half_close_is_rejected() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    // Prefix claims 100 bytes; send 10 and half-close the write side.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 10]).unwrap();
    stream.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let replies = read_replies_until_eof(&mut stream);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Error { message } if message.contains("truncated"))),
        "expected a truncated-frame ERROR, got {replies:?}"
    );
    assert_still_serving(&server);
}

#[test]
fn mid_frame_disconnect_does_not_wedge_ingest() {
    let server = spawn_server();
    {
        let mut stream = raw_connect(&server);
        stream.write_all(&1000u32.to_be_bytes()).unwrap();
        stream.write_all(&[0xAB; 17]).unwrap();
        stream.flush().unwrap();
        // Drop the socket mid-frame: reset, no goodbye.
    }
    assert_still_serving(&server);
}

#[test]
fn requests_before_hello_are_rejected() {
    let server = spawn_server();
    let mut stream = raw_connect(&server);
    write_frame(&mut stream, &Request::Flush.encode()).unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream)
        .expect("reply readable")
        .expect("reply frame");
    match Reply::decode(&payload).expect("decodable") {
        Reply::Error { message } => assert!(message.contains("HELLO"), "{message}"),
        other => panic!("expected ERROR, got {other:?}"),
    }
    // The connection stays usable: HELLO now, then normal traffic.
    write_frame(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("welcome frame");
    assert!(matches!(
        Reply::decode(&payload).unwrap(),
        Reply::Welcome { .. }
    ));
    assert_still_serving(&server);
}

#[test]
fn statement_smuggling_in_register_body_is_rejected() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .register(
            "evil",
            "SELECT * FROM s WHERE a = 1; QUERY q2 AS SELECT * FROM s",
        )
        .expect_err("multi-statement body must be rejected");
    assert!(err.to_string().contains(";"), "{err}");
    let err = client
        .register("1bad name", "SELECT * FROM s WHERE a = 1")
        .expect_err("non-identifier name must be rejected");
    assert!(err.to_string().contains("identifier"), "{err}");
    // Same connection still serves valid registrations.
    client
        .register("fine", "SELECT * FROM s WHERE a = 1")
        .expect("valid registration after rejected ones");
    client.bye().expect("bye");
    assert_still_serving(&server);
}

#[test]
fn bad_engine_input_reports_without_dropping_connection() {
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    // Unknown stream: the engine's parse/plan error must come back as an
    // ERROR reply surfaced by the pending call, with the session intact.
    let err = client
        .register("ghost", "SELECT * FROM no_such_stream WHERE a = 1")
        .expect_err("unknown stream must fail");
    assert!(err.to_string().contains("server error"), "{err}");
    client
        .register("ok", "SELECT * FROM s WHERE a = 2")
        .expect("register after engine error");
    let src = client.source("s").unwrap();
    client.push(src, Tuple::ints(0, &[2, 5])).unwrap();
    client.flush().unwrap();
    assert_eq!(client.drain("ok"), vec![Tuple::ints(0, &[2, 5])]);
    client.bye().unwrap();
}

/// Element counts of `u32::MAX` over a few bytes of payload: the decoder
/// clamps its pre-allocation by the bytes actually present, so the frame
/// is answered as truncated at once and the server keeps serving.
#[test]
fn hostile_element_counts_are_rejected_without_reserving() {
    let server = spawn_server();
    let mut push_batch = vec![0x05];
    push_batch.extend_from_slice(&u32::MAX.to_be_bytes());
    push_batch.extend_from_slice(&[0; 7]);
    let mut wide_tuple = vec![0x04];
    wide_tuple.extend_from_slice(&0u32.to_be_bytes()); // source
    wide_tuple.extend_from_slice(&0u64.to_be_bytes()); // ts
    wide_tuple.extend_from_slice(&u32::MAX.to_be_bytes()); // arity
    wide_tuple.extend_from_slice(&[0, 0, 0]);
    for payload in [push_batch, wide_tuple] {
        let mut stream = raw_connect(&server);
        write_frame(&mut stream, &payload).unwrap();
        let replies = read_replies_until_eof(&mut stream);
        assert!(
            replies.iter().any(
                |r| matches!(r, Reply::Error { message } if message.contains("truncated message"))
            ),
            "expected a truncated-message ERROR, got {replies:?}"
        );
    }
    assert_still_serving(&server);
}

fn send(stream: &mut TcpStream, req: &Request) {
    write_frame(stream, &req.encode()).unwrap();
}

fn next_reply(stream: &mut TcpStream) -> Reply {
    let payload = read_frame(stream).expect("readable").expect("a frame");
    Reply::decode(&payload).expect("decodable reply")
}

fn scan_u64(doc: &str, key: &str) -> u64 {
    let rest = &doc[doc.find(key).unwrap_or_else(|| panic!("{key} in {doc}")) + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("a number")
}

/// Shedding end to end. A connection that registers eight match-all
/// queries and then stops reading falls behind until its writer blocks
/// and its four-frame outbox overflows; a well-behaved neighbour feeding
/// the events is unaffected. The stalled client is told exactly how many
/// `RESULTS` frames it lost — `SHED` and `STATS` count frames, and
/// frames shed + frames received = frames produced — and its control
/// replies keep their order throughout.
#[test]
fn stalled_client_sheds_whole_frames_and_neighbours_are_unaffected() {
    const QUERIES: u64 = 8;
    const BATCHES: u64 = 1500;
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.execute("CREATE STREAM s (a INT, b INT);").unwrap();
    let config = ServerConfig {
        outbox_capacity: 4,
        ..ServerConfig::default()
    };
    let server = Server::spawn(engine, config).expect("spawn server");

    let mut stalled = raw_connect(&server);
    send(
        &mut stalled,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    assert!(matches!(next_reply(&mut stalled), Reply::Welcome { .. }));
    for q in 0..QUERIES {
        send(
            &mut stalled,
            &Request::Register {
                name: format!("all{q}"),
                body: "SELECT * FROM s WHERE a > -1".into(),
            },
        );
        assert!(matches!(next_reply(&mut stalled), Reply::Registered { .. }));
    }
    // From here on `stalled` does not read until the feed is over.

    let mut healthy = Client::connect(server.addr()).expect("connect");
    healthy
        .register("mine", "SELECT * FROM s WHERE a = 1")
        .expect("register");
    let src = healthy.source("s").unwrap();
    // 4 KiB of ballast per event: 8 queries x 1500 batches x 4 KiB is
    // ~48 MiB for the stalled connection, far past what loopback socket
    // buffers absorb, so its writer must block.
    let ballast = rumor_types::Value::Str("x".repeat(4096).into());
    let mut oracle = Vec::new();
    for t in 0..BATCHES {
        let a = (t % 2) as i64;
        let tuple = Tuple::new(t, vec![rumor_types::Value::Int(a), ballast.clone()]);
        if a == 1 {
            oracle.push(tuple.clone());
        }
        healthy.push_batch(vec![(src, tuple)]).expect("push_batch");
        healthy.flush().expect("flush");
    }
    assert_eq!(healthy.drain("mine"), oracle, "healthy client diverged");
    assert_eq!(healthy.shed(), 0, "healthy client must not shed");

    // Each batch was one delivery pass yielding one frame per query.
    let produced = QUERIES * BATCHES;
    send(&mut stalled, &Request::Stats);
    send(&mut stalled, &Request::Flush);
    let (mut received, mut shed, mut stats) = (0u64, 0u64, None);
    loop {
        match next_reply(&mut stalled) {
            Reply::Results { tuples, .. } => {
                assert_eq!(tuples.len(), 1, "one result per query per pass");
                received += 1;
            }
            Reply::StatsJson { json } => {
                assert_eq!(shed, 0, "STATS_JSON must precede the flush's SHED");
                stats = Some(json);
            }
            Reply::Shed { dropped } => {
                assert!(stats.is_some(), "SHED must follow STATS_JSON");
                shed += dropped;
            }
            Reply::Flushed => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let stats = stats.expect("STATS_JSON before FLUSHED");
    assert!(shed > 0, "the stalled client never overflowed its outbox");
    assert_eq!(
        shed % QUERIES,
        0,
        "whole passes are shed, not single frames"
    );
    assert_eq!(received + shed, produced, "shed must count frames");
    assert_eq!(scan_u64(&stats, "\"shed_results\": "), shed);

    healthy.bye().expect("bye");
    server.shutdown().expect("shutdown");
}
