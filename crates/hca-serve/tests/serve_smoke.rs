//! End-to-end daemon smoke test: boot on a loopback port, exercise every
//! op over a real TCP connection, shut down cleanly, and verify the cache
//! snapshot survives a restart.

use hca_serve::{
    Client, CompileSpec, Request, Response, Server, ServerConfig, StopHandle, MAX_LINE_BYTES,
    WRITE_TIMEOUT,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hca_serve_smoke_{}_{name}", std::process::id()));
    p
}

fn spec(kernel: &str) -> CompileSpec {
    CompileSpec {
        kernel: Some(kernel.to_string()),
        ..CompileSpec::default()
    }
}

#[test]
fn daemon_round_trip_and_snapshot_reload() {
    let snap = temp_path("snapshot.json");
    let _ = std::fs::remove_file(&snap);

    // --- first life: cold cache ---
    let server = Server::bind(ServerConfig {
        snapshot: Some(snap.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.ping().expect("ping");

    // Cold compile: all misses.
    let first = client.compile(spec("fir2dim")).expect("cold compile");
    assert!(first.legal, "served fir2dim must be legal");
    assert!(first.subproblems > 0);

    // Hot compile of the same kernel: the shared memo must hit.
    let second = client.compile(spec("fir2dim")).expect("hot compile");
    assert_eq!(first, second, "same job must serve identical bits");
    let stats = client.stats().expect("stats");
    assert!(
        stats.memo_hits > 0,
        "second compile of the same kernel must hit the cache: {stats:?}"
    );
    assert_eq!(stats.snapshot_entries, 0, "first life starts cold");

    // Batch: good jobs succeed in order, a bad job fails only itself.
    let items = client
        .compile_batch(vec![spec("biquad"), spec("no_such_kernel"), spec("fir8")])
        .expect("batch");
    assert_eq!(items.len(), 3);
    assert!(items[0].ok && items[2].ok);
    assert!(!items[1].ok, "unknown kernel must fail its own item");
    assert!(items[1]
        .error
        .as_deref()
        .unwrap()
        .contains("unknown kernel"));

    // A deliberately panicking worker degrades only its request.
    let msg = client.crash().expect("crash op must report the panic");
    assert!(
        msg.contains("deliberate crash"),
        "panic message served: {msg}"
    );
    client
        .ping()
        .expect("daemon must keep serving after a worker panic");

    // Unknown op and malformed line both get answers, not silence.
    let resp = client
        .call(Request {
            op: "frobnicate".into(),
            ..Request::default()
        })
        .expect("unknown op still answered");
    assert!(!resp.ok);

    client.shutdown().expect("shutdown");
    let final_stats = daemon.join().expect("daemon thread");
    assert!(
        final_stats.memo_entries > 0,
        "cache must hold entries at exit"
    );
    assert!(snap.exists(), "shutdown must write the snapshot");

    // --- second life: warm cache from the snapshot ---
    let server = Server::bind(ServerConfig {
        snapshot: Some(snap.clone()),
        ..ServerConfig::default()
    })
    .expect("re-bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("server re-run"));

    let mut client = Client::connect_tcp(&addr).expect("re-connect");
    let stats = client.stats().expect("stats after reload");
    assert!(
        stats.snapshot_entries > 0,
        "restart must restore snapshot entries: {stats:?}"
    );
    let served = client.compile(spec("fir2dim")).expect("warm compile");
    assert_eq!(
        served, first,
        "a snapshot-warmed result must be bit-identical to the cold one"
    );
    let stats = client.stats().expect("stats after warm compile");
    assert!(
        stats.memo_hits > 0,
        "warm compile must hit restored entries: {stats:?}"
    );

    client.shutdown().expect("second shutdown");
    daemon.join().expect("daemon thread 2");
    let _ = std::fs::remove_file(&snap);
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let sock = temp_path("sock");
    let _ = std::fs::remove_file(&sock);
    let server = Server::bind(ServerConfig {
        bind: hca_serve::Bind::Unix(sock.clone()),
        ..ServerConfig::default()
    })
    .expect("bind unix");
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || server.run().expect("unix run"));

    let mut client = Client::connect_unix(&sock).expect("connect unix");
    client.ping().expect("unix ping");
    let served = client.compile(spec("dot_product")).expect("unix compile");
    assert!(served.legal);

    stop.stop();
    daemon.join().expect("daemon thread");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
}

/// A cold daemon on a loopback port: its address, a stop handle and the
/// thread running it.
fn boot() -> (String, StopHandle, JoinHandle<()>) {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, stop, daemon)
}

/// A raw TCP connection, for requests no well-behaved client would send.
fn raw(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn reply(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    serde_json::from_str(&line).unwrap_or_else(|e| panic!("reply `{line}`: {e}"))
}

#[test]
fn request_split_inside_a_utf8_character_is_answered() {
    let (addr, stop, daemon) = boot();
    let (mut w, mut r) = raw(&addr);
    let req = "{\"id\":7,\"op\":\"ping\",\"kernel\":\"caf\u{e9}\"}\n".as_bytes();
    // Cut after the first byte of the two-byte "é", and pause for longer
    // than the daemon's read poll so a timeout lands mid-character.
    let cut = req.iter().position(|&b| b == 0xC3).expect("two-byte char") + 1;
    w.write_all(&req[..cut]).expect("first half");
    std::thread::sleep(Duration::from_millis(100));
    w.write_all(&req[cut..]).expect("second half");
    let resp = reply(&mut r);
    assert!(resp.ok && resp.id == 7, "split request answered: {resp:?}");
    stop.stop();
    daemon.join().expect("daemon thread");
}

#[test]
fn non_utf8_line_gets_an_error_and_the_connection_keeps_serving() {
    let (addr, stop, daemon) = boot();
    let (mut w, mut r) = raw(&addr);
    w.write_all(b"{\"id\":8,\"op\":\"ping\xff\"}\n")
        .expect("bad line");
    let resp = reply(&mut r);
    assert!(!resp.ok, "non-UTF-8 line must fail: {resp:?}");
    assert!(resp.error.as_deref().unwrap_or("").contains("UTF-8"));
    w.write_all(b"{\"id\":9,\"op\":\"ping\"}\n").expect("ping");
    let resp = reply(&mut r);
    assert!(
        resp.ok && resp.id == 9,
        "same connection still serves: {resp:?}"
    );
    stop.stop();
    daemon.join().expect("daemon thread");
}

#[test]
fn oversized_line_gets_an_error_and_the_daemon_keeps_accepting() {
    let (addr, stop, daemon) = boot();
    let (mut w, mut r) = raw(&addr);
    // One byte over the limit and no newline: the daemon reads all of it
    // before it answers, so the close that follows is a clean one.
    w.write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("oversized line");
    let resp = reply(&mut r);
    assert!(!resp.ok, "oversized line must fail: {resp:?}");
    assert!(resp.error.as_deref().unwrap_or("").contains("exceeds"));
    let mut rest = String::new();
    assert_eq!(
        r.read_line(&mut rest).expect("read after error"),
        0,
        "the daemon closes the connection after an oversized line"
    );
    let mut client = Client::connect_tcp(&addr).expect("new connection");
    client.ping().expect("daemon still serves new connections");
    stop.stop();
    daemon.join().expect("daemon thread");
}

/// Every reply leaves in one segment on a `TCP_NODELAY` socket, so a round
/// trip does not wait out the client's delayed ACK (~40 ms on Linux).
#[test]
fn ping_round_trip_waits_out_no_delayed_ack() {
    let (addr, stop, daemon) = boot();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for _ in 0..20 {
        client.ping().expect("warm-up ping");
    }
    let mut ms: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            client.ping().expect("ping");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    stop.stop();
    daemon.join().expect("daemon thread");
    assert!(
        median < 25.0,
        "median ping round trip {median:.3} ms: a reply waited out a delayed ACK"
    );
}

/// A client that pipelines requests and never reads the replies blocks its
/// handler in a write. The daemon must keep serving other clients, and
/// shutdown must finish once the write timeout has ended that connection.
#[test]
fn client_that_never_reads_cannot_hang_shutdown() {
    const PIPELINED: usize = 200_000;
    let (addr, stop, daemon) = boot();
    let hog = TcpStream::connect(&addr).expect("connect");
    let mut hog_writer = hog.try_clone().expect("clone");
    hog_writer
        .set_write_timeout(Some(Duration::from_secs(60)))
        .expect("write timeout");
    // Once the replies back up the daemon stops reading, and this write can
    // block in turn: it runs on its own thread. `hog` keeps the connection
    // open whether or not the write finishes.
    let writer = std::thread::spawn(move || {
        let burst = b"{\"id\":1,\"op\":\"stats\"}\n".repeat(PIPELINED);
        let _ = hog_writer.write_all(&burst);
    });

    let mut client = Client::connect_tcp(&addr).expect("second connection");
    let served = client
        .compile(spec("dot_product"))
        .expect("another client is served meanwhile");
    assert!(served.legal);
    // Wait until the hog's handler stops answering: between two `stats`
    // calls the daemon handles nothing but the second call.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = client.stats().expect("stats").requests;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = client.stats().expect("stats").requests;
        if now == last + 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the pipelined requests never stalled"
        );
        last = now;
    }
    assert!(
        (last as usize) < PIPELINED,
        "the daemon answered all {last} requests: the replies never backed up"
    );
    drop(client);

    stop.stop();
    let stopped = Instant::now();
    while !daemon.is_finished() && stopped.elapsed() < WRITE_TIMEOUT + Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        daemon.is_finished(),
        "run() still blocked {:?} after stop: a handler is stuck writing to a client that never reads",
        stopped.elapsed()
    );
    daemon.join().expect("daemon thread");
    drop(hog);
    writer.join().expect("writer thread");
}
