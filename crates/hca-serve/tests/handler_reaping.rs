//! Finished connection handlers are joined while the daemon runs, not at
//! shutdown: an unjoined thread keeps its stack mapped. This test reads the
//! process's own `VmSize`, so it lives alone in its file (its own process)
//! where no parallel test moves the figure. It also times its cycles: each
//! new connection is accepted at once, not after a listener poll.

#![cfg(target_os = "linux")]

use hca_serve::{Client, Server, ServerConfig};

/// The process's virtual size in KiB, from `/proc/self/status`.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmSize line in kB")
}

#[test]
fn finished_connection_handlers_are_reaped() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));
    let cycle = || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        client.ping().expect("ping");
    };
    let start = std::time::Instant::now();
    // The first connections settle the allocator's per-thread arenas.
    for _ in 0..20 {
        cycle();
    }
    let before = vm_size_kib();
    for _ in 0..300 {
        cycle();
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    let elapsed = start.elapsed();
    stop.stop();
    daemon.join().expect("daemon thread");
    assert!(
        grown_mib < 128,
        "300 sequential connections grew VmSize by {grown_mib} MiB: finished handlers are not joined"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(3),
        "320 connect/ping/close cycles took {elapsed:?}: connections wait for a poll"
    );
}
