//! Finished connection handlers are joined while the daemon runs, not at
//! shutdown: an unjoined thread keeps its stack mapped. This test counts
//! the process's own thread-stack mappings, so it lives alone in its file
//! (its own process) where no parallel test moves the figure. It also
//! times its cycles: each new connection is accepted at once, not after a
//! listener poll.

#![cfg(target_os = "linux")]

use hca_serve::{Client, Server, ServerConfig};

/// `(start, end)` of every mapping in `/proc/self/maps`.
fn mappings() -> Vec<(usize, usize)> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    maps.lines()
        .filter_map(|l| {
            let (start, end) = l.split_whitespace().next()?.split_once('-')?;
            Some((
                usize::from_str_radix(start, 16).ok()?,
                usize::from_str_radix(end, 16).ok()?,
            ))
        })
        .collect()
}

/// Size of the mapping that holds a `std::thread::spawn` thread's stack —
/// the kind of thread the daemon gives each connection.
fn thread_stack_bytes() -> usize {
    std::thread::spawn(|| {
        let local = 0u8;
        let at = std::ptr::addr_of!(local) as usize;
        mappings()
            .into_iter()
            .find(|&(start, end)| (start..end).contains(&at))
            .map(|(start, end)| end - start)
            .expect("a mapping holds the thread's stack")
    })
    .join()
    .expect("probe thread")
}

#[test]
fn finished_connection_handlers_are_reaped() {
    let stack = thread_stack_bytes();
    let stacks = || mappings().iter().filter(|(s, e)| e - s == stack).count();
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let daemon = std::thread::spawn(move || server.run().expect("server run"));
    let cycle = || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        client.ping().expect("ping");
    };
    let start = std::time::Instant::now();
    // The first connections settle the allocator and its stack cache.
    for _ in 0..20 {
        cycle();
    }
    let before = stacks();
    // The daemon's own thread is live, so the probe must have found stacks.
    assert!(
        before > 0,
        "no mapping of {stack} bytes: the stack probe is off"
    );
    for _ in 0..300 {
        cycle();
    }
    let after = stacks();
    let elapsed = start.elapsed();
    stop.stop();
    daemon.join().expect("daemon thread");
    // Each unjoined handler keeps one stack mapped; a reaped one leaves at
    // most a slot in the C library's small cache of freed stacks.
    assert!(
        after < before + 64,
        "300 sequential connections left {after} thread stacks of {stack} bytes mapped \
         ({before} before): finished handlers are not joined"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(3),
        "320 connect/ping/close cycles took {elapsed:?}: connections wait for a poll"
    );
}
