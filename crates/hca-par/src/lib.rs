//! Deterministic data parallelism for the HCA workspace.
//!
//! A tiny scoped worker pool over `std::thread` exposing exactly the
//! patterns the compiler uses: `par_map` (shared input, collected in index
//! order) for the driver's escalation tiers and sibling sub-problems, and
//! `try_par_map` (the same, with per-item panic isolation) for the serve
//! daemon's batches. The design contract is **determinism**: every
//! function returns results in input order, so callers that merge
//! sequentially afterwards produce bit-identical output whatever the thread
//! count. Thread scheduling only decides *who* computes an element, never
//! *where* its result lands.
//!
//! Thread count resolution, in precedence order:
//!
//! 1. [`set_thread_override`] (programmatic, used by determinism tests),
//! 2. the `HCA_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`] (read once per process: it
//!    reads cgroup files, tens of microseconds per call, and every map
//!    consults the width).
//!
//! Helper budget: a pool of width `w` lends at most `w − 1` helper threads
//! at a time, process-wide. A map claims `min(len − 1, free)` of them, and
//! its calling thread drains the same work cursor as its helpers, so a map
//! that finds no free helper simply runs on its caller. A helper hands its
//! permit back as soon as the cursor runs dry, so a nested map that starts
//! later — say inside the largest sibling's subtree, on whichever thread
//! still has work — can claim it. However deep maps nest, one caller never
//! has more than `w` threads working for it.
//!
//! Occupants: a service that runs several requests at once (the serve
//! daemon runs one handler per connection) holds an [`occupy`] guard per
//! running request. Each occupant holds one core, so the helper budget is
//! `w − max(1, occupants)`: a map lends helpers only to cores no running
//! request holds. With no occupant it is `w − 1`, as above.

#![forbid(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A worker closure panicked while processing one item.
///
/// [`try_par_map`] turns each panic into one of these instead of aborting
/// the whole map: a long-running service can fail the one affected request
/// and keep serving the rest. The original payload is reduced to its
/// message (panic payloads are `Box<dyn Any>` and rarely more structured
/// than a string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Input index of the item whose closure panicked.
    pub index: usize,
    /// The panic message, if the payload carried one.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Extract the human-readable message from a panic payload.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Programmatic thread-count override; 0 = unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `HCA_THREADS`, parsed once per process.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// [`std::thread::available_parallelism`], read once per process.
static HOST_THREADS: OnceLock<usize> = OnceLock::new();

/// Helper threads currently lent out, process-wide; at most
/// [`configured_threads`] − 1.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Cores held by running requests (see [`occupy`]).
static OCCUPANTS: AtomicUsize = AtomicUsize::new(0);

/// Force the pool width programmatically (`None` restores the environment
/// default). Takes precedence over `HCA_THREADS`. Used by determinism tests
/// to compare 1-thread and N-thread runs inside one process.
pub fn set_thread_override(threads: Option<usize>) {
    OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// Parse an `HCA_THREADS` value: `Ok(n)` for a usable width, `Err(reason)`
/// for anything that must fall back to the default (empty, non-numeric, or
/// zero — a zero-wide pool cannot make progress).
fn parse_hca_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".into());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(e.to_string()),
    }
}

/// The configured pool width (≥ 1).
pub fn configured_threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    // Parsed once per process; an unusable value warns once on stderr (not
    // silently swallowed) and the pool falls back to the default width.
    let env = *ENV_THREADS.get_or_init(|| match std::env::var("HCA_THREADS") {
        Ok(raw) => match parse_hca_threads(&raw) {
            Ok(n) => Some(n),
            Err(reason) => {
                eprintln!(
                    "warning: ignoring HCA_THREADS={raw:?} ({reason}); \
                     using the default thread count"
                );
                None
            }
        },
        Err(_) => None,
    });
    env.unwrap_or_else(|| {
        *HOST_THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Mark the calling request as holding one core of the pool until the
/// guard drops. While `k ≥ 1` guards live, maps lend at most
/// `configured_threads() − k` helpers between them, so `k` concurrent
/// requests and their helpers never oversubscribe the pool width.
pub fn occupy() -> Occupancy {
    OCCUPANTS.fetch_add(1, Ordering::SeqCst);
    Occupancy
}

/// A core held by a running request; see [`occupy`].
#[must_use = "the core is released when the guard drops"]
pub struct Occupancy;

impl Drop for Occupancy {
    fn drop(&mut self) {
        OCCUPANTS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claim up to `want` helper permits from the budget of
/// `configured_threads() − max(1, occupants)`; fewer (or none) when the
/// budget is short.
fn claim_helpers(want: usize) -> Vec<Permit> {
    let held = OCCUPANTS.load(Ordering::SeqCst).max(1);
    let budget = configured_threads().saturating_sub(held);
    let mut lent = HELPERS.load(Ordering::SeqCst);
    loop {
        let grant = want.min(budget.saturating_sub(lent));
        if grant == 0 {
            return Vec::new();
        }
        match HELPERS.compare_exchange_weak(lent, lent + grant, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => return (0..grant).map(|_| Permit).collect(),
            Err(now) => lent = now,
        }
    }
}

/// One claimed helper permit, returned to the budget on drop — also when
/// the helper that owns it is never spawned. Only [`claim_helpers`] makes
/// them.
struct Permit;

impl Drop for Permit {
    fn drop(&mut self) {
        HELPERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A caught panic payload, as `std::thread` reports it.
type Payload = Box<dyn Any + Send>;

/// Shared engine of [`par_map`] / [`try_par_map`]: map `f` over `items`
/// with every panic caught per item, results (or payloads) collected in
/// input order. Workers keep draining the cursor after a panic, so every
/// item is attempted exactly once whatever its neighbours did.
fn par_map_catch<'a, T, R, F>(items: &'a [T], f: F) -> Vec<Result<R, Payload>>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let run_one = |item: &'a T| catch_unwind(AssertUnwindSafe(|| f(item)));
    let permits = claim_helpers(items.len().saturating_sub(1));
    if permits.is_empty() {
        return items.iter().map(run_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let drain = &|| {
        let mut produced: Vec<(usize, Result<R, Payload>)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                return produced;
            }
            produced.push((i, run_one(&items[i])));
        }
    };
    let mut produced = std::thread::scope(|scope| {
        let helpers: Vec<_> = permits
            .into_iter()
            .filter_map(|permit| {
                // A failed spawn drops the closure, and with it the permit;
                // the caller then drains the items that helper would have.
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || {
                        let produced = drain();
                        drop(permit);
                        produced
                    })
                    .ok()
            })
            .collect();
        let mut produced = drain();
        for helper in helpers {
            // The helper closure cannot panic (f is inside catch_unwind),
            // so a join error would be a bug in this module itself.
            produced.extend(helper.join().expect("pool helper cannot panic"));
        }
        produced
    });
    // Each index was taken from the cursor exactly once.
    produced.sort_unstable_by_key(|&(i, _)| i);
    produced.into_iter().map(|(_, r)| r).collect()
}

/// Map `f` over `items` and collect the results **in input order**.
///
/// The caller and up to `min(len − 1, free)` helpers from the process-wide
/// budget (see the module docs) take items from one atomic cursor (good
/// balance for items of uneven cost, like escalation tiers of different
/// beam widths or sibling subtrees of different sizes); each thread tags
/// results with their index, and the merge places them positionally, so
/// the output is independent of scheduling. Runs on the caller alone when
/// the pool width is 1, the input is trivial, or no helper is free.
///
/// A panic in `f` propagates to the caller with its original payload —
/// deterministically the panic of the **lowest input index**, whatever the
/// thread interleaving (use [`try_par_map`] to keep the survivors instead).
pub fn par_map<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in par_map_catch(items, f) {
        match r {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// [`par_map`] with per-item panic isolation: each item maps to
/// `Ok(result)` or `Err(WorkerPanic)`, in input order. A panicking closure
/// fails only its own item — every other item still runs to completion and
/// keeps its deterministic slot. This is the dispatch primitive for
/// long-running services, where one poisoned request must not take down
/// the batch (or the process).
pub fn try_par_map<'a, T, R, F>(items: &'a [T], f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    par_map_catch(items, f)
        .into_iter()
        .enumerate()
        .map(|(index, r)| {
            r.map_err(|payload| WorkerPanic {
                index,
                message: payload_message(payload.as_ref()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the global override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn par_map_preserves_order() {
        let _g = LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
        set_thread_override(None);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..257).collect();
        let mut runs = Vec::new();
        for threads in [1, 2, 7] {
            set_thread_override(Some(threads));
            runs.push(par_map(&items, |&x| x.wrapping_mul(0x9E37_79B9) >> 3));
        }
        set_thread_override(None);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    /// Take [`LOCK`], also after a test that panics on purpose poisoned it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counts the distinct threads currently inside a counted closure and
    /// keeps the high-water mark; a thread running a nested map's item
    /// inside an outer item counts once.
    #[derive(Default)]
    struct LiveThreads {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    thread_local! {
        static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl LiveThreads {
        fn counted<R>(&self, f: impl FnOnce() -> R) -> R {
            if DEPTH.replace(DEPTH.get() + 1) == 0 {
                let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
            }
            let out = f();
            if DEPTH.replace(DEPTH.get() - 1) == 1 {
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
            out
        }
    }

    #[test]
    fn nested_maps_stay_within_the_pool_width() {
        let _g = serial();
        for width in [2, 4] {
            set_thread_override(Some(width));
            let live = LiveThreads::default();
            let outer: Vec<u64> = (0..6).collect();
            let out = par_map(&outer, |&a| {
                live.counted(|| {
                    let mid: Vec<u64> = (0..5).collect();
                    par_map(&mid, |&b| {
                        live.counted(|| {
                            let inner: Vec<u64> = (0..4).collect();
                            par_map(&inner, |&c| {
                                live.counted(|| {
                                    // Enough work per leaf for helpers to overlap.
                                    std::hint::black_box((0..20_000u64).fold(c, |s, x| s ^ x));
                                    a * 100 + b * 10 + c
                                })
                            })
                        })
                    })
                })
            });
            let want: Vec<Vec<Vec<u64>>> = (0..6)
                .map(|a| {
                    (0..5)
                        .map(|b| (0..4).map(|c| a * 100 + b * 10 + c).collect())
                        .collect()
                })
                .collect();
            assert_eq!(out, want, "width {width}: results out of input order");
            let peak = live.peak.load(Ordering::SeqCst);
            assert!(
                peak <= width,
                "width {width}: {peak} threads ran items at once"
            );
            assert_eq!(
                HELPERS.load(Ordering::SeqCst),
                0,
                "width {width}: leaked permit"
            );
        }
        set_thread_override(None);
    }

    /// Blocks each of `n` callers until all `n` arrived, failing (not
    /// hanging) when they never overlap.
    struct Rendezvous {
        arrived: std::sync::Mutex<usize>,
        all_in: std::sync::Condvar,
        n: usize,
    }

    impl Rendezvous {
        fn wait(&self) {
            let mut arrived = self.arrived.lock().expect("rendezvous lock");
            *arrived += 1;
            self.all_in.notify_all();
            let (arrived, timeout) = self
                .all_in
                .wait_timeout_while(arrived, std::time::Duration::from_secs(10), |a| *a < self.n)
                .expect("rendezvous lock");
            drop(arrived);
            assert!(!timeout.timed_out(), "items never ran at the same time");
        }
    }

    #[test]
    fn caller_runs_items_too() {
        let _g = serial();
        set_thread_override(Some(2));
        let met = Rendezvous {
            arrived: std::sync::Mutex::new(0),
            all_in: std::sync::Condvar::new(),
            n: 2,
        };
        let ids = par_map(&[0u8, 1], |_| {
            met.wait();
            std::thread::current().id()
        });
        set_thread_override(None);
        assert_ne!(ids[0], ids[1], "both items ran on one thread");
        assert!(
            ids.contains(&std::thread::current().id()),
            "the caller ran no item"
        );
        assert_eq!(
            HELPERS.load(Ordering::SeqCst),
            0,
            "a helper outlived its map"
        );
    }

    #[test]
    fn occupants_hold_cores_of_the_budget() {
        let _g = serial();
        set_thread_override(Some(2));
        let items = [0u8, 1, 2, 3];
        let caller = std::thread::current().id();
        // Two running requests hold both cores: the map runs on its caller.
        let (a, b) = (occupy(), occupy());
        let ids = par_map(&items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "a helper ran an item");
        drop(b);
        // One request holds one core: the other is lent as a helper, so two
        // items run at the same time.
        let met = Rendezvous {
            arrived: std::sync::Mutex::new(0),
            all_in: std::sync::Condvar::new(),
            n: 2,
        };
        let ids = par_map(&items[..2], |_| {
            met.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "no helper was lent");
        drop(a);
        set_thread_override(None);
        assert_eq!(OCCUPANTS.load(Ordering::SeqCst), 0, "leaked occupant");
        assert_eq!(HELPERS.load(Ordering::SeqCst), 0, "leaked permit");
    }

    #[test]
    fn try_par_map_isolates_panics_in_nested_maps() {
        let _g = serial();
        for width in [1, 2, 4] {
            set_thread_override(Some(width));
            let outer: Vec<u32> = (0..6).collect();
            let out = try_par_map(&outer, |&a| {
                assert!(a != 4, "outer item {a}");
                let inner: Vec<u32> = (0..5).collect();
                try_par_map(&inner, |&b| {
                    assert!((a + b) % 3 != 0, "inner item {a}.{b}");
                    a * 10 + b
                })
            });
            for (a, r) in out.iter().enumerate() {
                if a == 4 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!((err.index, err.message.as_str()), (4, "outer item 4"));
                    continue;
                }
                let inner = r.as_ref().expect("an inner panic stays inside its map");
                for (b, ir) in inner.iter().enumerate() {
                    let (a, b) = (a as u32, b as u32);
                    if (a + b) % 3 == 0 {
                        let err = ir.as_ref().unwrap_err();
                        assert_eq!(err.index, b as usize);
                        assert_eq!(err.message, format!("inner item {a}.{b}"));
                    } else {
                        assert_eq!(*ir.as_ref().unwrap(), a * 10 + b);
                    }
                }
            }
            assert_eq!(
                HELPERS.load(Ordering::SeqCst),
                0,
                "width {width}: leaked permit"
            );
        }
        set_thread_override(None);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_original_payload() {
        let _g = match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        set_thread_override(Some(2));
        let items = vec![1u32, 2, 3, 4];
        let _ = par_map(&items, |&x| {
            assert!(x != 3, "boom");
            x
        });
    }

    #[test]
    fn par_map_propagates_lowest_index_panic() {
        let _g = match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        set_thread_override(Some(4));
        let items: Vec<u32> = (0..64).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = par_map(&items, |&x| {
                if x == 7 || x == 40 {
                    panic!("item {x} failed");
                }
                x
            });
        }))
        .unwrap_err();
        // Whatever thread hit which item first, index 7's payload wins.
        assert_eq!(payload_message(payload.as_ref()), "item 7 failed");
        set_thread_override(None);
    }

    #[test]
    fn try_par_map_isolates_panics_to_their_item() {
        let _g = match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let items: Vec<u32> = (0..32).collect();
            let out = try_par_map(&items, |&x| {
                if x % 10 == 3 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 10 == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, i);
                    assert_eq!(err.message, format!("poisoned item {i}"));
                } else {
                    // Survivors keep their deterministic slot and value.
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
                }
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn try_par_map_all_ok_roundtrip() {
        let _g = match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        set_thread_override(Some(3));
        let items: Vec<u64> = (0..100).collect();
        let out: Vec<u64> = try_par_map(&items, |&x| x + 1)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
        set_thread_override(None);
    }

    #[test]
    fn hca_threads_parsing() {
        assert_eq!(parse_hca_threads("4"), Ok(4));
        assert_eq!(parse_hca_threads("  16 "), Ok(16));
        assert_eq!(parse_hca_threads("1"), Ok(1));
        // Zero, garbage, negatives, and empty all fall back with a reason.
        assert!(parse_hca_threads("0").is_err());
        assert!(parse_hca_threads("").is_err());
        assert!(parse_hca_threads("   ").is_err());
        assert!(parse_hca_threads("four").is_err());
        assert!(parse_hca_threads("-2").is_err());
        assert!(parse_hca_threads("2.5").is_err());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[42u32], |&x| x + 1), vec![43]);
    }
}
