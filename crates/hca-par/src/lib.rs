//! Deterministic data parallelism for the HCA workspace.
//!
//! A tiny scoped worker pool over `std::thread` exposing exactly the
//! patterns the compiler uses: `par_map` (shared input, collected in index
//! order) for the driver's sibling sub-problems, and `try_par_map` (the
//! same, with per-item panic isolation) for the serve daemon's batches.
//! The design contract is **determinism**: every function returns results
//! in input order, so callers that merge sequentially afterwards produce
//! bit-identical output whatever the thread count. Thread scheduling only
//! decides *who* computes an element, never *where* its result lands.
//!
//! Thread count resolution, in precedence order:
//!
//! 1. [`set_thread_override`] (programmatic, used by determinism tests),
//! 2. the `HCA_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested calls run inline: a worker thread that itself calls `par_map`
//! executes sequentially instead of spawning threads-under-threads. The
//! HCA driver recurses through the decomposition tree and fans out each
//! level's siblings — without this rule the fan-out would be
//! multiplicative.

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
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

thread_local! {
    /// Set inside pool workers so nested calls degrade to inline execution.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

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
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Is the current thread already inside a pool worker?
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Threads that would actually be spawned for `len` items right now.
fn effective_threads(len: usize) -> usize {
    if len < 2 || in_worker() {
        1
    } else {
        configured_threads().min(len)
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
    let threads = effective_threads(items.len());
    let run_one = |item: &'a T| catch_unwind(AssertUnwindSafe(|| f(item)));
    if threads <= 1 {
        return items.iter().map(run_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, Payload>>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut produced: Vec<(usize, Result<R, Payload>)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        produced.push((i, run_one(&items[i])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // The worker closure cannot panic (f is inside catch_unwind),
            // so a join error would be a bug in this module itself.
            for (i, r) in handle.join().expect("pool worker cannot panic") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

/// Map `f` over `items` and collect the results **in input order**.
///
/// Work is distributed by an atomic cursor (good balance for items of
/// uneven cost, like beam states of different maturity); each worker tags
/// results with their index, and the merge places them positionally, so the
/// output is independent of scheduling. Runs inline when the pool width is
/// 1, the input is trivial, or the caller is itself a pool worker.
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

    #[test]
    fn nested_calls_run_inline() {
        let _g = LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |&i| {
            assert!(in_worker());
            let inner: Vec<usize> = (0..4).collect();
            // Must not deadlock or explode the thread count.
            par_map(&inner, move |&j| i * 10 + j)
        });
        assert_eq!(out[1], vec![10, 11, 12, 13]);
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
