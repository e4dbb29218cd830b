//! `asteria-exec` — a deterministic scoped worker pool for the
//! workspace's hot paths.
//!
//! The paper's own cost breakdown (Fig. 10) shows the offline phase —
//! decompile + Tree-LSTM encoding at ~1 s/function over a 5,979-image
//! corpus — dominates total cost. This crate provides the execution layer
//! that fans that work out across cores without changing a single bit of
//! the output:
//!
//! - [`par_map_chunked`] — an order-preserving parallel map over
//!   `std::thread::scope` + channels. Work is claimed in chunks from a
//!   shared atomic cursor, results are keyed by input index, and the
//!   output `Vec` is assembled in input order, so the result is
//!   **bit-identical to the serial map at every thread count** (each item
//!   is computed by the same code on the same input; only wall-clock
//!   scheduling varies).
//! - [`par_map_threads`] — the same map claiming one item at a time, for
//!   expensive per-item closures (encoding a binary, answering a query).
//! - [`par_levels`] — a level-synchronous parallel loop for work whose
//!   items depend on earlier levels (a tree evaluated bottom-up): one
//!   team of workers per call, a barrier between levels, and narrow
//!   levels run on the calling thread alone.
//! - [`thread_count`] / [`resolve_threads`] — thread-count policy:
//!   `ASTERIA_THREADS` (env) overrides, else
//!   [`std::thread::available_parallelism`].
//!
//! Stage timing is not kept here: workers inherit the caller's open
//! `asteria-obs` span path, so their spans nest under the caller's
//! stage span and the one recorder accounts for every stage.
//!
//! No external dependencies (no rayon): the build environment is
//! offline, and the pool is ~60 lines of `std`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Environment variable overriding the worker-thread count (`0` or unset
/// means "use all available cores").
pub const THREADS_ENV: &str = "ASTERIA_THREADS";

/// The default worker-thread count: the [`THREADS_ENV`] override when set
/// to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if that fails).
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` means "auto" (the
/// [`thread_count`] policy), anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        thread_count()
    } else {
        requested
    }
}

/// Order-preserving parallel map over `threads` workers (`0` = auto),
/// claiming one item at a time: [`par_map_chunked`] with chunks of one.
///
/// Every item is mapped by the same closure on the same input regardless
/// of the thread count, and results are placed by input index, so the
/// output is bit-identical to `items.iter().map(f).collect()` — the
/// invariant the determinism tests pin down. With one worker (or one
/// item) the map runs inline without spawning.
///
/// Panics in `f` propagate to the caller once the scope joins.
pub fn par_map_threads<I, T, F>(threads: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_chunked(threads, 1, items, f)
}

/// Order-preserving parallel map that claims work in chunks of
/// `chunk_size` items (`0` = auto-size so each worker sees a handful of
/// chunks). Same determinism contract as [`par_map_threads`]; use it when
/// the per-item closure is so cheap that per-item channel traffic would
/// dominate (e.g. scoring one cached encoding pair).
///
/// At most one worker per chunk is started, so items that fit in one
/// chunk are mapped on the calling thread without spawning.
pub fn par_map_chunked<I, T, F>(threads: usize, chunk_size: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    let chunk = if chunk_size == 0 {
        (items.len() / (threads * 4).max(1)).max(1)
    } else {
        chunk_size
    };
    let n_chunks = items.len().div_ceil(chunk);
    // A worker past the chunk count would find nothing to claim.
    let threads = threads.min(n_chunks);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunks = AtomicUsize::new(0);
    let parent = asteria_obs::current_path();
    let (tx, rx) = mpsc::channel::<(usize, Vec<T>)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let chunks = &chunks;
            let f = &f;
            let parent = parent.as_deref();
            s.spawn(move || {
                let _obs = asteria_obs::worker_scope(parent);
                loop {
                    let c = chunks.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(items.len());
                    let vals: Vec<T> = items[start..end].iter().map(f).collect();
                    if tx.send((start, vals)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<T>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        for (start, vals) in rx {
            for (off, v) in vals.into_iter().enumerate() {
                out[start + off] = Some(v);
            }
        }
        out.into_iter()
            .map(|v| v.expect("every index produced exactly once"))
            .collect()
    })
}

/// Items a [`par_levels`] worker claims at a time.
const LEVEL_CHUNK: usize = 2;

/// Levels with fewer items than this run on the calling thread alone: a
/// barrier costs about as much as a few microsecond-sized items.
const MIN_PARALLEL_LEVEL: usize = 4 * LEVEL_CHUNK;

/// Spins a barrier waiter makes before it starts yielding its core.
const BARRIER_SPINS: u32 = 1 << 10;

/// Runs `f(state, i)` for every `i` of every range in `levels`, level
/// after level: no item starts before every item of the earlier levels
/// has finished, and its writes are visible to it.
///
/// Within a level the items are independent. Up to `threads` workers
/// (`0` = auto) claim them in small chunks; a level of fewer than eight
/// items runs on the calling thread alone, and
/// consecutive such levels skip the barrier between them. Each worker
/// builds its own `state` once with `init`. One call spawns its workers
/// once, whatever the number of levels, and waits on a spinning barrier,
/// so a level costs microseconds, not a thread spawn.
///
/// `f` must not depend on which worker runs an item for its results to
/// be the same at every thread count. A panic in `f` releases the other
/// workers and propagates to the caller once they have joined.
pub fn par_levels<S, I, F>(threads: usize, levels: &[Range<usize>], init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let parallel = |level: &Range<usize>| level.len() >= MIN_PARALLEL_LEVEL;
    let widest = levels.iter().map(Range::len).max().unwrap_or(0);
    let threads = resolve_threads(threads).min(widest.div_ceil(LEVEL_CHUNK));
    if threads <= 1 || !levels.iter().any(parallel) {
        let mut state = init();
        for i in levels.iter().flat_map(Range::clone) {
            f(&mut state, i);
        }
        return;
    }
    let barrier = SpinBarrier::new(threads);
    let cursors: Vec<AtomicUsize> = levels.iter().map(|l| AtomicUsize::new(l.start)).collect();
    let work = |worker: usize| {
        let _poison = PoisonOnPanic(&barrier);
        let mut state = init();
        for (l, (level, cursor)) in levels.iter().zip(&cursors).enumerate() {
            if parallel(level) {
                loop {
                    let start = cursor.fetch_add(LEVEL_CHUNK, Ordering::Relaxed);
                    if start >= level.end {
                        break;
                    }
                    for i in start..(start + LEVEL_CHUNK).min(level.end) {
                        f(&mut state, i);
                    }
                }
            } else if worker == 0 {
                for i in level.clone() {
                    f(&mut state, i);
                }
            }
            // A narrow level followed by another runs on worker 0 both
            // times, which orders them without a barrier.
            let next_parallel = levels.get(l + 1).is_some_and(parallel);
            let last = l + 1 == levels.len();
            if !last && (parallel(level) || next_parallel) && !barrier.wait() {
                return;
            }
        }
    };
    let parent = asteria_obs::current_path();
    std::thread::scope(|s| {
        for worker in 1..threads {
            let work = &work;
            let parent = parent.as_deref();
            s.spawn(move || {
                let _obs = asteria_obs::worker_scope(parent);
                work(worker)
            });
        }
        work(0);
    });
}

/// A reusable barrier for the short, frequent waits of [`par_levels`]:
/// waiters spin, then yield, instead of sleeping on a condition variable.
struct SpinBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Set when a worker panics, so the others stop waiting for it.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(threads: usize) -> SpinBarrier {
        SpinBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Waits until all `threads` workers have arrived; `false` when a
    /// worker panicked instead.
    ///
    /// Every write a worker made before arriving is visible to every
    /// worker after this returns: the arrivals form one release sequence
    /// on `arrived`, the last arriver acquires it and releases
    /// `generation`, and the waiters acquire `generation`.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return !self.poisoned.load(Ordering::Acquire);
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if spins < BARRIER_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        !self.poisoned.load(Ordering::Acquire)
    }
}

/// Poisons the barrier if its worker unwinds.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_threads(threads, &items, |x| x.wrapping_mul(0x9E3779B9));
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn par_map_chunked_matches_serial() {
        let items: Vec<i64> = (0..1000).collect();
        let serial: Vec<i64> = items.iter().map(|x| x * x - 3).collect();
        for (threads, chunk) in [(2, 1), (4, 7), (8, 0), (3, 1000), (2, 5000)] {
            let par = par_map_chunked(threads, chunk, &items, |x| x * x - 3);
            assert_eq!(par, serial, "{threads} threads, chunk {chunk}");
        }
    }

    #[test]
    fn par_map_preserves_float_bits() {
        // The whole point: floating-point results must be bit-identical,
        // not merely approximately equal.
        let items: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let f = |x: &f64| (x * 1.000000119).exp().ln() + x.sqrt();
        let serial: Vec<u64> = items.iter().map(|x| f(x).to_bits()).collect();
        for threads in [2, 5] {
            let par: Vec<u64> = par_map_threads(threads, &items, |x| f(x).to_bits());
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(4, &empty, |x| x + 1).is_empty());
        assert_eq!(par_map_threads(4, &[41u32], |x| x + 1), vec![42]);
        assert_eq!(par_map_chunked(4, 3, &[1u32, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn items_that_fit_in_one_chunk_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..32).collect();
        for threads in [2, 8] {
            for chunk in [32, 100] {
                let ran_on =
                    par_map_chunked(threads, chunk, &items, |_| std::thread::current().id());
                assert!(
                    ran_on.iter().all(|&id| id == caller),
                    "{threads} threads, chunk {chunk}: a worker was started"
                );
            }
        }
    }

    #[test]
    fn items_past_one_chunk_run_on_concurrent_workers() {
        // The first item of each chunk waits until both chunks have
        // started: only two workers running at once get past it.
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        for threads in [2, 8] {
            started.store(0, Ordering::Relaxed);
            let ran_on = par_map_chunked(threads, 32, &items, |&i| {
                if i % 32 == 0 {
                    started.fetch_add(1, Ordering::AcqRel);
                    let t0 = std::time::Instant::now();
                    while started.load(Ordering::Acquire) < 2 {
                        assert!(t0.elapsed().as_secs() < 30, "the other chunk never started");
                        std::thread::yield_now();
                    }
                }
                std::thread::current().id()
            });
            assert!(ran_on.iter().all(|&id| id != caller), "{threads} threads");
            assert_ne!(ran_on[0], ran_on[32], "{threads} threads");
        }
    }

    #[test]
    fn resolve_threads_contract() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(thread_count() >= 1);
    }

    /// Levels of the given widths over consecutive item ranges.
    fn levels_of(widths: &[usize]) -> Vec<Range<usize>> {
        let mut start = 0;
        widths
            .iter()
            .map(|&w| {
                start += w;
                start - w..start
            })
            .collect()
    }

    #[test]
    fn par_levels_runs_every_item_once_after_its_level_deps() {
        // Item i of a level reads items of the level before it, so a
        // missing barrier or a double run shows as a wrong value.
        let widths = [1, 40, 3, 2, 64, 7, 1, 33, 0, 9];
        let levels = levels_of(&widths);
        let n: usize = widths.iter().sum();
        let reference = {
            let mut v = vec![0u64; n];
            for (l, level) in levels.iter().enumerate() {
                for i in level.clone() {
                    let below = levels[..l]
                        .last()
                        .map_or(1, |p| p.clone().map(|j| v[j]).fold(1u64, u64::wrapping_add));
                    v[i] = below.wrapping_mul(i as u64 + 3);
                }
            }
            v
        };
        for threads in [1, 2, 3, 8] {
            let cells: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let level_of: Vec<usize> = levels
                .iter()
                .enumerate()
                .flat_map(|(l, r)| r.clone().map(move |_| l))
                .collect();
            par_levels(
                threads,
                &levels,
                || (),
                |_, i| {
                    let l = level_of[i];
                    let below = levels[..l].last().map_or(1, |p| {
                        p.clone()
                            .map(|j| cells[j].load(Ordering::Relaxed) as u64)
                            .fold(1u64, u64::wrapping_add)
                    });
                    cells[i].store(below.wrapping_mul(i as u64 + 3) as usize, Ordering::Relaxed);
                    runs[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            let got: Vec<u64> = cells
                .iter()
                .map(|c| c.load(Ordering::Relaxed) as u64)
                .collect();
            assert_eq!(got, reference, "{threads} threads");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn par_levels_handles_no_levels_and_empty_levels() {
        par_levels(4, &[], || (), |_, _| unreachable!("no items"));
        par_levels(
            4,
            &levels_of(&[0, 0]),
            || (),
            |_, _| unreachable!("no items"),
        );
    }

    #[test]
    fn par_levels_propagates_a_panic_without_hanging() {
        let levels = levels_of(&[32, 32, 32]);
        let result = std::panic::catch_unwind(|| {
            par_levels(
                2,
                &levels,
                || (),
                |_, i| {
                    if i == 40 {
                        panic!("item 40 fails");
                    }
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn borrowed_captures_work_in_workers() {
        // The scoped pool must let closures borrow the caller's stack
        // (the model reference in the real pipeline).
        let table: Vec<u32> = (0..32).map(|i| i * 3).collect();
        let out = par_map_threads(4, &(0..32usize).collect::<Vec<_>>(), |i| table[*i]);
        assert_eq!(out, table);
    }
}
