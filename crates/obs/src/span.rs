//! Hierarchical spans: enter/exit wall-time with parent linkage.
//!
//! Each thread keeps a stack of open span paths (parent linkage) and a
//! local buffer of finished records. Buffers flush into the global
//! collector when they fill, when a worker's [`ThreadRootGuard`] drops,
//! when the thread exits, and when a sink renders — so the hot path
//! takes the global lock rarely, and the merge order is made
//! deterministic by sorting on `(start_us, seq)` where `seq` is a global
//! monotone sequence number.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use crate::{collector, relock, Collector};

/// Records buffered per thread before the local buffer spills into the
/// global collector.
const FLUSH_AT: usize = 128;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Full path from the thread root, `/`-separated
    /// (`"index-build/encode-binary"`). Parent linkage is the prefix.
    pub path: String,
    /// Microseconds since the collector epoch at enter.
    pub start_us: u64,
    /// Wall-clock duration in microseconds (monotonic clock).
    pub dur_us: u64,
    /// Work items the span covered (0 when unset) — per-stage items/sec
    /// in the summary derives from this.
    pub items: u64,
    /// Ordinal of the recording thread (first-use order).
    pub thread: u32,
    /// Global sequence number: the deterministic merge tiebreak.
    pub seq: u64,
}

impl SpanRecord {
    /// Nesting depth (number of `/` separators).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// The final path segment (the span's own name).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

struct LocalBuf {
    recs: Vec<SpanRecord>,
    thread: u32,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        LocalBuf {
            recs: Vec::new(),
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn flush_into(&mut self, c: &Collector) {
        if !self.recs.is_empty() {
            relock(c.spans.lock()).append(&mut self.recs);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // Thread exit: spill whatever is left so scoped worker threads
        // never lose records.
        if let Some(c) = crate::COLLECTOR.get() {
            self.flush_into(c);
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static BUF: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

/// Spills the calling thread's buffered records into the collector.
pub(crate) fn flush_current_thread() {
    if let Some(c) = crate::COLLECTOR.get() {
        let _ = BUF.try_with(|b| b.borrow_mut().flush_into(c));
    }
}

#[derive(Debug)]
struct Active {
    path: String,
    start: Instant,
    start_us: u64,
    items: u64,
}

/// Guard for an open span; the record is written when it drops.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<Active>,
}

pub(crate) fn enter(name: &str) -> SpanGuard {
    let Some(c) = collector() else {
        return SpanGuard { active: None };
    };
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let path = match s.last() {
            Some(top) => format!("{top}/{name}"),
            None => name.to_string(),
        };
        s.push(path.clone());
        path
    });
    SpanGuard {
        active: Some(Active {
            path,
            start: Instant::now(),
            start_us: c.now_us(),
            items: 0,
        }),
    }
}

impl SpanGuard {
    /// Annotates the span with the number of work items it covers.
    pub fn set_items(&mut self, items: u64) {
        if let Some(a) = self.active.as_mut() {
            a.items = items;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_us = a.start.elapsed().as_micros() as u64;
        let _ = STACK.try_with(|s| {
            s.borrow_mut().pop();
        });
        let _ = BUF.try_with(|b| {
            let mut b = b.borrow_mut();
            let rec = SpanRecord {
                path: a.path,
                start_us: a.start_us,
                dur_us,
                items: a.items,
                thread: b.thread,
                seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            };
            b.recs.push(rec);
            if b.recs.len() >= FLUSH_AT {
                if let Some(c) = crate::COLLECTOR.get() {
                    b.flush_into(c);
                }
            }
        });
    }
}

pub(crate) fn current_path() -> Option<String> {
    collector()?;
    STACK.with(|s| s.borrow().last().cloned())
}

/// Guard bracketing a worker thread's lifetime: injects the spawning
/// thread's span path as the worker's root (when given one) and, on
/// drop, spills the worker's buffered records into the collector.
///
/// The drop-time flush is what makes worker spans visible to the caller:
/// `std::thread::scope` may return as soon as the worker *closure*
/// finishes, before the thread's TLS destructors (the backstop flush)
/// run — so without this guard, records could surface in a later
/// recording window, or after a `reset`.
#[derive(Debug)]
pub struct ThreadRootGuard {
    pushed: bool,
}

pub(crate) fn push_thread_root(path: &str) -> ThreadRootGuard {
    if collector().is_none() {
        return ThreadRootGuard { pushed: false };
    }
    STACK.with(|s| s.borrow_mut().push(path.to_string()));
    ThreadRootGuard { pushed: true }
}

pub(crate) fn worker_scope(parent: Option<&str>) -> ThreadRootGuard {
    match parent {
        Some(path) => push_thread_root(path),
        None => ThreadRootGuard { pushed: false },
    }
}

impl Drop for ThreadRootGuard {
    fn drop(&mut self) {
        if self.pushed {
            let _ = STACK.try_with(|s| {
                s.borrow_mut().pop();
            });
        }
        // Flush even when nothing was pushed: spans recorded by this
        // worker must land before the spawning scope returns.
        flush_current_thread();
    }
}
