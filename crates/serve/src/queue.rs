//! The bounded request queue: the server's backpressure point.
//!
//! Producers (connection readers) `try_push` and get an immediate
//! [`PushError::Full`] when the queue is at capacity — the server turns
//! that into a typed `overloaded` response instead of growing memory
//! without bound. Several batchers (one per session worker) `pop_batch`
//! concurrently: each blocks for the first item, then takes whatever is
//! already queued up to its batch size, and never waits for more. Each
//! item goes to exactly one batcher. `pop_batch` returns `None` only
//! when the queue is closed **and** drained, so graceful shutdown never
//! drops an accepted request.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was rejected; the item comes back to the caller.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (backpressure — reply `overloaded`).
    Full(T),
    /// The queue is closed (shutdown — reply `shutting_down`).
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A Mutex+Condvar bounded MPMC queue (many readers, many batchers).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

/// A poisoned lock only means another thread panicked mid-operation; the
/// queue's state is still structurally sound, and the server must keep
/// draining rather than cascade the panic.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Current depth (for the queue-depth gauge).
    pub fn len(&self) -> usize {
        relock(self.inner.lock()).items.len()
    }

    /// Enqueues without blocking; returns the new depth.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`] — the item is returned either way.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = relock(self.inner.lock());
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Closes the queue: further pushes fail, and `pop_batch` returns
    /// `None` once the remaining items are drained.
    pub fn close(&self) {
        relock(self.inner.lock()).closed = true;
        self.nonempty.notify_all();
    }

    /// Takes the next batch: blocks until at least one item is queued,
    /// then takes up to `max` of the items already queued, in FIFO
    /// order. Returns `None` only when the queue is closed and fully
    /// drained.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut inner = relock(self.inner.lock());
        while inner.items.is_empty() {
            if inner.closed {
                return None;
            }
            inner = relock(self.nonempty.wait(inner));
        }
        let n = max.max(1).min(inner.items.len());
        Some(inner.items.drain(..n).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("fits");
        }
        let batch = q.pop_batch(16).expect("has items");
        assert_eq!(batch, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_rejects_with_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("fits");
        q.try_push(2).expect("fits");
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_pops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).expect("fits");
        q.try_push(2).expect("fits");
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(item)) => assert_eq!(item, 3),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Drain continues after close.
        assert_eq!(q.pop_batch(1), Some(vec![1]));
        assert_eq!(q.pop_batch(4), Some(vec![2]));
        assert_eq!(q.pop_batch(4), None);
    }

    #[test]
    fn pop_blocks_until_an_item_arrives() {
        let q = Arc::new(BoundedQueue::new(4));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                q.try_push(42).expect("fits");
            })
        };
        let batch = q.pop_batch(4).expect("item arrives");
        assert_eq!(batch, vec![42]);
        producer.join().expect("producer");
    }

    #[test]
    fn pop_returns_what_is_queued_without_waiting_for_more() {
        let q = Arc::new(BoundedQueue::new(16));
        q.try_push(1).expect("fits");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                q.try_push(2).expect("fits");
            })
        };
        let t0 = Instant::now();
        let batch = q.pop_batch(16).expect("has items");
        let waited = t0.elapsed();
        assert_eq!(batch, vec![1], "the late item is not waited for");
        assert!(waited < Duration::from_millis(100), "waited {waited:?}");
        producer.join().expect("producer");
        assert_eq!(q.pop_batch(16), Some(vec![2]));
    }

    #[test]
    fn concurrent_poppers_receive_every_item_exactly_once() {
        const ITEMS: u32 = 1000;
        let q = Arc::new(BoundedQueue::new(ITEMS as usize));
        let poppers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.pop_batch(3) {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        for i in 0..ITEMS {
            q.try_push(i).expect("fits");
        }
        q.close();
        let mut all: Vec<u32> = poppers
            .into_iter()
            .flat_map(|p| p.join().expect("popper"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let poppers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_batch(4))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for p in poppers {
            assert_eq!(p.join().expect("popper"), None);
        }
    }
}
