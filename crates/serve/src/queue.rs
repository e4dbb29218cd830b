//! The bounded request queue: the server's backpressure point.
//!
//! Producers (connection readers) `try_push` and get an immediate
//! [`PushError::Full`] when the queue is at capacity — the server turns
//! that into a typed `overloaded` response instead of growing memory
//! without bound. The single batcher thread `pop_batch`es: it blocks for
//! the first item, then dwells up to `batch_wait` to let a batch fill,
//! and returns `None` only when the queue is closed **and** drained, so
//! graceful shutdown never drops an accepted request.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// A Mutex+Condvar bounded MPSC queue (multi-producer, single batcher).
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

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// then dwells up to `dwell` (from the first pop) to let the batch
    /// fill toward `max`. Returns `None` only when the queue is closed
    /// and fully drained. A closed queue never dwells — shutdown drains
    /// at full speed.
    pub fn pop_batch(&self, max: usize, dwell: Duration) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut inner = relock(self.inner.lock());
        loop {
            if !inner.items.is_empty() {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut batch = Vec::with_capacity(max.min(inner.items.len()));
        while batch.len() < max {
            match inner.items.pop_front() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        if batch.len() >= max || inner.closed || dwell.is_zero() {
            return Some(batch);
        }
        // Dwell: wait for stragglers so small bursts coalesce.
        let deadline = Instant::now() + dwell;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Some(batch);
            }
            let (guard, _timeout) = self
                .nonempty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            while batch.len() < max {
                match inner.items.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= max || inner.closed {
                return Some(batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("fits");
        }
        let batch = q.pop_batch(16, Duration::ZERO).expect("has items");
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
        // Drain continues after close; batches never dwell.
        assert_eq!(q.pop_batch(1, Duration::from_secs(60)), Some(vec![1]));
        assert_eq!(q.pop_batch(4, Duration::from_secs(60)), Some(vec![2]));
        assert_eq!(q.pop_batch(4, Duration::ZERO), None);
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
        let batch = q.pop_batch(4, Duration::ZERO).expect("item arrives");
        assert_eq!(batch, vec![42]);
        producer.join().expect("producer");
    }

    #[test]
    fn dwell_coalesces_stragglers_into_one_batch() {
        let q = Arc::new(BoundedQueue::new(16));
        q.try_push(1).expect("fits");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.try_push(2).expect("fits");
            })
        };
        let batch = q
            .pop_batch(16, Duration::from_millis(500))
            .expect("has items");
        producer.join().expect("producer");
        assert_eq!(batch, vec![1, 2], "straggler joined the batch");
    }

    #[test]
    fn batch_full_returns_without_dwelling() {
        let q = BoundedQueue::new(16);
        for i in 0..4 {
            q.try_push(i).expect("fits");
        }
        let t0 = Instant::now();
        let batch = q.pop_batch(4, Duration::from_secs(60)).expect("has items");
        assert_eq!(batch.len(), 4);
        assert!(t0.elapsed() < Duration::from_secs(10), "must not dwell");
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::ZERO))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().expect("popper"), None);
    }
}
