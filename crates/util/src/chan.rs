//! A small MPMC channel over `Mutex` + `Condvar` (replaces `crossbeam`).
//!
//! `std::sync::mpsc` is multi-producer *single*-consumer; the query service
//! needs several shard workers draining one task queue, so this module
//! provides the multi-consumer shape with explicit close semantics:
//!
//! * [`channel`] — an unbounded MPMC queue. Cloning either end is cheap;
//!   the channel closes when the last [`Sender`] drops or when
//!   [`Sender::close`] / [`Receiver::close`] is called explicitly.
//! * Receivers drain the queue *after* close: [`Receiver::recv`] keeps
//!   returning queued items until the queue is empty **and** closed, which
//!   is exactly the "shutdown drains in-flight work" contract a service
//!   loop wants.
//! * [`Sender::downgrade`] — a [`WeakSender`] that can send but does not
//!   count towards keeping the channel open, for a consumer that feeds
//!   hints back into its own producer's queue.
//! * [`oneshot`] — a single-value rendezvous built on the same queue, used
//!   for per-request response slots. Dropping the sender without sending
//!   wakes the receiver with [`RecvError::Closed`], so a waiter can never
//!   hang on a dead producer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a receive returned no item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The queue is empty and every sender is gone (or the channel was
    /// explicitly closed): no item will ever arrive.
    Closed,
    /// The deadline passed while the queue was empty (timed receives only).
    Timeout,
}

/// Queue and close flag under one lock, so a close can never slip between a
/// receiver's emptiness check and its wait (no lost wakeups).
struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    senders: AtomicUsize,
    cond: Condvar,
}

impl<T> Shared<T> {
    /// Locks the state, recovering from poison (a sender panicking between
    /// push and notify must not wedge every other thread).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    fn send(&self, value: T) -> Result<(), T> {
        {
            let mut state = self.lock();
            if state.closed {
                return Err(value);
            }
            state.queue.push_back(value);
        }
        self.cond.notify_one();
        Ok(())
    }
}

/// The sending half of an MPMC channel (clone freely).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// A sending handle that does not keep the channel open: the channel still
/// closes when the last [`Sender`] drops, after which sends fail.
pub struct WeakSender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of an MPMC channel (clone freely).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// An unbounded multi-producer multi-consumer channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            closed: false,
        }),
        senders: AtomicUsize::new(1),
        cond: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.close();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`. Returns it back if the channel is already closed.
    pub fn send(&self, value: T) -> Result<(), T> {
        self.shared.send(value)
    }

    /// A [`WeakSender`] on the same channel.
    pub fn downgrade(&self) -> WeakSender<T> {
        WeakSender {
            shared: self.shared.clone(),
        }
    }

    /// Closes the channel: queued items stay receivable, further sends fail.
    pub fn close(&self) {
        self.shared.close();
    }

    /// Whether the channel has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.lock().closed
    }
}

impl<T> WeakSender<T> {
    /// Enqueues `value`. Returns it back if the channel is already closed.
    pub fn send(&self, value: T) -> Result<(), T> {
        self.shared.send(value)
    }
}

impl<T> Receiver<T> {
    /// Dequeues an item, blocking until one arrives or the channel closes
    /// with an empty queue.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.closed {
                return Err(RecvError::Closed);
            }
            state = self
                .shared
                .cond
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// [`Receiver::recv`] with a deadline relative to now.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.closed {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
        }
    }

    /// Dequeues an item without blocking.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(v) => Ok(v),
            None if state.closed => Err(RecvError::Closed),
            None => Err(RecvError::Timeout),
        }
    }

    /// Closes the channel from the consuming side (producers start failing;
    /// queued items remain receivable).
    pub fn close(&self) {
        self.shared.close();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The sending half of a [`oneshot`] slot.
pub struct OneshotSender<T> {
    sender: Sender<T>,
}

/// The receiving half of a [`oneshot`] slot.
pub struct OneshotReceiver<T> {
    receiver: Receiver<T>,
}

/// A single-value channel: one send, one receive. Dropping the sender
/// without sending closes the slot, so the receiver can never hang.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let (tx, rx) = channel();
    (OneshotSender { sender: tx }, OneshotReceiver { receiver: rx })
}

impl<T> OneshotSender<T> {
    /// Delivers the value (consuming the slot). Returns it back if the
    /// receiver closed first.
    pub fn send(self, value: T) -> Result<(), T> {
        self.sender.send(value)
    }
}

impl<T> OneshotReceiver<T> {
    /// Blocks for the value; `Closed` if the sender was dropped unsent.
    pub fn recv(self) -> Result<T, RecvError> {
        self.receiver.recv()
    }

    /// Waits up to `timeout` for the value without consuming the slot on
    /// timeout, so the caller can keep waiting.
    pub fn recv_timeout_ref(&self, timeout: Duration) -> Result<T, RecvError> {
        self.receiver.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn multi_consumer_partitions_items() {
        let (tx, rx) = channel::<u32>();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..300 {
            tx.send(i).unwrap();
        }
        drop(tx); // last sender closes the channel; workers drain and exit
        let mut all: Vec<u32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn close_drains_queued_items_then_reports_closed() {
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.close();
        assert_eq!(tx.send(3), Err(3));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn recv_timeout_times_out_on_empty_open_channel() {
        let (_tx, rx) = channel::<u32>();
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn dropped_sender_unblocks_receiver() {
        let (tx, rx) = channel::<u32>();
        let waiter = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError::Closed));
    }

    #[test]
    fn weak_sender_does_not_keep_the_channel_open() {
        let (tx, rx) = channel::<u32>();
        let weak = tx.downgrade();
        weak.send(1).unwrap();
        drop(tx);
        assert_eq!(weak.send(2), Err(2));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn oneshot_roundtrip_and_dropped_sender() {
        let (tx, rx) = oneshot::<&str>();
        tx.send("hi").unwrap();
        assert_eq!(rx.recv(), Ok("hi"));

        let (tx2, rx2) = oneshot::<&str>();
        drop(tx2);
        assert_eq!(rx2.recv(), Err(RecvError::Closed));
    }

    #[test]
    fn oneshot_timeout_then_receive() {
        let (tx, rx) = oneshot::<u8>();
        assert_eq!(
            rx.recv_timeout_ref(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }
}
