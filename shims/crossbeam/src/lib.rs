//! Minimal in-repo stand-in for `crossbeam` — just the `channel` module, with
//! multi-producer multi-consumer semantics (both [`channel::Sender`] and
//! [`channel::Receiver`] are `Clone`), built on a mutex-guarded deque with
//! condition variables.

#![forbid(unsafe_code)]

/// MPMC channels (`unbounded` / `bounded`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent value is returned inside.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and all
    /// senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Sends a value, blocking while a bounded channel is full.
        ///
        /// # Errors
        /// Returns [`SendError`] carrying the value if every receiver has
        /// been dropped.
        ///
        /// # Panics
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match state.cap {
                    Some(cap) if state.queue.len() >= cap => {
                        state = self.inner.not_full.wait(state).expect("channel poisoned");
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Receives a value, blocking while the channel is empty.
        ///
        /// # Errors
        /// Returns [`RecvError`] once the channel is empty and every sender
        /// has been dropped.
        ///
        /// # Panics
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.inner.not_empty.wait(state).expect("channel poisoned");
            }
        }

        /// Receives a value if one is immediately available.
        ///
        /// # Errors
        /// [`TryRecvError::Empty`] if the channel has no queued value,
        /// [`TryRecvError::Disconnected`] if additionally all senders are
        /// gone.
        ///
        /// # Panics
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel poisoned").senders += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel poisoned").receivers += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            state.senders -= 1;
            let wake = state.senders == 0;
            drop(state);
            if wake {
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            state.receivers -= 1;
            let wake = state.receivers == 0;
            drop(state);
            if wake {
                self.inner.not_full.notify_all();
            }
        }
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    /// Creates a channel with no capacity limit.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a channel that holds at most `cap` queued values.
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }

    #[test]
    fn disconnects_propagate() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(channel::SendError(7)));
        let (tx, rx) = channel::unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = channel::bounded(2);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test is the cross-thread handoff; its assertions hold for every interleaving"
        )]
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn receiver_clone_shares_queue() {
        let (tx, rx) = channel::unbounded();
        let rx2 = rx.clone();
        tx.send(5).unwrap();
        assert_eq!(rx2.recv(), Ok(5));
    }
}
