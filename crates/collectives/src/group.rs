//! Mesh-connected peer groups.
//!
//! [`Group::connect`] creates `p` [`Peer`] handles with a dedicated
//! unbounded channel for every ordered pair, so `recv(from)` is
//! deterministic: a message can only be received from the peer it names.
//! Peers are moved into worker threads (one peer per thread).
//!
//! Every collective body is a free function over a [`Transport`], the
//! point-to-point surface a schedule needs: a [`Peer`] is the clean one,
//! [`crate::resilience::ResilientPeer`] the one that charges each message
//! against a fault plan. A policy about *when* bytes land — and whether a
//! sparse contribution lands at all — is a transport, so one body per
//! algorithm serves both.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// A message between peers: gradient payloads are `f32`, index payloads are
/// `u32` (the two wires of a sparse gradient).
#[derive(Debug, Clone)]
pub enum Message {
    /// A vector of 32-bit floats (values).
    F32(Vec<f32>),
    /// A vector of 32-bit indices.
    U32(Vec<u32>),
}

/// Factory for a fully connected peer group.
#[derive(Debug)]
pub struct Group;

impl Group {
    /// Creates `p` mesh-connected peers.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn connect(p: usize) -> Vec<Peer> {
        assert!(p > 0, "Group::connect: need at least one peer");
        // txs[i][j] sends from i to j; rxs[j][i] receives at j from i.
        let mut txs: Vec<Vec<Option<Sender<Message>>>> = (0..p).map(|_| vec![None; p]).collect();
        let mut rxs: Vec<Vec<Option<Receiver<Message>>>> = (0..p).map(|_| vec![None; p]).collect();
        for (i, row) in txs.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                let (tx, rx) = unbounded();
                *slot = Some(tx);
                rxs[j][i] = Some(rx);
            }
        }
        let barrier = Arc::new(Barrier::new(p));
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| Peer {
                rank,
                size: p,
                // lint:allow(panic_free, reason = "the mesh loop above just filled every slot; a None is an impossible construction bug")
                txs: tx_row.into_iter().map(Option::unwrap).collect(),
                // lint:allow(panic_free, reason = "the mesh loop above just filled every slot; a None is an impossible construction bug")
                rxs: rx_row.into_iter().map(Option::unwrap).collect(),
                barrier: barrier.clone(),
            })
            .collect()
    }
}

/// What a collective body needs from its endpoint: who it is, and ordered,
/// typed messages to and from every other member.
///
/// A schedule that is deadlock-free over one transport is deadlock-free
/// over any that delivers each message exactly once, as both
/// implementations here do. Methods take `&self`, so a body can hand the
/// transport to helpers while it holds other borrows.
pub trait Transport {
    /// This endpoint's rank in `[0, size)`.
    fn rank(&self) -> usize;
    /// Number of members in the group.
    fn size(&self) -> usize;
    /// Sends a float payload to `to`.
    fn send_f32(&self, to: usize, data: Vec<f32>);
    /// Sends an index payload to `to`.
    fn send_u32(&self, to: usize, data: Vec<u32>);
    /// Receives the next float payload from `from` (blocks).
    fn recv_f32(&self, from: usize) -> Vec<f32>;
    /// Receives the next index payload from `from` (blocks).
    fn recv_u32(&self, from: usize) -> Vec<u32>;

    /// Whether this endpoint withholds its next sparse contribution (a
    /// missed deadline): the error-feedback bodies draw it exactly once per
    /// call, before selecting, and a withheld member sends an empty block
    /// while its residual keeps the whole reduced gradient. Every member
    /// runs the same call sequence, so the draws number the same
    /// contributions on every rank. A clean endpoint never withholds.
    fn contribution_withheld(&self) -> bool {
        false
    }
}

/// One worker's endpoint in a mesh-connected group.
#[derive(Debug)]
pub struct Peer {
    rank: usize,
    size: usize,
    txs: Vec<Sender<Message>>,
    rxs: Vec<Receiver<Message>>,
    barrier: Arc<Barrier>,
}

impl Peer {
    /// This peer's rank in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of peers in the group.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Synchronises all peers of the group.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Channel sends and receives. A closed channel means a peer already
/// panicked, so the group unwinds loudly.
///
/// # Panics
/// Panics if `to`/`from` is out of range (sending to self is allowed but
/// usually a schedule bug — collectives never do it), or if the next
/// message from `from` has the other payload type: peers must agree on the
/// schedule, so a type mismatch is a bug.
impl Transport for Peer {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_f32(&self, to: usize, data: Vec<f32>) {
        self.txs[to]
            .send(Message::F32(data))
            // lint:allow(panic_free, reason = "a closed channel means a peer already panicked; unwinding the group loudly is the harness contract")
            .expect("peer channel closed");
    }

    fn send_u32(&self, to: usize, data: Vec<u32>) {
        self.txs[to]
            .send(Message::U32(data))
            // lint:allow(panic_free, reason = "a closed channel means a peer already panicked; unwinding the group loudly is the harness contract")
            .expect("peer channel closed");
    }

    fn recv_f32(&self, from: usize) -> Vec<f32> {
        // lint:allow(panic_free, reason = "a closed channel means a peer already panicked; unwinding the group loudly is the harness contract")
        match self.rxs[from].recv().expect("peer channel closed") {
            Message::F32(v) => v,
            // lint:allow(panic_free, reason = "schedule type mismatch is a collective programming bug, documented in this impl's Panics section")
            Message::U32(_) => panic!("peer {}: expected F32 from {}, got U32", self.rank, from),
        }
    }

    fn recv_u32(&self, from: usize) -> Vec<u32> {
        // lint:allow(panic_free, reason = "a closed channel means a peer already panicked; unwinding the group loudly is the harness contract")
        match self.rxs[from].recv().expect("peer channel closed") {
            Message::U32(v) => v,
            // lint:allow(panic_free, reason = "schedule type mismatch is a collective programming bug, documented in this impl's Panics section")
            Message::F32(_) => panic!("peer {}: expected U32 from {}, got F32", self.rank, from),
        }
    }
}

/// Runs `f` on every peer of a fresh `p`-peer group, one thread per peer,
/// and returns the per-rank results in rank order.
///
/// This is the harness used by tests, benches and the training engine to
/// execute a collective "program" on all workers.
///
/// # Examples
/// ```
/// use cloudtrain_collectives::group::run_on_group;
/// use cloudtrain_collectives::ring::ring_all_reduce;
///
/// let members: Vec<usize> = (0..4).collect();
/// let sums = run_on_group(4, |peer| {
///     let mut x = vec![peer.rank() as f32; 3];
///     ring_all_reduce(peer, &mut x, &members);
///     x[0]
/// });
/// assert_eq!(sums, vec![6.0; 4]); // 0+1+2+3 on every rank
/// ```
pub fn run_on_group<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Peer) -> T + Sync,
{
    let peers = Group::connect(p);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(p);
        for peer in peers {
            let f = &f;
            // Each thread owns its peer: if a worker panics, its channel
            // endpoints drop, peers blocked on recv fail loudly, and the
            // whole group unwinds instead of deadlocking.
            // lint:allow(ambient, reason = "run_on_group IS the deterministic worker harness; results are joined in rank order so scheduling cannot leak into output")
            handles.push(s.spawn(move || f(&peer)));
        }
        handles
            .into_iter()
            // lint:allow(panic_free, reason = "propagating a worker panic to the caller is the documented harness contract")
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// A clean [`Peer`] that withholds exactly the sparse contributions
/// `draw` names, by their 0-based call number: how a test plants a
/// degradation on chosen (rank, round) pairs, or replays a fault plan's
/// draws without its retry accounting.
#[cfg(test)]
pub(crate) struct Withholding<'a, F> {
    peer: &'a Peer,
    calls: std::cell::Cell<u64>,
    draw: F,
}

#[cfg(test)]
impl<'a, F: Fn(u64) -> bool> Withholding<'a, F> {
    pub(crate) fn new(peer: &'a Peer, draw: F) -> Self {
        Self {
            peer,
            calls: std::cell::Cell::new(0),
            draw,
        }
    }
}

#[cfg(test)]
impl<F: Fn(u64) -> bool> Transport for Withholding<'_, F> {
    fn rank(&self) -> usize {
        self.peer.rank
    }

    fn size(&self) -> usize {
        self.peer.size
    }

    fn send_f32(&self, to: usize, data: Vec<f32>) {
        self.peer.send_f32(to, data);
    }

    fn send_u32(&self, to: usize, data: Vec<u32>) {
        self.peer.send_u32(to, data);
    }

    fn recv_f32(&self, from: usize) -> Vec<f32> {
        self.peer.recv_f32(from)
    }

    fn recv_u32(&self, from: usize) -> Vec<u32> {
        self.peer.recv_u32(from)
    }

    fn contribution_withheld(&self) -> bool {
        let call = self.calls.get();
        self.calls.set(call + 1);
        (self.draw)(call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_on_group(2, |peer| {
            if peer.rank() == 0 {
                peer.send_f32(1, vec![1.0, 2.0]);
                peer.recv_f32(1)
            } else {
                let got = peer.recv_f32(0);
                peer.send_f32(0, vec![got[0] * 10.0, got[1] * 10.0]);
                got
            }
        });
        assert_eq!(results[0], vec![10.0, 20.0]);
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn channels_are_pairwise_ordered() {
        // Rank 0 sends two messages to rank 1; they arrive in order.
        let results = run_on_group(2, |peer| {
            if peer.rank() == 0 {
                peer.send_f32(1, vec![1.0]);
                peer.send_f32(1, vec![2.0]);
                vec![]
            } else {
                let a = peer.recv_f32(0);
                let b = peer.recv_f32(0);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn u32_and_f32_payloads_coexist() {
        let results = run_on_group(2, |peer| {
            if peer.rank() == 0 {
                peer.send_u32(1, vec![7, 8]);
                peer.send_f32(1, vec![0.5]);
                0.0
            } else {
                let idx = peer.recv_u32(0);
                let val = peer.recv_f32(0);
                idx[0] as f32 + idx[1] as f32 + val[0]
            }
        });
        assert_eq!(results[1], 15.5);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_on_group(4, |peer| {
            counter.fetch_add(1, Ordering::SeqCst);
            peer.barrier();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_group_panics() {
        Group::connect(0);
    }
}
