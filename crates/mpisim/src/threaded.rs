//! A real shared-memory SPMD runtime: every rank is an OS thread.
//!
//! The virtual-process [`crate::Engine`] simulates message passing to reach
//! Titan-scale rank counts; this module is its ground-truth counterpart for
//! small `p`: ranks run concurrently as threads and exchange **real
//! messages** over channels, with no cost model and no global view. The
//! partitioning algorithms implemented against [`ThreadComm`] (see
//! `optipart-core::threaded`) must produce bit-identical results to the
//! virtual engine — which is exactly what the cross-validation tests assert.
//!
//! Messages are boxed `dyn Any` payloads over `std::sync::mpsc` channels (typed
//! end-to-end by the `send`/`recv` call pair), with per-source stashing so
//! out-of-order arrivals from different sources do not block each other —
//! the same guarantees MPI point-to-point ordering gives per (source, comm).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

type Packet = (usize, Box<dyn Any + Send>);

/// One rank's endpoint of the threaded communicator.
pub struct ThreadComm {
    rank: usize,
    p: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    barrier: Arc<Barrier>,
    /// Early arrivals from each source, preserving per-source order.
    stash: Vec<VecDeque<Box<dyn Any + Send>>>,
}

impl ThreadComm {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Sends a message to `dst` (non-blocking, unbounded buffering).
    pub fn send<T: Send + 'static>(&self, dst: usize, msg: T) {
        self.senders[dst]
            .send((self.rank, Box::new(msg)))
            .expect("receiver alive for the scope's duration");
    }

    /// Receives the next message from `src`, blocking until it arrives.
    ///
    /// # Panics
    /// Panics if the arrived payload is not a `T` — a protocol error, which
    /// in these SPMD algorithms means ranks diverged.
    pub fn recv<T: Send + 'static>(&mut self, src: usize) -> T {
        loop {
            if let Some(b) = self.stash[src].pop_front() {
                return *b
                    .downcast::<T>()
                    .expect("protocol mismatch: wrong payload type");
            }
            let (from, payload) = self
                .receiver
                .recv()
                .expect("peers alive for the scope's duration");
            self.stash[from].push_back(payload);
        }
    }

    /// Synchronises all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// All-gather: every rank contributes one value; all receive the vector
    /// in rank order.
    pub fn allgather<T: Clone + Send + 'static>(&mut self, mine: T) -> Vec<T> {
        for dst in 0..self.p {
            if dst != self.rank {
                self.send(dst, mine.clone());
            }
        }
        (0..self.p)
            .map(|src| {
                if src == self.rank {
                    mine.clone()
                } else {
                    self.recv::<T>(src)
                }
            })
            .collect()
    }

    /// Sum all-reduce over `u64`.
    pub fn allreduce_sum_u64(&mut self, mine: u64) -> u64 {
        self.allgather(mine).into_iter().sum()
    }

    /// Element-wise sum all-reduce over a `u64` vector.
    pub fn allreduce_sum_vec_u64(&mut self, mine: Vec<u64>) -> Vec<u64> {
        let all = self.allgather(mine);
        let len = all[0].len();
        let mut out = vec![0u64; len];
        for v in &all {
            debug_assert_eq!(v.len(), len);
            for (o, x) in out.iter_mut().zip(v) {
                *o += x;
            }
        }
        out
    }

    /// Personalised all-to-all: `bufs[dst]` is delivered to `dst`; returns
    /// the buffers received from every source, in rank order.
    pub fn alltoallv<T: Send + 'static>(&mut self, mut bufs: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(bufs.len(), self.p);
        // The rank's own slice never crosses a channel.
        let mut own = Some(std::mem::take(&mut bufs[self.rank]));
        for (dst, buf) in bufs.into_iter().enumerate() {
            if dst != self.rank {
                self.send(dst, buf);
            }
        }
        (0..self.p)
            .map(|src| {
                if src == self.rank {
                    own.take().expect("own slice taken once")
                } else {
                    self.recv::<Vec<T>>(src)
                }
            })
            .collect()
    }
}

/// Runs `f` as `p` SPMD ranks on OS threads; returns each rank's result in
/// rank order.
pub fn run<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadComm) -> R + Sync,
{
    assert!(p >= 1);
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel::<Packet>();
        senders.push(tx);
        receivers.push(rx);
    }
    let barrier = Arc::new(Barrier::new(p));
    let mut comms: Vec<ThreadComm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| ThreadComm {
            rank,
            p,
            senders: senders.clone(),
            receiver,
            barrier: Arc::clone(&barrier),
            stash: (0..p).map(|_| VecDeque::new()).collect(),
        })
        .collect();
    drop(senders);

    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter_mut()
            .map(|comm| scope.spawn(|| f(comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allgather_and_reduce() {
        let results = run(4, |comm| {
            let r = comm.rank() as u64;
            let gathered = comm.allgather(r * 10);
            let sum = comm.allreduce_sum_u64(r);
            (gathered, sum)
        });
        for (gathered, sum) in results {
            assert_eq!(gathered, vec![0, 10, 20, 30]);
            assert_eq!(sum, 6);
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let results = run(3, |comm| {
            let r = comm.rank();
            let bufs: Vec<Vec<u32>> = (0..3).map(|d| vec![(r * 10 + d) as u32]).collect();
            comm.alltoallv(bufs)
        });
        for (dst, recv) in results.into_iter().enumerate() {
            for (src, buf) in recv.into_iter().enumerate() {
                assert_eq!(buf, vec![(src * 10 + dst) as u32]);
            }
        }
    }

    #[test]
    fn vector_allreduce() {
        let results = run(5, |comm| {
            comm.allreduce_sum_vec_u64(vec![comm.rank() as u64, 1])
        });
        for v in results {
            assert_eq!(v, vec![10, 5]);
        }
    }

    #[test]
    fn out_of_order_sources_are_stashed() {
        // Rank 0 receives from 2 first even though 1 sent earlier in
        // program order — the stash keeps per-source streams intact.
        let results = run(3, |comm| match comm.rank() {
            0 => {
                let from2: u64 = comm.recv(2);
                let from1: u64 = comm.recv(1);
                from2 * 100 + from1
            }
            r => {
                comm.send(0, r as u64);
                0
            }
        });
        assert_eq!(results[0], 201);
    }

    #[test]
    fn mixed_payload_types() {
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7u64);
                comm.send(1, vec![1.5f64, 2.5]);
                0.0
            } else {
                let a: u64 = comm.recv(0);
                let b: Vec<f64> = comm.recv(0);
                a as f64 + b.iter().sum::<f64>()
            }
        });
        assert_eq!(results[1], 11.0);
    }

    #[test]
    fn single_rank() {
        let results = run(1, |comm| comm.allreduce_sum_u64(42));
        assert_eq!(results, vec![42]);
    }
}
