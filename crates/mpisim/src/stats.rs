//! Run statistics: traffic counters and the communication matrix.
//!
//! Per-phase virtual time and bytes live on the engine's
//! `optipart_trace::Tracer` (the always-on phase counters behind
//! `Engine::phase_time` / `Engine::phase_bytes`) — this module only keeps
//! the whole-run traffic aggregates and the §5.5 matrix.

use std::collections::HashMap;

/// The communication matrix `M` of §5.5: `m[i][j]` is the number of bytes
/// rank `i` sent to rank `j` (the paper counts elements; scale by element
/// size as needed).
///
/// Stored sparsely — the whole point of the paper's NNZ metric is that this
/// matrix is sparse and should get sparser as the tolerance grows.
#[derive(Clone, Debug, Default)]
pub struct CommMatrix {
    rows: Vec<HashMap<usize, u64>>,
}

impl CommMatrix {
    /// An empty `p × p` matrix.
    pub fn new(p: usize) -> Self {
        CommMatrix {
            rows: vec![HashMap::new(); p],
        }
    }

    /// Adds `bytes` to entry `(src, dst)`.
    #[inline]
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        if bytes > 0 && src != dst {
            *self.rows[src].entry(dst).or_insert(0) += bytes;
        }
    }

    /// Entry lookup, zero when absent.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.rows
            .get(src)
            .and_then(|r| r.get(&dst))
            .copied()
            .unwrap_or(0)
    }

    /// Number of non-zero entries — the paper's NNZ metric, "the total
    /// number of messages that are exchanged during the computation".
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(HashMap::len).sum()
    }

    /// Total bytes over all entries — the paper's "total data communicated".
    pub fn total_bytes(&self) -> u64 {
        self.rows.iter().flat_map(|r| r.values()).sum()
    }

    /// Per-rank communicated bytes (sent + received) — the `|C_r|` whose max
    /// is `Cmax`.
    pub fn per_rank_bytes(&self) -> Vec<u64> {
        let p = self.rows.len();
        let mut tot = vec![0u64; p];
        for (src, row) in self.rows.iter().enumerate() {
            for (&dst, &b) in row {
                tot[src] += b;
                if dst < p {
                    tot[dst] += b;
                }
            }
        }
        tot
    }

    /// `Cmax`: the maximum bytes any rank exchanges.
    pub fn cmax(&self) -> u64 {
        self.per_rank_bytes().into_iter().max().unwrap_or(0)
    }

    /// Iterates all non-zero `(src, dst, bytes)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(src, row)| row.iter().map(move |(&dst, &b)| (src, dst, b)))
    }

    /// Per-rank `(sent bytes, received bytes, message count in+out)`.
    pub fn per_rank_traffic(&self) -> Vec<(u64, u64, u64)> {
        let p = self.rows.len();
        let mut out = vec![(0u64, 0u64, 0u64); p];
        for (src, dst, b) in self.entries() {
            out[src].0 += b;
            out[src].2 += 1;
            if dst < p {
                out[dst].1 += b;
                out[dst].2 += 1;
            }
        }
        out
    }
}

/// Aggregate traffic and timing statistics of one engine run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total bytes moved over the (virtual) network.
    pub bytes_total: u64,
    /// Of [`RunStats::bytes_total`], bytes whose source and destination rank
    /// live on the same node (always tracked; the hierarchical machine model
    /// charges them at the intra-node rate).
    pub bytes_intra: u64,
    /// Total point-to-point messages (collectives count their constituent
    /// messages under the chosen algorithm's schedule).
    pub msgs_total: u64,
    /// Number of collective operations executed.
    pub collectives: u64,
    /// Transient-failure retries charged by the fault plan (0 on a clean
    /// machine).
    pub retries_total: u64,
    /// Data-moving collectives whose conservation audit ran and passed.
    pub audited_collectives: u64,
    /// Fail-stop rank deaths detected during the run.
    pub deaths: u64,
    /// Checkpoint saves charged to the clocks.
    pub checkpoints: u64,
    /// Bytes mirrored to checkpoint partners across all saves.
    pub checkpoint_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnz_counts_distinct_pairs() {
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 10);
        m.add(0, 1, 5);
        m.add(1, 0, 7);
        m.add(2, 3, 1);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 15);
        assert_eq!(m.total_bytes(), 23);
    }

    #[test]
    fn self_sends_and_zero_ignored() {
        let mut m = CommMatrix::new(2);
        m.add(0, 0, 100);
        m.add(0, 1, 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn per_rank_counts_both_directions() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 10);
        m.add(2, 1, 4);
        let per = m.per_rank_bytes();
        assert_eq!(per, vec![10, 14, 4]);
        assert_eq!(m.cmax(), 14);
    }

    #[test]
    fn empty_matrix_is_balanced() {
        let m = CommMatrix::new(4);
        assert_eq!(m.cmax(), 0);
    }
}
