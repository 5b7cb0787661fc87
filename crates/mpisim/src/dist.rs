//! Distributed vectors: one local buffer per virtual rank.

/// A value of type `Vec<T>` on every virtual rank.
///
/// The global-view analogue of an MPI program's rank-local array. Algorithms
/// mutate rank buffers through [`crate::Engine::compute`]; direct access is
/// for setup and verification.
#[derive(Clone, Debug, PartialEq)]
pub struct DistVec<T> {
    ranks: Vec<Vec<T>>,
}

impl<T> DistVec<T> {
    /// Empty local buffers on `p` ranks.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        DistVec {
            ranks: (0..p).map(|_| Vec::new()).collect(),
        }
    }

    /// Wraps existing per-rank buffers.
    pub fn from_parts(ranks: Vec<Vec<T>>) -> Self {
        assert!(!ranks.is_empty(), "need at least one rank");
        DistVec { ranks }
    }

    /// Number of ranks.
    #[inline]
    pub fn p(&self) -> usize {
        self.ranks.len()
    }

    /// Local buffer of rank `r`.
    #[inline]
    pub fn rank(&self, r: usize) -> &Vec<T> {
        &self.ranks[r]
    }

    /// All local buffers.
    #[inline]
    pub fn parts(&self) -> &[Vec<T>] {
        &self.ranks
    }

    /// All local buffers, mutably (used by the engine's parallel phases).
    #[inline]
    pub fn parts_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.ranks
    }

    /// Consumes into the per-rank buffers.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.ranks
    }

    /// Global element count.
    pub fn total_len(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// Local element counts per rank — the work distribution `|Wr|`.
    pub fn counts(&self) -> Vec<usize> {
        self.ranks.iter().map(Vec::len).collect()
    }

    /// Maximum local count — the `Wmax` of the performance model.
    pub fn wmax(&self) -> usize {
        self.ranks.iter().map(Vec::len).max().unwrap_or(0)
    }
}

impl<T: Clone> DistVec<T> {
    /// Block-distributes a global slice: rank `r` gets the contiguous chunk
    /// `[r·N/p, (r+1)·N/p)` (the ideal `N/p ± 1` split).
    pub fn from_global(global: &[T], p: usize) -> Self {
        assert!(p >= 1);
        let n = global.len();
        let ranks = (0..p)
            .map(|r| {
                let lo = r * n / p;
                let hi = (r + 1) * n / p;
                global[lo..hi].to_vec()
            })
            .collect();
        DistVec { ranks }
    }

    /// Concatenates all rank buffers in rank order (an `MPI_Gather` onto a
    /// test harness — free of cost accounting, for verification only).
    pub fn concat(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.total_len());
        for r in &self.ranks {
            out.extend_from_slice(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_distribution_is_even() {
        let data: Vec<u32> = (0..103).collect();
        let d = DistVec::from_global(&data, 8);
        assert_eq!(d.total_len(), 103);
        let counts = d.counts();
        let (mx, mn) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(mx - mn <= 1, "counts {counts:?}");
        assert_eq!(d.concat(), data);
    }

    #[test]
    fn wmax_matches_counts() {
        let d = DistVec::from_parts(vec![vec![0; 5], vec![0; 9], vec![0; 2]]);
        assert_eq!(d.wmax(), 9);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _: DistVec<u8> = DistVec::new(0);
    }
}
