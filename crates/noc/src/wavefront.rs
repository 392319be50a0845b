//! Wavefront allocator.
//!
//! The classic single-cycle hardware matcher for input-queued crossbars:
//! requests form an `N×N` matrix and grants are issued along anti-diagonals
//! starting from a rotating priority diagonal, so at most one grant lands in
//! each row and column and no starvation occurs. The Flumen MZIM control
//! unit builds its communication maps with exactly this arbiter
//! (paper §3.4) plus multicast extensions.

/// A wavefront arbiter over `n` inputs × `n` outputs.
#[derive(Debug, Clone)]
pub struct WavefrontArbiter {
    n: usize,
    priority: usize,
}

impl WavefrontArbiter {
    /// Most ports an arbiter serves: requests and busy sets are `u64` bit
    /// masks, one bit per port.
    pub const MAX_PORTS: usize = 64;

    /// Creates an arbiter for an `n×n` crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`WavefrontArbiter::MAX_PORTS`].
    pub fn new(n: usize) -> Self {
        assert!(
            n <= Self::MAX_PORTS,
            "wavefront arbiter serves at most {} ports",
            Self::MAX_PORTS
        );
        WavefrontArbiter { n, priority: 0 }
    }

    /// Number of ports.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current priority-diagonal position (checkpoint state).
    pub fn priority(&self) -> usize {
        self.priority
    }

    /// Restores the priority diagonal from a checkpoint. Values are taken
    /// modulo `n` so a foreign snapshot cannot put the arbiter out of range.
    pub fn set_priority(&mut self, p: usize) {
        self.priority = p % self.n.max(1);
    }

    /// Advances the priority diagonal as `k` calls to
    /// [`WavefrontArbiter::arbitrate`] without requests would.
    pub fn rotate_by(&mut self, k: u64) {
        let n = self.n.max(1) as u64;
        self.priority = ((self.priority as u64 + k % n) % n) as usize;
    }

    /// Computes a maximal-ish matching. Bit `j` of `requests[i]` says
    /// input `i` wants output `j` (usually one bit — the head packet's
    /// destination). Writes `grants[i] = Some(output)`, `None` elsewhere.
    ///
    /// Rows/columns set in `row_busy`/`col_busy` (connections held by
    /// in-flight packets) are skipped. The priority diagonal advances on
    /// every call for fairness. Nothing is allocated.
    pub fn arbitrate(
        &mut self,
        requests: &[u64],
        row_busy: u64,
        col_busy: u64,
        grants: &mut [Option<usize>],
    ) {
        assert_eq!(requests.len(), self.n);
        assert_eq!(grants.len(), self.n);
        let n = self.n;
        grants.fill(None);
        // Rows that can still win: free and requesting something. A row
        // outside this set never wins, so scanning only its members in
        // ascending order grants exactly what a scan of all rows would.
        let mut rows = requests
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != 0)
            .fold(0u64, |m, (i, _)| m | 1 << i)
            & !row_busy;
        let mut col_taken = col_busy;

        // Walk n anti-diagonals starting at the priority diagonal.
        for d in 0..n {
            if rows == 0 {
                break;
            }
            let diag = (self.priority + d) % n;
            let mut scan = rows;
            while scan != 0 {
                let i = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                let j = (diag + n - i) % n;
                if col_taken >> j & 1 == 0 && requests[i] >> j & 1 == 1 {
                    grants[i] = Some(j);
                    rows &= !(1 << i);
                    col_taken |= 1 << j;
                }
            }
        }
        self.priority = (self.priority + 1) % n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit mask with the listed positions set.
    fn mask(bits: &[usize]) -> u64 {
        bits.iter().fold(0, |m, &b| m | 1 << b)
    }

    fn run(a: &mut WavefrontArbiter, reqs: &[u64], rows: u64, cols: u64) -> Vec<Option<usize>> {
        let mut g = vec![Some(99); a.n()];
        a.arbitrate(reqs, rows, cols, &mut g);
        g
    }

    #[test]
    fn grants_are_a_matching() {
        let mut a = WavefrontArbiter::new(4);
        let reqs = [mask(&[0, 1]), mask(&[0]), mask(&[0]), mask(&[3])];
        let g = run(&mut a, &reqs, 0, 0);
        // No two inputs share an output.
        let mut used = [false; 4];
        for gi in g.iter().flatten() {
            assert!(!used[*gi]);
            used[*gi] = true;
        }
        // Input 3 must get output 3 (uncontended).
        assert_eq!(g[3], Some(3));
    }

    #[test]
    fn conflict_free_requests_all_granted() {
        let mut a = WavefrontArbiter::new(4);
        let reqs = [mask(&[1]), mask(&[2]), mask(&[3]), mask(&[0])];
        let g = run(&mut a, &reqs, 0, 0);
        assert_eq!(g, vec![Some(1), Some(2), Some(3), Some(0)]);
    }

    #[test]
    fn busy_rows_and_cols_skipped() {
        let mut a = WavefrontArbiter::new(3);
        let reqs = [mask(&[0]), mask(&[1]), mask(&[2])];
        let g = run(&mut a, &reqs, mask(&[0]), mask(&[1]));
        assert_eq!(g[0], None); // row busy
        assert_eq!(g[1], None); // wants busy col
        assert_eq!(g[2], Some(2));
    }

    #[test]
    fn priority_rotates_for_fairness() {
        let mut a = WavefrontArbiter::new(2);
        // Both inputs want output 0 forever; grants must alternate.
        let reqs = [mask(&[0]), mask(&[0])];
        let mut winners = Vec::new();
        for _ in 0..4 {
            let g = run(&mut a, &reqs, 0, 0);
            let w = g.iter().position(|x| x.is_some()).unwrap();
            winners.push(w);
        }
        assert!(winners.contains(&0) && winners.contains(&1), "{winners:?}");
    }

    #[test]
    fn empty_requests_no_grants() {
        let mut a = WavefrontArbiter::new(3);
        let g = run(&mut a, &[0; 3], 0, 0);
        assert!(g.iter().all(|x| x.is_none()));
    }

    #[test]
    fn rotate_by_matches_idle_calls() {
        for k in 0..40u64 {
            let mut a = WavefrontArbiter::new(16);
            let mut b = a.clone();
            a.set_priority(5);
            b.set_priority(5);
            a.rotate_by(k);
            for _ in 0..k {
                run(&mut b, &[0; 16], 0, 0);
            }
            assert_eq!(a.priority(), b.priority(), "k={k}");
        }
    }
}
