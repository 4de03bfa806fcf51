//! Round-robin arbitration.
//!
//! The fairness policy the paper's controller uses wherever requests
//! compete: between the index and element stages of the indirect
//! converters (Fig. 2d) and among word lanes at the bank ports (§III-C).

/// A stateful round-robin arbiter over `n` requestors.
///
/// Grants rotate: after requestor *i* wins, requestor *i + 1* has the
/// highest priority next time. This matches the arbitration the paper's
/// indirect converter uses between its index and element stages, and the
/// bank crossbar uses among word ports.
///
/// # Examples
///
/// ```
/// use simkit::RoundRobin;
///
/// let mut arb = RoundRobin::new(3);
/// assert_eq!(arb.grant(&[true, true, false]), Some(0));
/// assert_eq!(arb.grant(&[true, true, false]), Some(1));
/// assert_eq!(arb.grant(&[true, true, false]), Some(0));
/// assert_eq!(arb.grant(&[false, false, false]), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    /// Index with the highest priority for the next grant.
    next: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requestors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requestor");
        RoundRobin { n, next: 0 }
    }

    /// Number of requestors.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the arbiter has no requestors (never true; kept for
    /// API completeness alongside [`RoundRobin::len`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grants one of the asserted requestors, rotating priority.
    ///
    /// Returns `None` when no requestor is asserted; priority is unchanged
    /// in that case.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the arbiter width.
    #[inline]
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector width mismatch");
        // Probe from the priority index, wrapping with a compare rather
        // than a division by the runtime width.
        let mut idx = self.next;
        for _ in 0..self.n {
            if requests[idx] {
                self.next = self.wrap(idx + 1);
                return Some(idx);
            }
            idx = self.wrap(idx + 1);
        }
        None
    }

    /// `i % n` for `i < 2n`, as a compare instead of a division.
    #[inline]
    fn wrap(&self, i: usize) -> usize {
        if i >= self.n {
            i - self.n
        } else {
            i
        }
    }

    /// Grants from a bitmask request vector (bit *i* = requestor *i*
    /// asserted) — the allocation- and loop-free variant of
    /// [`RoundRobin::grant`] used on per-cycle paths with many arbiters
    /// (e.g. one per memory bank). Identical policy: the first asserted
    /// requestor at or after the priority index wins, and priority
    /// rotates past the winner.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if a bit at or above the arbiter width is set.
    #[inline]
    pub fn grant_mask(&mut self, mask: u32) -> Option<usize> {
        debug_assert!(
            self.n >= 32 || mask >> self.n == 0,
            "request mask wider than the arbiter"
        );
        if mask == 0 {
            return None;
        }
        // Rotate the mask so the priority index lands at bit 0, pick the
        // lowest set bit, and map it back to a requestor index. The lane
        // mask is computed shift-safely: at n == 32 (e.g. a 1024-bit bus
        // over 4-byte bank words) `1u32 << n` would overflow.
        let n = self.n as u32;
        let next = self.next as u32;
        let lane_mask = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
        let rotated = if next == 0 {
            mask
        } else {
            ((mask >> next) | (mask << (n - next))) & lane_mask
        };
        let off = rotated.trailing_zeros() as usize;
        let idx = self.wrap(self.next + off);
        self.next = self.wrap(idx + 1);
        Some(idx)
    }

    /// Peeks at who would win without rotating the priority.
    #[inline]
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector width mismatch");
        (0..self.n)
            .map(|off| (self.next + off) % self.n)
            .find(|&idx| requests[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_fairly() {
        let mut arb = RoundRobin::new(4);
        let all = [true; 4];
        let grants: Vec<_> = (0..8).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_requestors() {
        let mut arb = RoundRobin::new(3);
        assert_eq!(arb.grant(&[false, false, true]), Some(2));
        assert_eq!(arb.grant(&[true, false, true]), Some(0));
        assert_eq!(arb.grant(&[true, false, true]), Some(2));
    }

    #[test]
    fn none_when_idle_preserves_priority() {
        let mut arb = RoundRobin::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    #[test]
    fn grant_mask_matches_grant_at_full_width() {
        // Width 32 is reachable (1024-bit bus / 4-byte words); the lane
        // mask must not overflow once the priority index has rotated.
        let mut a = RoundRobin::new(32);
        let mut b = RoundRobin::new(32);
        let masks = [1u32 << 31, 0x8000_0001, u32::MAX, 0, 0x0001_0000];
        for (round, &m) in masks.iter().cycle().take(64).enumerate() {
            let bools: Vec<bool> = (0..32).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(
                a.grant_mask(m),
                b.grant(&bools),
                "round {round} mask {m:#x}"
            );
        }
        // Narrow widths agree too.
        let mut a = RoundRobin::new(5);
        let mut b = RoundRobin::new(5);
        for m in [0b10110u32, 0b00001, 0b11111, 0b01000] {
            let bools: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(a.grant_mask(m), b.grant(&bools));
        }
    }

    /// The division-based policy `grant` and `grant_mask` implement.
    fn grant_by_modulo(n: usize, next: &mut usize, mask: u32) -> Option<usize> {
        for off in 0..n {
            let idx = (*next + off) % n;
            if mask >> idx & 1 == 1 {
                *next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    #[test]
    fn compare_wrap_matches_modulo_at_every_width_and_priority() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in 1..=32usize {
            let width = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
            for start in 0..n {
                let mut a = RoundRobin::new(n);
                let mut b = RoundRobin::new(n);
                a.next = start;
                b.next = start;
                let mut next = start;
                for round in 0..64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Mix sparse, dense and empty masks.
                    let m = match round % 4 {
                        0 => (x as u32) & (x >> 32) as u32,
                        1 => 0,
                        _ => x as u32,
                    } & width;
                    let bools: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
                    let want = grant_by_modulo(n, &mut next, m);
                    assert_eq!(a.grant(&bools), want, "grant n={n} start={start} m={m:#x}");
                    assert_eq!(a.next, next);
                    assert_eq!(b.grant_mask(m), want, "mask n={n} start={start} m={m:#x}");
                    assert_eq!(b.next, next);
                }
            }
        }
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobin::new(2);
        assert_eq!(arb.peek(&[true, true]), Some(0));
        assert_eq!(arb.peek(&[true, true]), Some(0));
        assert_eq!(arb.grant(&[true, true]), Some(0));
        assert_eq!(arb.peek(&[true, true]), Some(1));
    }

    #[test]
    fn two_requestors_alternate_like_index_element_stages() {
        // The pattern that produces the paper's r/(r+1) utilization bound:
        // two always-ready stages share ports 50/50.
        let mut arb = RoundRobin::new(2);
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            wins[arb.grant(&[true, true]).unwrap()] += 1;
        }
        assert_eq!(wins, [50, 50]);
    }
}
