//! Word-interleaved address-to-bank mapping.
//!
//! Word address modulo bank count — including the prime counts (17, 31)
//! whose modulo/divider hardware Fig. 5c prices and whose stride
//! robustness Fig. 5b demonstrates.

use axi_proto::Addr;

/// Returns `true` if `n` is prime.
///
/// The paper evaluates prime bank counts (11, 17, 31) because they minimize
/// systematic conflicts across strides, at the cost of modulo/divider
/// hardware (Fig. 5c).
///
/// # Examples
///
/// ```
/// use banked_mem::is_prime;
///
/// assert!(is_prime(17));
/// assert!(!is_prime(16));
/// ```
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Maps word addresses onto interleaved banks.
///
/// Word *w* (at byte address `w × word_bytes`) lives in bank `w mod m` at
/// row `w div m`. For power-of-two `m` this is a bit slice; for prime `m`
/// real hardware needs modulo/divider units — the area cost `hwmodel`
/// charges in Fig. 5c — but the *function* is identical.
///
/// # Examples
///
/// ```
/// use banked_mem::BankMap;
///
/// let map = BankMap::new(17, 4);
/// assert_eq!(map.bank_of(0), 0);
/// assert_eq!(map.bank_of(4), 1);
/// assert_eq!(map.bank_of(17 * 4), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankMap {
    banks: usize,
    word_bytes: usize,
}

impl BankMap {
    /// Creates a map over `banks` banks of `word_bytes`-wide words.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `word_bytes` is not a power of two.
    pub fn new(banks: usize, word_bytes: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(
            word_bytes.is_power_of_two(),
            "bank word width must be a power of two"
        );
        BankMap { banks, word_bytes }
    }

    /// Number of banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Bank word width in bytes.
    #[inline]
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }

    /// Word index of a byte address (addresses within a word share it).
    #[inline]
    pub fn word_index(&self, addr: Addr) -> u64 {
        // `word_bytes` is a power of two: a shift, not a division.
        addr >> self.word_bytes.trailing_zeros()
    }

    /// Bank holding the word at `addr`.
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> usize {
        (self.word_index(addr) % self.banks as u64) as usize
    }

    /// Row within the bank holding the word at `addr`.
    #[inline]
    pub fn row_of(&self, addr: Addr) -> u64 {
        self.word_index(addr) / self.banks as u64
    }

    /// Returns `true` if this map needs modulo/divider hardware (bank count
    /// not a power of two).
    #[inline]
    pub fn needs_divider(&self) -> bool {
        !self.banks.is_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn primality() {
        let primes: Vec<usize> = (0..40).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]);
    }

    #[test]
    fn consecutive_words_hit_distinct_banks() {
        let map = BankMap::new(8, 4);
        let banks: Vec<usize> = (0..8u64).map(|w| map.bank_of(w * 4)).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn bank_row_is_a_bijection_over_a_window() {
        // (bank, row) must uniquely identify every word.
        for banks in [8usize, 11, 16, 17, 31, 32] {
            let map = BankMap::new(banks, 4);
            let mut seen = HashSet::new();
            for w in 0..(banks as u64 * 50) {
                let addr = w * 4;
                assert!(
                    seen.insert((map.bank_of(addr), map.row_of(addr))),
                    "collision at word {w} with {banks} banks"
                );
            }
        }
    }

    #[test]
    fn power_of_two_stride_conflicts_on_power_of_two_banks() {
        // Stride 16 words on 16 banks: every access lands in one bank —
        // the pathology prime bank counts avoid.
        let pow2 = BankMap::new(16, 4);
        let prime = BankMap::new(17, 4);
        let pow2_banks: HashSet<usize> = (0..16u64).map(|k| pow2.bank_of(k * 16 * 4)).collect();
        let prime_banks: HashSet<usize> = (0..16u64).map(|k| prime.bank_of(k * 16 * 4)).collect();
        assert_eq!(pow2_banks.len(), 1);
        assert_eq!(prime_banks.len(), 16);
    }

    #[test]
    fn divider_need_matches_bank_count() {
        assert!(!BankMap::new(16, 4).needs_divider());
        assert!(BankMap::new(17, 4).needs_divider());
    }

    #[test]
    fn sub_word_addresses_share_a_word() {
        let map = BankMap::new(8, 4);
        assert_eq!(map.word_index(0x101), map.word_index(0x103));
        assert_eq!(map.bank_of(0x101), map.bank_of(0x103));
    }
}
