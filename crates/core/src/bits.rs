//! Bitsets over a slice of `u64` words, sized for any element count: the
//! channel's touched-bank set and the controller's per-bank and
//! eligibility masks over queue entries.

/// Words needed to hold `n` bits.
pub fn words(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
pub fn set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
pub fn clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

#[inline]
pub fn get(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Indices of the set bits, ascending.
#[inline]
pub fn ones(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        word: 0,
        cur: words.first().copied().unwrap_or(0),
    }
}

/// Iterator returned by [`ones`].
pub struct Ones<'a> {
    words: &'a [u64],
    word: usize,
    cur: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.word += 1;
            self.cur = *self.words.get(self.word)?;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.word * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_and_ones_cross_word_boundaries() {
        let mut w = vec![0u64; words(130)];
        assert_eq!(w.len(), 3);
        for i in [0, 63, 64, 100, 129] {
            set(&mut w, i);
        }
        assert_eq!(ones(&w).collect::<Vec<_>>(), [0, 63, 64, 100, 129]);
        clear(&mut w, 64);
        assert!(!get(&w, 64) && get(&w, 63) && get(&w, 129));
        assert_eq!(ones(&w).collect::<Vec<_>>(), [0, 63, 100, 129]);
        assert_eq!(ones(&[]).next(), None);
        assert_eq!(ones(&[0, 0]).next(), None);
    }
}
