//! Bit addressing over `u64` words: bit `i` is bit `i % 64` of word
//! `i / 64`. Dataset rows, the extraction plan's cone words and the
//! tree's feature masks all use it.

use std::ops::Range;

/// Bit `i` of `words`.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets every bit of `range`.
pub(crate) fn set_bits(words: &mut [u64], range: Range<usize>) {
    for i in range {
        words[i / 64] |= 1 << (i % 64);
    }
}

/// `len <= 64` bits of `words` starting at bit `start`.
pub(crate) fn get_bits(words: &[u64], start: usize, len: usize) -> u64 {
    let (w, b) = (start / 64, start % 64);
    let mut v = words[w] >> b;
    if b + len > 64 {
        v |= words[w + 1] << (64 - b);
    }
    if len < 64 {
        v &= (1 << len) - 1;
    }
    v
}

/// ORs the `len <= 64` bits of `v` into `words` at bit `start`.
pub(crate) fn put_bits(words: &mut [u64], start: usize, len: usize, v: u64) {
    let (w, b) = (start / 64, start % 64);
    words[w] |= v << b;
    if b + len > 64 {
        words[w + 1] |= v >> (64 - b);
    }
}

/// A growable bit vector.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        *self.words.last_mut().expect("a word was just ensured") |=
            u64::from(bit) << (self.len % 64);
        self.len += 1;
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of {}", self.len);
        bit(&self.words, i)
    }

    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_ranges_cross_word_boundaries() {
        let mut words = [0u64; 3];
        put_bits(&mut words, 60, 9, 0b1_0110_1001);
        put_bits(&mut words, 64 + 40, 64 - 40 + 3, (1 << 27) - 1);
        assert_eq!(get_bits(&words, 60, 9), 0b1_0110_1001);
        assert_eq!(get_bits(&words, 61, 3), 0b100);
        assert_eq!(get_bits(&words, 0, 64), 0b1001 << 60);
        assert_eq!(get_bits(&words, 100, 40), ((1 << 27) - 1) << 4);
        assert!(bit(&words, 60) && !bit(&words, 61) && bit(&words, 130) && !bit(&words, 131));
        set_bits(&mut words, 61..63);
        assert_eq!(get_bits(&words, 60, 4), 0b1111);
    }

    #[test]
    fn bits_grow_one_at_a_time() {
        let mut bits = Bits::default();
        for i in 0..200 {
            bits.push(i % 3 == 0);
        }
        assert_eq!(bits.len(), 200);
        assert_eq!(bits.count_ones(), 67);
        assert!(bits.get(0) && !bits.get(1) && bits.get(198) && !bits.get(199));
    }
}
