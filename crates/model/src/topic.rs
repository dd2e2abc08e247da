//! Topic/theme vectors as fixed-width bitsets.
//!
//! The paper represents the topics covered by an item as a Boolean vector
//! `T^m` of length `|T|` (§II-A1). The reward kernel evaluates
//! `|T_ideal ∩ (T_current(i+1) \ T_current(i))|` for every candidate action
//! of every step of every episode, so this is the hottest data structure in
//! the system. We store topic vectors as packed `u64` blocks which makes
//! union, intersection-count and difference-count a handful of word
//! operations. The training environment copies every item's words into
//! one flat table ([`TopicVector::blocks`]); perfbench's
//! `env.peek_reward_ns` measures the per-candidate cost of that path.

use crate::ids::TopicId;
use serde::{Deserialize, Serialize};
use std::fmt;

const BLOCK_BITS: usize = 64;

#[inline]
fn block_count(len: usize) -> usize {
    len.div_ceil(BLOCK_BITS)
}

/// A fixed-length Boolean topic vector, packed 64 topics per word.
///
/// All binary operations require both operands to have the same length;
/// mixing vocabularies is a logic error and panics in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TopicVector {
    /// Number of valid bits.
    len: usize,
    /// Packed bits, little-endian within each block. Trailing bits beyond
    /// `len` in the last block are always zero (an invariant every mutating
    /// operation preserves so that `count_ones` is a plain popcount).
    blocks: Vec<u64>,
}

impl TopicVector {
    /// An all-zero vector over `len` topics.
    pub fn zeros(len: usize) -> Self {
        TopicVector {
            len,
            blocks: vec![0; block_count(len)],
        }
    }

    /// An all-one vector over `len` topics.
    pub fn ones(len: usize) -> Self {
        let mut v = TopicVector {
            len,
            blocks: vec![u64::MAX; block_count(len)],
        };
        v.clear_tail();
        v
    }

    /// Builds a vector from an iterator of set topic ids.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn from_topics<I>(len: usize, topics: I) -> Self
    where
        I: IntoIterator<Item = TopicId>,
    {
        let mut v = Self::zeros(len);
        for t in topics {
            v.set(t);
        }
        v
    }

    /// Builds a vector from a `0/1` slice, as printed in the paper's
    /// Table II (e.g. `[0,1,1,0,0,0,0,0,0,0,0,0,0]` for Data Mining).
    pub fn from_bits(bits: &[u8]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b != 0 {
                v.set(TopicId::from(i));
            }
        }
        v
    }

    /// Number of topics in the vocabulary this vector is defined over.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero length (empty vocabulary).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether topic `t` is covered.
    #[inline]
    pub fn get(&self, t: TopicId) -> bool {
        let i = t.index();
        debug_assert!(i < self.len, "topic {i} out of range {}", self.len);
        (self.blocks[i / BLOCK_BITS] >> (i % BLOCK_BITS)) & 1 == 1
    }

    /// Sets topic `t`.
    #[inline]
    pub fn set(&mut self, t: TopicId) {
        let i = t.index();
        assert!(i < self.len, "topic {i} out of range {}", self.len);
        self.blocks[i / BLOCK_BITS] |= 1u64 << (i % BLOCK_BITS);
    }

    /// Clears topic `t`.
    #[inline]
    pub fn unset(&mut self, t: TopicId) {
        let i = t.index();
        assert!(i < self.len, "topic {i} out of range {}", self.len);
        self.blocks[i / BLOCK_BITS] &= !(1u64 << (i % BLOCK_BITS));
    }

    /// The packed words, 64 topics each, little-endian within a word.
    /// Bits past [`TopicVector::len`] in the last word are always zero.
    #[inline]
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Clears every topic in place, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Number of covered topics (popcount).
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.blocks.iter().map(|b| b.count_ones()).sum()
    }

    /// In-place union: `self ∪= other`. This is the paper's
    /// `T_current ← T_current ∪ T^m` update (§III-B1).
    #[inline]
    pub fn union_with(&mut self, other: &TopicVector) {
        debug_assert_eq!(self.len, other.len, "vocabulary mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// `|self ∩ other|` without allocating.
    #[inline]
    pub fn intersection_count(&self, other: &TopicVector) -> u32 {
        debug_assert_eq!(self.len, other.len, "vocabulary mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// `|self \ other|` without allocating.
    #[inline]
    pub fn difference_count(&self, other: &TopicVector) -> u32 {
        debug_assert_eq!(self.len, other.len, "vocabulary mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & !b).count_ones())
            .sum()
    }

    /// The core quantity of the paper's topic-coverage reward `r1`
    /// (Eq. 3): the number of **new** topics item `m` adds that are also
    /// ideal, i.e. `|T_ideal ∩ (current ∪ T^m) \ current|` — computed here
    /// as `|ideal ∩ m \ current|` in one fused pass.
    #[inline]
    pub fn novel_ideal_coverage(&self, ideal: &TopicVector, current: &TopicVector) -> u32 {
        debug_assert_eq!(self.len, ideal.len, "vocabulary mismatch");
        debug_assert_eq!(self.len, current.len, "vocabulary mismatch");
        self.blocks
            .iter()
            .zip(&ideal.blocks)
            .zip(&current.blocks)
            .map(|((m, i), c)| (m & i & !c).count_ones())
            .sum()
    }

    /// `true` if every topic in `self` is also in `other`.
    pub fn is_subset_of(&self, other: &TopicVector) -> bool {
        debug_assert_eq!(self.len, other.len, "vocabulary mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Jaccard similarity `|a∩b| / |a∪b|`; `1.0` when both are empty.
    pub fn jaccard(&self, other: &TopicVector) -> f64 {
        debug_assert_eq!(self.len, other.len, "vocabulary mismatch");
        let mut inter = 0u32;
        let mut uni = 0u32;
        for (a, b) in self.blocks.iter().zip(&other.blocks) {
            inter += (a & b).count_ones();
            uni += (a | b).count_ones();
        }
        if uni == 0 {
            1.0
        } else {
            f64::from(inter) / f64::from(uni)
        }
    }

    /// Iterator over the set topic ids, in ascending order.
    pub fn iter_topics(&self) -> impl Iterator<Item = TopicId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(TopicId::from(bi * BLOCK_BITS + tz))
                }
            })
        })
    }

    /// Renders as the paper's `[0,1,1,...]` notation.
    pub fn to_bits(&self) -> Vec<u8> {
        (0..self.len)
            .map(|i| u8::from(self.get(TopicId::from(i))))
            .collect()
    }

    fn clear_tail(&mut self) {
        let rem = self.len % BLOCK_BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for TopicVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TopicVector[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(TopicId::from(i))))?;
            if i + 1 < self.len {
                write!(f, ",")?;
            }
        }
        write!(f, "]")
    }
}

/// A named vocabulary of topics/themes: the set `T` of the paper.
///
/// The vocabulary owns the mapping between topic names (e.g. `"Clustering"`,
/// `"Museum"`) and dense [`TopicId`]s, and is the authority on vector
/// length. Lookups by name are linear-scan on purpose: vocabularies are
/// small (≤ ~100 per the paper) and are only consulted at dataset-build
/// time, never in the learning hot loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicVocabulary {
    names: Vec<String>,
}

impl TopicVocabulary {
    /// Creates a vocabulary from topic names. Duplicate names are rejected.
    pub fn new<S: Into<String>>(
        names: impl IntoIterator<Item = S>,
    ) -> Result<Self, crate::ModelError> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        for (i, n) in names.iter().enumerate() {
            if names[..i].iter().any(|m| m == n) {
                return Err(crate::ModelError::DuplicateTopic(n.clone()));
            }
        }
        Ok(TopicVocabulary { names })
    }

    /// Number of topics.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the vocabulary has no topics.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of topic `t`.
    pub fn name(&self, t: TopicId) -> &str {
        &self.names[t.index()]
    }

    /// Id of the topic with the given name, if present.
    pub fn id_of(&self, name: &str) -> Option<TopicId> {
        self.names.iter().position(|n| n == name).map(TopicId::from)
    }

    /// All names, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// A zero vector sized for this vocabulary.
    pub fn zero_vector(&self) -> TopicVector {
        TopicVector::zeros(self.len())
    }

    /// Builds a vector covering the named topics.
    ///
    /// # Errors
    /// Returns [`crate::ModelError::UnknownTopic`] for names not in the
    /// vocabulary.
    pub fn vector_of(&self, names: &[&str]) -> Result<TopicVector, crate::ModelError> {
        let mut v = self.zero_vector();
        for name in names {
            let id = self
                .id_of(name)
                .ok_or_else(|| crate::ModelError::UnknownTopic((*name).to_owned()))?;
            v.set(id);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(bits: &[u8]) -> TopicVector {
        TopicVector::from_bits(bits)
    }

    #[test]
    fn zeros_and_ones() {
        let z = TopicVector::zeros(13);
        assert_eq!(z.count_ones(), 0);
        let o = TopicVector::ones(13);
        assert_eq!(o.count_ones(), 13);
        assert_eq!(o.len(), 13);
    }

    #[test]
    fn blocks_expose_packed_words_and_clear_keeps_length() {
        let mut v = TopicVector::ones(70);
        assert_eq!(v.blocks(), &[u64::MAX, (1u64 << 6) - 1]);
        v.clear();
        assert_eq!(v, TopicVector::zeros(70));
        assert_eq!(v.blocks().len(), 2);
    }

    #[test]
    fn ones_clears_tail_bits() {
        // 70 topics spans two blocks; the 58 tail bits of block 1 must be 0.
        let o = TopicVector::ones(70);
        assert_eq!(o.count_ones(), 70);
    }

    #[test]
    fn set_get_unset() {
        let mut v = TopicVector::zeros(100);
        v.set(TopicId(0));
        v.set(TopicId(63));
        v.set(TopicId(64));
        v.set(TopicId(99));
        assert!(
            v.get(TopicId(0)) && v.get(TopicId(63)) && v.get(TopicId(64)) && v.get(TopicId(99))
        );
        assert_eq!(v.count_ones(), 4);
        v.unset(TopicId(63));
        assert!(!v.get(TopicId(63)));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn paper_table2_data_mining_vector() {
        // T^m2 = [0,1,1,0,0,0,0,0,0,0,0,0,0] covers Classification and
        // Clustering out of 13 topics (§II-B1).
        let m2 = tv(&[0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(m2.len(), 13);
        assert_eq!(m2.count_ones(), 2);
        assert!(m2.get(TopicId(1)) && m2.get(TopicId(2)));
    }

    #[test]
    fn union_and_intersection() {
        let mut a = tv(&[1, 0, 1, 0]);
        let b = tv(&[0, 1, 1, 0]);
        assert_eq!(a.intersection_count(&b), 1);
        a.union_with(&b);
        assert_eq!(a.to_bits(), vec![1, 1, 1, 0]);
    }

    #[test]
    fn difference_count() {
        let a = tv(&[1, 1, 1, 0]);
        let b = tv(&[0, 1, 0, 0]);
        assert_eq!(a.difference_count(&b), 2);
        assert_eq!(b.difference_count(&a), 0);
    }

    #[test]
    fn novel_ideal_coverage_matches_paper_example() {
        // §III-B1: with T_ideal = [0,1,1,0,0,0,1,0,0,1,0,0,0] and current
        // coverage from m2 = Data Mining, adding m4 = Linear Algebra
        // ([0,0,0,0,0,0,0,0,0,1,1,0,0], ideal topic "Linear System" at
        // index 9) gains 1; adding m5 = Big Data gains 0.
        let ideal = tv(&[0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0]);
        let current = tv(&[0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]); // after m2
        let m4 = tv(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0]);
        let m5 = tv(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
        assert_eq!(m4.novel_ideal_coverage(&ideal, &current), 1);
        assert_eq!(m5.novel_ideal_coverage(&ideal, &current), 0);
    }

    #[test]
    fn subset_and_jaccard() {
        let a = tv(&[1, 0, 1, 0]);
        let b = tv(&[1, 1, 1, 0]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!((a.jaccard(&b) - 2.0 / 3.0).abs() < 1e-12);
        let e = TopicVector::zeros(4);
        assert!((e.jaccard(&TopicVector::zeros(4)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_topics_ascending() {
        let v = TopicVector::from_topics(130, [TopicId(3), TopicId(64), TopicId(129)]);
        let got: Vec<u32> = v.iter_topics().map(|t| t.0).collect();
        assert_eq!(got, vec![3, 64, 129]);
    }

    #[test]
    fn vocabulary_lookup() {
        let voc = TopicVocabulary::new(["Museum", "Art Gallery", "River"]).unwrap();
        assert_eq!(voc.len(), 3);
        assert_eq!(voc.id_of("River"), Some(TopicId(2)));
        assert_eq!(voc.id_of("Opera"), None);
        assert_eq!(voc.name(TopicId(0)), "Museum");
        let v = voc.vector_of(&["Museum", "River"]).unwrap();
        assert_eq!(v.to_bits(), vec![1, 0, 1]);
    }

    #[test]
    fn vocabulary_rejects_duplicates() {
        assert!(TopicVocabulary::new(["A", "B", "A"]).is_err());
    }

    #[test]
    fn vector_of_unknown_topic_errors() {
        let voc = TopicVocabulary::new(["A"]).unwrap();
        assert!(voc.vector_of(&["Z"]).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let v = tv(&[1, 0, 1, 1, 0]);
        let s = serde_json::to_string(&v).unwrap();
        let back: TopicVector = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }
}
