//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// A range of collection sizes. Converted from `Range<usize>` or a fixed
/// `usize`.
#[derive(Clone, Debug)]
pub struct SizeRange {
    start: usize,
    end: usize, // exclusive
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            start: r.start,
            end: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            start: n,
            end: n + 1,
        }
    }
}

/// Generates `Vec`s whose length falls in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_lengths_respect_range() {
        let strat = vec(any::<u8>(), 3..7);
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn fixed_size_from_usize() {
        let strat = vec(any::<u8>(), 5);
        let mut rng = TestRng::new(9);
        assert_eq!(strat.generate(&mut rng).len(), 5);
    }
}
