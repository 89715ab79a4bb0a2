//! The min-queue entry of the shortest-path searches here and of the
//! event queues of `ecp-simnet`.

use std::cmp::Ordering;

/// One entry of a min-queue on the std [`BinaryHeap`](std::collections::BinaryHeap):
/// an `f64` priority and a `u64` tie-break packed into a single `u128`
/// key, with an `item` the order ignores.
///
/// # Order
///
/// The heap pops the entry with the smallest key first:
///
/// * by priority, in the [`f64::total_cmp`] order of `priority + 0.0`,
///   then by `tie`, smallest first;
/// * `-0.0` and `+0.0` tie (adding `+0.0` turns `-0.0` into `+0.0`), as
///   `partial_cmp` treats them, so for every priority but NaN the order
///   is exactly `partial_cmp` on the priority, then the tie;
/// * NaN sorts where `total_cmp` puts it, so `f64::NAN` sorts last. None
///   reaches a queue: the searches skip non-finite arc weights, and
///   scenario validation keeps event times finite.
///
/// # Why an integer
///
/// The heap compares entries at every step of every push and pop. A
/// float comparator pays a partial comparison, its fallback and then the
/// tie's comparison; the packed key is one unsigned comparison. The high
/// 64 bits are the priority's bits with the sign bit set when it is
/// clear and every bit flipped when it is set, which makes unsigned
/// order equal `total_cmp` order; the low 64 bits are the tie.
///
/// [`MinEntry::priority`] reads the priority back as `priority + 0.0`:
/// bit for bit what was pushed unless that was `-0.0`. A caller that
/// may push `-0.0` and needs its sign keeps the value in `item`.
pub struct MinEntry<T = ()> {
    key: u128,
    /// What the entry carries.
    pub item: T,
}

const SIGN: u64 = 1 << 63;

impl<T> MinEntry<T> {
    /// An entry ordered by `priority`, then by `tie`.
    #[inline]
    pub fn new(priority: f64, tie: u64, item: T) -> Self {
        let bits = (priority + 0.0).to_bits();
        let high = bits ^ (((bits as i64 >> 63) as u64) | SIGN);
        MinEntry {
            key: (u128::from(high) << 64) | u128::from(tie),
            item,
        }
    }

    /// The priority, as `priority + 0.0`.
    #[inline]
    pub fn priority(&self) -> f64 {
        let high = (self.key >> 64) as u64;
        f64::from_bits(high ^ (!((high as i64 >> 63) as u64) | SIGN))
    }

    /// The tie-break.
    #[inline]
    pub fn tie(&self) -> u64 {
        self.key as u64
    }
}

impl<T> PartialEq for MinEntry<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for MinEntry<T> {}

impl<T> Ord for MinEntry<T> {
    /// Reversed, so the std max-heap pops the smallest key.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<T> PartialOrd for MinEntry<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
