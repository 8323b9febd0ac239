//! Reusable-slot object pools — the allocation-free backbone of the
//! engine's per-run arena.
//!
//! `Vec<T>::clear()` keeps the outer buffer but *drops* each element, so
//! a `Vec<CVector>` cleared and refilled every round re-allocates every
//! inner heap buffer. [`VecPool`] fixes that with logical-length
//! semantics: clearing only resets a cursor, and [`VecPool::push_slot`]
//! hands back the retained element (buffers intact) for in-place reuse.
//! Once every slot has grown to its high-water capacity the pool performs
//! zero allocations at steady state — the property the counting-allocator
//! test in `nplus-bench` pins for the whole simulation round loop.

/// A growable pool of reusable `T` slots with a logical length.
///
/// Elements in `items[..len]` are live; elements past `len` are spare
/// slots retained from earlier use, ready to be re-issued by
/// [`VecPool::push_slot`] without reallocating their internals.
#[derive(Debug, Clone, Default)]
pub struct VecPool<T> {
    items: Vec<T>,
    len: usize,
}

impl<T: Default> VecPool<T> {
    /// Logical length (number of live elements).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resets the logical length to zero. Slots (and their heap buffers)
    /// are retained for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Truncates the logical length to `n` (no-op if already shorter).
    /// Used to roll back speculative work — e.g. a join plan that failed
    /// after partially filling the pool.
    #[inline]
    pub fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
    }

    /// Extends the live region by one slot and returns it for filling.
    /// Reuses a spare slot when one exists; allocates a default `T` only
    /// when the pool grows past its high-water mark.
    #[inline]
    pub fn push_slot(&mut self) -> &mut T {
        if self.len == self.items.len() {
            self.items.push(T::default());
        }
        self.len += 1;
        &mut self.items[self.len - 1]
    }

    /// The live elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    /// The live elements, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }

    /// Logically removes the last live element, retaining its slot.
    #[inline]
    pub fn pop_slot(&mut self) {
        debug_assert!(self.len > 0, "pop_slot on empty pool");
        self.len -= 1;
    }

    /// Iterator over the live elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Default> std::ops::Index<usize> for VecPool<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "pool index {i} past live length {}", self.len);
        &self.items[i]
    }
}

impl<T: Default> std::ops::IndexMut<usize> for VecPool<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "pool index {i} past live length {}", self.len);
        &mut self.items[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::CVector;

    #[test]
    fn clear_retains_slot_buffers() {
        let mut pool: VecPool<CVector> = VecPool::default();
        pool.push_slot().assign_zeros(8);
        pool.push_slot().assign_zeros(4);
        assert_eq!(pool.len(), 2);
        pool.clear();
        assert!(pool.is_empty());
        // The retained slot still has its 8-entry buffer; re-assigning a
        // same-or-smaller size must not grow it.
        let slot = pool.push_slot();
        assert_eq!(slot.len(), 8, "slot buffer was dropped by clear()");
        slot.assign_zeros(3);
        assert_eq!(pool.as_slice()[0].len(), 3);
    }

    #[test]
    fn truncate_and_pop_are_logical() {
        let mut pool: VecPool<Vec<u32>> = VecPool::default();
        for i in 0..4 {
            pool.push_slot().push(i);
        }
        pool.truncate(2);
        assert_eq!(pool.len(), 2);
        pool.pop_slot();
        assert_eq!(pool.len(), 1);
        // Slots re-issued in order, contents from last use intact until
        // the caller overwrites them.
        let s = pool.push_slot();
        assert_eq!(s.as_slice(), &[1]);
    }

    #[test]
    fn index_and_iter_cover_live_region_only() {
        let mut pool: VecPool<u64> = VecPool::default();
        *pool.push_slot() = 7;
        *pool.push_slot() = 9;
        pool.truncate(1);
        assert_eq!(pool.iter().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(pool[0], 7);
        assert_eq!(pool.as_slice(), &[7]);
    }
}
