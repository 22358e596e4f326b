//! A thread-local recycling pool for the plane builder's backing stores.
//!
//! One cold term-serial evaluation at full HD allocates and frees four
//! `u32` planes, about 33 MB. Whether those pages survive to the next
//! evaluation is up to the C allocator's adaptive mmap/trim thresholds —
//! which depend on the *process's entire prior allocation history*, so
//! two binaries running the identical kernel can differ 2× in cold wall
//! time purely on page-fault churn. This pool takes the allocator out of
//! the loop: [`PaddedTerms`] returns its planes here on drop, and the
//! builder draws from the pool first, so steady-state evaluations reuse
//! the same resident pages with no faulting and no large zeroing passes.
//!
//! Returned buffers are **dirty** (old contents, truncated/zero-extended
//! to the requested length): the builder writes every row of every plane,
//! padding border rows included. Retention is bounded — vectors beyond the
//! byte or count budget are simply freed — and each thread's pool dies
//! with the thread.
//!
//! [`PaddedTerms`]: crate::term_serial::PaddedTerms

use std::cell::RefCell;

/// Retention caps. The byte budget holds the four planes of one full-HD
/// layer (~33 MB) with headroom; the count cap bounds accumulation of
/// small buffers from sweeps over many little layers.
const MAX_VECS: usize = 64;
const CAP_BYTES: usize = 64 << 20;

thread_local! {
    static POOL: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a length-`len` vector, recycled when a pooled allocation fits
/// (LIFO, so the most recently dropped — hottest — buffer is reused
/// first). Contents are unspecified: recycled buffers keep their old
/// data, fresh ones are zeroed. Callers must fully initialize whatever
/// they read back.
pub(crate) fn take_u32(len: usize) -> Vec<u32> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        for i in (0..pool.len()).rev() {
            if pool[i].capacity() >= len {
                let mut v = pool.swap_remove(i);
                v.truncate(len);
                v.resize(len, 0);
                return v;
            }
        }
        vec![0; len]
    })
}

/// Offers a buffer back to the pool; freed instead when the pool is at
/// its count or byte budget.
pub(crate) fn put_u32(v: Vec<u32>) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let held: usize = pool.iter().map(|v| v.capacity() * size_of::<u32>()).sum();
        if pool.len() < MAX_VECS && held + v.capacity() * size_of::<u32>() <= CAP_BYTES {
            pool.push(v);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_and_zero_extends() {
        let mut v = take_u32(16);
        v.iter_mut().for_each(|x| *x = 7);
        let cap = v.capacity();
        put_u32(v);
        // Smaller request: recycled, stale contents, truncated.
        let v = take_u32(8);
        assert_eq!(v.len(), 8);
        assert!(v.capacity() >= cap.min(16));
        put_u32(v);
        // Request within capacity but past the truncated length: the
        // regrown tail must be zeroed.
        let v = take_u32(12);
        assert_eq!(v.len(), 12);
        assert!(v[8..].iter().all(|&x| x == 0));
    }

    #[test]
    fn oversized_requests_allocate_fresh_zeroed() {
        put_u32(vec![9u32; 4]);
        let v = take_u32(1 << 12);
        assert_eq!(v.len(), 1 << 12);
        assert!(v.iter().all(|&x| x == 0));
    }

    #[test]
    fn pool_respects_count_budget() {
        POOL.with(|p| p.borrow_mut().clear());
        for _ in 0..2 * MAX_VECS {
            put_u32(vec![0u32; 8]);
        }
        POOL.with(|p| assert!(p.borrow().len() <= MAX_VECS));
    }
}
