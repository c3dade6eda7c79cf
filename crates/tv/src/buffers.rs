//! Process-wide reuse of lane-sized buffers.
//!
//! A case with a large input set allocates a few buffers holding one word
//! or one byte per input — the input columns and the dense outcome table —
//! and frees them when the case is done. At 2^16 inputs those are 64–512 KiB
//! each, large enough that the allocator returns them to the kernel on free
//! and the next case faults the pages in again. Instead, the last few large
//! buffers freed are kept and handed to the next case, on any thread: the
//! engine's workers live for one batch, so a per-thread pool would start
//! cold at every batch.

use std::sync::Mutex;

/// Buffers shorter than this are left to the allocator.
const MIN_LEN: usize = 1 << 12;
/// Buffers longer than this are not kept.
const MAX_LEN: usize = 1 << 20;
/// How many buffers of each element type are kept.
const KEEP: usize = 8;

static WORDS: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
static BYTES: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// An element type with a pool of spare buffers.
pub(crate) trait Pooled: Sized + 'static {
    fn pool() -> &'static Mutex<Vec<Vec<Self>>>;
}

impl Pooled for u64 {
    fn pool() -> &'static Mutex<Vec<Vec<u64>>> {
        &WORDS
    }
}

impl Pooled for u8 {
    fn pool() -> &'static Mutex<Vec<Vec<u8>>> {
        &BYTES
    }
}

/// An empty buffer with room for `len` elements: a spare one if one is
/// large enough, or a fresh allocation.
pub(crate) fn take<T: Pooled>(len: usize) -> Vec<T> {
    take_from(T::pool(), len)
}

/// Keeps `buf` for a later [`take`] when it is worth keeping and the pool
/// has room; frees it otherwise.
pub(crate) fn give<T: Pooled>(buf: Vec<T>) {
    give_to(T::pool(), buf)
}

fn take_from<T>(pool: &Mutex<Vec<Vec<T>>>, len: usize) -> Vec<T> {
    if len >= MIN_LEN {
        let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(index) = pool.iter().position(|buf| buf.capacity() >= len) {
            return pool.swap_remove(index);
        }
    }
    Vec::with_capacity(len)
}

fn give_to<T>(pool: &Mutex<Vec<Vec<T>>>, mut buf: Vec<T>) {
    if !(MIN_LEN..=MAX_LEN).contains(&buf.capacity()) {
        return;
    }
    buf.clear();
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < KEEP {
        pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_buffers_are_reused_small_ones_are_not() {
        let pool: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
        let mut big = take_from(&pool, MIN_LEN);
        big.extend(0..MIN_LEN as u64);
        let addr = big.as_ptr();
        give_to(&pool, big);
        assert!(take_from(&pool, MIN_LEN + 1).capacity() > MIN_LEN, "too small to reuse");
        let reused = take_from(&pool, MIN_LEN);
        assert!(reused.is_empty(), "a reused buffer comes back cleared");
        assert_eq!(reused.as_ptr(), addr, "the spare buffer is handed out again");

        give_to(&pool, Vec::with_capacity(16));
        assert!(pool.lock().unwrap().is_empty(), "small buffers are not kept");
        for _ in 0..KEEP + 1 {
            give_to(&pool, Vec::with_capacity(MIN_LEN));
        }
        assert_eq!(pool.lock().unwrap().len(), KEEP, "the pool is bounded");
    }
}
