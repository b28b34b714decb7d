//! Thread-local buffer recycling for the inference and autograd hot paths.
//!
//! A training step rebuilds the whole define-by-run graph, and a steady-state
//! serving frame builds the same-shaped tensors over and over — so both
//! paths would otherwise hammer the global allocator with the same requests
//! every iteration. This module keeps per-thread free lists of backing
//! stores: [`crate::NdArray`] returns its `f32` buffer here on drop and the
//! array constructors draw from the lists before touching the global
//! allocator; [`IndexVec`] does the same for `usize` index lists, and
//! [`crate::ExecPlan`] for its `i8`/`i32` quantised arenas.
//!
//! # Reuse contract
//!
//! * **Buckets.** Buffers are binned by power-of-two capacity class. A
//!   request of `len` elements is served from its own class or the one
//!   above, so lookups are O(1) instead of a free-list scan. Slack is
//!   bounded at 4x for pool-allocated buffers (power-of-two capacities);
//!   externally built odd capacities (an `NdArray::from_vec` of a plain
//!   `Vec`) file by floor(log2) and can reach ~8x in the worst case.
//! * **Bounded.** Each pool is capped in buffer count and total retained
//!   elements per thread; overflow simply frees to the global allocator.
//!   Buffers below [`MIN_POOL_LEN`] elements bypass the pool — the
//!   bookkeeping would cost more than the allocation.
//! * **Thread-local first, shelf second.** A buffer recycles to the thread
//!   that dropped it with no synchronisation. Only when the local pool is
//!   full does the buffer overflow onto a bounded global *shelf* (one mutex
//!   lock), and only when a local take misses does the thread probe the
//!   shelf before touching the allocator — so a buffer recycled by worker A
//!   is reusable from worker B, but the steady-state hot path never locks.
//! * **Steady state allocates no buffers.** Once the working set has been
//!   seen (a few iterations), every buffer-class request is served from the
//!   pool; `crates/bench/tests/alloc_counter.rs` pins this with a counting
//!   global allocator around a tape `forward_batch` loop.
//!
//! One generic crate-private `take`/`recycle` pair serves every element
//! type. Other crates see [`take_f32_buffer`], for staging data that ends
//! up inside an `NdArray` (and so recycles when that array drops),
//! [`IndexVec`], and the [`pool_stats`]/[`shelf_stats`] occupancy gauges.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

/// Buffers smaller than this stay on the global allocator: the bookkeeping
/// would cost more than the allocation.
const MIN_POOL_LEN: usize = 64;
/// Maximum number of buffers retained per thread per element type.
const MAX_POOL_BUFS: usize = 384;
/// Maximum total capacity retained per thread per element type, in elements
/// (~64 MiB of f32 / ~128 MiB of usize at the cap — the serving working set
/// is far below either).
const MAX_POOL_ELEMS: usize = 16 << 20;
/// Number of power-of-two capacity classes tracked (up to 2^40 elements —
/// effectively unbounded; larger buffers just bypass the pool).
const CLASSES: usize = 41;
/// Maximum number of buffers retained on the cross-thread shelf per element
/// type.
const MAX_SHELF_BUFS: usize = 256;
/// Maximum total capacity retained on the shelf per element type, in
/// elements (~32 MiB of f32 / ~64 MiB of usize at the cap).
const MAX_SHELF_ELEMS: usize = 8 << 20;

/// Class whose buffers all satisfy a request of `len` elements.
fn class_for_request(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Class a buffer of capacity `cap` files under (`2^c <= cap`).
fn class_of_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.max(1).leading_zeros()) as usize
}

/// Class-binned free lists of one element type with their occupancy: the
/// shape of both a thread's pool and the cross-thread shelf.
pub(crate) struct FreeLists<T> {
    /// `bins[c]` holds buffers with capacity in `[2^c, 2^(c+1))`.
    bins: [Vec<Vec<T>>; CLASSES],
    bufs: usize,
    elems: usize,
}

impl<T> FreeLists<T> {
    const fn new() -> Self {
        FreeLists {
            bins: [const { Vec::new() }; CLASSES],
            bufs: 0,
            elems: 0,
        }
    }

    /// Pops a buffer with capacity `>= len` under the slack bound: the
    /// request class, then one above (every buffer in either is big enough,
    /// and the class bound keeps big buffers from being burned on small
    /// requests — 4x slack for power-of-two capacities, ~8x worst case for
    /// odd ones), then an exact-fit scan of the class below (an odd
    /// capacity files under floor(log2(cap)), one class below its request
    /// class).
    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        let class = class_for_request(len);
        let buf = (class..(class + 2).min(CLASSES))
            .find_map(|c| self.bins[c].pop())
            .or_else(|| {
                let bin = &mut self.bins[class.checked_sub(1)?];
                let i = bin.iter().rposition(|b| b.capacity() >= len)?;
                Some(bin.swap_remove(i))
            })?;
        self.bufs -= 1;
        self.elems -= buf.capacity();
        Some(buf)
    }

    /// Files `buf`, cleared, unless that would pass `max_bufs` buffers or
    /// `max_elems` elements; then hands it back.
    fn file(&mut self, mut buf: Vec<T>, max_bufs: usize, max_elems: usize) -> Option<Vec<T>> {
        let cap = buf.capacity();
        if self.bufs >= max_bufs || self.elems + cap > max_elems {
            return Some(buf);
        }
        buf.clear();
        self.bufs += 1;
        self.elems += cap;
        self.bins[class_of_capacity(cap)].push(buf);
        None
    }
}

/// One set of free lists per pooled element type.
pub(crate) struct Lists {
    f32: FreeLists<f32>,
    usize: FreeLists<usize>,
    i8: FreeLists<i8>,
    i32: FreeLists<i32>,
}

impl Lists {
    const fn new() -> Self {
        Lists {
            f32: FreeLists::new(),
            usize: FreeLists::new(),
            i8: FreeLists::new(),
            i32: FreeLists::new(),
        }
    }
}

thread_local! {
    /// The calling thread's pools.
    static POOLS: RefCell<Lists> = const { RefCell::new(Lists::new()) };
}

/// The cross-thread overflow shelf: it catches buffers a full thread-local
/// pool would otherwise free, and serves them to any thread whose local
/// pool misses. Steady-state traffic never touches it — it is the hand-off
/// lane between a worker that built a working set and a worker that needs
/// one.
static SHELF: Mutex<Lists> = Mutex::new(Lists::new());

/// Locks the shelf, shrugging off poisoning (the shelf holds only empty
/// buffers, so a panicking holder cannot leave it inconsistent).
fn shelf() -> MutexGuard<'static, Lists> {
    SHELF.lock().unwrap_or_else(|e| e.into_inner())
}

/// An element type the pools serve.
pub(crate) trait Pooled: Sized {
    /// This type's free lists within `lists`.
    fn of(lists: &mut Lists) -> &mut FreeLists<Self>;
    /// Records a pool miss (a fresh allocation) in telemetry.
    fn count_miss() {}
}

impl Pooled for f32 {
    fn of(lists: &mut Lists) -> &mut FreeLists<f32> {
        &mut lists.f32
    }
    fn count_miss() {
        bliss_telemetry::metrics::SCRATCH_F32_MISSES.add(1);
    }
}

impl Pooled for usize {
    fn of(lists: &mut Lists) -> &mut FreeLists<usize> {
        &mut lists.usize
    }
    fn count_miss() {
        bliss_telemetry::metrics::SCRATCH_INDEX_MISSES.add(1);
    }
}

impl Pooled for i8 {
    fn of(lists: &mut Lists) -> &mut FreeLists<i8> {
        &mut lists.i8
    }
}

impl Pooled for i32 {
    fn of(lists: &mut Lists) -> &mut FreeLists<i32> {
        &mut lists.i32
    }
}

/// Pops a recycled buffer with capacity at least `len` (cleared, length 0),
/// or creates a fresh one.
pub(crate) fn take<T: Pooled>(len: usize) -> Vec<T> {
    if len < MIN_POOL_LEN {
        return Vec::with_capacity(len);
    }
    POOLS
        .with(|p| T::of(&mut p.borrow_mut()).take(len))
        .or_else(|| T::of(&mut shelf()).take(len))
        // Fresh buffers get power-of-two capacity so they later file in the
        // exact class their own request size maps to — without this, every
        // odd-sized working-set buffer would miss its bin on the next
        // iteration and steady state would keep allocating.
        .unwrap_or_else(|| {
            T::count_miss();
            Vec::with_capacity(len.next_power_of_two())
        })
}

/// A zero-filled buffer of exactly `len` elements, recycled when possible.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, 0.0);
    buf
}

/// A buffer of exactly `len` elements filled from `it`, recycled when
/// possible. `it` must yield exactly `len` items.
pub(crate) fn take_from_iter(len: usize, it: impl Iterator<Item = f32>) -> Vec<f32> {
    let mut buf = take(len);
    buf.extend(it);
    debug_assert_eq!(buf.len(), len, "iterator length must match request");
    buf
}

/// Returns a no-longer-needed backing store to the thread's pool, or to the
/// shelf when that pool is full (or lets it drop if the shelf is full too or
/// the buffer too small to be worth keeping).
pub(crate) fn recycle<T: Pooled>(buf: Vec<T>) {
    if buf.capacity() < MIN_POOL_LEN {
        return;
    }
    let overflow =
        POOLS.with(|p| T::of(&mut p.borrow_mut()).file(buf, MAX_POOL_BUFS, MAX_POOL_ELEMS));
    if let Some(buf) = overflow {
        T::of(&mut shelf()).file(buf, MAX_SHELF_BUFS, MAX_SHELF_ELEMS);
    }
}

/// A point-in-time view of the calling thread's buffer pools, for
/// leak/high-water assertions in long-horizon soak tests: a steady-state
/// serving loop must show a **flat** retained-elements curve after warmup —
/// monotone growth across epochs means some path leaks buffers into (or
/// past) the pool instead of reusing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Retained `f32` buffers on this thread.
    pub f32_bufs: usize,
    /// Total retained `f32` capacity on this thread, in elements.
    pub f32_elems: usize,
    /// Retained `usize` buffers on this thread.
    pub index_bufs: usize,
    /// Total retained `usize` capacity on this thread, in elements.
    pub index_elems: usize,
}

impl PoolStats {
    /// Total retained bytes across both pools.
    pub fn retained_bytes(&self) -> usize {
        self.f32_elems * std::mem::size_of::<f32>()
            + self.index_elems * std::mem::size_of::<usize>()
    }
}

/// Snapshots the calling thread's pool occupancy (cheap: four counter
/// reads).
pub fn pool_stats() -> PoolStats {
    POOLS.with(|p| {
        let p = p.borrow();
        PoolStats {
            f32_bufs: p.f32.bufs,
            f32_elems: p.f32.elems,
            index_bufs: p.usize.bufs,
            index_elems: p.usize.elems,
        }
    })
}

/// A point-in-time view of the global cross-thread overflow shelf, for the
/// same leak/high-water assertions as [`PoolStats`] — but process-wide: the
/// shelf only ever holds what full thread-local pools spilled, so a
/// monotonically growing shelf means some thread keeps building buffers it
/// never re-takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShelfStats {
    /// Shelved `f32` buffers across all threads.
    pub f32_bufs: usize,
    /// Total shelved `f32` capacity, in elements.
    pub f32_elems: usize,
    /// Shelved `usize` buffers across all threads.
    pub index_bufs: usize,
    /// Total shelved `usize` capacity, in elements.
    pub index_elems: usize,
}

impl ShelfStats {
    /// Total shelved bytes across both element types.
    pub fn retained_bytes(&self) -> usize {
        self.f32_elems * std::mem::size_of::<f32>()
            + self.index_elems * std::mem::size_of::<usize>()
    }
}

/// Snapshots the global overflow shelf's occupancy (one mutex lock).
pub fn shelf_stats() -> ShelfStats {
    let s = shelf();
    ShelfStats {
        f32_bufs: s.f32.bufs,
        f32_elems: s.f32.elems,
        index_bufs: s.usize.bufs,
        index_elems: s.usize.elems,
    }
}

/// Takes an empty pooled `f32` staging buffer with capacity at least `len`.
///
/// The public entry point for data staged outside an [`crate::NdArray`] that
/// ends up inside one (`NdArray::from_vec`): the buffer returns to the pool
/// when that array drops. Dropping the buffer itself frees it.
pub fn take_f32_buffer(len: usize) -> Vec<f32> {
    take(len)
}

/// A pooled `Vec<usize>`: drawn from the thread-local index pool and
/// returned to it on drop, exactly like an [`crate::NdArray`]'s backing
/// store.
///
/// Used for index lists that escape into results the caller holds across an
/// iteration (e.g. the sparse ViT's per-pixel frame indices inside a
/// segmentation prediction, or the gather indices captured by
/// [`crate::Tensor::gather_rows`]'s backward closure): the steady-state
/// serving loop then performs no allocator round-trips for them.
///
/// Dereferences to `[usize]`; compares transparently against slices and
/// `Vec<usize>`.
///
/// ```
/// use bliss_tensor::IndexVec;
///
/// let mut v = IndexVec::with_capacity(3);
/// v.push(7);
/// v.push(9);
/// assert_eq!(v.len(), 2);
/// assert_eq!(v, vec![7usize, 9]);
/// assert_eq!(IndexVec::from_slice(&[1, 2]).as_slice(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct IndexVec {
    data: Vec<usize>,
}

impl IndexVec {
    /// An empty pooled vector (no buffer drawn until first growth).
    pub fn new() -> Self {
        IndexVec { data: Vec::new() }
    }

    /// An empty pooled vector with capacity at least `cap`.
    pub fn with_capacity(cap: usize) -> Self {
        IndexVec { data: take(cap) }
    }

    /// A pooled copy of `slice`.
    pub fn from_slice(slice: &[usize]) -> Self {
        let mut data = take(slice.len());
        data.extend_from_slice(slice);
        IndexVec { data }
    }

    /// Appends a value.
    pub fn push(&mut self, v: usize) {
        self.data.push(v);
    }

    /// Clears the vector, keeping its pooled capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The indices as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.data
    }
}

impl Drop for IndexVec {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.data));
    }
}

impl Clone for IndexVec {
    fn clone(&self) -> Self {
        Self::from_slice(&self.data)
    }
}

impl Deref for IndexVec {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.data
    }
}

impl DerefMut for IndexVec {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.data
    }
}

impl fmt::Debug for IndexVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

impl PartialEq for IndexVec {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl Eq for IndexVec {}

impl PartialEq<Vec<usize>> for IndexVec {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.data == *other
    }
}

impl PartialEq<[usize]> for IndexVec {
    fn eq(&self, other: &[usize]) -> bool {
        self.data == other
    }
}

impl PartialEq<IndexVec> for Vec<usize> {
    fn eq(&self, other: &IndexVec) -> bool {
        *self == other.data
    }
}

impl FromIterator<usize> for IndexVec {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut data = take(it.size_hint().0);
        data.extend(it);
        IndexVec { data }
    }
}

impl<'a> IntoIterator for &'a IndexVec {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_large_buffers() {
        let buf = take_zeroed(1024);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take_zeroed(512); // class below, served from one above
        assert_eq!(again.len(), 512);
        assert_eq!(again.as_ptr(), ptr, "expected the pooled allocation back");
        assert!(again.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zeroes_are_fresh_after_reuse() {
        let mut buf = take_zeroed(256);
        buf.iter_mut().for_each(|x| *x = 7.0);
        recycle(buf);
        assert!(take_zeroed(256).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_from_iter_matches_collect() {
        let buf = take_from_iter(100, (0..100).map(|x| x as f32));
        assert_eq!(buf.len(), 100);
        assert_eq!(buf[99], 99.0);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let buf = take_zeroed(4);
        assert_eq!(buf.len(), 4);
        recycle(vec![0.0f32; 4]); // silently ignored
    }

    #[test]
    fn size_classes_do_not_burn_big_buffers_on_small_requests() {
        // A 1 MiB-class buffer must not be handed to a 64-element request.
        let big = take_zeroed(1 << 18);
        let big_ptr = big.as_ptr();
        recycle(big);
        let small = take_zeroed(64);
        assert_ne!(small.as_ptr(), big_ptr, "class slack bound violated");
        // The big buffer is still there for a big request.
        let big_again = take_zeroed(1 << 18);
        assert_eq!(big_again.as_ptr(), big_ptr);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOL_BUFS * 2) {
            recycle(vec![0.0f32; MIN_POOL_LEN]);
        }
        let stats = pool_stats();
        assert!(stats.f32_bufs <= MAX_POOL_BUFS);
        assert!(stats.f32_elems <= MAX_POOL_ELEMS);
    }

    #[test]
    fn index_pool_round_trips() {
        let mut buf = take::<usize>(256);
        buf.extend(0..256);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take::<usize>(200);
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn index_vec_recycles_on_drop() {
        let v = IndexVec::from_slice(&(0..300).collect::<Vec<_>>());
        let ptr = v.as_slice().as_ptr();
        drop(v);
        let again = IndexVec::with_capacity(256);
        assert_eq!(again.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn overflowing_f32_recycle_crosses_threads_via_the_shelf() {
        // A capacity class no other test uses, so concurrent tests in this
        // binary cannot race us for the shelved buffer.
        const BIG: usize = 5 << 18;
        let ptr = std::thread::spawn(|| {
            let mut marked = take_f32_buffer(BIG);
            marked.resize(BIG, 1.0);
            let ptr = marked.as_ptr() as usize;
            // Fill this thread's local pool to its buffer cap so the marked
            // buffer overflows onto the cross-thread shelf.
            for _ in 0..MAX_POOL_BUFS {
                recycle(vec![0.0f32; MIN_POOL_LEN]);
            }
            recycle(marked);
            ptr
        })
        .join()
        .unwrap();
        // A different thread — empty local pool — must get worker A's buffer
        // back from the shelf, cleared.
        let got = std::thread::spawn(move || {
            let buf = take_f32_buffer(BIG);
            assert!(buf.is_empty(), "shelved buffers must come back cleared");
            buf.as_ptr() as usize
        })
        .join()
        .unwrap();
        assert_eq!(got, ptr, "expected the shelved allocation on thread B");
    }

    #[test]
    fn overflowing_index_recycle_crosses_threads_via_the_shelf() {
        const BIG: usize = 3 << 18; // distinct class from the f32 test's data
        let ptr = std::thread::spawn(|| {
            let mut marked = take::<usize>(BIG);
            marked.resize(BIG, 7);
            let ptr = marked.as_ptr() as usize;
            for _ in 0..MAX_POOL_BUFS {
                recycle(vec![0usize; MIN_POOL_LEN]);
            }
            recycle(marked);
            ptr
        })
        .join()
        .unwrap();
        let got = std::thread::spawn(move || {
            let buf = take::<usize>(BIG);
            buf.as_ptr() as usize
        })
        .join()
        .unwrap();
        assert_eq!(got, ptr, "expected the shelved allocation on thread B");
    }

    #[test]
    fn shelf_is_bounded_and_reports_occupancy() {
        // Overflow far more small buffers than the shelf admits; its caps
        // must hold no matter what other tests shelve concurrently.
        std::thread::spawn(|| {
            for _ in 0..(MAX_POOL_BUFS + MAX_SHELF_BUFS * 2) {
                recycle(vec![0.0f32; MIN_POOL_LEN]);
            }
        })
        .join()
        .unwrap();
        let stats = shelf_stats();
        assert!(stats.f32_bufs <= MAX_SHELF_BUFS, "{stats:?}");
        assert!(stats.f32_elems <= MAX_SHELF_ELEMS, "{stats:?}");
        assert!(stats.index_bufs <= MAX_SHELF_BUFS, "{stats:?}");
        assert!(stats.index_elems <= MAX_SHELF_ELEMS, "{stats:?}");
    }

    #[test]
    fn quant_pools_round_trip() {
        let mut b8 = take::<i8>(512);
        b8.resize(512, 3);
        let p8 = b8.as_ptr();
        recycle(b8);
        let again8 = take::<i8>(512);
        assert!(again8.is_empty(), "recycled buffers come back cleared");
        assert_eq!(again8.as_ptr(), p8);

        let mut b32 = take::<i32>(512);
        b32.resize(512, -9);
        let p32 = b32.as_ptr();
        recycle(b32);
        let again32 = take::<i32>(512);
        assert_eq!(again32.as_ptr(), p32);
    }

    #[test]
    fn index_vec_behaves_like_a_vec() {
        let mut v = IndexVec::new();
        v.push(3);
        v.push(1);
        assert_eq!(v.len(), 2);
        assert_eq!(v[1], 1);
        assert_eq!(v, vec![3usize, 1]);
        assert_eq!(v.clone(), v);
        assert_eq!(format!("{v:?}"), "[3, 1]");
        let collected: IndexVec = (0..4usize).collect();
        assert_eq!(collected.iter().sum::<usize>(), 6);
        let mut s = 0;
        for &x in &collected {
            s += x;
        }
        assert_eq!(s, 6);
    }
}
