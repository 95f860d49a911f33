//! Arena-pooled frame buffers.
//!
//! A slab of reusable frame buffers: bytes are written **once** into a
//! buffer borrowed from the [`FrameArena`], the lightweight [`FrameRef`]
//! index is what gets handed around, and the buffer returns to the pool when
//! freed, so in steady state the pool performs **zero** allocations per
//! frame: buffers are recycled by size class.
//!
//! The simulator does not store frames here: its driver keeps each injected
//! `EthernetFrame` and moves it into the delivery (ARCHITECTURE.md, the
//! `rt-netsim` section, *The frame memory model*).  The type stays only
//! because the frozen benchmark's `frames.arena.alloc_free_ns` kernel times
//! it; it leaves with that row.
//!
//! Three size classes keep recycled capacity close to what frames actually
//! need: small (control frames), medium (sensor-sized data), and MTU
//! (everything else).  Each class backs its buffers with contiguous slab
//! *chunks* of [`ARENA_CHUNK_SLOTS`] fixed-capacity slots, so even a burst
//! that outruns the free list costs one allocation per 256 buffers — not
//! one per buffer — and neighbouring frames share cache lines and pages.
//!
//! # Ownership rules
//!
//! * A [`FrameRef`] is a *unique* handle: exactly one owner at a time, and
//!   the owner must eventually [`FrameArena::free`] it (or the pool reports
//!   it as leaked via [`FrameArena::outstanding`]).
//! * Every slot carries a generation counter that is bumped on free; a stale
//!   `FrameRef` (use after free, double free) is detected and panics rather
//!   than silently reading recycled bytes.

use rt_types::constants::{
    ARENA_CHUNK_SLOTS, ARENA_MEDIUM_BYTES, ARENA_MTU_BYTES, ARENA_SMALL_BYTES,
};

/// A generation-checked index into a [`FrameArena`].
///
/// `Copy` so it can ride inside events and port queues for free, but
/// logically a unique owner of the underlying buffer — see the module-level
/// ownership rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRef {
    slot: u32,
    generation: u32,
}

impl FrameRef {
    /// The raw slot index (diagnostics only).
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The generation the slot had when this reference was issued.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// The three buffer size classes of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeClass {
    Small,
    Medium,
    Mtu,
}

impl SizeClass {
    fn for_len(len: usize) -> SizeClass {
        if len <= ARENA_SMALL_BYTES {
            SizeClass::Small
        } else if len <= ARENA_MEDIUM_BYTES {
            SizeClass::Medium
        } else {
            SizeClass::Mtu
        }
    }

    fn capacity(self) -> usize {
        match self {
            SizeClass::Small => ARENA_SMALL_BYTES,
            SizeClass::Medium => ARENA_MEDIUM_BYTES,
            SizeClass::Mtu => ARENA_MTU_BYTES,
        }
    }

    fn index(self) -> usize {
        match self {
            SizeClass::Small => 0,
            SizeClass::Medium => 1,
            SizeClass::Mtu => 2,
        }
    }
}

/// Slot metadata; the bytes live in the class's slab chunks.
#[derive(Debug)]
struct Slot {
    class: SizeClass,
    /// Index within the class (chunk = `class_slot / ARENA_CHUNK_SLOTS`,
    /// offset = `class_slot % ARENA_CHUNK_SLOTS × capacity`).
    class_slot: u32,
    /// Length of the frame currently stored.
    len: u32,
    generation: u32,
    in_use: bool,
}

/// Counters describing the pool's behaviour over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out that required carving a brand-new slot.
    pub fresh_allocations: u64,
    /// Buffers handed out by recycling a previously freed slot.
    pub reuses: u64,
    /// Buffers returned to the pool.
    pub frees: u64,
    /// Peak number of simultaneously outstanding buffers.
    pub high_water: usize,
}

/// A slab of reusable frame buffers, recycled by size class.
#[derive(Debug, Default)]
pub struct FrameArena {
    slots: Vec<Slot>,
    /// Free slot indices per size class (small / medium / MTU).
    free: [Vec<u32>; 3],
    /// Slab chunks per size class; each chunk holds [`ARENA_CHUNK_SLOTS`]
    /// buffers of the class capacity, contiguously.
    chunks: [Vec<Box<[u8]>>; 3],
    /// Slots carved so far per size class.
    class_slots: [u32; 3],
    outstanding: usize,
    stats: ArenaStats,
}

impl FrameArena {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Byte range of a slot within its class's chunks.
    fn slot_range(class: SizeClass, class_slot: u32, len: usize) -> (usize, usize, usize) {
        let chunk = class_slot as usize / ARENA_CHUNK_SLOTS;
        let offset = (class_slot as usize % ARENA_CHUNK_SLOTS) * class.capacity();
        (chunk, offset, offset + len)
    }

    /// Borrow a zeroed buffer of exactly `len` bytes, fill it with `fill`,
    /// and return the handle.  `len` must fit the MTU class (the largest
    /// frame the fabric can carry); the slice handed to `fill` is exactly
    /// `len` long, so a partial write leaves zeroes, never a previous
    /// frame's bytes.
    pub fn alloc_with<F>(&mut self, len: usize, fill: F) -> FrameRef
    where
        F: FnOnce(&mut [u8]),
    {
        let class = SizeClass::for_len(len);
        assert!(
            len <= class.capacity(),
            "frame of {len} bytes exceeds the arena's MTU class ({ARENA_MTU_BYTES} bytes)"
        );
        let slot = match self.free[class.index()].pop() {
            Some(idx) => {
                self.stats.reuses += 1;
                let s = &mut self.slots[idx as usize];
                debug_assert!(!s.in_use, "arena free list handed out a live slot");
                s.len = len as u32;
                s.in_use = true;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena slot count overflow");
                let class_slot = self.class_slots[class.index()];
                if class_slot as usize % ARENA_CHUNK_SLOTS == 0 {
                    self.chunks[class.index()]
                        .push(vec![0u8; ARENA_CHUNK_SLOTS * class.capacity()].into_boxed_slice());
                }
                self.class_slots[class.index()] += 1;
                self.slots.push(Slot {
                    class,
                    class_slot,
                    len: len as u32,
                    generation: 0,
                    in_use: true,
                });
                self.stats.fresh_allocations += 1;
                idx
            }
        };
        let s = &self.slots[slot as usize];
        let generation = s.generation;
        let (chunk, start, end) = Self::slot_range(class, s.class_slot, len);
        let buf = &mut self.chunks[class.index()][chunk][start..end];
        buf.fill(0);
        fill(buf);
        self.outstanding += 1;
        self.stats.high_water = self.stats.high_water.max(self.outstanding);
        FrameRef { slot, generation }
    }

    /// Copy `bytes` into a pooled buffer.
    pub fn store(&mut self, bytes: &[u8]) -> FrameRef {
        self.alloc_with(bytes.len(), |buf| buf.copy_from_slice(bytes))
    }

    /// The byte slice behind a checked slot.
    fn slot_bytes(&self, s: &Slot) -> &[u8] {
        let (chunk, start, end) = Self::slot_range(s.class, s.class_slot, s.len as usize);
        &self.chunks[s.class.index()][chunk][start..end]
    }

    /// The bytes behind `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale (the buffer was already freed) — that is a
    /// use-after-free bug in the caller, not a recoverable condition.
    pub fn bytes(&self, r: FrameRef) -> &[u8] {
        let s = &self.slots[r.slot as usize];
        assert!(
            s.in_use && s.generation == r.generation,
            "stale FrameRef: slot {} generation {} (current {}, in_use {})",
            r.slot,
            r.generation,
            s.generation,
            s.in_use
        );
        self.slot_bytes(s)
    }

    /// The bytes behind `r`, or `None` if the reference is stale.
    pub fn try_bytes(&self, r: FrameRef) -> Option<&[u8]> {
        let s = self.slots.get(r.slot as usize)?;
        (s.in_use && s.generation == r.generation).then(|| self.slot_bytes(s))
    }

    /// Return `r`'s buffer to the pool.  The slot's generation is bumped so
    /// any surviving copy of `r` becomes stale.
    ///
    /// # Panics
    ///
    /// Panics on double free / stale references.
    pub fn free(&mut self, r: FrameRef) {
        let s = &mut self.slots[r.slot as usize];
        assert!(
            s.in_use && s.generation == r.generation,
            "double free or stale FrameRef: slot {} generation {} (current {}, in_use {})",
            r.slot,
            r.generation,
            s.generation,
            s.in_use
        );
        s.in_use = false;
        s.generation = s.generation.wrapping_add(1);
        self.free[s.class.index()].push(r.slot);
        self.outstanding -= 1;
        self.stats.frees += 1;
    }

    /// Number of buffers currently handed out and not yet freed.  Zero when
    /// every frame has completed its lifecycle — the leak invariant the
    /// property harness checks after every scenario.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Total slots ever carved (live + pooled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slab chunks allocated across all size classes — the
    /// arena's true heap-allocation count, amortised over
    /// [`ARENA_CHUNK_SLOTS`] buffers each.
    pub fn slab_chunks(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_back() {
        let mut a = FrameArena::new();
        let r = a.store(&[1, 2, 3]);
        assert_eq!(a.bytes(r), &[1, 2, 3]);
        assert_eq!(a.outstanding(), 1);
        a.free(r);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn freed_slots_are_recycled_within_their_class() {
        let mut a = FrameArena::new();
        let r1 = a.store(&[0u8; 100]); // small class
        a.free(r1);
        let r2 = a.store(&[7u8; 50]); // small again: must reuse slot 0
        assert_eq!(r2.slot(), r1.slot());
        assert_ne!(r2.generation(), r1.generation());
        assert_eq!(a.stats().fresh_allocations, 1);
        assert_eq!(a.stats().reuses, 1);
        assert_eq!(a.bytes(r2), &[7u8; 50]);
        a.free(r2);
    }

    #[test]
    fn classes_do_not_mix() {
        let mut a = FrameArena::new();
        let small = a.store(&[0u8; 10]);
        let large = a.store(&[0u8; 1400]);
        a.free(small);
        a.free(large);
        // A medium request must not grab the small slot.
        let medium = a.store(&[0u8; 300]);
        assert_ne!(medium.slot(), small.slot());
        assert_ne!(medium.slot(), large.slot());
        // But a new MTU-class request reuses the MTU slot.
        let large2 = a.store(&[0u8; 1200]);
        assert_eq!(large2.slot(), large.slot());
        a.free(medium);
        a.free(large2);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn steady_state_reuse_does_not_grow_the_slab() {
        let mut a = FrameArena::new();
        for round in 0..1000 {
            let r = a.alloc_with(200, |b| b.copy_from_slice(&[round as u8; 200]));
            assert_eq!(a.bytes(r)[0], round as u8);
            a.free(r);
        }
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.stats().fresh_allocations, 1);
        assert_eq!(a.stats().reuses, 999);
        assert_eq!(a.stats().high_water, 1);
        assert_eq!(a.slab_chunks(), 1);
    }

    #[test]
    fn slab_chunks_amortise_fresh_allocations() {
        let mut a = FrameArena::new();
        // A burst beyond one chunk: 300 simultaneously live small buffers
        // span two chunks, not 300 separate allocations.
        let refs: Vec<_> = (0..300).map(|i| a.store(&[i as u8; 16])).collect();
        assert_eq!(a.stats().fresh_allocations, 300);
        assert_eq!(a.slab_chunks(), 2);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(a.bytes(*r), &[i as u8; 16]);
        }
        for r in refs {
            a.free(r);
        }
        assert_eq!(a.outstanding(), 0);
        // The chunks stay for reuse; a new burst carves no further chunks.
        let refs: Vec<_> = (0..300).map(|i| a.store(&[i as u8; 16])).collect();
        assert_eq!(a.slab_chunks(), 2);
        assert_eq!(a.stats().reuses, 300);
        for r in refs {
            a.free(r);
        }
    }

    #[test]
    fn stale_reference_is_detected() {
        let mut a = FrameArena::new();
        let r = a.store(&[1]);
        a.free(r);
        assert!(a.try_bytes(r).is_none());
        let reused = a.store(&[2]);
        // Same slot, new generation: the old ref stays dead.
        assert_eq!(reused.slot(), r.slot());
        assert!(a.try_bytes(r).is_none());
        assert_eq!(a.try_bytes(reused), Some(&[2u8][..]));
        a.free(reused);
    }

    #[test]
    #[should_panic(expected = "double free or stale FrameRef")]
    fn double_free_panics() {
        let mut a = FrameArena::new();
        let r = a.store(&[1]);
        a.free(r);
        a.free(r);
    }

    #[test]
    #[should_panic(expected = "stale FrameRef")]
    fn use_after_free_panics() {
        let mut a = FrameArena::new();
        let r = a.store(&[1]);
        a.free(r);
        let _ = a.bytes(r);
    }

    #[test]
    #[should_panic(expected = "exceeds the arena's MTU class")]
    fn oversized_frames_are_rejected() {
        let mut a = FrameArena::new();
        let _ = a.store(&vec![0u8; ARENA_MTU_BYTES + 1]);
    }

    #[test]
    fn alloc_with_hands_out_a_zeroed_exact_length_slice() {
        let mut a = FrameArena::new();
        let r1 = a.store(&[9u8; 64]);
        a.free(r1);
        // A partial write into a recycled slot must not leak the previous
        // frame's bytes: the slice is zeroed and exactly `len` long.
        let r2 = a.alloc_with(4, |b| {
            assert_eq!(b.len(), 4);
            b[..2].copy_from_slice(&[1, 2]);
        });
        assert_eq!(a.bytes(r2), &[1, 2, 0, 0]);
        a.free(r2);
    }

    #[test]
    fn high_water_tracks_peak_outstanding() {
        let mut a = FrameArena::new();
        let refs: Vec<_> = (0..5).map(|i| a.store(&[i as u8; 32])).collect();
        assert_eq!(a.stats().high_water, 5);
        for r in refs {
            a.free(r);
        }
        let r = a.store(&[0]);
        assert_eq!(a.stats().high_water, 5);
        a.free(r);
        assert_eq!(a.outstanding(), 0);
    }
}
