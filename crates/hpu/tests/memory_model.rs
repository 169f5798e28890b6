//! Differential proof that the paged copy-on-write [`HostMemory`] is
//! observationally identical to the obvious model — one flat `Vec<u8>` —
//! under random interleavings of every operation, including the two things
//! a flat vector cannot express and CoW must get right anyway:
//!
//! * **snapshots**: a `read_slice` view taken at any point must keep
//!   returning the bytes the model held at that instant, no matter how
//!   many writes/fills land on the region afterwards;
//! * **clones**: a cloned memory and its original must diverge
//!   independently, each tracking its own copy of the model from the
//!   moment of the clone;
//! * **deposits**: `write_bytes` / `write_slice` adopt whole pages by
//!   refcount when source and destination are page-aligned (the receive
//!   side of an RDMA deposit) — observationally they must stay plain
//!   byte copies, including when source and destination overlap.
//!
//! Offsets and lengths are drawn to straddle page boundaries aggressively
//! (the region spans several pages and `offset % region` lands anywhere),
//! so single-page fast paths, gathering reads, and scattering writes all
//! get exercised. `PROPTEST_CASES` scales the search in CI.
//!
//! A second suite checks the demand-paged page table on a 64 MiB memory
//! that is mostly never written, against a sparse model (a `BTreeMap` of
//! the bytes written; every other byte reads zero): ops land near both
//! ends and in untouched gaps, snapshots and deposits cross the end of the
//! page table, whole pages are adopted past it, and clones diverge.

use proptest::collection;
use proptest::prelude::*;
use spin_hpu::memory::{HostMemory, MemSlice, HOST_PAGE};
use std::collections::BTreeMap;

/// Region size: a few pages plus a ragged tail, so "last page is partial"
/// is always in play.
const LEN: usize = 3 * HOST_PAGE + 1234;

/// Deterministic fill pattern for a write op.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
        .collect()
}

/// A length biased across the page scale: bytes, sub-page, multi-page.
fn span(len: u64) -> usize {
    match len % 4 {
        0 => (len % 16) as usize,
        1 => (len % HOST_PAGE as u64) as usize,
        _ => (len % (2 * HOST_PAGE as u64 + 500)) as usize,
    }
}

fn shape(offset: u64, len: u64) -> (usize, usize) {
    let offset = (offset as usize) % LEN;
    (offset, span(len).min(LEN - offset))
}

proptest! {
    #[test]
    fn paged_cow_memory_matches_flat_vec_model(
        ops in collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()), 1..80),
    ) {
        let mut mem = HostMemory::new(LEN);
        let mut model: Vec<u8> = vec![0; LEN];
        // Live snapshots: (view, bytes the model held when it was taken).
        let mut snapshots: Vec<(MemSlice, Vec<u8>)> = Vec::new();
        // A diverged clone pair, created at most once per case.
        let mut forked: Option<(HostMemory, Vec<u8>)> = None;

        for &(code, a, b, v) in &ops {
            let (off, len) = shape(a, b);
            match code % 8 {
                // Write a deterministic pattern.
                0 => {
                    let data = pattern(v, len);
                    mem.write(off, &data).unwrap();
                    model[off..off + len].copy_from_slice(&data);
                }
                // Fill with one byte.
                1 => {
                    mem.fill(off, len, v).unwrap();
                    model[off..off + len].fill(v);
                }
                // Reads: all three shapes must agree with the model.
                2 => {
                    prop_assert_eq!(&mem.read(off, len).unwrap()[..], &model[off..off + len]);
                    prop_assert_eq!(&mem.read_bytes(off, len).unwrap()[..], &model[off..off + len]);
                    prop_assert_eq!(
                        mem.read_slice(off, len).unwrap().to_vec(),
                        &model[off..off + len]
                    );
                }
                // Take a CoW snapshot to be checked after later mutations.
                3 => {
                    snapshots.push((
                        mem.read_slice(off, len).unwrap(),
                        model[off..off + len].to_vec(),
                    ));
                }
                // Typed accessor round-trip (8-byte, may straddle a page).
                4 => {
                    let off = off.min(LEN - 8);
                    let x = a.wrapping_mul(0x9E3779B97F4A7C15) ^ u64::from(v);
                    mem.put_u64(off, x).unwrap();
                    model[off..off + 8].copy_from_slice(&x.to_le_bytes());
                    prop_assert_eq!(mem.get_u64(off).unwrap(), x);
                }
                // Deposit via `write_bytes`, as the receive path does for
                // wire payloads. Even `v` picks page-aligned whole-page
                // source and destination so the refcount-adoption fast
                // path fires (source and destination may be the same
                // page); odd `v` deposits an arbitrary window through the
                // scatter path. Either way it must behave as a byte copy.
                5 => {
                    let (src, dst, n) = if v % 2 == 0 {
                        (
                            ((a as usize) % 3) * HOST_PAGE,
                            ((b as usize) % 3) * HOST_PAGE,
                            HOST_PAGE,
                        )
                    } else {
                        let (src, n) = shape(b, a ^ 0x5bd1_e995);
                        (src, off.min(LEN - n), n)
                    };
                    let data = mem.read_bytes(src, n).unwrap();
                    let expect = model[src..src + n].to_vec();
                    mem.write_bytes(dst, &data).unwrap();
                    model[dst..dst + n].copy_from_slice(&expect);
                }
                // Deposit a gathered view via `write_slice` (the memcpy
                // path). The view snapshots its source, so overlapping
                // source/destination is well-defined: model it as a copy
                // through a temporary.
                6 => {
                    let (src, n) = shape(b.rotate_left(17), a);
                    let dst = (a as usize).wrapping_mul(977) % LEN;
                    let n = n.min(LEN - dst);
                    let view = mem.read_slice(src, n).unwrap();
                    let expect = model[src..src + n].to_vec();
                    mem.write_slice(dst, &view).unwrap();
                    model[dst..dst + n].copy_from_slice(&expect);
                }
                // Fork a clone once, then keep writing to it only: the
                // clone tracks its own model, the original keeps tracking
                // `model` (page sharing must never leak writes across).
                _ => match &mut forked {
                    None => forked = Some((mem.clone(), model.clone())),
                    Some((fm, fmodel)) => {
                        let data = pattern(v.wrapping_add(1), len);
                        fm.write(off, &data).unwrap();
                        fmodel[off..off + len].copy_from_slice(&data);
                        prop_assert_eq!(&fm.read(off, len).unwrap()[..], &fmodel[off..off + len]);
                    }
                },
            }
            // Out-of-bounds accesses fail on the true length on every shape.
            prop_assert!(mem.read(LEN, 1).is_err());
            prop_assert!(mem.read_slice(LEN - 1, 2).is_err());
            prop_assert!(mem.write(LEN - 1, &[0, 0]).is_err());
        }

        // Full-memory agreement at the end…
        prop_assert_eq!(&mem.read(0, LEN).unwrap()[..], &model[..]);
        if let Some((fm, fmodel)) = &forked {
            prop_assert_eq!(&fm.read(0, LEN).unwrap()[..], &fmodel[..]);
        }
        // …and every snapshot still shows the bytes of its moment.
        for (i, (view, expect)) in snapshots.iter().enumerate() {
            prop_assert_eq!(&view.to_vec(), expect, "snapshot {} mutated under CoW", i);
            // Window reads of the snapshot agree with it too.
            if !expect.is_empty() {
                let mid = expect.len() / 2;
                prop_assert_eq!(&view.slice(mid, expect.len() - mid)[..], &expect[mid..]);
            }
        }
    }
}

/// The large memory: 64 MiB plus a ragged tail, so its last page is
/// partial and nearly all of it is never written.
const BIG: usize = (64 << 20) + 1234;

/// Whole pages of [`BIG`] (the partial last page is not one).
const BIG_PAGES: usize = BIG / HOST_PAGE;

/// Chunk size of the sparse model: deliberately not a divisor of
/// [`HOST_PAGE`], so the model shares no boundary with the pages it checks.
const CHUNK: usize = 1000;

/// The sparse model: the bytes ever written, in a `BTreeMap` of
/// [`CHUNK`]-byte chunks; every byte of a chunk never written reads zero.
#[derive(Clone, Default)]
struct Sparse {
    chunks: BTreeMap<usize, Vec<u8>>,
    /// One past the highest byte any write has covered: the page table
    /// reaches the page holding `top - 1`.
    top: usize,
}

impl Sparse {
    fn write(&mut self, mut off: usize, mut data: &[u8]) {
        if !data.is_empty() {
            self.top = self.top.max(off + data.len());
        }
        while !data.is_empty() {
            let (c, o) = (off / CHUNK, off % CHUNK);
            let take = data.len().min(CHUNK - o);
            self.chunks.entry(c).or_insert_with(|| vec![0; CHUNK])[o..o + take]
                .copy_from_slice(&data[..take]);
            off += take;
            data = &data[take..];
        }
    }

    fn read(&self, off: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        let end = off + len;
        for (&c, chunk) in self.chunks.range(off / CHUNK..end.div_ceil(CHUNK)) {
            let (lo, hi) = ((c * CHUNK).max(off), (c * CHUNK + CHUNK).min(end));
            out[lo - off..hi - off].copy_from_slice(&chunk[lo - c * CHUNK..hi - c * CHUNK]);
        }
        out
    }

    /// First byte past the page table (a page boundary).
    fn table_end(&self) -> usize {
        self.top.div_ceil(HOST_PAGE) * HOST_PAGE
    }
}

/// An op's range in [`BIG`]: anchored near the start, near the end, or
/// anywhere (which is almost always a gap nothing has touched).
fn big_shape(offset: u64, len: u64) -> (usize, usize) {
    let near = (offset / 3 % (4 * HOST_PAGE as u64)) as usize;
    let offset = match offset % 3 {
        0 => near,
        1 => BIG - 1 - near,
        _ => (offset / 3 % BIG as u64) as usize,
    };
    (offset, span(len).min(BIG - offset))
}

/// A range that starts below the model's table end and runs past it.
fn across_table_end(model: &Sparse, a: u64, b: u64) -> (usize, usize) {
    let end = model.table_end().min(BIG - 1);
    let offset = end.saturating_sub(1 + (a % (2 * HOST_PAGE as u64)) as usize);
    let len = (end - offset) + 1 + (b % HOST_PAGE as u64) as usize;
    (offset, len.min(BIG - offset))
}

/// Every page the model has written, plus both ends of the memory and the
/// pages either side of the table end, read whole from `mem`.
fn assert_big_matches(mem: &HostMemory, model: &Sparse) {
    let end = model.table_end() / HOST_PAGE;
    let mut pages = vec![0, BIG_PAGES, end.saturating_sub(1), end.min(BIG_PAGES)];
    for &c in model.chunks.keys() {
        // A chunk may straddle a page boundary.
        pages.push((c * CHUNK / HOST_PAGE).min(BIG_PAGES));
        pages.push(((c * CHUNK + CHUNK - 1) / HOST_PAGE).min(BIG_PAGES));
    }
    pages.sort_unstable();
    pages.dedup();
    for p in pages {
        let off = p * HOST_PAGE;
        let len = HOST_PAGE.min(BIG - off);
        prop_assert_eq!(
            &mem.read(off, len).unwrap()[..],
            &model.read(off, len)[..],
            "page {}",
            p
        );
    }
}

proptest! {
    #[test]
    fn demand_paged_memory_matches_sparse_model(
        ops in collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()), 1..80),
    ) {
        let mut mem = HostMemory::new(BIG);
        let mut model = Sparse::default();
        let mut snapshots: Vec<(MemSlice, Vec<u8>)> = Vec::new();
        let mut forked: Option<(HostMemory, Sparse)> = None;

        for &(code, a, b, v) in &ops {
            let (off, len) = big_shape(a, b);
            match code % 8 {
                0 => {
                    let data = pattern(v, len);
                    mem.write(off, &data).unwrap();
                    model.write(off, &data);
                }
                1 => {
                    mem.fill(off, len, v).unwrap();
                    model.write(off, &vec![v; len]);
                }
                2 => {
                    let expect = model.read(off, len);
                    prop_assert_eq!(&mem.read(off, len).unwrap()[..], &expect[..]);
                    prop_assert_eq!(&mem.read_bytes(off, len).unwrap()[..], &expect[..]);
                    prop_assert_eq!(mem.read_slice(off, len).unwrap().to_vec(), expect);
                }
                3 => {
                    let off = off.min(BIG - 8);
                    let x = b.wrapping_mul(0x9E3779B97F4A7C15) ^ u64::from(v);
                    mem.put_u64(off, x).unwrap();
                    model.write(off, &x.to_le_bytes());
                    prop_assert_eq!(mem.get_u64(off).unwrap(), x);
                }
                // Snapshot a range that crosses the end of the page table,
                // then deposit a view of another range across that end.
                4 => {
                    let (off, len) = across_table_end(&model, a, b);
                    let view = mem.read_slice(off, len).unwrap();
                    let expect = model.read(off, len);
                    prop_assert_eq!(view.to_vec(), expect.clone());
                    snapshots.push((view, expect));
                    let (dst, n) = across_table_end(&model, b, a);
                    let src = big_shape(b, a).0.min(BIG - n);
                    let view = mem.read_slice(src, n).unwrap();
                    let expect = model.read(src, n);
                    mem.write_slice(dst, &view).unwrap();
                    model.write(dst, &expect);
                }
                // Whole-page deposit by adoption: even `v` into a page at
                // or past the table's end, odd `v` anywhere. Adoption
                // copies nothing, wherever the page lands.
                5 => {
                    let src = (off / HOST_PAGE).min(BIG_PAGES - 1) * HOST_PAGE;
                    let dst_page = if v % 2 == 0 {
                        model.table_end() / HOST_PAGE + (b % 4) as usize
                    } else {
                        b as usize % BIG_PAGES
                    };
                    let dst = dst_page.min(BIG_PAGES - 1) * HOST_PAGE;
                    let page = mem.read_bytes(src, HOST_PAGE).unwrap();
                    let expect = model.read(src, HOST_PAGE);
                    let clones = mem.cow_clones();
                    mem.write_bytes(dst, &page).unwrap();
                    model.write(dst, &expect);
                    prop_assert_eq!(mem.cow_clones(), clones, "adoption copied a page");
                    prop_assert_eq!(&mem.read(dst, HOST_PAGE).unwrap()[..], &expect[..]);
                }
                6 => {
                    snapshots.push((mem.read_slice(off, len).unwrap(), model.read(off, len)));
                }
                // Fork a clone once, then write to it alone; the original
                // keeps taking every other op, so the two diverge.
                _ => match &mut forked {
                    None => forked = Some((mem.clone(), model.clone())),
                    Some((fm, fmodel)) => {
                        let data = pattern(v.wrapping_add(1), len);
                        fm.write(off, &data).unwrap();
                        fmodel.write(off, &data);
                        prop_assert_eq!(&fm.read(off, len).unwrap()[..], &fmodel.read(off, len)[..]);
                    }
                },
            }
            prop_assert!(mem.read(BIG, 1).is_err());
            prop_assert!(mem.read_slice(BIG - 1, 2).is_err());
            prop_assert!(mem.write(BIG - 1, &[0, 0]).is_err());
        }

        assert_big_matches(&mem, &model);
        if let Some((fm, fmodel)) = &forked {
            assert_big_matches(fm, fmodel);
        }
        for (i, (view, expect)) in snapshots.iter().enumerate() {
            prop_assert_eq!(&view.to_vec(), expect, "snapshot {} mutated under CoW", i);
        }
    }
}
