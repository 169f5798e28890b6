//! Simulated memories.
//!
//! * [`HpuMemory`] — the fast NIC-local scratchpad a handler's shared state
//!   lives in (§2: "handlers can use that memory to communicate"; §4.1:
//!   uncached, linear physical addressing, single-cycle). Accesses are
//!   bounds-checked: an out-of-range access is the model's SEGV, which the
//!   runtime converts into the `SEGV` handler return code of Appendix B.
//! * [`HostMemory`] — the node's host DRAM that DMA reads/writes target.
//!   Keeping real bytes here is what lets the reproduction check functional
//!   correctness (datatype unpack layouts, RAID parity, accumulate values)
//!   the way the paper's gem5 execution does. Storage is **demand-paged**:
//!   a table of [`HOST_PAGE`]-sized reference-counted pages that covers
//!   only the pages up to the highest one ever written. An unwritten page
//!   is an empty slot, and it and every page past the table's end read as
//!   one shared zero page. Building a node's memory is therefore O(1)
//!   whatever its size, growing the table touches no refcount, and
//!   cloning or dropping it costs one refcount per written page.
//!
//!   Pages have **copy-on-write** semantics: [`HostMemory::read_slice`]
//!   hands out O(1) page views (a [`MemSlice`]) instead of copying the
//!   payload, and a write to a page that still has live views (the zero
//!   page always has) clones just that page, so every outstanding view
//!   keeps the exact bytes it saw when it was taken. This is what makes
//!   message injection O(1) in payload size: the send path snapshots a
//!   multi-MB region by bumping one refcount per page. A page is one MTU,
//!   so each MTU-aligned packet carries one whole page, and the receiver
//!   adopts it by reference ([`HostMemory::write_bytes`]) instead of
//!   copying it.

use bytes::Bytes;
use std::sync::{Arc, OnceLock};

/// Error type for out-of-bounds accesses (the model's segmentation
/// violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segv {
    /// Offset of the offending access.
    pub offset: usize,
    /// Length of the offending access.
    pub len: usize,
    /// Size of the region that was violated.
    pub region: usize,
}

impl std::fmt::Display for Segv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segmentation violation: access [{}..{}) in region of {} bytes",
            self.offset,
            self.offset + self.len,
            self.region
        )
    }
}

impl std::error::Error for Segv {}

macro_rules! typed_accessors {
    ($($get:ident / $put:ident : $ty:ty),+ $(,)?) => {
        $(
            /// Read a little-endian value at `offset`.
            pub fn $get(&self, offset: usize) -> Result<$ty, Segv> {
                const N: usize = std::mem::size_of::<$ty>();
                let b = self.read(offset, N)?;
                // `as_ref` normalizes both storage shapes: `&[u8]`
                // (HpuMemory) and `Cow<[u8]>` (paged HostMemory).
                Ok(<$ty>::from_le_bytes(b.as_ref().try_into().expect("sized read")))
            }
            /// Write a little-endian value at `offset`.
            pub fn $put(&mut self, offset: usize, v: $ty) -> Result<(), Segv> {
                self.write(offset, &v.to_le_bytes())
            }
        )+
    };
}

/// NIC-local scratchpad memory for handler shared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpuMemory {
    data: Vec<u8>,
}

impl HpuMemory {
    /// Allocate `len` bytes of zeroed scratchpad (PtlHPUAllocMem).
    pub fn alloc(len: usize) -> Self {
        HpuMemory { data: vec![0; len] }
    }

    /// Region size.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the region is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Overwrite the start of the region with `init` (the
    /// `hpu_initial_state` mechanism of Appendix B.2).
    pub fn init_state(&mut self, init: &[u8]) -> Result<(), Segv> {
        self.write(0, init)
    }

    fn bounds(&self, offset: usize, len: usize) -> Result<(), Segv> {
        if offset
            .checked_add(len)
            .is_some_and(|e| e <= self.data.len())
        {
            Ok(())
        } else {
            Err(Segv {
                offset,
                len,
                region: self.data.len(),
            })
        }
    }

    /// Read `len` bytes at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> Result<&[u8], Segv> {
        self.bounds(offset, len)?;
        Ok(&self.data[offset..offset + len])
    }

    /// Write bytes at `offset`.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), Segv> {
        self.bounds(offset, bytes.len())?;
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    typed_accessors!(
        get_u64 / put_u64: u64,
        get_u32 / put_u32: u32,
        get_i64 / put_i64: i64,
        get_f64 / put_f64: f64,
    );

    /// Read a bool stored as one byte.
    pub fn get_bool(&self, offset: usize) -> Result<bool, Segv> {
        Ok(self.read(offset, 1)?[0] != 0)
    }

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, offset: usize, v: bool) -> Result<(), Segv> {
        self.write(offset, &[v as u8])
    }

    /// Atomic compare-and-swap on a u64 (PtlHandlerCAS). Returns whether the
    /// swap happened; on failure `cmp` is overwritten with the current value
    /// (matching the paper's DMA CAS semantics for consistency).
    pub fn cas_u64(&mut self, offset: usize, cmp: &mut u64, swap: u64) -> Result<bool, Segv> {
        let cur = self.get_u64(offset)?;
        if cur == *cmp {
            self.put_u64(offset, swap)?;
            Ok(true)
        } else {
            *cmp = cur;
            Ok(false)
        }
    }

    /// Atomic fetch-and-add on a u64 (PtlHandlerFAdd); returns the value
    /// before the increment.
    pub fn fetch_add_u64(&mut self, offset: usize, inc: u64) -> Result<u64, Segv> {
        let before = self.get_u64(offset)?;
        self.put_u64(offset, before.wrapping_add(inc))?;
        Ok(before)
    }
}

/// Copy-on-write page size of [`HostMemory`]: 4 KiB, one network MTU at the
/// default `net.mtu` of 4,096 bytes.
///
/// At one MTU, the payload of an MTU-aligned packet is a whole page: the
/// send path slices it out of the sender's page in O(1), and
/// [`HostMemory::write_bytes`] lands it at an aligned destination by
/// swapping the page reference, copying nothing. A payload handler that
/// forwards its packet (`put_from_device`) sends that same page on, so a
/// streaming ping-pong's pong lands as the client's own ping page.
///
/// It is also the smallest first-write copy: a page's first write copies
/// the whole page, however few bytes land, while an unwritten page below
/// it stays an empty slot. A 1,024-node incast copies 1,023 × 4 KiB =
/// 4 MiB per run, one ring landing page per leaf, since its leaves adopt
/// one shared send buffer by page; building that buffer in every leaf
/// copied 3,069 × 4 KiB, and 16 KiB pages copied 2,557 × 16 KiB = 40 MiB.
pub const HOST_PAGE: usize = 4 * 1024;

/// The shared all-zero page: every empty slot of a [`HostMemory`]'s table,
/// and every page past its end, reads as this one, so a 64 MiB node
/// allocates nothing until it is written.
fn zero_page() -> &'static Arc<[u8]> {
    static ZERO: OnceLock<Arc<[u8]>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::from(vec![0u8; HOST_PAGE]))
}

/// A cheap, immutable view of a [`HostMemory`] byte range: an ordered list
/// of reference-counted page segments. Taking or cloning one is O(number
/// of pages touched) refcount bumps — no byte is copied — and the view is
/// a stable snapshot: later writes to the underlying memory clone the
/// affected pages instead of mutating them under the view.
///
/// [`MemSlice::slice`] produces contiguous [`Bytes`] windows for
/// packetization: O(1) when the window lies inside one segment (the common
/// case — packets are MTU-sized and a page is one MTU), a bounded
/// window-sized copy when it straddles a segment boundary.
#[derive(Debug, Clone, Default)]
pub struct MemSlice {
    segs: Vec<Bytes>,
    /// Start offset of each segment within the view (`starts[0] == 0`).
    starts: Vec<usize>,
    len: usize,
}

impl MemSlice {
    /// An empty view.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single-segment view over already-contiguous bytes.
    pub fn from_bytes(b: Bytes) -> Self {
        if b.is_empty() {
            return Self::empty();
        }
        let len = b.len();
        MemSlice {
            segs: vec![b],
            starts: vec![0],
            len,
        }
    }

    /// Bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of underlying segments (introspection for tests/benches).
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    fn push_seg(&mut self, b: Bytes) {
        if b.is_empty() {
            return;
        }
        self.starts.push(self.len);
        self.len += b.len();
        self.segs.push(b);
    }

    /// The same view with `prefix` prepended (user-header bytes ahead of
    /// the payload). O(segments).
    pub fn prepended(&self, prefix: Bytes) -> MemSlice {
        let mut out = MemSlice::from_bytes(prefix);
        for s in &self.segs {
            out.push_seg(s.clone());
        }
        out
    }

    /// A contiguous window `[start, start+len)` of the view. O(1) when the
    /// window falls inside one segment; otherwise gathers exactly `len`
    /// bytes.
    ///
    /// # Panics
    /// Panics if the window is out of range.
    pub fn slice(&self, start: usize, len: usize) -> Bytes {
        assert!(
            start.checked_add(len).is_some_and(|e| e <= self.len),
            "window {start}+{len} out of range 0..{}",
            self.len
        );
        if len == 0 {
            return Bytes::new();
        }
        // Last segment starting at or before `start`.
        let i = self.starts.partition_point(|&s| s <= start) - 1;
        let rel = start - self.starts[i];
        if rel + len <= self.segs[i].len() {
            return self.segs[i].slice(rel..rel + len);
        }
        // Straddles segments: gather (bounded by the window size).
        let mut out = Vec::with_capacity(len);
        let (mut i, mut rel, mut remaining) = (i, rel, len);
        while remaining > 0 {
            let seg = &self.segs[i];
            let take = remaining.min(seg.len() - rel);
            out.extend_from_slice(&seg[rel..rel + take]);
            remaining -= take;
            rel = 0;
            i += 1;
        }
        Bytes::from(out)
    }

    /// The whole view as contiguous [`Bytes`]: O(1) for single-segment
    /// views, a full copy otherwise.
    pub fn to_bytes(&self) -> Bytes {
        match self.segs.len() {
            0 => Bytes::new(),
            1 => self.segs[0].clone(),
            _ => self.slice(0, self.len),
        }
    }

    /// The whole view as a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for s in &self.segs {
            out.extend_from_slice(s);
        }
        out
    }
}

/// The node's simulated host DRAM: demand-paged [`HOST_PAGE`]-sized
/// reference-counted pages with copy-on-write writes (see the module
/// docs). Cloning a `HostMemory` bumps one refcount per written page; the
/// clone and the original diverge page by page as either side writes.
#[derive(Debug, Clone)]
pub struct HostMemory {
    /// Pages `0..pages.len()`: up to the highest page ever written, `None`
    /// for an unwritten one. Every empty slot and every page past the end
    /// reads as the shared zero page.
    pages: Vec<Option<Arc<[u8]>>>,
    len: usize,
    cow_clones: u64,
}

impl HostMemory {
    /// Allocate `len` bytes of zeroed host memory. O(1) whatever `len` is:
    /// the page table starts empty and grows on first writes.
    pub fn new(len: usize) -> Self {
        HostMemory {
            pages: Vec::new(),
            len,
            cow_clones: 0,
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages cloned by copy-on-write so far (a write landed on a page that
    /// still had live views or clone sharers). Introspection for tests and
    /// the injection-copy benchmarks.
    pub fn cow_clones(&self) -> u64 {
        self.cow_clones
    }

    fn bounds(&self, offset: usize, len: usize) -> Result<(), Segv> {
        if offset.checked_add(len).is_some_and(|e| e <= self.len) {
            Ok(())
        } else {
            Err(Segv {
                offset,
                len,
                region: self.len,
            })
        }
    }

    /// Page `p` for reading: the shared zero page for an empty slot or past
    /// the table's end. Every read path goes through here.
    fn page(&self, p: usize) -> &Arc<[u8]> {
        match self.pages.get(p) {
            Some(Some(page)) => page,
            _ => zero_page(),
        }
    }

    /// Page `p`'s table slot, growing the table with empty slots to reach
    /// it.
    fn slot(&mut self, p: usize) -> &mut Option<Arc<[u8]>> {
        if p >= self.pages.len() {
            self.pages.resize(p + 1, None);
        }
        &mut self.pages[p]
    }

    /// Mutable access to page `p`, cloning it first if any view, snapshot,
    /// or memory clone still shares it — the copy-on-write step. An
    /// unwritten page reads as the shared zero page, so its first write
    /// copies that.
    fn page_mut(&mut self, p: usize) -> &mut [u8] {
        let page = self.slot(p).get_or_insert_with(|| Arc::clone(zero_page()));
        if Arc::get_mut(page).is_none() {
            *page = Arc::from(&page[..]);
            self.cow_clones += 1;
        }
        let page = self.pages[p].as_mut().expect("slot just filled");
        Arc::get_mut(page).expect("page just uniquified")
    }

    /// Read a range. Borrowed (zero-copy) when it falls inside one page,
    /// gathered into an owned buffer when it straddles pages.
    pub fn read(&self, offset: usize, len: usize) -> Result<std::borrow::Cow<'_, [u8]>, Segv> {
        self.bounds(offset, len)?;
        let (p, o) = (offset / HOST_PAGE, offset % HOST_PAGE);
        if o + len <= HOST_PAGE {
            return Ok(std::borrow::Cow::Borrowed(&self.page(p)[o..o + len]));
        }
        let mut out = Vec::with_capacity(len);
        let (mut p, mut o, mut remaining) = (p, o, len);
        while remaining > 0 {
            let take = remaining.min(HOST_PAGE - o);
            out.extend_from_slice(&self.page(p)[o..o + take]);
            remaining -= take;
            o = 0;
            p += 1;
        }
        Ok(std::borrow::Cow::Owned(out))
    }

    /// A range as contiguous reference-counted bytes: an O(1) page view
    /// when the range falls inside one page, a gathering copy otherwise.
    /// For ranges that may span pages, prefer [`HostMemory::read_slice`] —
    /// it never copies.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Result<Bytes, Segv> {
        self.bounds(offset, len)?;
        if len == 0 {
            // An empty view pins no page.
            return Ok(Bytes::new());
        }
        let (p, o) = (offset / HOST_PAGE, offset % HOST_PAGE);
        if o + len <= HOST_PAGE {
            return Ok(Bytes::from_arc(Arc::clone(self.page(p)), o, o + len));
        }
        Ok(Bytes::from(self.read(offset, len)?.into_owned()))
    }

    /// An O(1) copy-on-write snapshot of a range: a [`MemSlice`] of page
    /// views. No byte is copied, and later writes to the range clone the
    /// affected pages instead of mutating the snapshot — this is the
    /// message-injection path.
    pub fn read_slice(&self, offset: usize, len: usize) -> Result<MemSlice, Segv> {
        self.bounds(offset, len)?;
        let mut out = MemSlice::empty();
        let (mut p, mut o, mut remaining) = (offset / HOST_PAGE, offset % HOST_PAGE, len);
        while remaining > 0 {
            let take = remaining.min(HOST_PAGE - o);
            out.push_seg(Bytes::from_arc(Arc::clone(self.page(p)), o, o + take));
            remaining -= take;
            o = 0;
            p += 1;
        }
        Ok(out)
    }

    /// Write a slice (cloning any shared page it touches).
    pub fn write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), Segv> {
        self.bounds(offset, bytes.len())?;
        let (mut p, mut o, mut src) = (offset / HOST_PAGE, offset % HOST_PAGE, bytes);
        while !src.is_empty() {
            let take = src.len().min(HOST_PAGE - o);
            self.page_mut(p)[o..o + take].copy_from_slice(&src[..take]);
            src = &src[take..];
            o = 0;
            p += 1;
        }
        Ok(())
    }

    /// Write reference-counted bytes, adopting the backing storage when
    /// possible: a page-aligned, page-sized `Bytes` whose view covers its
    /// whole backing replaces the destination page by refcount bump — the
    /// receive dual of [`HostMemory::read_bytes`]. Anything else falls
    /// back to the byte-copy of [`HostMemory::write`]. Functionally
    /// identical to `write(offset, &bytes)` either way.
    pub fn write_bytes(&mut self, offset: usize, bytes: &Bytes) -> Result<(), Segv> {
        self.bounds(offset, bytes.len())?;
        if offset.is_multiple_of(HOST_PAGE) && bytes.len() == HOST_PAGE {
            if let Some(backing) = bytes.full_backing() {
                *self.slot(offset / HOST_PAGE) = Some(backing);
                return Ok(());
            }
        }
        self.write(offset, bytes)
    }

    /// Scatter a [`MemSlice`] at `offset`: each whole-page segment that is
    /// still a clean page view is adopted O(1) via
    /// [`HostMemory::write_bytes`]; partial segments copy. This is the
    /// receive-deposit path: a multi-MB reply assembled from page views of
    /// the sender's memory lands by moving page references, not bytes.
    pub fn write_slice(&mut self, offset: usize, slice: &MemSlice) -> Result<(), Segv> {
        self.bounds(offset, slice.len())?;
        for (seg, start) in slice.segs.iter().zip(&slice.starts) {
            self.write_bytes(offset + start, seg)?;
        }
        Ok(())
    }

    typed_accessors!(
        get_u64 / put_u64: u64,
        get_u32 / put_u32: u32,
        get_f64 / put_f64: f64,
    );

    /// Fill a region with a byte value (workload setup).
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) -> Result<(), Segv> {
        self.bounds(offset, len)?;
        let (mut p, mut o, mut remaining) = (offset / HOST_PAGE, offset % HOST_PAGE, len);
        while remaining > 0 {
            let take = remaining.min(HOST_PAGE - o);
            self.page_mut(p)[o..o + take].fill(value);
            remaining -= take;
            o = 0;
            p += 1;
        }
        Ok(())
    }

    /// Atomic u64 compare-and-swap (DMA CAS target side).
    pub fn cas_u64(&mut self, offset: usize, cmp: &mut u64, swap: u64) -> Result<bool, Segv> {
        let cur = self.get_u64(offset)?;
        if cur == *cmp {
            self.put_u64(offset, swap)?;
            Ok(true)
        } else {
            *cmp = cur;
            Ok(false)
        }
    }

    /// Atomic u64 fetch-and-add (DMA fetch-add target side).
    pub fn fetch_add_u64(&mut self, offset: usize, inc: u64) -> Result<u64, Segv> {
        let before = self.get_u64(offset)?;
        self.put_u64(offset, before.wrapping_add(inc))?;
        Ok(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpu_memory_rw() {
        let mut m = HpuMemory::alloc(64);
        m.put_u64(0, 0xAABB).unwrap();
        m.put_f64(8, 2.5).unwrap();
        m.put_bool(16, true).unwrap();
        assert_eq!(m.get_u64(0).unwrap(), 0xAABB);
        assert_eq!(m.get_f64(8).unwrap(), 2.5);
        assert!(m.get_bool(16).unwrap());
    }

    #[test]
    fn segv_on_out_of_bounds() {
        let mut m = HpuMemory::alloc(16);
        assert!(m.get_u64(9).is_err());
        assert!(m.put_u64(16, 1).is_err());
        assert!(m.read(0, 17).is_err());
        let e = m.read(8, 9).unwrap_err();
        assert_eq!(e.region, 16);
        assert!(e.to_string().contains("segmentation violation"));
        // Overflowing offset+len must not wrap.
        assert!(m.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn init_state() {
        let mut m = HpuMemory::alloc(8);
        m.init_state(&[1, 2, 3]).unwrap();
        assert_eq!(m.read(0, 4).unwrap(), &[1, 2, 3, 0]);
        assert!(m.init_state(&[0; 9]).is_err());
    }

    #[test]
    fn hpu_cas_semantics() {
        let mut m = HpuMemory::alloc(8);
        m.put_u64(0, 5).unwrap();
        let mut cmp = 5;
        assert!(m.cas_u64(0, &mut cmp, 9).unwrap());
        assert_eq!(m.get_u64(0).unwrap(), 9);
        let mut cmp = 5;
        assert!(!m.cas_u64(0, &mut cmp, 11).unwrap());
        assert_eq!(cmp, 9, "failed CAS reports current value");
        assert_eq!(m.get_u64(0).unwrap(), 9);
    }

    #[test]
    fn fetch_add() {
        let mut m = HpuMemory::alloc(8);
        assert_eq!(m.fetch_add_u64(0, 3).unwrap(), 0);
        assert_eq!(m.fetch_add_u64(0, 4).unwrap(), 3);
        assert_eq!(m.get_u64(0).unwrap(), 7);
    }

    #[test]
    fn host_memory_rw_and_fill() {
        let mut m = HostMemory::new(1024);
        m.write(100, b"hello").unwrap();
        assert_eq!(&m.read(100, 5).unwrap()[..], b"hello");
        m.fill(0, 10, 0xFF).unwrap();
        assert_eq!(&m.read(9, 1).unwrap()[..], &[0xFF]);
        assert_eq!(&m.read(10, 1).unwrap()[..], &[0]);
        let b = m.read_bytes(100, 5).unwrap();
        assert_eq!(&b[..], b"hello");
    }

    #[test]
    fn host_memory_cross_page_rw() {
        // A memory spanning several pages, with accesses that straddle
        // every boundary: reads gather, writes scatter, typed accessors
        // handle the 8-byte straddle.
        let mut m = HostMemory::new(3 * HOST_PAGE + 100);
        assert_eq!(m.len(), 3 * HOST_PAGE + 100);
        let pat: Vec<u8> = (0..2 * HOST_PAGE + 77).map(|i| (i % 251) as u8).collect();
        m.write(HOST_PAGE - 33, &pat).unwrap();
        assert_eq!(&m.read(HOST_PAGE - 33, pat.len()).unwrap()[..], &pat[..]);
        m.put_u64(HOST_PAGE - 4, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(m.get_u64(HOST_PAGE - 4).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        m.fill(HOST_PAGE - 2, 4, 0xEE).unwrap();
        assert_eq!(&m.read(HOST_PAGE - 2, 4).unwrap()[..], &[0xEE; 4]);
        // Out-of-bounds at the true length, not the page-rounded one.
        assert!(m.read(3 * HOST_PAGE + 99, 2).is_err());
        assert!(m.write(3 * HOST_PAGE + 100, &[1]).is_err());
    }

    #[test]
    fn zero_length_reads_at_the_end_are_empty_not_panics() {
        // A page-multiple-sized memory has no page at index len/HOST_PAGE;
        // a zero-length access at exactly `len` is still in bounds (the
        // flat-Vec semantics: `&data[len..len]` was a valid empty slice).
        let m = HostMemory::new(2 * HOST_PAGE);
        assert!(m.read(2 * HOST_PAGE, 0).unwrap().is_empty());
        assert!(m.read_bytes(2 * HOST_PAGE, 0).unwrap().is_empty());
        assert!(m.read_slice(2 * HOST_PAGE, 0).unwrap().is_empty());
        assert!(
            m.read(2 * HOST_PAGE, 1).is_err(),
            "non-empty is out of bounds"
        );
        let zero = HostMemory::new(0);
        assert!(zero.read(0, 0).unwrap().is_empty());
        assert!(zero.read_bytes(0, 0).unwrap().is_empty());
        assert!(zero.read(0, 1).is_err());
        let mut m = HostMemory::new(2 * HOST_PAGE);
        m.write(2 * HOST_PAGE, &[]).unwrap();
        m.fill(2 * HOST_PAGE, 0, 9).unwrap();
    }

    #[test]
    fn read_slice_is_a_stable_snapshot_under_cow_writes() {
        let mut m = HostMemory::new(4 * HOST_PAGE);
        let pat: Vec<u8> = (0..3 * HOST_PAGE).map(|i| (i % 199) as u8).collect();
        m.write(0, &pat).unwrap();
        let baseline_clones = m.cow_clones();

        // A multi-page snapshot copies nothing...
        let view = m.read_slice(100, 2 * HOST_PAGE).unwrap();
        assert_eq!(view.segments(), 3, "100-offset 2-page view spans 3 pages");
        assert_eq!(view.to_vec(), &pat[100..100 + 2 * HOST_PAGE]);

        // ...and a write under it clones exactly the touched page, leaving
        // the snapshot's bytes intact.
        m.write(200, &[0xAB; 8]).unwrap();
        assert_eq!(m.cow_clones(), baseline_clones + 1, "one page cloned");
        assert_eq!(view.to_vec(), &pat[100..100 + 2 * HOST_PAGE]);
        assert_eq!(&m.read(200, 8).unwrap()[..], &[0xAB; 8]);

        // Writing the same page again is in place: the clone is unique now
        // that the old page is only held by the view.
        m.write(300, &[0xCD; 8]).unwrap();
        assert_eq!(m.cow_clones(), baseline_clones + 1, "no second clone");
    }

    #[test]
    fn host_memory_clone_diverges_page_by_page() {
        let mut a = HostMemory::new(2 * HOST_PAGE);
        a.write(10, b"original").unwrap();
        let mut b = a.clone();
        b.write(10, b"mutated!").unwrap();
        a.write(HOST_PAGE + 5, b"only-a").unwrap();
        assert_eq!(&a.read(10, 8).unwrap()[..], b"original");
        assert_eq!(&b.read(10, 8).unwrap()[..], b"mutated!");
        assert_eq!(&b.read(HOST_PAGE + 5, 6).unwrap()[..], &[0u8; 6]);
    }

    #[test]
    fn mem_slice_windows() {
        let mut m = HostMemory::new(2 * HOST_PAGE);
        let pat: Vec<u8> = (0..2 * HOST_PAGE).map(|i| (i % 241) as u8).collect();
        m.write(0, &pat).unwrap();
        let v = m.read_slice(0, 2 * HOST_PAGE).unwrap();
        assert_eq!(v.len(), 2 * HOST_PAGE);
        // In-segment window: shares storage (no copy path).
        let w = v.slice(5, 100);
        assert_eq!(&w[..], &pat[5..105]);
        // Straddling window: gathered, still correct.
        let w = v.slice(HOST_PAGE - 7, 20);
        assert_eq!(&w[..], &pat[HOST_PAGE - 7..HOST_PAGE + 13]);
        // Prefix + full materialization.
        let p = v.prepended(Bytes::from_static(b"hdr"));
        assert_eq!(p.len(), 3 + 2 * HOST_PAGE);
        assert_eq!(&p.slice(0, 3)[..], b"hdr");
        assert_eq!(&p.slice(3, 10)[..], &pat[..10]);
        assert_eq!(p.to_bytes().len(), p.len());
        // Empty and single-byte edges.
        assert!(v.slice(0, 0).is_empty());
        assert_eq!(
            &v.slice(2 * HOST_PAGE - 1, 1)[..],
            &pat[2 * HOST_PAGE - 1..]
        );
        assert!(MemSlice::empty().is_empty());
        assert_eq!(MemSlice::empty().to_bytes().len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mem_slice_out_of_range_window_panics() {
        let m = HostMemory::new(HOST_PAGE);
        m.read_slice(0, 100).unwrap().slice(90, 11);
    }

    #[test]
    fn write_bytes_adopts_whole_pages() {
        let mut src = HostMemory::new(2 * HOST_PAGE);
        let pat: Vec<u8> = (0..2 * HOST_PAGE).map(|i| (i % 239) as u8).collect();
        src.write(0, &pat).unwrap();
        let mut dst = HostMemory::new(2 * HOST_PAGE);

        // A page-aligned, page-sized view of a whole page: adopted O(1),
        // no CoW clone charged to the destination.
        let page = src.read_bytes(0, HOST_PAGE).unwrap();
        dst.write_bytes(0, &page).unwrap();
        assert_eq!(dst.cow_clones(), 0, "adoption copies nothing");
        assert_eq!(&dst.read(0, HOST_PAGE).unwrap()[..], &pat[..HOST_PAGE]);

        // The adopted page is shared with the source: writing it in either
        // memory clones first, so neither side sees the other's mutation.
        dst.write(10, &[0xEE; 4]).unwrap();
        assert_eq!(dst.cow_clones(), 1);
        assert_eq!(&src.read(10, 4).unwrap()[..], &pat[10..14]);

        // Misaligned or partial views fall back to the byte copy.
        let partial = src.read_bytes(0, 100).unwrap();
        dst.write_bytes(HOST_PAGE, &partial).unwrap();
        assert_eq!(&dst.read(HOST_PAGE, 100).unwrap()[..], &pat[..100]);
        let misaligned = src.read_bytes(HOST_PAGE, HOST_PAGE).unwrap();
        dst.write_bytes(7, &misaligned).unwrap();
        assert_eq!(
            &dst.read(7, HOST_PAGE).unwrap()[..],
            &pat[HOST_PAGE..2 * HOST_PAGE]
        );
        // Bounds still enforced.
        assert!(dst.write_bytes(2 * HOST_PAGE, &page).is_err());
    }

    #[test]
    fn write_slice_scatters_page_views() {
        let mut src = HostMemory::new(4 * HOST_PAGE);
        let pat: Vec<u8> = (0..3 * HOST_PAGE + 500).map(|i| (i % 233) as u8).collect();
        src.write(0, &pat).unwrap();

        // Aligned multi-page transfer: every whole-page segment adopts.
        let view = src.read_slice(0, 3 * HOST_PAGE).unwrap();
        let mut dst = HostMemory::new(4 * HOST_PAGE);
        dst.write_slice(0, &view).unwrap();
        assert_eq!(dst.cow_clones(), 0, "aligned scatter copies nothing");
        assert_eq!(
            &dst.read(0, 3 * HOST_PAGE).unwrap()[..],
            &pat[..3 * HOST_PAGE]
        );

        // Unaligned source/destination: falls back to copying, same bytes
        // as the flat write.
        let view = src.read_slice(123, 2 * HOST_PAGE + 77).unwrap();
        let mut a = HostMemory::new(4 * HOST_PAGE);
        let mut b = HostMemory::new(4 * HOST_PAGE);
        a.write_slice(456, &view).unwrap();
        b.write(456, &view.to_vec()).unwrap();
        assert_eq!(
            &a.read(0, 4 * HOST_PAGE).unwrap()[..],
            &b.read(0, 4 * HOST_PAGE).unwrap()[..]
        );
        // The snapshot survives a later source write even when adopted.
        let view = src.read_slice(0, HOST_PAGE).unwrap();
        let mut c = HostMemory::new(HOST_PAGE);
        c.write_slice(0, &view).unwrap();
        src.write(0, &[0x11; 16]).unwrap();
        assert_eq!(&c.read(0, 16).unwrap()[..], &pat[..16]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_terabyte_memory_builds_in_o1_and_reads_zero_until_written() {
        const TIB: usize = 1 << 40;
        let mut m = HostMemory::new(TIB);
        assert_eq!(m.len(), TIB);
        assert_eq!(&m.read(TIB - 1, 1).unwrap()[..], &[0]);
        assert_eq!(m.get_u64(TIB - 8).unwrap(), 0);
        assert_eq!(
            m.read_slice(TIB - HOST_PAGE - 5, HOST_PAGE + 5)
                .unwrap()
                .to_vec(),
            vec![0; HOST_PAGE + 5]
        );
        assert_eq!(m.cow_clones(), 0, "reads materialize nothing");
        m.write(0, b"page zero").unwrap();
        assert_eq!(m.cow_clones(), 1, "the first write copies one page");
        assert_eq!(&m.read(0, 9).unwrap()[..], b"page zero");
        assert!(m.read(TIB, 1).is_err());
    }

    #[test]
    fn a_write_at_the_top_materializes_exactly_one_page() {
        const LEN: usize = 64 << 20;
        let mut m = HostMemory::new(LEN);
        m.put_u64(LEN - 8, 0xFEED_F00D).unwrap();
        assert_eq!(m.cow_clones(), 1, "one page copied, none below it");
        assert_eq!(m.get_u64(LEN - 8).unwrap(), 0xFEED_F00D);
        // The pages the table grew over are empty slots that read zero:
        // writing one of them copies that page alone.
        assert_eq!(&m.read(LEN - HOST_PAGE - 4, 4).unwrap()[..], &[0; 4]);
        m.write(HOST_PAGE, &[7]).unwrap();
        assert_eq!(m.cow_clones(), 2);
        // A clone shares both written pages until it writes one.
        let mut c = m.clone();
        c.put_u64(LEN - 8, 1).unwrap();
        assert_eq!(c.cow_clones(), 3);
        assert_eq!(m.get_u64(LEN - 8).unwrap(), 0xFEED_F00D);
    }

    #[test]
    fn a_first_write_at_page_144_leaves_the_slots_below_it_empty() {
        // An incast leaf's ring landing page: the table grows to 145 slots.
        const P: usize = 144;
        let below = |m: &HostMemory| {
            (0..P).all(|p| {
                m.read(p * HOST_PAGE, HOST_PAGE)
                    .unwrap()
                    .iter()
                    .all(|&b| b == 0)
            })
        };
        let mut m = HostMemory::new(1 << 20);
        m.write(P * HOST_PAGE, &[0xAB; 256]).unwrap();
        assert_eq!(m.cow_clones(), 1, "exactly one page copied");
        assert!(below(&m), "pages 0..144 read zero in the memory");
        let c = m.clone();
        assert_eq!(c.cow_clones(), 1);
        assert!(below(&c), "and in its clone");
        assert_eq!(&c.read(P * HOST_PAGE, 256).unwrap()[..], &[0xAB; 256]);
        drop(c);
        assert!(below(&m), "and after the clone is dropped");
        assert_eq!(&m.read(P * HOST_PAGE, 256).unwrap()[..], &[0xAB; 256]);
        // The clone shared the written page, so a write now finds it
        // unique again and copies nothing.
        m.write(P * HOST_PAGE, &[0xCD]).unwrap();
        assert_eq!(m.cow_clones(), 1);
    }

    #[test]
    fn host_atomics() {
        let mut m = HostMemory::new(64);
        assert_eq!(m.fetch_add_u64(8, 10).unwrap(), 0);
        let mut cmp = 10;
        assert!(m.cas_u64(8, &mut cmp, 20).unwrap());
        assert_eq!(m.get_u64(8).unwrap(), 20);
    }
}
