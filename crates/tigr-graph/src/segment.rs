//! Immutable byte segments and typed zero-copy views over them.
//!
//! A [`Segment`] is the backing store for a loaded artifact: either an
//! owned byte buffer or a read-only memory mapping of the artifact file
//! (hand-rolled `mmap`/`munmap` FFI against the already-linked libc —
//! no external crate). An [`ArcSlice<T>`] is a typed view into either a
//! shared `Vec<T>` or a byte range of a shared segment; it dereferences
//! to `&[T]`, so every consumer reads through ordinary bounds-checked
//! slices whether the bytes live on the heap or in the page cache.
//!
//! # Safety model
//!
//! Reinterpreting mapped bytes as `&[T]` is sound only when `T` is a
//! [`Plain`] type (no padding, no invalid bit patterns, no drop glue)
//! and the range is properly aligned and in bounds — both enforced at
//! view construction, never at read time. Mappings are `MAP_PRIVATE`
//! and `PROT_READ`: the kernel may reflect concurrent file truncation
//! as `SIGBUS`, which is why the store only maps artifacts it owns and
//! writes atomically (tmp + fsync + rename).

use std::fs::File;
use std::io::Read;
use std::sync::Arc;

/// Marker for types that may be reinterpreted from raw little-endian
/// bytes: fixed layout, any bit pattern valid, no padding, no drop
/// glue.
///
/// # Safety
///
/// Implementors must guarantee every properly aligned byte sequence of
/// `size_of::<Self>()` bytes is a valid value of `Self`.
pub unsafe trait Plain: Copy + 'static {}

// SAFETY: primitive integers have no padding or invalid patterns.
unsafe impl Plain for u8 {}
// SAFETY: as above.
unsafe impl Plain for u32 {}
// SAFETY: as above.
unsafe impl Plain for u64 {}
// SAFETY: as above.
unsafe impl Plain for usize {}
// SAFETY: `NodeId` is `#[repr(transparent)]` over `u32`.
unsafe impl Plain for crate::NodeId {}

/// A read-only `mmap` region, unmapped on drop.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mapped {
    use std::os::raw::{c_int, c_void};

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// One live `PROT_READ`/`MAP_PRIVATE` mapping of a whole file.
    pub struct MapRegion {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the region is immutable after construction; concurrent
    // reads through shared references are safe.
    unsafe impl Send for MapRegion {}
    // SAFETY: as above.
    unsafe impl Sync for MapRegion {}

    impl MapRegion {
        /// Maps `len` bytes of `fd` read-only. `len` must be non-zero.
        pub fn map(fd: c_int, len: usize) -> std::io::Result<MapRegion> {
            // SAFETY: a fresh anonymous address is requested; the fd is
            // open for reading and outlives the call (the mapping keeps
            // the pages alive after the fd closes).
            let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0) };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(MapRegion {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        pub fn as_bytes(&self) -> &[u8] {
            // SAFETY: `ptr` points at `len` mapped read-only bytes that
            // stay valid until `drop` unmaps them.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MapRegion {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by `mmap`, unmapped
            // once.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }

    impl std::fmt::Debug for MapRegion {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MapRegion").field("len", &self.len).finish()
        }
    }
}

/// The backing store for a loaded artifact: owned bytes or a read-only
/// file mapping.
#[derive(Debug)]
pub enum Segment {
    /// Heap-resident bytes.
    Owned(Vec<u8>),
    /// A live file mapping (64-bit Unix targets only).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapped::MapRegion),
}

impl Segment {
    /// Memory-maps `file` read-only where the platform supports it;
    /// elsewhere (and for empty files, which `mmap` rejects) reads it
    /// into an owned buffer.
    ///
    /// # Errors
    ///
    /// Propagates metadata, `mmap`, and read failures.
    pub fn map_file(file: &mut File) -> std::io::Result<Segment> {
        let len = file.metadata()?.len();
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            use std::os::unix::io::AsRawFd;
            if len > 0 {
                let len = usize::try_from(len).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "file exceeds usize")
                })?;
                return Ok(Segment::Mapped(mapped::MapRegion::map(
                    file.as_raw_fd(),
                    len,
                )?));
            }
        }
        let mut buf = Vec::with_capacity(len as usize);
        file.read_to_end(&mut buf)?;
        Ok(Segment::Owned(buf))
    }

    /// The segment's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Segment::Mapped(m) => m.as_bytes(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// `true` when the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// `true` when the bytes live in a file mapping rather than on the
    /// heap.
    pub fn is_mapped(&self) -> bool {
        match self {
            Segment::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Segment::Mapped(_) => true,
        }
    }
}

impl From<Vec<u8>> for Segment {
    fn from(bytes: Vec<u8>) -> Segment {
        Segment::Owned(bytes)
    }
}

/// What keeps an [`ArcSlice`]'s bytes alive.
enum Backing<T> {
    Owned(Arc<Vec<T>>),
    Segment(Arc<Segment>),
}

impl<T> Clone for Backing<T> {
    fn clone(&self) -> Self {
        match self {
            Backing::Owned(v) => Backing::Owned(Arc::clone(v)),
            Backing::Segment(s) => Backing::Segment(Arc::clone(s)),
        }
    }
}

/// A cheaply clonable, shareable `&[T]` backed by either an owned
/// vector or a byte range of a [`Segment`].
///
/// Equality and ordering compare contents, so a mapped view and an
/// owned view of the same data are equal. The view pins its backing
/// alive; `Deref` makes every read an ordinary bounds-checked slice
/// access.
pub struct ArcSlice<T> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

// SAFETY: the pointed-to data is immutable and owned by the
// `Send + Sync` backing (`Arc<Vec<T>>` or `Arc<Segment>`).
unsafe impl<T: Send + Sync> Send for ArcSlice<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for ArcSlice<T> {}

impl<T> ArcSlice<T> {
    /// An empty view with no backing allocation.
    pub fn empty() -> ArcSlice<T> {
        ArcSlice::from(Vec::new())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the bytes live in a file mapping (the no-copy path).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            Backing::Owned(_) => false,
            Backing::Segment(s) => s.is_mapped(),
        }
    }

    /// Bytes this view keeps resident on the heap: the element bytes
    /// for owned views, zero for mapped ones (their pages live in the
    /// page cache and can be evicted).
    pub fn heap_bytes(&self) -> usize {
        if self.is_mapped() {
            0
        } else {
            self.len * std::mem::size_of::<T>()
        }
    }

    /// The segment backing this view, if it is segment-backed.
    pub fn segment(&self) -> Option<&Arc<Segment>> {
        match &self.backing {
            Backing::Owned(_) => None,
            Backing::Segment(s) => Some(s),
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were validated against the backing at
        // construction, and the backing is pinned by `self.backing`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Plain> ArcSlice<T> {
    /// Builds a typed view over `count` elements starting `byte_offset`
    /// bytes into `segment`, without copying.
    ///
    /// Returns `None` when the range is out of bounds, overflows, or is
    /// not aligned for `T` — callers fall back to an owned decode.
    pub fn from_segment(segment: Arc<Segment>, byte_offset: usize, count: usize) -> Option<Self> {
        let size = std::mem::size_of::<T>();
        let byte_len = count.checked_mul(size)?;
        let end = byte_offset.checked_add(byte_len)?;
        let bytes = segment.as_bytes();
        if end > bytes.len() {
            return None;
        }
        let ptr = bytes[byte_offset..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(ArcSlice {
            ptr: ptr as *const T,
            len: count,
            backing: Backing::Segment(segment),
        })
    }
}

impl<T> From<Vec<T>> for ArcSlice<T> {
    fn from(vec: Vec<T>) -> Self {
        let arc = Arc::new(vec);
        ArcSlice {
            ptr: arc.as_ptr(),
            len: arc.len(),
            backing: Backing::Owned(arc),
        }
    }
}

impl<T> Clone for ArcSlice<T> {
    fn clone(&self) -> Self {
        ArcSlice {
            ptr: self.ptr,
            len: self.len,
            backing: self.backing.clone(),
        }
    }
}

impl<T> std::ops::Deref for ArcSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> AsRef<[T]> for ArcSlice<T> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: PartialEq> PartialEq for ArcSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for ArcSlice<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcSlice")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Seek, Write};

    fn temp_file(bytes: &[u8]) -> File {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "tigr-segment-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        // The mapping outlives the directory entry.
        std::fs::remove_file(&path).unwrap();
        f.write_all(bytes).unwrap();
        f.rewind().unwrap();
        f
    }

    #[test]
    fn mapped_segment_reads_file_bytes() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut f = temp_file(&payload);
        let seg = Segment::map_file(&mut f).unwrap();
        assert_eq!(seg.as_bytes(), payload.as_slice());
        assert_eq!(seg.len(), 256);
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(seg.is_mapped());
        }
    }

    #[test]
    fn empty_file_maps_to_owned_segment() {
        let mut f = temp_file(&[]);
        let seg = Segment::map_file(&mut f).unwrap();
        assert!(seg.is_empty());
        assert!(!seg.is_mapped());
    }

    #[test]
    fn typed_views_share_a_segment() {
        let mut bytes = Vec::new();
        for v in [1u64, 2, 3, 4] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let seg = Arc::new(Segment::from(bytes));
        let all = ArcSlice::<u64>::from_segment(Arc::clone(&seg), 0, 4).unwrap();
        let tail = ArcSlice::<u64>::from_segment(Arc::clone(&seg), 16, 2).unwrap();
        assert_eq!(&all[..], &[1, 2, 3, 4]);
        assert_eq!(&tail[..], &[3, 4]);
        assert_eq!(Arc::strong_count(&seg), 3);
    }

    #[test]
    fn from_segment_rejects_bad_ranges() {
        let seg = Arc::new(Segment::from(vec![0u8; 32]));
        // Out of bounds.
        assert!(ArcSlice::<u64>::from_segment(Arc::clone(&seg), 0, 5).is_none());
        // Overflowing count.
        assert!(ArcSlice::<u64>::from_segment(Arc::clone(&seg), 0, usize::MAX).is_none());
        // Misaligned offset (the owned Vec base is at least 8-aligned
        // only by accident; offset 4 from an 8-aligned base never is).
        let base = seg.as_bytes().as_ptr() as usize;
        let off = if base.is_multiple_of(8) {
            4
        } else {
            8 - base % 8 + 4
        };
        assert!(ArcSlice::<u64>::from_segment(Arc::clone(&seg), off, 1).is_none());
    }

    #[test]
    fn owned_and_mapped_views_compare_by_content() {
        let owned: ArcSlice<u32> = vec![7u32, 8, 9].into();
        let mut bytes = Vec::new();
        for v in [7u32, 8, 9] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let seg = Arc::new(Segment::from(bytes));
        if let Some(view) = ArcSlice::<u32>::from_segment(seg, 0, 3) {
            assert_eq!(owned, view);
        }
        assert_eq!(owned.heap_bytes(), 12);
        let empty = ArcSlice::<u32>::empty();
        assert!(empty.is_empty() && !empty.is_mapped());
    }

    #[test]
    fn mapped_view_reports_zero_heap_bytes() {
        let mut bytes = Vec::new();
        for v in [1u64, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let mut f = temp_file(&bytes);
        let seg = Arc::new(Segment::map_file(&mut f).unwrap());
        if seg.is_mapped() {
            let view = ArcSlice::<u64>::from_segment(Arc::clone(&seg), 0, 3).unwrap();
            assert!(view.is_mapped());
            assert_eq!(view.heap_bytes(), 0);
            assert_eq!(&view[..], &[1, 2, 3]);
            // The view's data pointer lies inside the mapping: no copy.
            let base = seg.as_bytes().as_ptr() as usize;
            let p = view.as_slice().as_ptr() as usize;
            assert!(p >= base && p < base + seg.len());
        }
    }

    #[test]
    fn segment_and_views_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Segment>();
        assert_send_sync::<ArcSlice<u64>>();
        assert_send_sync::<ArcSlice<crate::NodeId>>();
    }
}
