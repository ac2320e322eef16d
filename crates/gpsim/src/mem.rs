//! Device and host memory management.
//!
//! The simulator owns both device allocations ([`Gpu::alloc`]) and host
//! buffers ([`Gpu::alloc_host`]) so that asynchronously executed commands
//! can reference them by handle without lifetime entanglement — exactly
//! how a real driver API works with raw pointers, but safe.
//!
//! Two execution modes are supported:
//!
//! * [`ExecMode::Functional`] — allocations are backed by real `f32`
//!   storage, copies move data, kernels run their functional bodies.
//!   Used by tests and examples to validate numerical results.
//! * [`ExecMode::Timing`] — allocations are phantom (size accounting
//!   only), copies and kernels advance the virtual clock without touching
//!   data. Used by the figure harness for paper-scale problem sizes
//!   (e.g. 24576² GEMM) that would not fit in host RAM.
//!
//! All sizes in this module's public API are in **f32 elements**; the cost
//! model converts to bytes internally (4 bytes/element).
//!
//! [`Gpu::alloc`]: crate::Gpu::alloc
//! [`Gpu::alloc_host`]: crate::Gpu::alloc_host

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use crate::error::{SimError, SimResult};

/// Bytes per element of device storage (everything is `f32`).
pub const ELEM_BYTES: u64 = 4;

/// Pitch granularity for 2-D allocations, in elements (256 bytes, matching
/// `cudaMallocPitch` alignment).
pub const PITCH_ALIGN_ELEMS: usize = 64;

// Error constructors live out of line so accessor happy paths compile to
// a bounds comparison plus a branch to a cold stub — no `format!` machinery
// or closure captures inline (the per-row copy loop used to pay for both).

#[cold]
#[inline(never)]
fn err_bad_dev(id: DevAllocId) -> SimError {
    SimError::InvalidDevicePointer(format!("{id:?}"))
}

#[cold]
#[inline(never)]
fn err_freed_dev(id: DevAllocId) -> SimError {
    SimError::InvalidDevicePointer(format!("{id:?} was freed"))
}

#[cold]
#[inline(never)]
fn err_dev_oob(kind: &str, ptr: DevPtr, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("device {kind} at {:?}+{}", ptr.alloc, ptr.offset),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_view_mismatch(view: DevAllocId, ptr: DevAllocId) -> SimError {
    SimError::InvalidDevicePointer(format!(
        "view of {view:?} used with a pointer into {ptr:?}"
    ))
}

#[cold]
#[inline(never)]
fn err_bad_host(id: HostBufId) -> SimError {
    SimError::InvalidHostBuffer(format!("{id:?}"))
}

#[cold]
#[inline(never)]
fn err_freed_host(id: HostBufId) -> SimError {
    SimError::InvalidHostBuffer(format!("{id:?} was freed"))
}

#[cold]
#[inline(never)]
fn err_host_oob(kind: &str, id: HostBufId, off: usize, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("host {kind} at {id:?}+{off}"),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_timing(what: &'static str) -> SimError {
    SimError::TimingOnly(what.into())
}

/// Whether the simulation executes data movement/kernels functionally or
/// only models their timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real storage; copies and kernels operate on data.
    Functional,
    /// Phantom storage; only sizes and times are tracked.
    Timing,
}

/// Identifier of one device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevAllocId(pub(crate) u32);

/// A device pointer: an allocation plus an element offset into it.
///
/// Mirrors CUDA pointer arithmetic: [`DevPtr::add`] produces an interior
/// pointer that copies and kernels may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevPtr {
    pub(crate) alloc: DevAllocId,
    /// Offset from the allocation base, in elements.
    pub offset: usize,
}

impl DevPtr {
    /// Pointer `elems` elements past `self` (CUDA-style pointer
    /// arithmetic; deliberately named like `<*const T>::add`).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, elems: usize) -> DevPtr {
        DevPtr {
            alloc: self.alloc,
            offset: self.offset + elems,
        }
    }

    /// The allocation this pointer refers to.
    pub fn alloc_id(self) -> DevAllocId {
        self.alloc
    }
}

/// Read view of one whole device allocation, resolved once.
///
/// Obtained from [`MemPool::dev_read`] (or
/// [`KernelCtx::read_view`](crate::KernelCtx::read_view) inside a kernel
/// body). The allocation table is consulted and the `RefCell` borrowed a
/// single time when the view is created; every subsequent
/// [`slice`](AllocRead::slice) is a bounds comparison on the already
/// resolved storage. This is what lets a strided copy or a multi-slice
/// kernel body touch thousands of rows without re-validating the
/// allocation per row.
pub struct AllocRead<'a> {
    pub(crate) id: DevAllocId,
    pub(crate) data: Ref<'a, Vec<f32>>,
}

impl AllocRead<'_> {
    /// The allocation this view resolves.
    pub fn id(&self) -> DevAllocId {
        self.id
    }

    /// `len` elements starting at `ptr`. Single bounds comparison; the
    /// pointer must point into this view's allocation.
    #[inline]
    pub fn slice(&self, ptr: DevPtr, len: usize) -> SimResult<&[f32]> {
        if ptr.alloc != self.id {
            return Err(err_view_mismatch(self.id, ptr.alloc));
        }
        match self.data.get(ptr.offset..ptr.offset + len) {
            Some(s) => Ok(s),
            None => Err(err_dev_oob("read", ptr, ptr.offset + len, self.data.len())),
        }
    }

    /// The entire allocation.
    pub fn all(&self) -> &[f32] {
        &self.data
    }
}

impl std::fmt::Debug for AllocRead<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocRead")
            .field("id", &self.id)
            .field("len", &self.data.len())
            .finish()
    }
}

/// Write view of one whole device allocation, resolved once.
///
/// The mutable counterpart of [`AllocRead`]; obtained from
/// [`MemPool::dev_write`] or
/// [`KernelCtx::write_view`](crate::KernelCtx::write_view). Holding it
/// excludes every other view of the same allocation (a data race on a
/// real device), exactly like `dev_slice_mut`.
pub struct AllocWrite<'a> {
    pub(crate) id: DevAllocId,
    pub(crate) data: RefMut<'a, Vec<f32>>,
}

impl AllocWrite<'_> {
    /// The allocation this view resolves.
    pub fn id(&self) -> DevAllocId {
        self.id
    }

    /// `len` elements starting at `ptr`, mutable. Single bounds
    /// comparison; the pointer must point into this view's allocation.
    #[inline]
    pub fn slice_mut(&mut self, ptr: DevPtr, len: usize) -> SimResult<&mut [f32]> {
        if ptr.alloc != self.id {
            return Err(err_view_mismatch(self.id, ptr.alloc));
        }
        let avail = self.data.len();
        match self.data.get_mut(ptr.offset..ptr.offset + len) {
            Some(s) => Ok(s),
            None => Err(err_dev_oob("write", ptr, ptr.offset + len, avail)),
        }
    }

    /// `len` elements starting at `ptr`, read-only (peeking at data the
    /// same kernel also writes, e.g. an accumulator).
    #[inline]
    pub fn slice(&self, ptr: DevPtr, len: usize) -> SimResult<&[f32]> {
        if ptr.alloc != self.id {
            return Err(err_view_mismatch(self.id, ptr.alloc));
        }
        match self.data.get(ptr.offset..ptr.offset + len) {
            Some(s) => Ok(s),
            None => Err(err_dev_oob("read", ptr, ptr.offset + len, self.data.len())),
        }
    }

    /// The entire allocation, mutable.
    pub fn all_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl std::fmt::Debug for AllocWrite<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocWrite")
            .field("id", &self.id)
            .field("len", &self.data.len())
            .finish()
    }
}

/// Identifier of one simulator-owned host buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostBufId(pub(crate) u32);

pub(crate) struct DevAlloc {
    pub len: usize,
    pub data: Option<RefCell<Vec<f32>>>,
    pub freed: bool,
    /// Pitch in elements for 2-D allocations (row stride).
    pub pitch: Option<usize>,
}

pub(crate) struct HostBuf {
    pub len: usize,
    pub pinned: bool,
    pub data: Option<RefCell<Vec<f32>>>,
    pub freed: bool,
}

/// Host memory shared between device contexts.
///
/// Like real pinned/pageable host buffers, these are visible to *every*
/// GPU context created over the same pool — the substrate for
/// multi-device co-scheduling. The handle is cheaply cloneable; all
/// clones refer to the same storage.
#[derive(Clone)]
pub struct HostPool {
    inner: Rc<RefCell<HostPoolInner>>,
    mode: ExecMode,
}

struct HostPoolInner {
    bufs: Vec<HostBuf>,
    /// Buffers in `bufs` not yet freed, kept by `alloc`/`free`.
    live_bufs: usize,
    /// Bytes of those buffers.
    live_bytes: u64,
}

impl HostPool {
    /// Create an empty host pool for the given execution mode.
    pub fn new(mode: ExecMode) -> HostPool {
        HostPool {
            inner: Rc::new(RefCell::new(HostPoolInner {
                bufs: Vec::new(),
                live_bufs: 0,
                live_bytes: 0,
            })),
            mode,
        }
    }

    /// The pool's execution mode (contexts sharing it must match).
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Number of buffers currently allocated (not yet freed).
    ///
    /// A long-running service that allocates per-job arrays from a
    /// shared pool can watch this to prove its working set is bounded:
    /// under steady job churn the live count must plateau, not grow.
    /// O(1): the pool keeps the count as buffers come and go.
    pub fn live_bufs(&self) -> usize {
        self.inner.borrow().live_bufs
    }

    /// Total bytes of the currently live buffers (O(1), like
    /// [`live_bufs`](HostPool::live_bufs)).
    pub fn live_bytes(&self) -> u64 {
        self.inner.borrow().live_bytes
    }

    pub(crate) fn alloc(&self, elems: usize, pinned: bool) -> SimResult<HostBufId> {
        if elems == 0 {
            return Err(SimError::InvalidArgument("zero-size host allocation".into()));
        }
        let data = match self.mode {
            ExecMode::Functional => Some(RefCell::new(vec![0.0f32; elems])),
            ExecMode::Timing => None,
        };
        let mut inner = self.inner.borrow_mut();
        let id = HostBufId(inner.bufs.len() as u32);
        inner.bufs.push(HostBuf {
            len: elems,
            pinned,
            data,
            freed: false,
        });
        inner.live_bufs += 1;
        inner.live_bytes += elems as u64 * ELEM_BYTES;
        Ok(id)
    }

    pub(crate) fn free(&self, id: HostBufId) -> SimResult<()> {
        let mut inner = self.inner.borrow_mut();
        let h = match inner.bufs.get_mut(id.0 as usize) {
            Some(h) => h,
            None => return Err(err_bad_host(id)),
        };
        if h.freed {
            return Err(SimError::InvalidHostBuffer(format!("double free of {id:?}")));
        }
        h.freed = true;
        h.data = None;
        let bytes = h.len as u64 * ELEM_BYTES;
        inner.live_bufs -= 1;
        inner.live_bytes -= bytes;
        Ok(())
    }

    fn with_live<T>(&self, id: HostBufId, f: impl FnOnce(&HostBuf) -> SimResult<T>) -> SimResult<T> {
        let inner = self.inner.borrow();
        let h = match inner.bufs.get(id.0 as usize) {
            Some(h) => h,
            None => return Err(err_bad_host(id)),
        };
        if h.freed {
            return Err(err_freed_host(id));
        }
        f(h)
    }

    pub(crate) fn len(&self, id: HostBufId) -> SimResult<usize> {
        self.with_live(id, |h| Ok(h.len))
    }

    pub(crate) fn pinned(&self, id: HostBufId) -> SimResult<bool> {
        self.with_live(id, |h| Ok(h.pinned))
    }

    /// Run `f` over `[off, off+len)` of the buffer (read access).
    pub(crate) fn with_slice<T>(
        &self,
        id: HostBufId,
        off: usize,
        len: usize,
        f: impl FnOnce(&[f32]) -> T,
    ) -> SimResult<T> {
        self.with_live(id, |h| {
            let end = off + len;
            if end > h.len {
                return Err(err_host_oob("read", id, off, end, h.len));
            }
            let data = match h.data.as_ref() {
                Some(d) => d,
                None => return Err(err_timing("host data access in timing mode")),
            };
            Ok(f(&data.borrow()[off..end]))
        })
    }

    /// Run `f` over `[off, off+len)` of the buffer (write access).
    pub(crate) fn with_slice_mut<T>(
        &self,
        id: HostBufId,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [f32]) -> T,
    ) -> SimResult<T> {
        self.with_live(id, |h| {
            let end = off + len;
            if end > h.len {
                return Err(err_host_oob("write", id, off, end, h.len));
            }
            let data = match h.data.as_ref() {
                Some(d) => d,
                None => return Err(err_timing("host data access in timing mode")),
            };
            Ok(f(&mut data.borrow_mut()[off..end]))
        })
    }
}

/// Device memory pool with capacity accounting.
pub(crate) struct MemPool {
    pub mode: ExecMode,
    allocs: Vec<DevAlloc>,
    pub hosts: HostPool,
    capacity: u64,
    cur_bytes: u64,
    peak_bytes: u64,
    /// Bytes attributed to runtime overhead (context + streams), included
    /// in `cur_bytes`.
    overhead_bytes: u64,
}

impl MemPool {
    pub fn new(mode: ExecMode, capacity: u64, hosts: HostPool) -> Self {
        MemPool {
            mode,
            allocs: Vec::new(),
            hosts,
            capacity,
            cur_bytes: 0,
            peak_bytes: 0,
            overhead_bytes: 0,
        }
    }

    fn charge(&mut self, bytes: u64) -> SimResult<()> {
        if self.cur_bytes + bytes > self.capacity {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                available: self.capacity - self.cur_bytes,
            });
        }
        self.cur_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.cur_bytes);
        Ok(())
    }

    /// Charge runtime overhead (context creation, stream creation).
    pub fn reserve_overhead(&mut self, bytes: u64) -> SimResult<()> {
        self.charge(bytes)?;
        self.overhead_bytes += bytes;
        Ok(())
    }

    /// Release previously reserved runtime overhead (stream destruction).
    pub fn release_overhead(&mut self, bytes: u64) {
        let bytes = bytes.min(self.overhead_bytes);
        self.overhead_bytes -= bytes;
        self.cur_bytes -= bytes;
    }

    pub fn alloc(&mut self, elems: usize) -> SimResult<DevPtr> {
        self.alloc_inner(elems, None)
    }

    /// Pitched 2-D allocation of `rows` rows of `row_elems` elements each.
    /// Returns the base pointer and the pitch (row stride) in elements.
    pub fn alloc_pitched(&mut self, rows: usize, row_elems: usize) -> SimResult<(DevPtr, usize)> {
        if rows == 0 || row_elems == 0 {
            return Err(SimError::InvalidArgument(
                "pitched allocation with zero dimension".into(),
            ));
        }
        let pitch = row_elems.div_ceil(PITCH_ALIGN_ELEMS) * PITCH_ALIGN_ELEMS;
        let ptr = self.alloc_inner(pitch * rows, Some(pitch))?;
        Ok((ptr, pitch))
    }

    fn alloc_inner(&mut self, elems: usize, pitch: Option<usize>) -> SimResult<DevPtr> {
        if elems == 0 {
            return Err(SimError::InvalidArgument("zero-size device allocation".into()));
        }
        self.charge(elems as u64 * ELEM_BYTES)?;
        let data = match self.mode {
            ExecMode::Functional => Some(RefCell::new(vec![0.0f32; elems])),
            ExecMode::Timing => None,
        };
        let id = DevAllocId(self.allocs.len() as u32);
        self.allocs.push(DevAlloc {
            len: elems,
            data,
            freed: false,
            pitch,
        });
        Ok(DevPtr {
            alloc: id,
            offset: 0,
        })
    }

    pub fn free(&mut self, ptr: DevPtr) -> SimResult<()> {
        let a = match self.allocs.get_mut(ptr.alloc.0 as usize) {
            Some(a) => a,
            None => return Err(err_bad_dev(ptr.alloc)),
        };
        if a.freed {
            return Err(SimError::InvalidDevicePointer(format!(
                "double free of {:?}",
                ptr.alloc
            )));
        }
        if ptr.offset != 0 {
            return Err(SimError::InvalidArgument(
                "free must be called on the allocation base pointer".into(),
            ));
        }
        a.freed = true;
        a.data = None;
        self.cur_bytes -= a.len as u64 * ELEM_BYTES;
        Ok(())
    }

    pub fn alloc_len(&self, id: DevAllocId) -> SimResult<usize> {
        Ok(self.live_alloc(id)?.len)
    }

    pub fn alloc_pitch(&self, id: DevAllocId) -> SimResult<Option<usize>> {
        let a = match self.allocs.get(id.0 as usize) {
            Some(a) => a,
            None => return Err(err_bad_dev(id)),
        };
        Ok(a.pitch)
    }

    fn live_alloc(&self, id: DevAllocId) -> SimResult<&DevAlloc> {
        let a = match self.allocs.get(id.0 as usize) {
            Some(a) => a,
            None => return Err(err_bad_dev(id)),
        };
        if a.freed {
            return Err(err_freed_dev(id));
        }
        Ok(a)
    }

    /// Resolve a live functional allocation to its backing storage.
    fn live_data(&self, id: DevAllocId) -> SimResult<&RefCell<Vec<f32>>> {
        match self.live_alloc(id)?.data.as_ref() {
            Some(d) => Ok(d),
            None => Err(err_timing("device data access in timing mode")),
        }
    }

    /// Resolve `id` to a read view of its whole backing store, once.
    /// Slicing through the view afterwards costs a single bounds
    /// comparison — no allocation-table lookup, no liveness re-check.
    pub fn dev_read(&self, id: DevAllocId) -> SimResult<AllocRead<'_>> {
        Ok(AllocRead {
            id,
            data: self.live_data(id)?.borrow(),
        })
    }

    /// Resolve `id` to a write view of its whole backing store, once.
    pub fn dev_write(&self, id: DevAllocId) -> SimResult<AllocWrite<'_>> {
        Ok(AllocWrite {
            id,
            data: self.live_data(id)?.borrow_mut(),
        })
    }

    /// Borrow `len` device elements starting at `ptr` for reading.
    pub fn dev_slice(&self, ptr: DevPtr, len: usize) -> SimResult<Ref<'_, [f32]>> {
        let a = self.live_alloc(ptr.alloc)?;
        let end = ptr.offset + len;
        if end > a.len {
            return Err(err_dev_oob("read", ptr, end, a.len));
        }
        let data = match a.data.as_ref() {
            Some(d) => d,
            None => return Err(err_timing("device data access in timing mode")),
        };
        Ok(Ref::map(data.borrow(), |v| &v[ptr.offset..end]))
    }

    /// Borrow `len` device elements starting at `ptr` for writing.
    pub fn dev_slice_mut(&self, ptr: DevPtr, len: usize) -> SimResult<RefMut<'_, [f32]>> {
        let a = self.live_alloc(ptr.alloc)?;
        let end = ptr.offset + len;
        if end > a.len {
            return Err(err_dev_oob("write", ptr, end, a.len));
        }
        let data = match a.data.as_ref() {
            Some(d) => d,
            None => return Err(err_timing("device data access in timing mode")),
        };
        Ok(RefMut::map(data.borrow_mut(), |v| &mut v[ptr.offset..end]))
    }

    pub fn alloc_host(&mut self, elems: usize, pinned: bool) -> SimResult<HostBufId> {
        self.hosts.alloc(elems, pinned)
    }

    pub fn free_host(&mut self, id: HostBufId) -> SimResult<()> {
        self.hosts.free(id)
    }

    pub fn host_len(&self, id: HostBufId) -> SimResult<usize> {
        self.hosts.len(id)
    }

    pub fn host_pinned(&self, id: HostBufId) -> SimResult<bool> {
        self.hosts.pinned(id)
    }

    pub fn with_host<T>(
        &self,
        id: HostBufId,
        off: usize,
        len: usize,
        f: impl FnOnce(&[f32]) -> T,
    ) -> SimResult<T> {
        self.hosts.with_slice(id, off, len, f)
    }

    pub fn with_host_mut<T>(
        &self,
        id: HostBufId,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [f32]) -> T,
    ) -> SimResult<T> {
        self.hosts.with_slice_mut(id, off, len, f)
    }

    pub fn current_bytes(&self) -> u64 {
        self.cur_bytes
    }

    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    pub fn overhead_bytes(&self) -> u64 {
        self.overhead_bytes
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> MemPool {
        MemPool::new(
            ExecMode::Functional,
            1 << 20,
            HostPool::new(ExecMode::Functional),
        )
    }

    fn timing_pool(cap: u64) -> MemPool {
        MemPool::new(ExecMode::Timing, cap, HostPool::new(ExecMode::Timing))
    }

    #[test]
    fn alloc_free_accounting() {
        let mut p = pool();
        let a = p.alloc(1000).unwrap();
        assert_eq!(p.current_bytes(), 4000);
        let b = p.alloc(500).unwrap();
        assert_eq!(p.current_bytes(), 6000);
        assert_eq!(p.peak_bytes(), 6000);
        p.free(a).unwrap();
        assert_eq!(p.current_bytes(), 2000);
        assert_eq!(p.peak_bytes(), 6000, "peak is sticky");
        p.free(b).unwrap();
        assert_eq!(p.current_bytes(), 0);
    }

    #[test]
    fn oom_reports_sizes() {
        let mut p = timing_pool(1000);
        let e = p.alloc(1000).unwrap_err();
        match e {
            SimError::OutOfMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 4000);
                assert_eq!(available, 1000);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn double_free_and_interior_free_rejected() {
        let mut p = pool();
        let a = p.alloc(10).unwrap();
        assert!(p.free(a.add(1)).is_err());
        p.free(a).unwrap();
        assert!(p.free(a).is_err());
    }

    #[test]
    fn out_of_range_slices_rejected() {
        let p = {
            let mut p = pool();
            p.alloc(10).unwrap();
            p
        };
        let ptr = DevPtr {
            alloc: DevAllocId(0),
            offset: 8,
        };
        assert!(p.dev_slice(ptr, 2).is_ok());
        assert!(p.dev_slice(ptr, 3).is_err());
    }

    #[test]
    fn pitched_alloc_rounds_up() {
        let mut p = pool();
        let (ptr, pitch) = p.alloc_pitched(4, 65).unwrap();
        assert_eq!(pitch, 128);
        assert_eq!(p.alloc_len(ptr.alloc).unwrap(), 512);
        assert_eq!(p.alloc_pitch(ptr.alloc).unwrap(), Some(128));
        // Exact multiples stay exact.
        let (_, pitch2) = p.alloc_pitched(4, 128).unwrap();
        assert_eq!(pitch2, 128);
    }

    #[test]
    fn timing_mode_denies_data_access_but_tracks_sizes() {
        let mut p = timing_pool(1 << 30);
        let a = p.alloc(1 << 20).unwrap();
        assert_eq!(p.current_bytes(), 4 << 20);
        assert!(matches!(
            p.dev_slice(a, 1).unwrap_err(),
            SimError::TimingOnly(_)
        ));
        let h = p.alloc_host(16, true).unwrap();
        assert!(matches!(
            p.with_host(h, 0, 1, |_| ()).unwrap_err(),
            SimError::TimingOnly(_)
        ));
    }

    #[test]
    fn host_buffers_track_pinnedness() {
        let mut p = pool();
        let pinned = p.alloc_host(8, true).unwrap();
        let pageable = p.alloc_host(8, false).unwrap();
        assert!(p.host_pinned(pinned).unwrap());
        assert!(!p.host_pinned(pageable).unwrap());
        p.free_host(pinned).unwrap();
        assert!(p.with_host(pinned, 0, 1, |_| ()).is_err());
        assert!(p.with_host(pageable, 0, 8, |_| ()).is_ok());
    }

    #[test]
    fn disjoint_buffer_borrows_coexist() {
        let mut p = pool();
        let a = p.alloc(8).unwrap();
        let b = p.alloc(8).unwrap();
        let ra = p.dev_slice(a, 8).unwrap();
        let mut wb = p.dev_slice_mut(b, 8).unwrap();
        wb[0] = ra[0] + 1.0;
        assert_eq!(wb[0], 1.0);
    }

    #[test]
    fn borrow_once_views_match_per_slice_access() {
        let mut p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        {
            let mut w = p.dev_write(a.alloc_id()).unwrap();
            for (i, v) in w.all_mut().iter_mut().enumerate() {
                *v = i as f32;
            }
            // Pointer into a different allocation is rejected, not read.
            assert!(w.slice_mut(b, 4).is_err());
        }
        let r = p.dev_read(a.alloc_id()).unwrap();
        assert_eq!(r.slice(a.add(8), 4).unwrap(), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(&*p.dev_slice(a.add(8), 4).unwrap(), r.slice(a.add(8), 4).unwrap());
        // One past the end fails with the same error class as dev_slice.
        assert!(matches!(
            r.slice(a.add(62), 3).unwrap_err(),
            SimError::OutOfRange { .. }
        ));
        assert!(r.slice(b, 4).is_err());
    }

    #[test]
    fn views_deny_timing_mode_and_freed_allocs() {
        let mut t = timing_pool(1 << 20);
        let a = t.alloc(16).unwrap();
        assert!(matches!(
            t.dev_read(a.alloc_id()).unwrap_err(),
            SimError::TimingOnly(_)
        ));
        let mut p = pool();
        let b = p.alloc(16).unwrap();
        p.free(b).unwrap();
        assert!(matches!(
            p.dev_write(b.alloc_id()).unwrap_err(),
            SimError::InvalidDevicePointer(_)
        ));
    }

    #[test]
    fn overhead_reservation_counts_toward_oom() {
        let mut p = timing_pool(10_000);
        p.reserve_overhead(9_000).unwrap();
        assert_eq!(p.overhead_bytes(), 9_000);
        assert!(p.alloc(1000).is_err(), "4000 B no longer fit");
        assert!(p.alloc(250).is_ok());
    }

    /// `(live_bufs, live_bytes)` recounted from every buffer the pool
    /// ever held.
    fn recount(hosts: &HostPool) -> (usize, u64) {
        let inner = hosts.inner.borrow();
        let live = inner.bufs.iter().filter(|h| !h.freed);
        (
            live.clone().count(),
            live.map(|h| h.len as u64 * ELEM_BYTES).sum(),
        )
    }

    #[test]
    fn host_pool_counters_match_a_recount() {
        let hosts = HostPool::new(ExecMode::Functional);
        let mut gpus = [
            crate::Gpu::with_host_pool(crate::DeviceProfile::k40m(), hosts.clone()).unwrap(),
            crate::Gpu::with_host_pool(crate::DeviceProfile::k40m(), hosts.clone()).unwrap(),
        ];
        let mut live: Vec<HostBufId> = Vec::new();
        let mut dead: Vec<HostBufId> = Vec::new();
        let mut state = 0x5EED_u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize;
            let gpu = &mut gpus[r & 1];
            if live.is_empty() || r % 5 < 3 {
                live.push(gpu.alloc_host(1 + r % 97, r & 2 != 0).unwrap());
            } else {
                let id = live.swap_remove(r % live.len());
                gpu.free_host(id).unwrap();
                dead.push(id);
            }
            assert_eq!((hosts.live_bufs(), hosts.live_bytes()), recount(&hosts));
            if let Some(&id) = dead.last().filter(|_| r.is_multiple_of(7)) {
                // A double free fails and leaves both counters alone.
                let before = (hosts.live_bufs(), hosts.live_bytes());
                assert!(gpus[(r >> 1) & 1].free_host(id).is_err());
                assert_eq!((hosts.live_bufs(), hosts.live_bytes()), before);
            }
        }
        assert!(
            !live.is_empty() && !dead.is_empty(),
            "the sequence exercised both paths"
        );
        for id in live.drain(..) {
            gpus[0].free_host(id).unwrap();
        }
        assert_eq!((hosts.live_bufs(), hosts.live_bytes()), (0, 0));
        assert_eq!(recount(&hosts), (0, 0));
    }
}
