//! Command and kernel descriptions enqueued onto streams.

use std::cell::{Ref, RefMut};
use std::fmt;

use crate::counters::WaitCause;
use crate::error::SimResult;
use crate::label::{Label, LabelKey};
use crate::mem::{AllocRead, AllocWrite, DevPtr, HostBufId, MemPool};

/// Identifier of a stream (FIFO command queue). Stream 0 is the default
/// stream that exists from context creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// Raw index (stable for the context lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an event usable for cross-stream ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u32);

/// Abstract cost of a kernel, fed to the device roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes moved to/from device memory (reads + writes).
    pub bytes: u64,
}

impl KernelCost {
    /// Sum of two costs (useful when fusing logical kernels).
    #[must_use]
    pub fn plus(self, other: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// View of device memory handed to a kernel's functional body.
///
/// The borrow rules match hardware reality: any number of buffers may be
/// accessed, but creating overlapping mutable views of the *same*
/// allocation panics (a data race on a real device).
pub struct KernelCtx<'a> {
    pub(crate) pool: &'a MemPool,
}

impl<'a> KernelCtx<'a> {
    /// Borrow `len` device elements at `ptr` for reading.
    pub fn read(&self, ptr: DevPtr, len: usize) -> SimResult<Ref<'a, [f32]>> {
        self.pool.dev_slice(ptr, len)
    }

    /// Borrow `len` device elements at `ptr` for writing.
    pub fn write(&self, ptr: DevPtr, len: usize) -> SimResult<RefMut<'a, [f32]>> {
        self.pool.dev_slice_mut(ptr, len)
    }

    /// Resolve the allocation behind `ptr` into a read view once.
    ///
    /// A kernel body that touches many slices of the same buffer should
    /// take one view up front and slice through it — each
    /// [`AllocRead::slice`] is a single bounds comparison, where
    /// [`read`](KernelCtx::read) re-validates the allocation and
    /// re-borrows its `RefCell` on every call.
    pub fn read_view(&self, ptr: DevPtr) -> SimResult<AllocRead<'a>> {
        self.pool.dev_read(ptr.alloc_id())
    }

    /// Resolve the allocation behind `ptr` into a write view once (the
    /// mutable counterpart of [`read_view`](KernelCtx::read_view)).
    pub fn write_view(&self, ptr: DevPtr) -> SimResult<AllocWrite<'a>> {
        self.pool.dev_write(ptr.alloc_id())
    }

    /// Length in elements of the allocation behind `ptr`.
    pub fn len_of(&self, ptr: DevPtr) -> SimResult<usize> {
        self.pool.alloc_len(ptr.alloc_id())
    }
}

/// Functional body of a kernel. Receives a [`KernelCtx`] for device-memory
/// access; returns an error to abort the simulation (bad index, etc.).
pub type KernelBody = Box<dyn FnOnce(&KernelCtx<'_>) -> SimResult<()>>;

/// A declared (possibly strided) device-memory access of a kernel, used
/// by the optional race checker. Row `k` of the range covers
/// `[ptr + k·stride, ptr + k·stride + row_elems)`; a contiguous range is
/// the `rows == 1` case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessDecl {
    /// First element of the first row.
    pub ptr: DevPtr,
    /// Contiguous elements per row.
    pub row_elems: usize,
    /// Distance between row starts, in elements.
    pub stride: usize,
    /// Number of rows.
    pub rows: usize,
}

/// A kernel launch: a name (for timelines/counters), an abstract cost for
/// the timing model, and an optional functional body executed in
/// [`ExecMode::Functional`](crate::ExecMode::Functional).
pub struct KernelLaunch {
    /// Kernel name shown in timelines and error messages.
    pub name: &'static str,
    /// Cost model input.
    pub cost: KernelCost,
    /// Functional payload; `None` for cost-only kernels.
    pub body: Option<KernelBody>,
    /// Declared read ranges, used by the optional race checker to detect
    /// unsound overlap with concurrent writers.
    pub reads: Vec<AccessDecl>,
    /// Declared write ranges.
    pub writes: Vec<AccessDecl>,
}

impl KernelLaunch {
    /// Kernel with a functional body.
    pub fn new(
        name: &'static str,
        cost: KernelCost,
        body: impl FnOnce(&KernelCtx<'_>) -> SimResult<()> + 'static,
    ) -> Self {
        KernelLaunch {
            name,
            cost,
            body: Some(Box::new(body)),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Cost-only kernel (valid in timing mode).
    pub fn cost_only(name: &'static str, cost: KernelCost) -> Self {
        KernelLaunch {
            name,
            cost,
            body: None,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Declare a contiguous range this kernel reads (for the race
    /// checker).
    #[must_use]
    pub fn reading(self, ptr: DevPtr, elems: usize) -> Self {
        self.reading_strided(ptr, elems, elems, 1)
    }

    /// Declare a contiguous range this kernel writes (for the race
    /// checker).
    #[must_use]
    pub fn writing(self, ptr: DevPtr, elems: usize) -> Self {
        self.writing_strided(ptr, elems, elems, 1)
    }

    /// Declare a strided (pitched 2-D) range this kernel reads: `rows`
    /// rows of `row_elems` elements, `stride` elements apart. One
    /// declaration covers the whole block — the race checker stores it
    /// as a single range instead of one per row.
    #[must_use]
    pub fn reading_strided(mut self, ptr: DevPtr, row_elems: usize, stride: usize, rows: usize) -> Self {
        self.reads.push(AccessDecl {
            ptr,
            row_elems,
            stride,
            rows,
        });
        self
    }

    /// Declare a strided (pitched 2-D) range this kernel writes.
    #[must_use]
    pub fn writing_strided(mut self, ptr: DevPtr, row_elems: usize, stride: usize, rows: usize) -> Self {
        self.writes.push(AccessDecl {
            ptr,
            row_elems,
            stride,
            rows,
        });
        self
    }
}

impl fmt::Debug for KernelLaunch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelLaunch")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .field("has_body", &self.body.is_some())
            .finish()
    }
}

/// Parameters of a 2-D (pitched / strided) copy. All sizes in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Copy2D {
    /// Number of rows transferred.
    pub rows: usize,
    /// Contiguous elements per row.
    pub row_elems: usize,
    /// Host buffer handle.
    pub host: HostBufId,
    /// Element offset of the first row in the host buffer.
    pub host_off: usize,
    /// Host row stride in elements (≥ `row_elems`).
    pub host_stride: usize,
    /// Device pointer of the first row.
    pub dev: DevPtr,
    /// Device row stride (pitch) in elements (≥ `row_elems`).
    pub dev_stride: usize,
}

impl Copy2D {
    /// Total elements moved.
    pub fn elems(&self) -> usize {
        self.rows * self.row_elems
    }
}

/// The command kinds a stream can hold.
pub(crate) enum CmdKind {
    H2D {
        host: HostBufId,
        host_off: usize,
        dst: DevPtr,
        elems: usize,
    },
    D2H {
        src: DevPtr,
        elems: usize,
        host: HostBufId,
        host_off: usize,
    },
    H2D2D(Copy2D),
    D2H2D(Copy2D),
    Kernel(KernelLaunch),
    /// Device-side fill (`cudaMemsetAsync` analogue, f32 pattern).
    Memset {
        dst: DevPtr,
        elems: usize,
        value: f32,
    },
    /// Device-to-device copy (`cudaMemcpyDeviceToDevice`).
    D2D {
        src: DevPtr,
        dst: DevPtr,
        elems: usize,
    },
    EventRecord(EventId),
    EventWait(EventId, WaitCause),
}

impl CmdKind {
    /// Engine class required, or `None` for pseudo-commands.
    pub fn engine(&self) -> Option<EngineKind> {
        match self {
            CmdKind::H2D { .. } | CmdKind::H2D2D(_) => Some(EngineKind::H2D),
            CmdKind::D2H { .. } | CmdKind::D2H2D(_) => Some(EngineKind::D2H),
            // Device-internal operations occupy the compute engine's
            // memory system, leaving the PCIe copy engines free.
            CmdKind::Kernel(_) | CmdKind::Memset { .. } | CmdKind::D2D { .. } => {
                Some(EngineKind::Compute)
            }
            CmdKind::EventRecord(_) | CmdKind::EventWait(..) => None,
        }
    }

    /// Display label: the kernel name, or the command's numeric key,
    /// rendered only when the label is displayed or exported.
    pub fn label(&self) -> Label {
        let key = match self {
            CmdKind::Kernel(k) => return Label::Static(k.name),
            CmdKind::H2D { elems, .. } => LabelKey::H2d(*elems),
            CmdKind::D2H { elems, .. } => LabelKey::D2h(*elems),
            CmdKind::H2D2D(c) => LabelKey::H2d2d(c.rows, c.row_elems),
            CmdKind::D2H2D(c) => LabelKey::D2h2d(c.rows, c.row_elems),
            CmdKind::Memset { elems, .. } => LabelKey::Memset(*elems),
            CmdKind::D2D { elems, .. } => LabelKey::D2d(*elems),
            CmdKind::EventRecord(e) => LabelKey::Record(e.0),
            CmdKind::EventWait(e, _) => LabelKey::Wait(e.0),
        };
        Label::Key(key)
    }
}

/// Hardware engine classes. One instance of each per device, matching a
/// K40m-style GPU with dual copy engines (one per direction) plus compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Host→device DMA engine.
    H2D,
    /// Device→host DMA engine.
    D2H,
    /// Kernel execution engine.
    Compute,
}

impl EngineKind {
    /// All engine kinds, in dispatch order.
    pub const ALL: [EngineKind; 3] = [EngineKind::H2D, EngineKind::D2H, EngineKind::Compute];

    /// Dense index for array-backed engine state.
    pub fn index(self) -> usize {
        match self {
            EngineKind::H2D => 0,
            EngineKind::D2H => 1,
            EngineKind::Compute => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_classification() {
        let k = CmdKind::Kernel(KernelLaunch::cost_only("k", KernelCost::default()));
        assert_eq!(k.engine(), Some(EngineKind::Compute));
        assert_eq!(CmdKind::EventRecord(EventId(0)).engine(), None);
        assert_eq!(
            CmdKind::EventWait(EventId(0), WaitCause::Dependency).engine(),
            None
        );
    }

    #[test]
    fn kernel_cost_plus() {
        let a = KernelCost { flops: 1, bytes: 2 };
        let b = KernelCost { flops: 3, bytes: 4 };
        let c = a.plus(b);
        assert_eq!(c.flops, 4);
        assert_eq!(c.bytes, 6);
    }

    #[test]
    fn copy2d_elems() {
        let c = Copy2D {
            rows: 3,
            row_elems: 5,
            host: HostBufId(0),
            host_off: 0,
            host_stride: 8,
            dev: DevPtr {
                alloc: crate::mem::DevAllocId(0),
                offset: 0,
            },
            dev_stride: 8,
        };
        assert_eq!(c.elems(), 15);
    }

    #[test]
    fn engine_indices_are_dense() {
        for (i, e) in EngineKind::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }
}
