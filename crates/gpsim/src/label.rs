//! Timeline labels, stored as numeric keys and rendered on demand.
//!
//! Every retired command, enqueue span and sync span carries a label.
//! A command's label is a pure function of a small numeric key (kind
//! discriminant plus one or two sizes, or an event or stream id), so the
//! simulator stores the key itself: building a [`Label`] costs no hashing
//! and no allocation, and no table grows with a context's lifetime
//! (event and stream ids are unbounded). Text exists only where a string
//! is needed — trace export, `Display` and error messages — and
//! [`LabelKey::render`] is the one place that formats it.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Numeric identity of a simulator command's label: everything needed to
/// render it, cheap to copy and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKey {
    /// `h2d[{elems}]`
    H2d(usize),
    /// `d2h[{elems}]`
    D2h(usize),
    /// `h2d2d[{rows}x{row_elems}]`
    H2d2d(usize, usize),
    /// `d2h2d[{rows}x{row_elems}]`
    D2h2d(usize, usize),
    /// `memset[{elems}]`
    Memset(usize),
    /// `d2d[{elems}]`
    D2d(usize),
    /// `record({event})`
    Record(u32),
    /// `wait({event})`
    Wait(u32),
    /// `sync(stream {id})`
    SyncStream(u32),
}

impl LabelKey {
    /// The label's text.
    pub fn render(self) -> String {
        match self {
            LabelKey::H2d(elems) => format!("h2d[{elems}]"),
            LabelKey::D2h(elems) => format!("d2h[{elems}]"),
            LabelKey::H2d2d(rows, row_elems) => format!("h2d2d[{rows}x{row_elems}]"),
            LabelKey::D2h2d(rows, row_elems) => format!("d2h2d[{rows}x{row_elems}]"),
            LabelKey::Memset(elems) => format!("memset[{elems}]"),
            LabelKey::D2d(elems) => format!("d2d[{elems}]"),
            LabelKey::Record(e) => format!("record({e})"),
            LabelKey::Wait(e) => format!("wait({e})"),
            LabelKey::SyncStream(s) => format!("sync(stream {s})"),
        }
    }
}

/// Display label of a timeline entry, host span or failure record.
///
/// Equality, `Display` and `Debug` go by the rendered text, so a
/// simulator label equals the same label read back from an exported
/// trace.
#[derive(Clone)]
pub enum Label {
    /// A simulator command's numeric key.
    Key(LabelKey),
    /// Static text: a kernel name or a fixed span name.
    Static(&'static str),
    /// Shared text: an imported trace's span names, or a bespoke span.
    Shared(Arc<str>),
}

impl Label {
    /// The label's text, rendered if it is a key.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Label::Key(k) => Cow::Owned(k.render()),
            Label::Static(s) => Cow::Borrowed(s),
            Label::Shared(s) => Cow::Borrowed(s),
        }
    }
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Label {
        Label::Static(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Label {
        Label::Shared(s.into())
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        match (self, other) {
            // Rendering is injective, so keys compare without it.
            (Label::Key(a), Label::Key(b)) => a == b,
            _ => self.text() == other.text(),
        }
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.text() == *other
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.text())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_renders_its_text() {
        for (key, text) in [
            (LabelKey::H2d(1024), "h2d[1024]"),
            (LabelKey::D2h(1024), "d2h[1024]"),
            (LabelKey::H2d2d(4, 256), "h2d2d[4x256]"),
            (LabelKey::D2h2d(4, 256), "d2h2d[4x256]"),
            (LabelKey::Memset(99), "memset[99]"),
            (LabelKey::D2d(99), "d2d[99]"),
            (LabelKey::Record(7), "record(7)"),
            (LabelKey::Wait(7), "wait(7)"),
            (LabelKey::SyncStream(3), "sync(stream 3)"),
        ] {
            assert_eq!(key.render(), text);
            let label = Label::Key(key);
            assert_eq!(label.to_string(), text);
            assert_eq!(format!("{label:?}"), format!("{text:?}"));
        }
    }

    #[test]
    fn labels_compare_by_text() {
        let key = Label::Key(LabelKey::H2d(1024));
        assert_eq!(key, "h2d[1024]");
        assert_ne!(key, "h2d[1025]");
        assert_eq!(key, Label::from("h2d[1024]"));
        assert_eq!(Label::from("h2d[1024]".to_string()), key);
        assert_ne!(key, Label::Key(LabelKey::D2h(1024)));
        assert_eq!(Label::from("conv"), "conv");
        assert_eq!(format!("[{:<6}]", Label::from("k")), "[k     ]");
    }

    #[test]
    fn event_labels_stay_exact_over_a_long_lived_context() {
        use crate::{to_perfetto_trace, DeviceProfile, ExecMode, Gpu, HostSpanKind};
        // Event ids grow with the context's lifetime; nothing label-side
        // may grow with them, and the 10 000th pair must still render.
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let (a, b) = (gpu.create_stream().unwrap(), gpu.create_stream().unwrap());
        for _ in 0..10_000 {
            let e = gpu.create_event();
            gpu.record_event(a, e).unwrap();
            gpu.wait_event(b, e).unwrap();
        }
        gpu.synchronize().unwrap();
        let last: Vec<String> = gpu
            .host_spans()
            .iter()
            .rev()
            .filter(|s| s.kind == HostSpanKind::Enqueue)
            .take(2)
            .map(|s| s.label.to_string())
            .collect();
        assert_eq!(last, ["wait(9999)", "record(9999)"]);
        let doc = to_perfetto_trace(gpu.timeline(), gpu.host_spans(), gpu.wait_records(), &[]);
        assert!(doc.contains("\"name\": \"record(9999)\""));
        assert!(doc.contains("\"name\": \"wait(9999)\""));
    }

    #[test]
    fn a_label_is_no_larger_than_a_cow_str() {
        assert!(std::mem::size_of::<Label>() <= std::mem::size_of::<Cow<'static, str>>());
    }
}
