//! Interned timeline labels.
//!
//! Command labels are pure functions of a small numeric key (kind
//! discriminant plus one or two sizes), and a run re-uses the same few
//! keys millions of times. Rendering `format!("h2d[{elems}]")` per
//! timeline entry dominated the instrumented hot path, so labels are
//! interned once into `&'static str` and every later occurrence is a
//! hash lookup on the numeric key — no allocation, no formatting.
//!
//! The table leaks its strings by design: the set of distinct keys is
//! bounded by the distinct (kind, size) pairs a process ever simulates,
//! each a handful of bytes. A thread-local cache front-ends the global
//! table so sweep worker threads don't contend on the mutex after
//! warm-up. Both maps hash with [`KeyHasher`], a multiply-rotate mix
//! sized for these few small integers; the default SipHash cost more
//! than the rest of the lookup.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, OnceLock};

/// Numeric identity of a deferred label. Everything needed to render the
/// string, cheap to hash and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LabelKey {
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
    fn render(self) -> String {
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

/// Multiply-rotate hasher for [`LabelKey`]: every word the derived
/// `Hash` writes (discriminant, sizes) is folded in with one rotate, xor
/// and multiply. Keys are trusted, in-process values, so no DoS
/// resistance is needed.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        // Odd constant from the golden ratio (Fibonacci hashing).
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // A product's low bits see only the factors' low bits, and sizes
        // are often multiples of large powers of two: fold the well-mixed
        // high half down so the bucket index (low bits) depends on all of it.
        self.0 ^ (self.0 >> 32)
    }
}

type LabelMap = HashMap<LabelKey, &'static str, BuildHasherDefault<KeyHasher>>;

static TABLE: OnceLock<Mutex<LabelMap>> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<LabelMap> = RefCell::new(LabelMap::default());
}

/// Resolve `key` to its interned label, rendering (and leaking) it on
/// first use process-wide.
pub(crate) fn intern(key: LabelKey) -> &'static str {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(&s) = local.get(&key) {
            return s;
        }
        let mut table = TABLE
            .get_or_init(|| Mutex::new(LabelMap::default()))
            .lock()
            .expect("label table poisoned");
        let s = *table
            .entry(key)
            .or_insert_with(|| Box::leak(key.render().into_boxed_str()));
        drop(table);
        local.insert(key, s);
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_renders_once() {
        let a = intern(LabelKey::H2d(1024));
        let b = intern(LabelKey::H2d(1024));
        assert_eq!(a, "h2d[1024]");
        // Same key resolves to the same leaked allocation.
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern(LabelKey::H2d2d(4, 256)), "h2d2d[4x256]");
        assert_eq!(intern(LabelKey::SyncStream(3)), "sync(stream 3)");
        assert_eq!(intern(LabelKey::Wait(7)), "wait(7)");
    }

    #[test]
    fn cross_thread_interning_agrees() {
        let a = intern(LabelKey::D2d(99));
        let b = std::thread::spawn(|| intern(LabelKey::D2d(99)))
            .join()
            .unwrap();
        assert!(std::ptr::eq(a, b));
    }
}
