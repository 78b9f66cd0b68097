//! Structural keys: a canonical byte encoding of IR values.
//!
//! Memo and cache keys need "these two inputs are the same" to be both
//! cheap and exact. A `Debug` rendering is exact but slow and large; a
//! hash alone is cheap but can collide. [`KeyWriter`] walks a value once
//! and appends a prefix-free byte encoding: every enum writes its variant
//! tag, every variable-length part its length, and floats their bit
//! pattern. Two values encode to the same bytes exactly when they are
//! structurally identical with floats compared bit for bit, so `0.0` and
//! `-0.0`, which can fold to different code, never share a key. Callers
//! hash the bytes to find a candidate and compare them in full to confirm
//! it.

use crate::expr::{BinOp, Builtin, Expr, MathFn, TexCoords, UnOp};
use crate::kernel::{
    AccessorDecl, AddressMode, BufferAccess, BufferParam, ConstBufferDecl, DeviceKernelDef,
    KernelDef, MaskDecl, MemorySpace, ParamDecl, SharedDecl,
};
use crate::stmt::{LValue, Stmt};
use crate::ty::{Const, ScalarType};
use std::collections::HashMap;

/// Accumulates the structural encoding of one or more values.
#[derive(Clone, Debug, Default)]
pub struct KeyWriter {
    bytes: Vec<u8>,
}

impl KeyWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte (enum tags, small fields).
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes.push(v);
        self
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.u64(v as u64)
    }

    /// Append a length or count.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    /// Append a `bool`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Append an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.u32(v.to_bits())
    }

    /// Append an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Append a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.count(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
        self
    }

    /// Append the structural encoding of `v`.
    pub fn put<T: StructuralKey + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.write_key(self);
        self
    }

    /// The encoding written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A value with a canonical structural encoding (see the module docs).
pub trait StructuralKey {
    /// Append this value's encoding to `w`.
    fn write_key(&self, w: &mut KeyWriter);
}

impl StructuralKey for String {
    fn write_key(&self, w: &mut KeyWriter) {
        w.str(self);
    }
}

impl StructuralKey for u32 {
    fn write_key(&self, w: &mut KeyWriter) {
        w.u32(*self);
    }
}

impl StructuralKey for f32 {
    fn write_key(&self, w: &mut KeyWriter) {
        w.f32(*self);
    }
}

impl<T: StructuralKey> StructuralKey for [T] {
    fn write_key(&self, w: &mut KeyWriter) {
        w.count(self.len());
        for v in self {
            v.write_key(w);
        }
    }
}

impl<T: StructuralKey> StructuralKey for Vec<T> {
    fn write_key(&self, w: &mut KeyWriter) {
        self.as_slice().write_key(w);
    }
}

impl<T: StructuralKey + ?Sized> StructuralKey for Box<T> {
    fn write_key(&self, w: &mut KeyWriter) {
        (**self).write_key(w);
    }
}

impl<T: StructuralKey> StructuralKey for Option<T> {
    fn write_key(&self, w: &mut KeyWriter) {
        match self {
            None => {
                w.u8(0);
            }
            Some(v) => {
                w.u8(1).put(v);
            }
        }
    }
}

impl<A: StructuralKey, B: StructuralKey> StructuralKey for (A, B) {
    fn write_key(&self, w: &mut KeyWriter) {
        w.put(&self.0).put(&self.1);
    }
}

impl<A: StructuralKey, B: StructuralKey, C: StructuralKey, D: StructuralKey> StructuralKey
    for (A, B, C, D)
{
    fn write_key(&self, w: &mut KeyWriter) {
        w.put(&self.0).put(&self.1).put(&self.2).put(&self.3);
    }
}

/// Maps encode sorted by key: `HashMap` iteration order varies between
/// separately built maps, which would otherwise give equal maps distinct
/// keys.
impl<K: StructuralKey + Ord, V: StructuralKey, S> StructuralKey for HashMap<K, V, S> {
    fn write_key(&self, w: &mut KeyWriter) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.count(entries.len());
        for (k, v) in entries {
            w.put(k).put(v);
        }
    }
}

/// Fieldless enums encode as their discriminant.
macro_rules! tag_key {
    ($($t:ty),*) => {$(
        impl StructuralKey for $t {
            fn write_key(&self, w: &mut KeyWriter) {
                w.u8(*self as u8);
            }
        }
    )*};
}

tag_key!(
    ScalarType,
    BinOp,
    UnOp,
    MathFn,
    Builtin,
    BufferAccess,
    MemorySpace
);

impl StructuralKey for Const {
    fn write_key(&self, w: &mut KeyWriter) {
        match *self {
            Const::Bool(b) => w.u8(0).bool(b),
            Const::Int(i) => w.u8(1).i64(i),
            Const::Float(f) => w.u8(2).f32(f),
        };
    }
}

impl StructuralKey for AddressMode {
    fn write_key(&self, w: &mut KeyWriter) {
        match *self {
            AddressMode::None => w.u8(0),
            AddressMode::Clamp => w.u8(1),
            AddressMode::Repeat => w.u8(2),
            AddressMode::BorderConstant(c) => w.u8(3).f32(c),
        };
    }
}

impl StructuralKey for TexCoords {
    fn write_key(&self, w: &mut KeyWriter) {
        match self {
            TexCoords::Linear(i) => w.u8(0).put(i),
            TexCoords::Xy(x, y) => w.u8(1).put(x).put(y),
        };
    }
}

impl StructuralKey for Expr {
    fn write_key(&self, w: &mut KeyWriter) {
        match self {
            Expr::ImmInt(i) => w.u8(0).i64(*i),
            Expr::ImmFloat(f) => w.u8(1).f32(*f),
            Expr::ImmBool(b) => w.u8(2).bool(*b),
            Expr::Var(n) => w.u8(3).str(n),
            Expr::Unary(op, a) => w.u8(4).put(op).put(a),
            Expr::Binary(op, a, b) => w.u8(5).put(op).put(a).put(b),
            Expr::Call(f, args) => w.u8(6).put(f).put(args),
            Expr::Cast(ty, a) => w.u8(7).put(ty).put(a),
            Expr::Select(c, a, b) => w.u8(8).put(c).put(a).put(b),
            Expr::InputAt { acc, dx, dy } => w.u8(9).str(acc).put(dx).put(dy),
            Expr::MaskAt { mask, dx, dy } => w.u8(10).str(mask).put(dx).put(dy),
            Expr::OutputX => w.u8(11),
            Expr::OutputY => w.u8(12),
            Expr::Builtin(b) => w.u8(13).put(b),
            Expr::GlobalLoad { buf, idx } => w.u8(14).str(buf).put(idx),
            Expr::TexFetch { buf, coords } => w.u8(15).str(buf).put(coords),
            Expr::ConstLoad { buf, idx } => w.u8(16).str(buf).put(idx),
            Expr::SharedLoad { buf, y, x } => w.u8(17).str(buf).put(y).put(x),
        };
    }
}

impl StructuralKey for LValue {
    fn write_key(&self, w: &mut KeyWriter) {
        match self {
            LValue::Var(n) => w.u8(0).str(n),
        };
    }
}

impl StructuralKey for Stmt {
    fn write_key(&self, w: &mut KeyWriter) {
        match self {
            Stmt::Decl { name, ty, init } => w.u8(0).str(name).put(ty).put(init),
            Stmt::Assign { target, value } => w.u8(1).put(target).put(value),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => w.u8(2).str(var).put(from).put(to).put(body),
            Stmt::If { cond, then, els } => w.u8(3).put(cond).put(then).put(els),
            Stmt::Return => w.u8(4),
            Stmt::Comment(c) => w.u8(5).str(c),
            Stmt::Output(e) => w.u8(6).put(e),
            Stmt::GlobalStore { buf, idx, value } => w.u8(7).str(buf).put(idx).put(value),
            Stmt::SharedStore { buf, y, x, value } => w.u8(8).str(buf).put(y).put(x).put(value),
            Stmt::Barrier => w.u8(9),
        };
    }
}

impl StructuralKey for ParamDecl {
    fn write_key(&self, w: &mut KeyWriter) {
        let ParamDecl { name, ty } = self;
        w.str(name).put(ty);
    }
}

impl StructuralKey for AccessorDecl {
    fn write_key(&self, w: &mut KeyWriter) {
        let AccessorDecl { name, ty } = self;
        w.str(name).put(ty);
    }
}

impl StructuralKey for MaskDecl {
    fn write_key(&self, w: &mut KeyWriter) {
        let MaskDecl {
            name,
            width,
            height,
            coeffs,
        } = self;
        w.str(name).u32(*width).u32(*height).put(coeffs);
    }
}

impl StructuralKey for KernelDef {
    fn write_key(&self, w: &mut KeyWriter) {
        let KernelDef {
            name,
            pixel,
            params,
            accessors,
            masks,
            body,
        } = self;
        w.str(name)
            .put(pixel)
            .put(params)
            .put(accessors)
            .put(masks)
            .put(body);
    }
}

impl StructuralKey for BufferParam {
    fn write_key(&self, w: &mut KeyWriter) {
        let BufferParam {
            name,
            ty,
            access,
            space,
            address_mode,
        } = self;
        w.str(name).put(ty).put(access).put(space).put(address_mode);
    }
}

impl StructuralKey for SharedDecl {
    fn write_key(&self, w: &mut KeyWriter) {
        let SharedDecl {
            name,
            ty,
            rows,
            cols,
        } = self;
        w.str(name).put(ty).u32(*rows).u32(*cols);
    }
}

impl StructuralKey for ConstBufferDecl {
    fn write_key(&self, w: &mut KeyWriter) {
        let ConstBufferDecl {
            name,
            width,
            height,
            data,
        } = self;
        w.str(name).u32(*width).u32(*height).put(data);
    }
}

impl StructuralKey for DeviceKernelDef {
    fn write_key(&self, w: &mut KeyWriter) {
        let DeviceKernelDef {
            name,
            buffers,
            scalars,
            const_buffers,
            shared,
            body,
        } = self;
        w.str(name)
            .put(buffers)
            .put(scalars)
            .put(const_buffers)
            .put(shared)
            .put(body);
    }
}

/// A bounded map that evicts its least recently used entry when full:
/// the table behind the memos keyed by structural keys. Not synchronized;
/// callers hold it behind their own lock.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, (u64, V)>,
    tick: u64,
    capacity: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V> LruMap<K, V> {
    /// An empty map retaining at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// The value under `key`, marked as most recently used. The map finds
    /// the entry by the key's hash and confirms it by full equality.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.0 = tick;
            &entry.1
        })
    }

    /// Store `value` under `key`, evicting the least recently used entry
    /// when the map is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Number of entries retained.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, ScalarType};

    fn key(k: &KernelDef) -> Vec<u8> {
        let mut w = KeyWriter::new();
        w.put(k);
        w.into_bytes()
    }

    fn scale(by: f32) -> KernelDef {
        let mut b = KernelBuilder::new("k", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        b.output(b.read(&input, 0, 0) * Expr::float(by));
        b.finish()
    }

    #[test]
    fn equal_kernels_share_a_key_and_literals_separate_them() {
        assert_eq!(key(&scale(2.0)), key(&scale(2.0)));
        assert_ne!(key(&scale(2.0)), key(&scale(3.0)));
        // `==` calls these equal; the key keeps them apart because the
        // folded code can differ (1 / x).
        assert_eq!(scale(0.0), scale(-0.0));
        assert_ne!(key(&scale(0.0)), key(&scale(-0.0)));
    }

    #[test]
    fn maps_encode_independently_of_insertion_order() {
        let names = ["sigma", "radius", "gain", "bias", "scale"];
        let forward: HashMap<String, Const> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), Const::Int(i as i64)))
            .collect();
        let mut backward = HashMap::new();
        for (i, n) in names.iter().enumerate().rev() {
            backward.insert(n.to_string(), Const::Int(i as i64));
        }
        let (mut a, mut b) = (KeyWriter::new(), KeyWriter::new());
        a.put(&forward);
        b.put(&backward);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn lru_map_evicts_the_least_recently_used_entry() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get(&"a"), Some(&1)); // refresh a; b is now oldest
        m.insert("c", 3);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&"b"), None, "b was least recently used");
        assert_eq!(m.get(&"a"), Some(&1));
        assert_eq!(m.get(&"c"), Some(&3));
    }

    #[test]
    fn encoding_is_prefix_free_across_fields() {
        // Without length prefixes these two would concatenate alike.
        let mut a = KeyWriter::new();
        a.str("ab").str("c");
        let mut b = KeyWriter::new();
        b.str("a").str("bc");
        assert_ne!(a.into_bytes(), b.into_bytes());
    }
}
