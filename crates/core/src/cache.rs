//! Cross-launch compiled-kernel cache.
//!
//! Compiling a kernel — specialization, access analysis, lowering,
//! configuration selection, emission, verification — is pure: its output
//! depends only on the kernel definition and the [`CompileSpec`]. In a
//! steady-state pipeline (video frames, iterative solvers) the same
//! operator is launched over and over with identical geometry, so every
//! launch after the first repeats work whose result is already known.
//!
//! [`KernelCache`] memoizes the compiler artifact across launches. The key
//! is a *fingerprint*: the structural encoding ([`hipacc_ir::key`]) of the
//! kernel definition plus every compile-relevant field of the spec
//! (device, backend, image geometry, boundary handling, bound parameters,
//! memory-path variant, unrolling, forced configuration, ROI,
//! vectorization, opt level) and the `HIPACC_OPT_DISABLE` veto. Anything
//! that can change the emitted code changes the key, and a hit compares
//! the whole key, not just its hash, so a cache hit is reuse of a
//! bit-identical artifact by construction — there is no invalidation
//! protocol to get wrong, only a bounded LRU that drops the
//! least-recently-used entry when full.
//!
//! Artifacts are stored and served as `Arc<CompiledKernel>`: a hit costs
//! the fingerprint, one map probe and a reference-count bump, never a
//! copy of the device IR and generated sources. Results derived from an
//! artifact later, such as [`Operator::estimate`](crate::Operator::estimate),
//! are memoized on it ([`hipacc_codegen::DerivedMemo`]), so every launch
//! that shares the `Arc` shares them too.
//!
//! The cache is **opt-in**: install one with
//! [`PipelineOptions::cache`](crate::PipelineOptions) (an `Arc`, so one
//! cache can back many operators). The default path compiles fresh every
//! launch, which keeps compile-phase traces intact for profiling tests.
//! Fault-recovery rungs that degrade the launch configuration compile with
//! a different `force_config`, hence a different fingerprint — a degraded
//! artifact can never be served for a healthy launch or vice versa. The
//! supervisor additionally bypasses the cache entirely on degraded rungs
//! (recorded as a bypass, not a miss) so recovery timing is never skewed
//! by warm-cache effects.

use hipacc_codegen::{CompileSpec, CompiledKernel};
use hipacc_ir::kernel::KernelDef;
use hipacc_ir::key::{KeyWriter, LruMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default number of compiled kernels retained (LRU beyond this).
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// What the cache did for one launch, embedded in
/// [`LaunchProfile`](crate::LaunchProfile).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheReport {
    /// `"hit"`, `"miss"`, or `"bypass: <reason>"`.
    pub outcome: String,
    /// Cumulative hits on the cache at the time of this launch.
    pub hits: u64,
    /// Cumulative misses on the cache at the time of this launch.
    pub misses: u64,
    /// Times the cache adopted its state out of a poisoned lock (a
    /// launch thread panicked while holding it). Non-zero is worth a
    /// look but never fatal — see [`KernelCache::poison_diagnostic`].
    pub poison_recoveries: u64,
}

impl CacheReport {
    /// True when this launch was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.outcome == "hit"
    }
}

/// A cache key from [`KernelCache::fingerprint`]: the structural
/// encoding of a kernel definition, its compile spec and the
/// `HIPACC_OPT_DISABLE` veto. Equal keys mean equal inputs, floats
/// compared bit for bit.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(Box<[u8]>);

impl CacheKey {
    /// Size of the key in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for an empty key (never produced by a fingerprint).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CacheKey({} bytes)", self.len())
    }
}

/// A bounded, thread-safe LRU cache of compiler artifacts keyed by kernel
/// fingerprint. See the module docs for keying and invalidation semantics.
pub struct KernelCache {
    inner: Mutex<LruMap<CacheKey, Arc<CompiledKernel>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("bypasses", &self.bypasses())
            .finish()
    }
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl KernelCache {
    /// A cache retaining at most `capacity` compiled kernels (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LruMap::new(capacity)),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Lock the cache state, recovering from mutex poisoning.
    ///
    /// A panic in one launch thread (a worker assertion, a test
    /// `should_panic`, an injected fault) poisons the mutex for every
    /// *unrelated* subsequent launch; propagating that panic turns one
    /// failure into a process-wide cascade. The inner state is safe to
    /// adopt as-is: every critical section either completes its
    /// `LruMap` operation or panics before mutating (stamp updates and
    /// map ops are individually atomic with respect to unwinding), and a
    /// worst-case stale LRU stamp or missing entry only costs a
    /// recompile. The recovery is counted and surfaced as a typed
    /// diagnostic ([`Self::poison_diagnostic`]) instead of a panic.
    fn lock_inner(&self) -> MutexGuard<'_, LruMap<CacheKey, Arc<CompiledKernel>>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Canonical cache key for compiling `def` under `spec`.
    pub fn fingerprint(def: &KernelDef, spec: &CompileSpec) -> CacheKey {
        let mut w = KeyWriter::new();
        w.put(spec).put(def);
        // The env veto changes the emitted kernel without touching the
        // spec; folding it into the key keeps opt variants from aliasing
        // (the IR the artifact was built from is implied by level + veto
        // set, both deterministic).
        let disabled = hipacc_codegen::disabled_passes();
        w.count(disabled.len());
        for pass in &disabled {
            w.str(pass);
        }
        CacheKey(w.into_bytes().into_boxed_slice())
    }

    /// Fetch the artifact for `key`, refreshing its LRU stamp. Counts a
    /// hit or a miss. The map finds the entry by the key's hash and
    /// confirms it by comparing the whole key.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CompiledKernel>> {
        let mut inner = self.lock_inner();
        let hit = inner.get(key).cloned();
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Store an artifact under `key`, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&self, key: CacheKey, compiled: Arc<CompiledKernel>) {
        self.lock_inner().insert(key, compiled);
    }

    /// Record a deliberate bypass (e.g. a degraded supervisor rung).
    pub fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative bypass count.
    pub fn bypasses(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
    }

    /// Number of artifacts currently retained.
    pub fn len(&self) -> usize {
        self.lock_inner().len()
    }

    /// True when no artifact is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times the cache recovered from a poisoned lock (see
    /// [`Self::poison_diagnostic`]).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// The typed diagnostic for poisoned-lock recoveries: `Some` once
    /// any launch thread has panicked while holding the cache lock
    /// (diagnostic code `R0501`), `None` while the cache has only ever
    /// seen clean unlocks. The cache keeps serving either way; this is
    /// the record that a panic happened nearby, not an error.
    pub fn poison_diagnostic(&self) -> Option<hipacc_analysis::Diagnostic> {
        let n = self.poison_recoveries();
        (n > 0).then(|| {
            hipacc_analysis::Diagnostic::warning(
                "R0501",
                "<kernel-cache>",
                format!(
                    "kernel cache recovered from a poisoned lock {n} time(s): \
                     a launch thread panicked while holding it; cached state \
                     was adopted and service continued"
                ),
            )
        })
    }

    /// Run `f` while holding the cache lock. Test seam for poisoning the
    /// mutex (panic inside `f` under `catch_unwind`); not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn with_lock_for_test(&self, f: impl FnOnce()) {
        let _guard = self.lock_inner();
        f();
    }

    /// A report describing `outcome` with the current counters attached.
    pub fn report(&self, outcome: impl Into<String>) -> CacheReport {
        CacheReport {
            outcome: outcome.into(),
            hits: self.hits(),
            misses: self.misses(),
            poison_recoveries: self.poison_recoveries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_codegen::{BoundarySpec, Compiler};
    use hipacc_hwmodel::device::tesla_c2050;
    use hipacc_hwmodel::Backend;
    use hipacc_image::BoundaryMode;
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn scaled(by: f32) -> KernelDef {
        let mut b = KernelBuilder::new("k", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        b.output(b.read(&input, 0, 0) * Expr::float(by));
        b.finish()
    }

    fn kernel() -> KernelDef {
        scaled(2.0)
    }

    fn spec() -> CompileSpec {
        CompileSpec::new(tesla_c2050(), Backend::Cuda, 64, 64)
            .with_boundary("IN", BoundarySpec::new(BoundaryMode::Clamp, 3, 3))
    }

    #[test]
    fn fingerprint_is_stable_across_recomputation() {
        let (def, sp) = (kernel(), spec());
        // Build the spec twice: HashMap internals may differ; the key
        // must not.
        assert_eq!(
            KernelCache::fingerprint(&def, &sp),
            KernelCache::fingerprint(&kernel(), &spec())
        );
    }

    #[test]
    fn fingerprint_separates_configs() {
        let def = kernel();
        let a = KernelCache::fingerprint(&def, &spec());
        let mut forced = spec();
        forced.force_config = Some((32, 4));
        let b = KernelCache::fingerprint(&def, &forced);
        assert_ne!(a, b, "force_config must change the key");
    }

    #[test]
    fn fingerprint_keeps_literal_sign_and_opt_level_apart() {
        let (neg, pos) = (scaled(-0.0), scaled(0.0));
        assert_eq!(neg, pos, "`==` cannot tell the zeros apart");
        assert_ne!(
            KernelCache::fingerprint(&neg, &spec()),
            KernelCache::fingerprint(&pos, &spec())
        );
        let a = KernelCache::fingerprint(&kernel(), &spec());
        let b = KernelCache::fingerprint(&kernel(), &spec().with_opt_level(0));
        assert_ne!(a, b, "opt level must change the key");
    }

    #[test]
    fn hit_returns_the_inserted_allocation() {
        let cache = KernelCache::default();
        let (def, sp) = (kernel(), spec());
        let key = KernelCache::fingerprint(&def, &sp);
        assert!(cache.lookup(&key).is_none());
        let compiled = Arc::new(Compiler::new().compile(&def, &sp).unwrap());
        cache.insert(key.clone(), Arc::clone(&compiled));
        let cached = cache.lookup(&key).expect("inserted entry");
        assert!(Arc::ptr_eq(&compiled, &cached));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = KernelCache::new(2);
        let (def, sp) = (kernel(), spec());
        let compiled = Arc::new(Compiler::new().compile(&def, &sp).unwrap());
        let key = |bx| KernelCache::fingerprint(&def, &spec().with_config(bx, 1));
        let (a, b, c) = (key(32), key(64), key(128));
        cache.insert(a.clone(), Arc::clone(&compiled));
        cache.insert(b.clone(), Arc::clone(&compiled));
        assert!(cache.lookup(&a).is_some()); // refresh a; b is now oldest
        cache.insert(c.clone(), compiled);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&b).is_none(), "b was least recently used");
        assert!(cache.lookup(&a).is_some());
        assert!(cache.lookup(&c).is_some());
    }
}
