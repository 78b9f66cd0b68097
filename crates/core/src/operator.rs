//! The user-facing operator API.
//!
//! [`Operator`] bundles a DSL kernel with its access/execute metadata —
//! boundary conditions per accessor, scalar parameter values, dynamic mask
//! coefficients — the same information the paper's framework gathers from
//! the `BoundaryCondition` / `Accessor` / `Mask` objects and the kernel
//! constructor arguments. `execute()` drives the full pipeline: compile
//! for the target, run on the simulated device, estimate the execution
//! time with the analytical model.

use crate::cache::CacheReport;
use crate::pipeline::{launch_spec, timing_input_opts};
use crate::profile::LaunchProfile;
use crate::target::Target;
use hipacc_codegen::compile::CompileError;
use hipacc_codegen::{BoundarySpec, CompileSpec, CompiledKernel, Compiler, MemVariant};
use hipacc_image::{BoundaryMode, Image};
use hipacc_ir::ty::Const;
use hipacc_ir::KernelDef;
use hipacc_profile::{now_us, ProfileSink, Recorder, Span};
use hipacc_sim::interp::ExecStats;
use hipacc_sim::launch::{run_in_mode, LaunchSpec};
use hipacc_sim::timing::{estimate_time, TimeBreakdown};
use hipacc_sim::{ExecProfile, FaultedRun, LaunchMode};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Pipeline knobs beyond the kernel itself — the compiler flags of the
/// paper's evaluation axes.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Memory-path selection (`Auto` consults the optimization database).
    pub variant: MemVariant,
    /// Store masks in constant memory.
    pub const_masks: bool,
    /// Run constant propagation with the bound parameters.
    pub constant_propagation: bool,
    /// Unroll convolution loops up to this trip count (0 = off).
    pub unroll_limit: u32,
    /// Pin the launch configuration instead of running the heuristic.
    pub force_config: Option<(u32, u32)>,
    /// Number of device launches the operator performs (for multi-pass
    /// operators' launch-overhead accounting).
    pub launches: u32,
    /// Iteration space `(x, y, w, h)` within the image; `None` = whole
    /// image (the paper's `IterationSpace` over the full output).
    pub roi: Option<(u32, u32, u32, u32)>,
    /// Pixels per work-item (Section-VIII vectorization; 1 = scalar).
    pub vectorize: u32,
    /// Naive boundary handling everywhere, no region specialization (the
    /// "Manual" baseline behaviour).
    pub generic_boundary: bool,
    /// Device-IR optimization level (0 = lower only, 1 = run the
    /// analysis-driven `ir::opt` pipeline; the default).
    pub opt_level: u8,
    /// Model a naive JIT backend (RapidMind): no loop-invariant code
    /// motion, no common-subexpression elimination in the op counting.
    pub naive_codegen: bool,
    /// Host worker threads for the simulator's parallel block loop
    /// (`None` = `HIPACC_SIM_THREADS` env var, then available
    /// parallelism). Outputs are bit-identical for any value.
    pub sim_threads: Option<usize>,
    /// Simulator execution engine (`None` = the `HIPACC_SIM_ENGINE` env
    /// var, then the default bytecode engine). Outputs and statistics are
    /// bit-identical across engines.
    pub engine: Option<hipacc_sim::Engine>,
    /// Cross-launch compiled-kernel cache (see [`crate::cache`]). `None`
    /// compiles fresh on every launch; sharing one `Arc` across operators
    /// lets steady-state pipelines skip the compile phases entirely.
    pub cache: Option<std::sync::Arc<crate::cache::KernelCache>>,
    /// Shared simulator worker pool (see [`hipacc_sim::WorkerPool`]).
    /// `None` spawns per-launch scoped threads; sharing one `Arc` across
    /// operators multiplexes the block work of concurrent launches over
    /// one set of persistent threads. Outputs are bit-identical either
    /// way.
    pub pool: Option<std::sync::Arc<hipacc_sim::WorkerPool>>,
    /// When set, this operator is a fused chain: compilation goes through
    /// [`Compiler::compile_fused`] with this chain instead of lowering
    /// [`Operator::def`] directly. Built by [`crate::fusion::fuse_operators`];
    /// `def` then holds the chain's union kernel, which launches and cache
    /// fingerprints are keyed against.
    pub fused: Option<std::sync::Arc<hipacc_ir::fuse::FusionChain>>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            variant: MemVariant::Auto,
            const_masks: true,
            constant_propagation: true,
            unroll_limit: 0,
            force_config: None,
            launches: 1,
            roi: None,
            vectorize: 1,
            generic_boundary: false,
            opt_level: 1,
            naive_codegen: false,
            sim_threads: None,
            engine: None,
            cache: None,
            pool: None,
            fused: None,
        }
    }
}

/// Errors from the operator pipeline.
#[derive(Debug)]
pub enum OperatorError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Sim(hipacc_sim::SimError),
    /// No input image was provided.
    NoInputs,
    /// The launch supervisor exhausted its retries and fallback
    /// configurations without obtaining a validated result (see
    /// [`crate::supervisor`]).
    Unrecovered(String),
}

impl fmt::Display for OperatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatorError::Compile(e) => write!(f, "compile error: {e}"),
            OperatorError::Sim(e) => write!(f, "simulation error: {e}"),
            OperatorError::NoInputs => write!(f, "operator executed with no input images"),
            OperatorError::Unrecovered(m) => write!(f, "unrecovered launch: {m}"),
        }
    }
}

impl std::error::Error for OperatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OperatorError::Compile(e) => Some(e),
            OperatorError::Sim(e) => Some(e),
            OperatorError::NoInputs | OperatorError::Unrecovered(_) => None,
        }
    }
}

impl From<CompileError> for OperatorError {
    fn from(e: CompileError) -> Self {
        OperatorError::Compile(e)
    }
}

impl From<hipacc_sim::SimError> for OperatorError {
    fn from(e: hipacc_sim::SimError) -> Self {
        OperatorError::Sim(e)
    }
}

/// The result of executing an operator on a target.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The output image.
    pub output: Image<f32>,
    /// Dynamic simulator statistics.
    pub stats: ExecStats,
    /// Modelled execution time.
    pub time: TimeBreakdown,
    /// The compiled artifact (generated sources, config, occupancy, …),
    /// shared with the kernel cache when one served or stored it.
    pub compiled: Arc<CompiledKernel>,
}

impl Execution {
    /// Whether the paper would report this run as a crash: *Undefined*
    /// boundary handling actually read out of bounds.
    pub fn would_crash(&self) -> bool {
        self.stats.oob_reads > 0
    }
}

/// One memoized [`Operator::estimate`]: the structural key of the inputs
/// the artifact does not fix (target, params, `launches`, naive-count
/// flag) and the modelled time.
struct EstimateMemo {
    key: Vec<u8>,
    time: TimeBreakdown,
}

/// A DSL kernel plus its instance metadata.
#[derive(Clone, Debug)]
pub struct Operator {
    /// The kernel definition.
    pub def: KernelDef,
    /// Per-accessor boundary conditions.
    pub boundaries: HashMap<String, BoundarySpec>,
    /// Scalar parameter values (compile-time bound *and* passed at
    /// launch). Behind an `Arc` so every per-frame [`launch_spec`] shares
    /// one allocation instead of deep-cloning the map; the builder
    /// methods copy-on-write via [`std::sync::Arc::make_mut`].
    pub params: std::sync::Arc<HashMap<String, Const>>,
    /// Coefficients for dynamically initialized masks. Shared like
    /// [`Self::params`] — a 13×13 bilateral mask is uploaded by
    /// reference, never cloned per launch.
    pub mask_uploads: std::sync::Arc<HashMap<String, Vec<f32>>>,
    /// Pipeline options.
    pub options: PipelineOptions,
}

impl Operator {
    /// Wrap a kernel definition.
    pub fn new(def: KernelDef) -> Self {
        Self {
            def,
            boundaries: HashMap::new(),
            params: std::sync::Arc::new(HashMap::new()),
            mask_uploads: std::sync::Arc::new(HashMap::new()),
            options: PipelineOptions::default(),
        }
    }

    /// Attach a boundary condition to an accessor (the paper's
    /// `BoundaryCondition(IN, w, h, mode)` + `Accessor(BcIn)` pair).
    pub fn boundary(mut self, accessor: &str, mode: BoundaryMode, w: u32, h: u32) -> Self {
        self.boundaries
            .insert(accessor.to_string(), BoundarySpec::new(mode, w, h));
        self
    }

    /// Bind an integer parameter.
    pub fn param_int(mut self, name: &str, v: i64) -> Self {
        std::sync::Arc::make_mut(&mut self.params).insert(name.to_string(), Const::Int(v));
        self
    }

    /// Bind a float parameter.
    pub fn param_float(mut self, name: &str, v: f32) -> Self {
        std::sync::Arc::make_mut(&mut self.params).insert(name.to_string(), Const::Float(v));
        self
    }

    /// Upload coefficients for a dynamically initialized mask.
    pub fn upload_mask(mut self, name: &str, coeffs: Vec<f32>) -> Self {
        // Both the constant-memory name and the global fallback name are
        // registered; the compiled kernel uses whichever exists.
        let uploads = std::sync::Arc::make_mut(&mut self.mask_uploads);
        uploads.insert(format!("_const{name}"), coeffs.clone());
        uploads.insert(format!("_gmask{name}"), coeffs);
        self
    }

    /// Replace the pipeline options.
    pub fn with_options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Restrict the iteration space to a sub-rectangle of the output — the
    /// paper's `IterationSpace(OUT, roi)` form.
    pub fn with_roi(mut self, x: u32, y: u32, w: u32, h: u32) -> Self {
        self.options.roi = Some((x, y, w, h));
        self
    }

    /// Compute several adjacent pixels per work-item (the Section-VIII
    /// vectorization extension, relevant on AMD's VLIW parts).
    pub fn vectorized(mut self, width: u32) -> Self {
        self.options.vectorize = width;
        self
    }

    /// Build the compile specification for an image geometry.
    pub fn compile_spec(&self, target: &Target, width: u32, height: u32) -> CompileSpec {
        let mut spec = CompileSpec::new(target.device.clone(), target.backend, width, height);
        for (acc, b) in &self.boundaries {
            spec = spec.with_boundary(acc, *b);
        }
        for (name, v) in self.params.iter() {
            spec = spec.with_param(name, *v);
        }
        spec.variant = self.options.variant;
        spec.use_const_masks = self.options.const_masks;
        spec.constant_propagation = self.options.constant_propagation;
        spec.unroll_limit = self.options.unroll_limit;
        spec.force_config = self.options.force_config;
        spec.generic_boundary = self.options.generic_boundary;
        spec.opt_level = self.options.opt_level;
        if let Some((x, y, w, h)) = self.options.roi {
            spec = spec.with_roi(x, y, w, h);
        }
        if self.options.vectorize > 1 {
            spec = spec.with_vectorize(self.options.vectorize);
        }
        spec
    }

    /// Compile for a target and image geometry without executing.
    pub fn compile(
        &self,
        target: &Target,
        width: u32,
        height: u32,
    ) -> Result<CompiledKernel, OperatorError> {
        Ok(self.compile_fresh(&self.compile_spec(target, width, height), None)?)
    }

    /// Compile `spec` without the cache: the fused chain when this
    /// operator is one, else [`Self::def`], recording phase spans into
    /// `rec` when given.
    fn compile_fresh(
        &self,
        spec: &CompileSpec,
        rec: Option<&mut Recorder>,
    ) -> Result<CompiledKernel, CompileError> {
        match (&self.options.fused, rec) {
            (Some(chain), Some(r)) => Compiler::new().compile_fused_with_sink(chain, spec, r),
            (Some(chain), None) => Compiler::new().compile_fused(chain, spec),
            (None, Some(r)) => Compiler::new().compile_with_sink(&self.def, spec, r),
            (None, None) => Compiler::new().compile(&self.def, spec),
        }
    }

    /// Estimate the execution time of a compiled kernel on a target.
    ///
    /// The estimate is a pure function of the artifact and the inputs
    /// below, so it is memoized on the artifact
    /// ([`CompiledKernel::derived`]): launches that share a cached
    /// artifact run the timing model once per (target, params,
    /// `launches`, naive-count flag), and a repeat returns the stored
    /// result bit for bit.
    pub fn estimate(&self, compiled: &CompiledKernel, target: &Target) -> TimeBreakdown {
        let mut w = hipacc_ir::key::KeyWriter::new();
        w.put(&target.device)
            .u8(target.backend as u8)
            .put(&*self.params)
            .u32(self.options.launches)
            .bool(self.options.naive_codegen);
        let key = w.into_bytes();
        if let Some(time) = compiled
            .derived
            .find(|e: &EstimateMemo| (e.key == key).then_some(e.time))
        {
            return time;
        }
        let time = estimate_time(&timing_input_opts(
            compiled,
            target,
            &self.params,
            self.options.launches,
            self.options.naive_codegen,
        ));
        compiled.derived.insert(EstimateMemo { key, time });
        time
    }

    /// Compile `spec` through the configured
    /// [`KernelCache`](crate::KernelCache) when one is installed, otherwise
    /// compile fresh, recording phase spans into `rec` when given. With a
    /// `bypass` reason the cache is neither read nor written, only told
    /// (the supervisor's degraded rungs). Returns the artifact and, when a
    /// cache was installed, a report of what it did.
    pub(crate) fn compile_cached(
        &self,
        spec: &CompileSpec,
        rec: Option<&mut Recorder>,
        bypass: Option<&str>,
    ) -> Result<(Arc<CompiledKernel>, Option<CacheReport>), CompileError> {
        let Some(cache) = &self.options.cache else {
            return Ok((Arc::new(self.compile_fresh(spec, rec)?), None));
        };
        if let Some(reason) = bypass {
            cache.note_bypass();
            let report = cache.report(reason);
            return Ok((Arc::new(self.compile_fresh(spec, rec)?), Some(report)));
        }
        let key = crate::cache::KernelCache::fingerprint(&self.def, spec);
        if let Some(hit) = cache.lookup(&key) {
            return Ok((hit, Some(cache.report("hit"))));
        }
        let report = cache.report("miss");
        let compiled = Arc::new(self.compile_fresh(spec, rec)?);
        cache.insert(key, Arc::clone(&compiled));
        Ok((compiled, Some(report)))
    }

    /// Compile for the first input's geometry through
    /// [`Self::compile_cached`].
    fn compile_for(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        rec: Option<&mut Recorder>,
    ) -> Result<(Arc<CompiledKernel>, Option<CacheReport>), OperatorError> {
        let (_, first) = inputs.first().ok_or(OperatorError::NoInputs)?;
        let spec = self.compile_spec(target, first.width(), first.height());
        Ok(self.compile_cached(&spec, rec, None)?)
    }

    /// The simulator launch spec for `compiled` over `inputs`, carrying
    /// this operator's worker count and pool.
    pub(crate) fn sim_spec<'a>(
        &self,
        compiled: &CompiledKernel,
        inputs: &[(&str, &'a Image<f32>)],
    ) -> LaunchSpec<'a> {
        let mut spec = launch_spec(compiled, inputs, &self.params, &self.mask_uploads);
        spec.sim_threads = self.options.sim_threads;
        spec.pool = self.options.pool.clone();
        spec
    }

    /// Launch `compiled` over `inputs` in `mode` and estimate its time:
    /// the launch half that every execute path, supervised or not,
    /// shares.
    pub(crate) fn launch(
        &self,
        compiled: Arc<CompiledKernel>,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: hipacc_sim::Engine,
        mode: LaunchMode<'_>,
    ) -> Result<Launched, hipacc_sim::SimError> {
        let spec = self.sim_spec(&compiled, inputs);
        let start = now_us();
        let run = run_in_mode(&compiled.device_kernel, &spec, engine, mode)?;
        let end = now_us();
        let time = self.estimate(&compiled, target);
        Ok(Launched {
            execution: Execution {
                output: run.output,
                stats: run.stats,
                time,
                compiled,
            },
            exec: run.profile,
            faults: run.faults.unwrap_or_default(),
            corrupt_const_banks: run.corrupt_const_banks,
            wall_us: (start, end),
        })
    }

    /// Full pipeline: compile, execute on the simulated device, estimate
    /// the time. Runs on the engine selected by
    /// [`PipelineOptions::engine`] (falling back to `HIPACC_SIM_ENGINE`,
    /// then the default bytecode engine).
    pub fn execute(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
    ) -> Result<Execution, OperatorError> {
        self.execute_with(
            inputs,
            target,
            hipacc_sim::resolve_engine(self.options.engine)?,
        )
    }

    /// [`Self::execute`] on an explicitly chosen simulator engine
    /// (bytecode register machine, warp-vectorized simd, or the reference
    /// tree-walk).
    pub fn execute_with(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: hipacc_sim::Engine,
    ) -> Result<Execution, OperatorError> {
        let (compiled, _) = self.compile_for(inputs, target, None)?;
        let launched = self.launch(compiled, inputs, target, engine, LaunchMode::Plain)?;
        Ok(launched.execution)
    }

    /// [`Self::execute`] with full observability: compile phases and
    /// verifier passes are recorded as timed spans, the simulated launch
    /// is profiled per block, and everything is joined with the timing
    /// model and occupancy into a [`LaunchProfile`].
    ///
    /// Execution semantics — output image, statistics, modelled time —
    /// are identical to [`Self::execute`]; only the instrumentation
    /// differs.
    pub fn execute_profiled(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: hipacc_sim::Engine,
    ) -> Result<(Execution, LaunchProfile), OperatorError> {
        let mut rec = Recorder::new();
        let (compiled, cache) = self.compile_for(inputs, target, Some(&mut rec))?;
        let launched = self.launch(compiled, inputs, target, engine, LaunchMode::Profile)?;
        Ok(launched.into_profiled(self, target, engine, rec, cache, None))
    }
}

/// One launch of a compiled operator ([`Operator::launch`]): the
/// execution, what its launch mode recorded, and when it ran.
pub(crate) struct Launched {
    pub(crate) execution: Execution,
    /// Per-block profile (profiled and fault-injected launches).
    pub(crate) exec: Option<ExecProfile>,
    /// Fault-plane ledger (empty outside fault injection).
    pub(crate) faults: FaultedRun,
    /// Constant banks the post-launch scrub found corrupted.
    pub(crate) corrupt_const_banks: Vec<String>,
    /// Wall-clock start and end of the simulated launch, in µs on the
    /// shared profiling timeline.
    pub(crate) wall_us: (u64, u64),
}

impl Launched {
    /// Split a profiled launch into its execution and its
    /// [`LaunchProfile`]: the compile spans in `rec`, the override
    /// conflicts and the launch's measured wall time as spans, the
    /// per-region counters, and the model view. On a cache hit the
    /// compile phases never ran this launch, so the profile shows no
    /// compile time even though the cached artifact still carries its
    /// original `phase_times`.
    pub(crate) fn into_profiled(
        self,
        op: &Operator,
        target: &Target,
        engine: hipacc_sim::Engine,
        mut rec: Recorder,
        cache: Option<CacheReport>,
        fault_plan: Option<String>,
    ) -> (Execution, LaunchProfile) {
        let exec = self.exec.expect("a profiled launch records an ExecProfile");
        let compiled = &self.execution.compiled;
        let (start, end) = self.wall_us;
        // Explicit overrides always beat the environment; when both are
        // set and disagree, say so in the profile instead of letting a
        // stale shell variable silently lose.
        let conflicts: Vec<String> =
            hipacc_sim::override_conflicts(Some(engine), op.options.sim_threads)
                .into_iter()
                .map(|c| c.to_string())
                .collect();
        for c in &conflicts {
            rec.record(
                Span::new("override-conflict", "diagnostic", start, 0).arg("detail", c.clone()),
            );
        }
        rec.record(
            Span::new("execute", "launch", start, end.saturating_sub(start))
                .arg("engine", engine.label())
                .arg("workers", exec.n_workers.to_string())
                .arg("blocks", exec.blocks.len().to_string()),
        );
        let regions = LaunchProfile::attribute_regions(&exec, |bx, by| {
            compiled
                .region_grid
                .as_ref()
                .map(|g| g.region_of(bx, by))
                .unwrap_or(hipacc_codegen::Region::Interior)
        });
        let phase_times = if cache.as_ref().is_some_and(|c| c.is_hit()) {
            Vec::new()
        } else {
            compiled.phase_times.clone()
        };
        let profile = LaunchProfile {
            kernel: op.def.name.clone(),
            target: target.label(),
            engine: engine.label(),
            grid: compiled.grid,
            block: (compiled.config.bx, compiled.config.by),
            n_workers: exec.n_workers,
            regions,
            totals: self.execution.stats,
            blocks_per_worker: exec.blocks_per_worker(),
            time: self.execution.time,
            occupancy: compiled.occupancy,
            phase_times,
            spans: rec.into_spans(),
            fault_plan,
            cache,
            warp_occupancy: exec.simd.and_then(|t| t.mean_active_fraction()),
            override_conflicts: conflicts,
        };
        (self.execution, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_hwmodel::device::{radeon_hd_5870, tesla_c2050};
    use hipacc_image::phantom;
    use hipacc_image::reference;
    use hipacc_ir::{Expr, KernelBuilder, ScalarType};

    fn box3_kernel() -> KernelDef {
        let mut b = KernelBuilder::new("box3", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("yf", Expr::int(-1), Expr::int(1), |b, yf| {
            b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
                b.add_assign(&acc, b.read_at(&input, xf.get(), yf.get()));
            });
        });
        b.output(acc.get() / Expr::float(9.0));
        b.finish()
    }

    #[test]
    fn executed_box_filter_matches_cpu_reference() {
        let img = phantom::vessel_tree(48, 40, &phantom::VesselParams::default());
        let op = Operator::new(box3_kernel()).boundary("IN", BoundaryMode::Clamp, 3, 3);
        let target = Target::cuda(tesla_c2050());
        let result = op.execute(&[("IN", &img)], &target).unwrap();
        let expected = reference::convolve2d(
            &img,
            &reference::MaskCoeffs::box_filter(3, 3),
            BoundaryMode::Clamp,
        );
        assert!(
            result.output.max_abs_diff(&expected) < 1e-5,
            "diff {}",
            result.output.max_abs_diff(&expected)
        );
        assert!(!result.would_crash());
        assert!(result.time.total_ms > 0.0);
    }

    #[test]
    fn all_boundary_modes_match_reference_on_all_paths() {
        let img = phantom::gradient(40, 33);
        let mask = reference::MaskCoeffs::box_filter(3, 3);
        for mode in [
            BoundaryMode::Clamp,
            BoundaryMode::Repeat,
            BoundaryMode::Mirror,
            BoundaryMode::Constant(0.25),
        ] {
            for variant in [
                MemVariant::Global,
                MemVariant::Texture,
                MemVariant::Scratchpad,
            ] {
                let op = Operator::new(box3_kernel())
                    .boundary("IN", mode, 3, 3)
                    .with_options(PipelineOptions {
                        variant,
                        ..PipelineOptions::default()
                    });
                let target = Target::cuda(tesla_c2050());
                let result = op.execute(&[("IN", &img)], &target).unwrap();
                let expected = reference::convolve2d(&img, &mask, mode);
                assert!(
                    result.output.max_abs_diff(&expected) < 1e-4,
                    "{mode:?}/{variant:?}: diff {}",
                    result.output.max_abs_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn undefined_mode_reports_potential_crash() {
        let img = phantom::gradient(32, 32);
        let op = Operator::new(box3_kernel()); // no boundary spec
        let target = Target::cuda(tesla_c2050());
        let result = op.execute(&[("IN", &img)], &target).unwrap();
        assert!(result.would_crash(), "border reads must go out of bounds");
    }

    #[test]
    fn opencl_on_amd_works_and_respects_block_cap() {
        let img = phantom::gradient(64, 64);
        let op = Operator::new(box3_kernel()).boundary("IN", BoundaryMode::Mirror, 3, 3);
        let target = Target::opencl(radeon_hd_5870());
        let result = op.execute(&[("IN", &img)], &target).unwrap();
        assert!(result.compiled.config.threads() <= 256);
        let expected = reference::convolve2d(
            &img,
            &reference::MaskCoeffs::box_filter(3, 3),
            BoundaryMode::Mirror,
        );
        assert!(result.output.max_abs_diff(&expected) < 1e-4);
    }

    #[test]
    fn forced_config_reaches_launch() {
        let img = phantom::gradient(64, 64);
        let op = Operator::new(box3_kernel())
            .boundary("IN", BoundaryMode::Clamp, 3, 3)
            .with_options(PipelineOptions {
                force_config: Some((64, 2)),
                ..PipelineOptions::default()
            });
        let result = op
            .execute(&[("IN", &img)], &Target::cuda(tesla_c2050()))
            .unwrap();
        assert_eq!(
            (result.compiled.config.bx, result.compiled.config.by),
            (64, 2)
        );
    }

    #[test]
    fn dynamic_mask_upload_is_used() {
        // Convolve with an uploaded 1x3 mask [0, 1, 0] — identity.
        let mut b = KernelBuilder::new("dynconv", ScalarType::F32);
        let input = b.accessor("IN", ScalarType::F32);
        let m = b.mask_dynamic("M", 3, 1);
        let acc = b.let_("acc", ScalarType::F32, Expr::float(0.0));
        b.for_inclusive("xf", Expr::int(-1), Expr::int(1), |b, xf| {
            b.add_assign(
                &acc,
                b.mask_at(&m, xf.get(), Expr::int(0)) * b.read_at(&input, xf.get(), Expr::int(0)),
            );
        });
        b.output(acc.get());
        let img = phantom::gradient(32, 8);
        let op = Operator::new(b.finish())
            .boundary("IN", BoundaryMode::Clamp, 3, 1)
            .upload_mask("M", vec![0.0, 1.0, 0.0]);
        let result = op
            .execute(&[("IN", &img)], &Target::cuda(tesla_c2050()))
            .unwrap();
        assert!(result.output.max_abs_diff(&img) < 1e-6);
    }

    #[test]
    fn no_inputs_is_an_error() {
        let op = Operator::new(box3_kernel());
        assert!(matches!(
            op.execute(&[], &Target::cuda(tesla_c2050())).unwrap_err(),
            OperatorError::NoInputs
        ));
    }
}
