//! Launch wiring: images in, images out.
//!
//! This module is the simulator-side half of the generated host code: it
//! allocates device buffers from host images, binds textures with their
//! address modes, uploads dynamic mask coefficients, fills the standard
//! geometry scalars (`width`, `height`, `stride`, `is_width`,
//! `is_height`), runs one of the execution engines and downloads the
//! output.
//!
//! That sequence has one implementation, [`run_in_mode`]. Its
//! [`LaunchMode`] selects what the launch records besides the output:
//! nothing ([`run_on_image_with`] and [`run_on_image`]), a per-block
//! profile, the dynamic observer's report, a fault injector's ledger, or
//! the uncommitted stores of a selective block repair.
//!
//! Launches go through the [`Engine::Bytecode`] register machine by
//! default (compile once, run blocks on a flat tape — see
//! [`crate::bytecode`]); [`Engine::TreeWalk`] keeps the original
//! tree-walking interpreter available as the reference implementation.
//! Both produce bit-identical outputs and statistics.
//!
//! The tape is memoized across launches. A bytecode [`Program`] depends
//! only on the kernel, the grid and block, the folded scalars, the bound
//! buffers' geometry and address modes, and the constant-bank contents;
//! the memo keys on exactly those, encoded structurally
//! ([`hipacc_ir::key`]), and a hit needs the whole key to match, not just
//! its hash. The worker count and pool are bound per launch, outside
//! the program, so a steady stream of equal-geometry frames
//! builds its tape once. A frame-size change, an ROI that rebinds the
//! `is_*` scalars, or a new mask upload changes the key and builds a new
//! tape. A launch whose fault hook is enabled never uses the memo: its
//! hook may corrupt constant banks before the tape captures them.

use crate::bytecode::{CompiledKernel, Program};
use crate::inject::{FaultedRun, RepairStore};
use crate::interp::{ExecStats, SimError};
use crate::memory::{BufferGeometry, DeviceBuffer, DeviceMemory, LaunchParams};
use crate::observer::ObserverReport;
use crate::sched::{ExecProfile, LaunchMode};
use hipacc_image::Image;
use hipacc_ir::kernel::{AddressMode, BufferAccess, DeviceKernelDef};
use hipacc_ir::key::{KeyWriter, LruMap};
use hipacc_ir::ty::Const;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Everything a launch needs besides the kernel itself.
///
/// The mask coefficients and filter parameters are behind [`Arc`]s so
/// repeated launches of one compiled kernel (the streaming steady state)
/// share them instead of deep-cloning a 13×13 mask per frame; cloning a
/// `LaunchSpec` is O(inputs), not O(mask bytes).
#[derive(Clone, Debug, Default)]
pub struct LaunchSpec<'a> {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads.
    pub block: (u32, u32),
    /// Input images by accessor/buffer name.
    pub inputs: HashMap<String, &'a Image<f32>>,
    /// Coefficients for dynamically initialized masks (constant buffers
    /// with no static data, and `_gmask*` global fallbacks). Shared:
    /// launches never mutate the coefficients.
    pub mask_data: Arc<HashMap<String, Vec<f32>>>,
    /// Filter parameters shared across launches of one operator. At
    /// launch, [`Self::scalars`] entries win over same-named parameters.
    pub params: Arc<HashMap<String, Const>>,
    /// Per-launch scalar arguments and overrides (geometry scalars, ROI
    /// offsets). Highest precedence: a name set here shadows the same
    /// name in [`Self::params`] and the derived geometry defaults.
    pub scalars: HashMap<String, Const>,
    /// Explicit host worker-thread count for the parallel block loop
    /// (`None` = `HIPACC_SIM_THREADS`, then the pool width, then
    /// available parallelism). When both this field and the environment
    /// variable are set, this field wins — see [`override_conflicts`].
    pub sim_threads: Option<usize>,
    /// Explicit engine override (`None` = `HIPACC_SIM_ENGINE`, then
    /// [`Engine::default`]). Only consulted by [`run_on_image`];
    /// [`run_on_image_with`] and [`run_in_mode`] take the engine as an
    /// argument. When both this field and the environment variable are
    /// set, this field wins — see [`override_conflicts`].
    pub engine: Option<Engine>,
    /// Shared worker pool executing the block loop (`None` = per-launch
    /// scoped threads, the historical behaviour).
    pub pool: Option<Arc<crate::pool::WorkerPool>>,
}

/// Result of a simulated launch: the output and statistics, plus the
/// records its [`LaunchMode`] asked for.
#[derive(Clone, Debug)]
pub struct LaunchResult {
    /// The output image (downloaded `OUT` buffer, faults included; left
    /// unwritten in [`LaunchMode::Repair`]).
    pub output: Image<f32>,
    /// Dynamic execution statistics.
    pub stats: ExecStats,
    /// Per-block profile ([`LaunchMode::Profile`], [`LaunchMode::Fault`]).
    pub profile: Option<ExecProfile>,
    /// The observer's report ([`LaunchMode::Observe`]).
    pub observed: Option<ObserverReport>,
    /// Per-block checksum ledger and virtual launch time
    /// ([`LaunchMode::Fault`]; empty when the hook is disabled).
    pub faults: Option<FaultedRun>,
    /// Uncommitted stores of the re-executed blocks
    /// ([`LaunchMode::Repair`]).
    pub repaired: Vec<RepairStore>,
    /// Constant banks whose contents no longer match what was uploaded —
    /// the result of the post-launch constant-memory scrub under an
    /// enabled fault hook. Non-empty means every output of this launch is
    /// suspect.
    pub corrupt_const_banks: Vec<String>,
}

/// Which execution engine runs the kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Compile to a register-machine tape once, then run blocks on it
    /// (see [`crate::bytecode`]). The default.
    #[default]
    Bytecode,
    /// Walk the IR tree directly per thread (see [`crate::interp`]).
    /// Reference semantics; slower.
    TreeWalk,
    /// The bytecode tape executed warp-vectorized over SoA register
    /// lanes (see [`crate::simd`]). Bit- and stat-identical to the other
    /// engines; fastest on convergent stencil kernels.
    Simd,
}

impl Engine {
    /// Stable lowercase name, also accepted by [`parse_engine_env`].
    pub fn label(self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::TreeWalk => "tree-walk",
            Engine::Simd => "simd",
        }
    }

    /// The [`crate::bytecode::ExecMode`] implementing this engine on the
    /// compiled-tape runner (`None` for the tree-walk interpreter, which
    /// has no tape).
    pub fn exec_mode(self) -> Option<crate::bytecode::ExecMode> {
        match self {
            Engine::Bytecode => Some(crate::bytecode::ExecMode::Scalar),
            Engine::Simd => Some(crate::bytecode::ExecMode::Simd),
            Engine::TreeWalk => None,
        }
    }
}

/// Environment variable selecting the execution engine (lowest
/// precedence, below [`LaunchSpec::engine`] and an explicit engine
/// argument).
pub const ENGINE_ENV: &str = "HIPACC_SIM_ENGINE";

/// Parse a `HIPACC_SIM_ENGINE` value: `bytecode`, `tree-walk` or `simd`.
///
/// Unknown names are rejected with a description — a typo'd override
/// must fail the launch, not silently run a different engine than the
/// benchmark believes it is measuring.
pub fn parse_engine_env(raw: &str) -> Result<Engine, String> {
    match raw.trim() {
        "bytecode" => Ok(Engine::Bytecode),
        "tree-walk" => Ok(Engine::TreeWalk),
        "simd" => Ok(Engine::Simd),
        other => Err(format!(
            "{ENGINE_ENV} must be one of `bytecode`, `tree-walk`, `simd`, got `{other}`"
        )),
    }
}

/// Resolve the effective engine: the explicit override wins, then
/// `HIPACC_SIM_ENGINE`, then [`Engine::default`]. An invalid environment
/// value is a launch error, not a silent fallback.
pub fn resolve_engine(explicit: Option<Engine>) -> Result<Engine, SimError> {
    if let Some(e) = explicit {
        return Ok(e);
    }
    match std::env::var(ENGINE_ENV) {
        Ok(raw) => parse_engine_env(&raw).map_err(SimError::InvalidLaunch),
        Err(_) => Ok(Engine::default()),
    }
}

/// One launch override where an explicit setting and the environment
/// disagree. The explicit setting always wins (see [`override_conflicts`]);
/// the conflict is reported so a benchmark run with a stale
/// `HIPACC_SIM_*` variable in the shell cannot silently believe the
/// environment took effect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverrideConflict {
    /// The environment variable that lost ([`ENGINE_ENV`] or
    /// [`crate::sched::THREADS_ENV`]).
    pub env_var: &'static str,
    /// The raw environment value that was ignored.
    pub env_value: String,
    /// The explicit spec value that won, rendered for display.
    pub explicit: String,
}

impl std::fmt::Display for OverrideConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "explicit {} overrides conflicting {}={}",
            self.explicit, self.env_var, self.env_value
        )
    }
}

/// Detect explicit-vs-environment override conflicts for one launch.
///
/// Precedence is always **explicit spec > environment > default**:
/// [`LaunchSpec::engine`] (or an explicit engine argument) beats
/// `HIPACC_SIM_ENGINE`, and [`LaunchSpec::sim_threads`] beats
/// `HIPACC_SIM_THREADS`. This function reports every knob where the two
/// levels are simultaneously set *and disagree* — including an
/// unparsable environment value shadowed by an explicit setting, which
/// would have failed the launch on its own. Agreeing values are not a
/// conflict.
pub fn override_conflicts(
    engine: Option<Engine>,
    sim_threads: Option<usize>,
) -> Vec<OverrideConflict> {
    let mut conflicts = Vec::new();
    if let (Some(explicit), Ok(raw)) = (engine, std::env::var(ENGINE_ENV)) {
        let agree = parse_engine_env(&raw)
            .map(|e| e == explicit)
            .unwrap_or(false);
        if !agree {
            conflicts.push(OverrideConflict {
                env_var: ENGINE_ENV,
                env_value: raw,
                explicit: format!("engine={}", explicit.label()),
            });
        }
    }
    if let (Some(explicit), Ok(raw)) = (sim_threads, std::env::var(crate::sched::THREADS_ENV)) {
        let agree = crate::sched::parse_thread_env(&raw)
            .map(|n| n == explicit)
            .unwrap_or(false);
        if !agree {
            conflicts.push(OverrideConflict {
                env_var: crate::sched::THREADS_ENV,
                env_value: raw,
                explicit: format!("sim_threads={explicit}"),
            });
        }
    }
    conflicts
}

/// Run a device kernel over host images with the resolved engine:
/// [`LaunchSpec::engine`] if set, else `HIPACC_SIM_ENGINE`, else
/// [`Engine::Bytecode`].
///
/// The first bound input in the kernel's buffer declaration order defines
/// the output geometry. Buffers named in the kernel but missing from
/// `inputs`/`mask_data` produce [`SimError::UnboundBuffer`].
pub fn run_on_image(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
) -> Result<LaunchResult, SimError> {
    run_on_image_with(kernel, spec, resolve_engine(spec.engine)?)
}

/// Run a device kernel over host images on an explicitly chosen engine:
/// [`run_in_mode`] with [`LaunchMode::Plain`].
pub fn run_on_image_with(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
    engine: Engine,
) -> Result<LaunchResult, SimError> {
    run_in_mode(kernel, spec, engine, LaunchMode::Plain)
}

/// Run a device kernel over host images on `engine` in `mode`: the one
/// launch sequence (bind, upload, launch, download) behind every other
/// entry point.
///
/// A [`LaunchMode::Fault`] launch whose hook is enabled differs in three
/// ways, in this order: the hook corrupts the bound memory first; the
/// bytecode tape is then compiled fresh from that memory, never taken
/// from or added to the memo (it captures the corrupted constant banks);
/// and after the launch the uploaded constant banks are scrubbed against
/// the spec's coefficients, the simulator-side equivalent of a
/// parameter-bank CRC. A disabled hook takes the memoized, profiled path,
/// byte-for-byte and cost-for-cost identical to [`LaunchMode::Profile`].
pub fn run_in_mode(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
    engine: Engine,
    mode: LaunchMode<'_>,
) -> Result<LaunchResult, SimError> {
    let (mut mem, params) = prepare(kernel, spec)?;
    let hook = mode.hook();
    if let Some(h) = hook {
        h.corrupt_memory(&mut mem);
    }
    let out = match engine.exec_mode() {
        Some(exec) => {
            let tape = match hook {
                Some(_) => crate::bytecode::compile(kernel, &params, &mem)?,
                None => memoized_tape(kernel, &params, &mem)?,
            };
            tape.run(&mut mem, exec, mode)?
        }
        None => crate::interp::execute(kernel, &params, &mut mem, mode)?,
    };
    Ok(LaunchResult {
        output: download_output(&mem)?,
        stats: out.stats,
        profile: out.profile,
        observed: out.observed,
        faults: out.faults,
        repaired: out.repaired,
        corrupt_const_banks: match hook {
            Some(_) => scrub_const_banks(&mem, spec),
            None => Vec::new(),
        },
    })
}

/// Compare the uploaded constant banks (dynamic constant buffers and
/// their `_gmask*` global fallbacks) against the coefficients the spec
/// uploaded. Returns the names of banks that differ bit-for-bit.
fn scrub_const_banks(mem: &DeviceMemory, spec: &LaunchSpec<'_>) -> Vec<String> {
    let mut corrupt: Vec<String> = Vec::new();
    for (name, coeffs) in spec.mask_data.iter() {
        let dirty = if let Some(bank) = mem.dynamic_const.get(name) {
            bank.iter()
                .map(|v| v.to_bits())
                .ne(coeffs.iter().map(|v| v.to_bits()))
        } else if let Some(buf) = mem.buffer(name) {
            buf.data
                .iter()
                .map(|v| v.to_bits())
                .ne(coeffs.iter().map(|v| v.to_bits()))
        } else {
            false
        };
        if dirty {
            corrupt.push(name.clone());
        }
    }
    corrupt.sort();
    corrupt
}

/// Programs the tape memo retains (least recently used beyond this).
const TAPE_MEMO_CAPACITY: usize = 64;

/// Programs by the structural key of everything they bake in.
type TapeMemo = LruMap<Box<[u8]>, Arc<Program>>;

/// The cross-launch tape memo (see the module docs).
static TAPE_MEMO: OnceLock<Mutex<TapeMemo>> = OnceLock::new();

fn tape_memo() -> MutexGuard<'static, TapeMemo> {
    // Every critical section is one map operation, so a panic elsewhere
    // leaves the memo usable; the worst case is a stale stamp, which only
    // changes which entry is evicted next.
    TAPE_MEMO
        .get_or_init(|| Mutex::new(LruMap::new(TAPE_MEMO_CAPACITY)))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Everything a bytecode [`Program`] depends on, encoded structurally.
fn tape_key(kernel: &DeviceKernelDef, params: &LaunchParams, mem: &DeviceMemory) -> Box<[u8]> {
    let mut w = KeyWriter::new();
    w.put(&params.grid)
        .put(&params.block)
        .put(&params.scalars)
        .put(kernel);
    for buf in &kernel.buffers {
        match mem.buffer(&buf.name) {
            Some(b) => w
                .u8(1)
                .u32(b.geom.width)
                .u32(b.geom.height)
                .u32(b.geom.stride),
            None => w.u8(0),
        };
        w.put(
            &mem.tex_modes
                .get(&buf.name)
                .copied()
                .unwrap_or(AddressMode::None),
        );
    }
    for cb in kernel.const_buffers.iter().filter(|cb| cb.data.is_none()) {
        match mem.dynamic_const.get(&cb.name) {
            Some(bank) => w.u8(1).put(bank.as_slice()),
            None => w.u8(0),
        };
    }
    w.into_bytes().into_boxed_slice()
}

/// The bytecode tape for this launch: the memoized program when an equal
/// launch built one, else a fresh compile that is then memoized; bound to
/// this launch's worker count and pool either way.
fn memoized_tape(
    kernel: &DeviceKernelDef,
    params: &LaunchParams,
    mem: &DeviceMemory,
) -> Result<CompiledKernel, SimError> {
    let key = tape_key(kernel, params, mem);
    let hit = tape_memo().get(&key).cloned();
    let program = match hit {
        Some(program) => program,
        None => {
            // Built outside the lock: a concurrent launch of another
            // kernel must not wait for this compile.
            let program = Arc::new(crate::bytecode::compile_program(kernel, params, mem)?);
            tape_memo().insert(key, Arc::clone(&program));
            program
        }
    };
    Ok(CompiledKernel::bind(program, params))
}

/// The bytecode program a launch of `kernel` under `spec` runs, taken
/// from (or added to) the cross-launch tape memo. Two launches share a
/// program — [`Arc::ptr_eq`] — exactly when the memo served the second
/// from the first.
pub fn memoized_program(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
) -> Result<Arc<Program>, SimError> {
    let (mem, params) = prepare(kernel, spec)?;
    Ok(Arc::clone(memoized_tape(kernel, &params, &mem)?.program()))
}

fn download_output(mem: &DeviceMemory) -> Result<Image<f32>, SimError> {
    Ok(mem
        .buffer("OUT")
        .ok_or_else(|| SimError::UnboundBuffer("OUT".into()))?
        .to_image())
}

/// Reject launch geometries that would otherwise dispatch nothing or
/// panic mid-launch: zero-sized grids or blocks and empty iteration
/// spaces fail here, before any buffer is bound.
fn validate_spec(spec: &LaunchSpec<'_>) -> Result<(), SimError> {
    if spec.grid.0 == 0 || spec.grid.1 == 0 {
        return Err(SimError::InvalidLaunch(format!(
            "grid {}x{} has a zero dimension",
            spec.grid.0, spec.grid.1
        )));
    }
    if spec.block.0 == 0 || spec.block.1 == 0 {
        return Err(SimError::InvalidLaunch(format!(
            "block {}x{} has a zero dimension",
            spec.block.0, spec.block.1
        )));
    }
    for name in ["is_width", "is_height"] {
        if let Some(Const::Int(v)) = spec.scalars.get(name) {
            if *v <= 0 {
                return Err(SimError::InvalidLaunch(format!(
                    "iteration space is empty ({name} = {v})"
                )));
            }
        }
    }
    Ok(())
}

/// Bind buffers, masks and geometry scalars for a launch.
fn prepare(
    kernel: &DeviceKernelDef,
    spec: &LaunchSpec<'_>,
) -> Result<(DeviceMemory, LaunchParams), SimError> {
    validate_spec(spec)?;
    // The first bound input in the kernel's buffer declaration order
    // defines the launch geometry; inputs the kernel does not declare
    // only count when none is declared, then by name. Either way the
    // choice never follows `HashMap` iteration order.
    let reference = kernel
        .buffers
        .iter()
        .find_map(|b| spec.inputs.get(&b.name))
        .or_else(|| {
            spec.inputs
                .iter()
                .min_by_key(|(name, _)| *name)
                .map(|(_, img)| img)
        })
        .ok_or_else(|| SimError::UnboundBuffer("no input images".into()))?;
    let geom = BufferGeometry {
        width: reference.width(),
        height: reference.height(),
        stride: reference.stride(),
    };

    let mut mem = DeviceMemory::new();
    for buf in &kernel.buffers {
        match buf.access {
            BufferAccess::ReadOnly => {
                if let Some(img) = spec.inputs.get(&buf.name) {
                    mem.bind_image(&buf.name, img);
                } else if let Some(coeffs) = spec.mask_data.get(&buf.name) {
                    // Global-memory mask fallback: a 1-row buffer.
                    let g = BufferGeometry {
                        width: coeffs.len() as u32,
                        height: 1,
                        stride: coeffs.len() as u32,
                    };
                    let mut b = DeviceBuffer::new(g);
                    b.data.copy_from_slice(coeffs);
                    mem.bind(&buf.name, b);
                } else {
                    return Err(SimError::UnboundBuffer(buf.name.clone()));
                }
            }
            BufferAccess::WriteOnly | BufferAccess::ReadWrite => {
                mem.bind(&buf.name, DeviceBuffer::new(geom));
            }
        }
        mem.tex_modes.insert(buf.name.clone(), buf.address_mode);
    }
    for cb in &kernel.const_buffers {
        if cb.data.is_none() {
            let coeffs = spec
                .mask_data
                .get(&cb.name)
                .ok_or_else(|| SimError::UnboundBuffer(cb.name.clone()))?;
            mem.dynamic_const.insert(cb.name.clone(), coeffs.clone());
        }
    }

    let mut params = LaunchParams::new(spec.grid, spec.block);
    // Per-launch overrides first, then the shared filter parameters:
    // `or_insert` makes earlier layers win, so precedence is
    // scalars > params > geometry defaults.
    params.scalars = spec.scalars.clone();
    for (name, v) in spec.params.iter() {
        params.scalars.entry(name.clone()).or_insert(*v);
    }
    params.sim_threads = spec.sim_threads;
    params.pool = spec.pool.clone();
    // Standard geometry scalars, unless explicitly overridden.
    let defaults = [
        ("width", geom.width as i64),
        ("height", geom.height as i64),
        ("stride", geom.stride as i64),
        ("is_width", geom.width as i64),
        ("is_height", geom.height as i64),
        ("is_offset_x", 0),
        ("is_offset_y", 0),
    ];
    for (name, v) in defaults {
        params
            .scalars
            .entry(name.to_string())
            .or_insert(Const::Int(v));
    }

    Ok((mem, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_ir::kernel::*;
    use hipacc_ir::{Builtin, Expr, ScalarType, Stmt};

    /// OUT(x, y) = IN(x, y) + 1 with the standard guard.
    fn add_one_kernel() -> DeviceKernelDef {
        DeviceKernelDef {
            name: "addone".into(),
            buffers: vec![
                BufferParam {
                    name: "IN".into(),
                    ty: ScalarType::F32,
                    access: BufferAccess::ReadOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                },
                BufferParam {
                    name: "OUT".into(),
                    ty: ScalarType::F32,
                    access: BufferAccess::WriteOnly,
                    space: MemorySpace::Global,
                    address_mode: AddressMode::None,
                },
            ],
            scalars: vec![
                ParamDecl {
                    name: "stride".into(),
                    ty: ScalarType::I32,
                },
                ParamDecl {
                    name: "is_width".into(),
                    ty: ScalarType::I32,
                },
                ParamDecl {
                    name: "is_height".into(),
                    ty: ScalarType::I32,
                },
            ],
            const_buffers: vec![],
            shared: vec![],
            body: vec![
                Stmt::Decl {
                    name: "gid_x".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxX) * Expr::Builtin(Builtin::BlockDimX)
                            + Expr::Builtin(Builtin::ThreadIdxX),
                    ),
                },
                Stmt::Decl {
                    name: "gid_y".into(),
                    ty: ScalarType::I32,
                    init: Some(
                        Expr::Builtin(Builtin::BlockIdxY) * Expr::Builtin(Builtin::BlockDimY)
                            + Expr::Builtin(Builtin::ThreadIdxY),
                    ),
                },
                Stmt::If {
                    cond: Expr::var("gid_x")
                        .ge(Expr::var("is_width"))
                        .or(Expr::var("gid_y").ge(Expr::var("is_height"))),
                    then: vec![Stmt::Return],
                    els: vec![],
                },
                Stmt::GlobalStore {
                    buf: "OUT".into(),
                    idx: Expr::var("gid_x") + Expr::var("gid_y") * Expr::var("stride"),
                    value: Expr::GlobalLoad {
                        buf: "IN".into(),
                        idx: Box::new(
                            Expr::var("gid_x") + Expr::var("gid_y") * Expr::var("stride"),
                        ),
                    } + Expr::float(1.0),
                },
            ],
        }
    }

    #[test]
    fn launch_binds_geometry_scalars_automatically() {
        let img = Image::from_fn(100, 37, |x, y| (x * y) as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let spec = LaunchSpec {
            grid: (100u32.div_ceil(32), 37),
            block: (32, 1),
            inputs,
            ..Default::default()
        };
        let res = run_on_image(&add_one_kernel(), &spec).unwrap();
        assert_eq!(res.output.width(), 100);
        for y in [0, 18, 36] {
            for x in [0, 57, 99] {
                assert_eq!(res.output.get(x, y), (x * y) as f32 + 1.0, "({x},{y})");
            }
        }
        assert_eq!(res.stats.oob_reads, 0);
        assert_eq!(res.stats.global_stores, 100 * 37);
    }

    #[test]
    fn the_first_declared_input_sets_the_launch_geometry() {
        // `B` is declared after `A` and is larger; the output must take
        // `A`'s geometry however the inputs map happens to iterate.
        let mut k = add_one_kernel();
        k.buffers[0].name = "A".into();
        let mut b = k.buffers[0].clone();
        b.name = "B".into();
        k.buffers.insert(1, b);
        k.body = Stmt::rewrite_exprs(k.body, &mut |e| match e {
            Expr::GlobalLoad { buf, idx } if buf == "IN" => Expr::GlobalLoad {
                buf: "A".into(),
                idx,
            },
            other => other,
        });
        let a = Image::from_fn(8, 6, |x, y| (x + 10 * y) as f32);
        let b = Image::from_fn(24, 20, |_, _| -1.0);
        for _ in 0..16 {
            // Each map gets a fresh random seed, so its iteration order
            // varies from one pass to the next.
            let inputs: HashMap<String, &Image<f32>> =
                [("B".to_string(), &b), ("A".to_string(), &a)]
                    .into_iter()
                    .collect();
            let spec = LaunchSpec {
                grid: (1, 6),
                block: (8, 1),
                inputs,
                ..Default::default()
            };
            for engine in [Engine::TreeWalk, Engine::Bytecode] {
                let res = run_on_image_with(&k, &spec, engine).unwrap();
                assert_eq!((res.output.width(), res.output.height()), (8, 6));
                assert_eq!(res.output.get(7, 5), 58.0);
            }
        }
    }

    #[test]
    fn engines_agree_through_the_launch_path() {
        let img = Image::from_fn(100, 37, |x, y| (x * y) as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let spec = LaunchSpec {
            grid: (100u32.div_ceil(32), 37),
            block: (32, 1),
            inputs,
            ..Default::default()
        };
        let k = add_one_kernel();
        let bc = run_on_image_with(&k, &spec, Engine::Bytecode).unwrap();
        let tw = run_on_image_with(&k, &spec, Engine::TreeWalk).unwrap();
        assert_eq!(bc.stats, tw.stats);
        assert_eq!(bc.output.max_abs_diff(&tw.output), 0.0);
    }

    #[test]
    fn observe_runs_on_the_tree_walk_engine_only() {
        let img = Image::from_fn(40, 9, |x, y| (x + y) as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let spec = LaunchSpec {
            grid: (40u32.div_ceil(16), 9),
            block: (16, 1),
            inputs,
            ..Default::default()
        };
        let k = add_one_kernel();
        let plain = run_on_image_with(&k, &spec, Engine::TreeWalk).unwrap();
        let seen = run_in_mode(&k, &spec, Engine::TreeWalk, LaunchMode::Observe).unwrap();
        assert_eq!(seen.stats, plain.stats);
        assert_eq!(seen.output.max_abs_diff(&plain.output), 0.0);
        assert!(seen.observed.expect("observer report").is_clean());
        for engine in [Engine::Bytecode, Engine::Simd] {
            assert!(matches!(
                run_in_mode(&k, &spec, engine, LaunchMode::Observe).unwrap_err(),
                SimError::InvalidLaunch(_)
            ));
        }
    }

    #[test]
    fn zero_sized_launches_are_rejected_before_dispatch() {
        let img = Image::from_fn(8, 8, |x, _| x as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        for (grid, block) in [
            ((0, 1), (32, 1)),
            ((1, 0), (32, 1)),
            ((1, 1), (0, 1)),
            ((1, 1), (32, 0)),
        ] {
            let spec = LaunchSpec {
                grid,
                block,
                inputs: inputs.clone(),
                ..Default::default()
            };
            assert!(
                matches!(
                    run_on_image(&add_one_kernel(), &spec).unwrap_err(),
                    SimError::InvalidLaunch(_)
                ),
                "grid {grid:?} block {block:?} must be rejected"
            );
        }
    }

    #[test]
    fn empty_iteration_space_is_rejected_before_dispatch() {
        let img = Image::from_fn(8, 8, |x, _| x as f32);
        let mut inputs = HashMap::new();
        inputs.insert("IN".to_string(), &img);
        let mut scalars = HashMap::new();
        scalars.insert("is_width".to_string(), Const::Int(0));
        let spec = LaunchSpec {
            grid: (1, 8),
            block: (8, 1),
            inputs,
            scalars,
            ..Default::default()
        };
        let err = run_on_image(&add_one_kernel(), &spec).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch(ref m) if m.contains("is_width")));
    }

    #[test]
    fn missing_input_reports_unbound() {
        let spec = LaunchSpec {
            grid: (1, 1),
            block: (32, 1),
            ..Default::default()
        };
        assert!(matches!(
            run_on_image(&add_one_kernel(), &spec).unwrap_err(),
            SimError::UnboundBuffer(_)
        ));
    }
}
