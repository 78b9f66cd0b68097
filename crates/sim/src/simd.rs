//! The warp-vectorized execution engine: one instruction, sixteen lanes.
//!
//! [`crate::bytecode`] already pays the specialization cost once per
//! launch, but its hot loop still steps one *thread* at a time: every
//! instruction is re-dispatched (one `match` arm) per thread per
//! execution. This module exploits the lane-parallel structure the DSL
//! guarantees — all threads of a block run the same tape — and executes
//! each instruction for all lanes of a 16-wide warp before advancing the
//! program counter:
//!
//! * **SoA register file** — instead of an array-of-`Const` per thread,
//!   the warp's registers live in three parallel slabs (`tag`/`f32`/`i64`,
//!   one 16-lane group per register slot). The per-instruction inner loop
//!   walks contiguous memory and is written so the compiler can
//!   autovectorize the tag-uniform arithmetic fast paths.
//! * **Divergence mask** — a warp starts *converged* (single shared `pc`,
//!   no per-lane bookkeeping). A conditional jump whose outcome differs
//!   across lanes materializes per-lane program counters; from then on the
//!   scheduler picks the minimum pc among live lanes, executes the lanes
//!   parked there, and re-converges as soon as all live lanes agree again.
//!   Min-pc scheduling preserves each lane's dynamic instruction trace
//!   exactly as the serial engine would have produced it, which is what
//!   makes stat-exactness possible at all.
//! * **Per-lane stat counting** — `ExecStats` counters are *per access*,
//!   so a masked-off lane must contribute nothing and an active lane must
//!   contribute exactly one count per load/store/fetch, including the
//!   out-of-bounds side counts. Every memory arm below mirrors the scalar
//!   `exec_tape` arm line for line.
//! * **Journaled stores** — the fault injector addresses global stores by
//!   their position in the block's journal ("flip the nth store"), and
//!   journal order on the scalar engine is thread-major. Lanes therefore
//!   buffer their global (and shared) stores privately and the warp drains
//!   them lane-major at the end of each phase, reproducing the serial
//!   order bit for bit. Shared-memory deferral is only correct when no
//!   phase both reads and writes the same tile, which `plan_supported`
//!   checks up front (the tiling codegen always separates the fill phase
//!   from the read phase with a barrier).
//! * **Scalar fallback** — anything the vector path cannot reproduce
//!   exactly (evaluation errors, overflow, malformed tapes) abandons the
//!   block: the partial journal is rolled back and the caller re-runs the
//!   whole block on the scalar engine, which owns both the result and the
//!   error message. Because both engines execute identical per-lane
//!   traces, a block that errors on one engine errors on the other.
//!
//! The engine is opt-in (`ExecMode::Simd`) and is differentially tested
//! against the tree-walk and scalar bytecode engines for bit-identical
//! outputs, `ExecStats`, and fault-injection behaviour.

use crate::bytecode::{exec_prologue, BlockScratch, BufView, Inst, Program, Reg, StoreRec};
use crate::interp::{ExecStats, SimError};
use crate::sched::SimdTelemetry;
use hipacc_image::boundary::{clamp_index, repeat_index};
use hipacc_ir::fold::{eval_binop, eval_unop};
use hipacc_ir::kernel::AddressMode;
use hipacc_ir::ty::{Const, ScalarType};
use hipacc_ir::{BinOp, MathFn};
use std::ops::Range;

/// Lanes per warp. 16 keeps every slab group inside one or two cache
/// lines (16×4 B floats, 16×8 B ints) and matches the half-warp
/// granularity of the paper's target devices.
pub const WARP: usize = 16;

/// Mask with all `WARP` lanes active.
const FULL: u32 = (1u32 << WARP) - 1;

/// Dynamic type tags for the SoA register file. Booleans live in the
/// integer slab as 0/1.
const TB: u8 = 0;
const TI: u8 = 1;
const TF: u8 = 2;

/// A deferred shared-memory write: `(tile, element index, value)`.
type SharedWrite = (u16, usize, f32);

/// Reusable SoA state for the simd engine, owned by the worker's
/// [`BlockScratch`] and created lazily on the first vectorized block.
///
/// Register slabs are sized to one 16-lane group per register slot; a
/// multi-phase kernel gets one group region per warp (registers must
/// survive barriers), a single-phase kernel reuses a single region for
/// every warp. Like the scalar engine's register file, single-phase
/// slabs are *not* cleared between blocks: the compiler only emits reads
/// dominated by writes, so stale lanes are never observed.
#[derive(Default)]
pub(crate) struct SimdScratch {
    tag: Vec<u8>,
    fv: Vec<f32>,
    iv: Vec<i64>,
    /// Per-lane program counters, materialized only while diverged.
    pcs: [u32; WARP],
    /// Per-lane global-store journals, drained lane-major per phase.
    lane_stores: Vec<Vec<StoreRec>>,
    /// Per-lane shared-store journals, drained lane-major per phase.
    lane_shared: Vec<Vec<SharedWrite>>,
    /// Threads that hit `Halt` in an earlier phase of this block.
    halted: Vec<bool>,
}

impl SimdScratch {
    fn ensure(&mut self, slab: usize, nthreads: usize) {
        if self.tag.len() != slab {
            self.tag.clear();
            self.tag.resize(slab, TI);
            self.fv.clear();
            self.fv.resize(slab, 0.0);
            self.iv.clear();
            self.iv.resize(slab, 0);
        }
        if self.lane_stores.len() != WARP {
            self.lane_stores.resize_with(WARP, Vec::new);
            self.lane_shared.resize_with(WARP, Vec::new);
        }
        self.halted.clear();
        self.halted.resize(nthreads, false);
    }
}

/// Whether the whole launch can attempt the vector path.
///
/// The only structural limit is shared memory: deferring a lane's tile
/// writes to the end of the phase is invisible exactly when no phase both
/// loads and stores the *same* tile. Arrays a phase only stores commit in
/// lane order per warp, reproducing the scalar engine's thread-major
/// final state; arrays a phase only loads are immutable for the whole
/// phase. The check is therefore per shared array, not per phase: fused
/// chains whose middle stages read the previous stage's tile while
/// filling their own stay on the vector path. Single-stage tiling emits
/// a store-only fill phase, a barrier, then load-only compute phases, so
/// shipped kernels pass either way; a hand-built tape that loads and
/// stores one tile in the same phase falls back to the scalar engine for
/// every block.
pub(crate) fn plan_supported(prog: &Program) -> bool {
    prog.phases.iter().all(|tape| {
        let n = prog.shared.len();
        let mut loaded = vec![false; n];
        let mut stored = vec![false; n];
        for inst in tape.iter() {
            match inst {
                Inst::SLoad { sb, .. } => loaded[*sb as usize] = true,
                Inst::SStore { sb, .. } => stored[*sb as usize] = true,
                _ => {}
            }
        }
        (0..n).all(|i| !(loaded[i] && stored[i]))
    })
}

/// Execute one block on the vector engine.
///
/// On success the block's stores occupy `journal[start..]` in exactly the
/// order the scalar engine would have produced and the returned stats are
/// bit-identical; telemetry is merged into `tel` only then. On *any*
/// error the journal is rolled back to `start` and the caller must re-run
/// the block on the scalar engine (which reproduces the exact error).
pub(crate) fn run_block_simd(
    prog: &Program,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
    tel: &mut SimdTelemetry,
) -> Result<(Range<usize>, ExecStats), SimError> {
    let start = journal.len();
    match run_block_inner(prog, bufs, bx, by, scratch, journal) {
        Ok((stats, warp_tel)) => {
            tel.merge(&warp_tel);
            Ok((start..journal.len(), stats))
        }
        Err(e) => {
            journal.truncate(start);
            if let Some(simd) = scratch.simd.as_mut() {
                for v in &mut simd.lane_stores {
                    v.clear();
                }
                for v in &mut simd.lane_shared {
                    v.clear();
                }
            }
            Err(e)
        }
    }
}

fn run_block_inner(
    prog: &Program,
    bufs: &[BufView<'_>],
    bx: u32,
    by: u32,
    scratch: &mut BlockScratch,
    journal: &mut Vec<StoreRec>,
) -> Result<(ExecStats, SimdTelemetry), SimError> {
    scratch.reset_tiles(prog);
    exec_prologue(prog, bufs, bx, by, scratch)?;

    let (tbx, tby) = prog.block;
    let nthreads = tbx as usize * tby as usize;
    let n_regs = prog.n_regs.max(1);
    let n_phases = prog.phases.len();
    let n_warps = nthreads.div_ceil(WARP);
    let span = n_regs * WARP;
    let slots = if n_phases > 1 { n_warps } else { 1 };

    let simd = scratch.simd.get_or_insert_with(SimdScratch::default);
    simd.ensure(slots * span, nthreads);
    if n_phases > 1 {
        // Registers must survive barriers per thread, so multi-phase
        // slabs are zeroed per block exactly like the scalar engine's
        // `Const::Int(0)` fill (the float slab can stay stale: a `TI`
        // tag never reads it).
        simd.tag.fill(TI);
        simd.iv.fill(0);
    }

    let fast = prog.block_is_interior(bx, by);
    let mut stats = ExecStats::default();
    let mut tel = SimdTelemetry {
        warp_width: WARP as u32,
        ..SimdTelemetry::default()
    };

    let SimdScratch {
        tag,
        fv,
        iv,
        pcs,
        lane_stores,
        lane_shared,
        halted,
    } = simd;

    for (pi, tape) in prog.phases.iter().enumerate() {
        for w in 0..n_warps {
            let base = w * WARP;
            let mut live: u32 = 0;
            for l in 0..WARP {
                let t = base + l;
                if t < nthreads && !halted[t] {
                    live |= 1 << l;
                }
            }
            if live == 0 {
                continue;
            }
            let sb = if n_phases > 1 { w * span } else { 0 };
            let mut ex = WarpExec {
                prog,
                bufs,
                uregs: &scratch.uregs,
                shared: &mut scratch.shared,
                lanes: Lanes {
                    tag: &mut tag[sb..sb + span],
                    fv: &mut fv[sb..sb + span],
                    iv: &mut iv[sb..sb + span],
                },
                lane_stores,
                lane_shared,
                base: base as i64,
                tbx: tbx as i64,
                bx: bx as i64,
                by: by as i64,
                fast,
                stats: &mut stats,
                tel: &mut tel,
            };
            let halted_mask = ex.run_phase(tape, live, pcs)?;

            // Drain this warp's lane journals in lane order: lane order
            // is thread order, so the block journal and the tile end up
            // exactly as the serial engine leaves them.
            for l in 0..WARP {
                for &(sbi, i, v) in lane_shared[l].iter() {
                    scratch.shared[sbi as usize][i] = v;
                }
                lane_shared[l].clear();
                journal.append(&mut lane_stores[l]);
            }
            let mut m = halted_mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                halted[base + l] = true;
                m &= m - 1;
            }
        }
        if pi + 1 < n_phases {
            // One barrier per thread still running, like the scalar
            // engine's per-phase count of non-returned threads.
            stats.barriers += halted.iter().filter(|h| !**h).count() as u64;
        }
    }
    Ok((stats, tel))
}

/// The SoA register view of one warp: `tag`/`fv`/`iv` hold `WARP`
/// consecutive lanes per register slot. Booleans live in `iv` as 0/1;
/// only the slab selected by the tag is ever read.
struct Lanes<'a> {
    tag: &'a mut [u8],
    fv: &'a mut [f32],
    iv: &'a mut [i64],
}

impl Lanes<'_> {
    #[inline(always)]
    fn off(r: Reg, l: usize) -> usize {
        r as usize * WARP + l
    }

    #[inline(always)]
    fn tag_of(&self, r: Reg, l: usize) -> u8 {
        self.tag[Self::off(r, l)]
    }

    #[inline(always)]
    fn get(&self, r: Reg, l: usize) -> Const {
        let o = Self::off(r, l);
        match self.tag[o] {
            TF => Const::Float(self.fv[o]),
            TI => Const::Int(self.iv[o]),
            _ => Const::Bool(self.iv[o] != 0),
        }
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, l: usize, v: Const) {
        let o = Self::off(r, l);
        match v {
            Const::Float(f) => {
                self.tag[o] = TF;
                self.fv[o] = f;
            }
            Const::Int(i) => {
                self.tag[o] = TI;
                self.iv[o] = i;
            }
            Const::Bool(b) => {
                self.tag[o] = TB;
                self.iv[o] = b as i64;
            }
        }
    }

    #[inline(always)]
    fn set_f(&mut self, r: Reg, l: usize, v: f32) {
        let o = Self::off(r, l);
        self.tag[o] = TF;
        self.fv[o] = v;
    }

    #[inline(always)]
    fn set_i(&mut self, r: Reg, l: usize, v: i64) {
        let o = Self::off(r, l);
        self.tag[o] = TI;
        self.iv[o] = v;
    }

    #[inline(always)]
    fn set_b(&mut self, r: Reg, l: usize, v: bool) {
        let o = Self::off(r, l);
        self.tag[o] = TB;
        self.iv[o] = v as i64;
    }

    /// `Const::as_f32` without building the enum.
    #[inline(always)]
    fn f32_of(&self, r: Reg, l: usize) -> f32 {
        let o = Self::off(r, l);
        match self.tag[o] {
            TF => self.fv[o],
            TI => self.iv[o] as f32,
            _ => {
                if self.iv[o] != 0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// `Const::as_i64` without building the enum.
    #[inline(always)]
    fn i64_of(&self, r: Reg, l: usize) -> i64 {
        let o = Self::off(r, l);
        match self.tag[o] {
            TF => self.fv[o] as i64,
            _ => self.iv[o],
        }
    }

    /// `Const::as_bool` without building the enum.
    #[inline(always)]
    fn bool_of(&self, r: Reg, l: usize) -> bool {
        let o = Self::off(r, l);
        match self.tag[o] {
            TF => self.fv[o] != 0.0,
            _ => self.iv[o] != 0,
        }
    }
}

/// Any condition the vector path cannot reproduce exactly abandons the
/// block; the scalar re-run owns the user-visible error.
#[cold]
fn bail() -> SimError {
    SimError::EvalError("simd lane bailout (block re-runs on the scalar engine)".into())
}

/// One warp's execution state for one phase tape.
struct WarpExec<'a, 'm> {
    prog: &'a Program,
    bufs: &'a [BufView<'m>],
    uregs: &'a [Const],
    shared: &'a mut Vec<Vec<f32>>,
    lanes: Lanes<'a>,
    lane_stores: &'a mut [Vec<StoreRec>],
    lane_shared: &'a mut [Vec<SharedWrite>],
    /// Linear thread id of lane 0.
    base: i64,
    tbx: i64,
    bx: i64,
    by: i64,
    fast: bool,
    stats: &'a mut ExecStats,
    tel: &'a mut SimdTelemetry,
}

/// Point the masked lanes' program counters at `to`.
fn retarget(pcs: &mut [u32; WARP], mask: u32, to: u32) {
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        pcs[l] = to;
        m &= m - 1;
    }
}

/// If every live lane agrees on its next pc, collapse back to the
/// converged fast path.
fn try_reconverge(converged: &mut bool, pc: &mut u32, live: u32, pcs: &[u32; WARP]) {
    if live == 0 {
        return;
    }
    let first = pcs[live.trailing_zeros() as usize];
    let mut m = live;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        if pcs[l] != first {
            return;
        }
        m &= m - 1;
    }
    *converged = true;
    *pc = first;
}

impl WarpExec<'_, '_> {
    /// Run one phase tape for the warp. `live` marks the lanes that are
    /// in-extent and not halted by an earlier phase. Returns the mask of
    /// lanes that hit `Halt` during this phase.
    fn run_phase(
        &mut self,
        tape: &[Inst],
        mut live: u32,
        pcs: &mut [u32; WARP],
    ) -> Result<u32, SimError> {
        let len = tape.len() as u32;
        let mut halted = 0u32;
        let mut converged = true;
        let mut pc = 0u32;
        while live != 0 {
            let (cur, mask) = if converged {
                if pc >= len {
                    break;
                }
                (pc, live)
            } else {
                // Divergent: execute the lanes parked at the minimum pc.
                let mut cur = u32::MAX;
                let mut m = live;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    cur = cur.min(pcs[l]);
                    m &= m - 1;
                }
                if cur >= len {
                    break;
                }
                let mut mask = 0u32;
                let mut m = live;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    if pcs[l] == cur {
                        mask |= 1 << l;
                    }
                    m &= m - 1;
                }
                (cur, mask)
            };
            self.tel.warp_steps += 1;
            self.tel.active_lane_sum += u64::from(mask.count_ones());
            match &tape[cur as usize] {
                Inst::Jmp { to } => {
                    if converged {
                        pc = *to;
                    } else {
                        retarget(pcs, mask, *to);
                    }
                }
                Inst::JmpIfFalse { cond, to } => {
                    let jump = self.jump_mask(*cond, mask, false);
                    Self::branch(&mut converged, &mut pc, pcs, mask, jump, *to, cur);
                }
                Inst::JmpIfTrue { cond, to } => {
                    let jump = self.jump_mask(*cond, mask, true);
                    Self::branch(&mut converged, &mut pc, pcs, mask, jump, *to, cur);
                }
                Inst::Halt => {
                    halted |= mask;
                    live &= !mask;
                    if converged {
                        // All live lanes returned together.
                        break;
                    }
                    retarget(pcs, mask, len);
                }
                inst => {
                    self.exec(inst, mask)?;
                    if converged {
                        pc = cur + 1;
                    } else {
                        retarget(pcs, mask, cur + 1);
                    }
                }
            }
            if !converged {
                try_reconverge(&mut converged, &mut pc, live, pcs);
            }
        }
        Ok(halted)
    }

    /// Lanes of `mask` whose condition register equals `when`.
    fn jump_mask(&self, cond: Reg, mask: u32, when: bool) -> u32 {
        let mut jump = 0u32;
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            if self.lanes.bool_of(cond, l) == when {
                jump |= 1 << l;
            }
            m &= m - 1;
        }
        jump
    }

    /// Resolve a conditional jump: uniform outcomes keep the warp
    /// converged (no mask bookkeeping at all); mixed outcomes materialize
    /// per-lane pcs.
    fn branch(
        converged: &mut bool,
        pc: &mut u32,
        pcs: &mut [u32; WARP],
        mask: u32,
        jump: u32,
        to: u32,
        cur: u32,
    ) {
        if *converged {
            if jump == mask {
                *pc = to;
                return;
            }
            if jump == 0 {
                *pc = cur + 1;
                return;
            }
            *converged = false;
        }
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            pcs[l] = if jump & (1 << l) != 0 { to } else { cur + 1 };
            m &= m - 1;
        }
    }

    /// Execute one non-control instruction for every lane in `mask`.
    /// Every arm mirrors the corresponding scalar `exec_tape` arm
    /// exactly, including the order and conditions of stat counting.
    fn exec(&mut self, inst: &Inst, mask: u32) -> Result<(), SimError> {
        match inst {
            Inst::Imm { dst, v } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    self.lanes.set(*dst, l, *v);
                    m &= m - 1;
                }
            }
            Inst::Mov { dst, src } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let (od, os) = (Lanes::off(*dst, l), Lanes::off(*src, l));
                    self.lanes.tag[od] = self.lanes.tag[os];
                    self.lanes.fv[od] = self.lanes.fv[os];
                    self.lanes.iv[od] = self.lanes.iv[os];
                    m &= m - 1;
                }
            }
            Inst::LoadU { dst, src } => {
                let v = self.uregs[*src as usize];
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    self.lanes.set(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::Tid { dst, axis } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let t = self.base + l as i64;
                    let v = if *axis == 0 {
                        t % self.tbx
                    } else {
                        t / self.tbx
                    };
                    self.lanes.set_i(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::Bid { dst, axis } => {
                let v = if *axis == 0 { self.bx } else { self.by };
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    self.lanes.set_i(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::Un { dst, op, a } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let v = self.lanes.get(*a, l);
                    let r = eval_unop(*op, v).ok_or_else(bail)?;
                    self.lanes.set(*dst, l, r);
                    m &= m - 1;
                }
            }
            Inst::Bin { dst, op, a, b } => self.exec_bin(*dst, *op, *a, *b, mask)?,
            Inst::AsBool { dst, a } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let v = self.lanes.bool_of(*a, l);
                    self.lanes.set_b(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::Call { dst, f, args } => self.exec_call(*dst, *f, args, mask)?,
            Inst::Cast { dst, ty, a } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    match ty {
                        ScalarType::F32 => {
                            let v = self.lanes.f32_of(*a, l);
                            self.lanes.set_f(*dst, l, v);
                        }
                        ScalarType::I32 | ScalarType::U32 => {
                            let v = self.lanes.i64_of(*a, l);
                            self.lanes.set_i(*dst, l, v);
                        }
                        ScalarType::Bool => {
                            let v = self.lanes.bool_of(*a, l);
                            self.lanes.set_b(*dst, l, v);
                        }
                    }
                    m &= m - 1;
                }
            }
            Inst::LoopTest { dst, var, hi } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let v = self.lanes.i64_of(*var, l) <= self.lanes.i64_of(*hi, l);
                    self.lanes.set_b(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::IncInt { reg } => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let v = self.lanes.i64_of(*reg, l);
                    let next = v.checked_add(1).ok_or_else(bail)?;
                    self.lanes.set_i(*reg, l, next);
                    m &= m - 1;
                }
            }
            Inst::GLoad { dst, buf, idx } | Inst::TexLin { dst, buf, idx } => {
                let b = &self.bufs[*buf as usize];
                let n = u64::from(mask.count_ones());
                if matches!(inst, Inst::GLoad { .. }) {
                    self.stats.global_loads += n;
                } else {
                    self.stats.tex_fetches += n;
                }
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let i = self.lanes.i64_of(*idx, l);
                    let v = match b.data.get(i as usize) {
                        Some(v) => *v,
                        None => {
                            self.stats.oob_reads += 1;
                            b.data[i.clamp(0, b.data.len() as i64 - 1) as usize]
                        }
                    };
                    self.lanes.set_f(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::GStore { buf, idx, val } => {
                self.stats.global_stores += u64::from(mask.count_ones());
                let len = self.bufs[*buf as usize].data.len();
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let i = self.lanes.i64_of(*idx, l);
                    let v = self.lanes.f32_of(*val, l);
                    if i < 0 || i as usize >= len {
                        self.stats.oob_stores += 1;
                    } else {
                        self.lane_stores[l].push(StoreRec {
                            buf: *buf,
                            idx: i as u32,
                            value: v,
                        });
                    }
                    m &= m - 1;
                }
            }
            Inst::TexXy { dst, buf, x, y } => {
                self.stats.tex_fetches += u64::from(mask.count_ones());
                let b = &self.bufs[*buf as usize];
                let stride = b.stride as usize;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let xi = self.lanes.i64_of(*x, l) as i32;
                    let yi = self.lanes.i64_of(*y, l) as i32;
                    let v = if self.fast && (xi as u32) < b.w && (yi as u32) < b.h {
                        b.data[yi as usize * stride + xi as usize]
                    } else {
                        let oob = xi < 0 || yi < 0 || xi >= b.w as i32 || yi >= b.h as i32;
                        match b.mode {
                            // Exactly like the scalar arm: the border
                            // constant is returned without any oob count.
                            AddressMode::BorderConstant(c) if oob => c,
                            mode => {
                                let (ax, ay) = match mode {
                                    AddressMode::Clamp => {
                                        (clamp_index(xi, b.w), clamp_index(yi, b.h))
                                    }
                                    AddressMode::Repeat => {
                                        (repeat_index(xi, b.w), repeat_index(yi, b.h))
                                    }
                                    AddressMode::BorderConstant(_) => (xi, yi),
                                    AddressMode::None => {
                                        if oob {
                                            self.stats.oob_reads += 1;
                                            (clamp_index(xi, b.w), clamp_index(yi, b.h))
                                        } else {
                                            (xi, yi)
                                        }
                                    }
                                };
                                b.data[ay as usize * stride + ax as usize]
                            }
                        }
                    };
                    self.lanes.set_f(*dst, l, v);
                    m &= m - 1;
                }
            }
            Inst::CLoad { dst, cb, idx } => {
                self.stats.const_loads += u64::from(mask.count_ones());
                let data = &self.prog.consts[*cb as usize].data;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let i = self.lanes.i64_of(*idx, l).clamp(0, data.len() as i64 - 1) as usize;
                    self.lanes.set_f(*dst, l, data[i]);
                    m &= m - 1;
                }
            }
            Inst::SLoad { dst, sb, y, x } => {
                self.stats.shared_loads += u64::from(mask.count_ones());
                let tile = &self.shared[*sb as usize];
                let cols = self.prog.shared[*sb as usize].cols as i64;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let yi = self.lanes.i64_of(*y, l);
                    let xi = self.lanes.i64_of(*x, l);
                    let i = (yi * cols + xi).clamp(0, tile.len() as i64 - 1) as usize;
                    self.lanes.set_f(*dst, l, tile[i]);
                    m &= m - 1;
                }
            }
            Inst::SStore { sb, y, x, val } => {
                self.stats.shared_stores += u64::from(mask.count_ones());
                let tile_len = self.shared[*sb as usize].len() as i64;
                let cols = self.prog.shared[*sb as usize].cols as i64;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let yi = self.lanes.i64_of(*y, l);
                    let xi = self.lanes.i64_of(*x, l);
                    let v = self.lanes.f32_of(*val, l);
                    let i = (yi * cols + xi).clamp(0, tile_len - 1) as usize;
                    self.lane_shared[l].push((*sb, i, v));
                    m &= m - 1;
                }
            }
            // Control flow is handled by `run_phase`.
            Inst::Jmp { .. } | Inst::JmpIfFalse { .. } | Inst::JmpIfTrue { .. } | Inst::Halt => {
                unreachable!("control flow reached WarpExec::exec")
            }
        }
        Ok(())
    }

    /// Binary operation with tag-uniform fast paths. The float path is a
    /// straight-line lane loop over the `f32` slabs — the case the SoA
    /// layout exists for.
    fn exec_bin(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg, mask: u32) -> Result<(), SimError> {
        match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                // `eval_binop` compares through `as_f32` whatever the
                // operand types, so no tag scan is needed.
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let x = self.lanes.f32_of(a, l);
                    let y = self.lanes.f32_of(b, l);
                    let r = match op {
                        BinOp::Eq => x == y,
                        BinOp::Ne => x != y,
                        BinOp::Lt => x < y,
                        BinOp::Le => x <= y,
                        BinOp::Gt => x > y,
                        BinOp::Ge => x >= y,
                        _ => unreachable!(),
                    };
                    self.lanes.set_b(dst, l, r);
                    m &= m - 1;
                }
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let (mut all_ff, mut all_ii) = (true, true);
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let (ta, tb) = (self.lanes.tag_of(a, l), self.lanes.tag_of(b, l));
                    all_ff &= ta == TF && tb == TF;
                    all_ii &= ta == TI && tb == TI;
                    m &= m - 1;
                }
                if all_ff {
                    if mask == FULL {
                        // Dense float lanes: contiguous slab arithmetic the
                        // compiler can vectorize outright.
                        let (oa, ob, od) = (Lanes::off(a, 0), Lanes::off(b, 0), Lanes::off(dst, 0));
                        for l in 0..WARP {
                            let x = self.lanes.fv[oa + l];
                            let y = self.lanes.fv[ob + l];
                            self.lanes.fv[od + l] = match op {
                                BinOp::Add => x + y,
                                BinOp::Sub => x - y,
                                BinOp::Mul => x * y,
                                BinOp::Div => x / y,
                                _ => unreachable!(),
                            };
                        }
                        self.lanes.tag[od..od + WARP].fill(TF);
                    } else {
                        let mut m = mask;
                        while m != 0 {
                            let l = m.trailing_zeros() as usize;
                            let x = self.lanes.fv[Lanes::off(a, l)];
                            let y = self.lanes.fv[Lanes::off(b, l)];
                            let r = match op {
                                BinOp::Add => x + y,
                                BinOp::Sub => x - y,
                                BinOp::Mul => x * y,
                                BinOp::Div => x / y,
                                _ => unreachable!(),
                            };
                            self.lanes.set_f(dst, l, r);
                            m &= m - 1;
                        }
                    }
                } else if all_ii {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        let x = self.lanes.iv[Lanes::off(a, l)];
                        let y = self.lanes.iv[Lanes::off(b, l)];
                        let r = match op {
                            BinOp::Add => x.checked_add(y),
                            BinOp::Sub => x.checked_sub(y),
                            BinOp::Mul => x.checked_mul(y),
                            BinOp::Div => {
                                if y == 0 {
                                    None
                                } else {
                                    Some(x / y)
                                }
                            }
                            _ => unreachable!(),
                        }
                        .ok_or_else(bail)?;
                        self.lanes.set_i(dst, l, r);
                        m &= m - 1;
                    }
                } else {
                    self.bin_generic(dst, op, a, b, mask)?;
                }
            }
            _ => self.bin_generic(dst, op, a, b, mask)?,
        }
        Ok(())
    }

    /// Mixed-tag / rare-op fallback: build the `Const`s and defer to the
    /// shared `eval_binop`, so the generic path can never drift from the
    /// scalar engine. `None` (division by zero, overflow, float `%`)
    /// abandons the block to the scalar re-run.
    fn bin_generic(
        &mut self,
        dst: Reg,
        op: BinOp,
        a: Reg,
        b: Reg,
        mask: u32,
    ) -> Result<(), SimError> {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            let va = self.lanes.get(a, l);
            let vb = self.lanes.get(b, l);
            let r = eval_binop(op, va, vb).ok_or_else(bail)?;
            self.lanes.set(dst, l, r);
            m &= m - 1;
        }
        Ok(())
    }

    /// Math-function call with per-lane `f32` fast paths for the common
    /// unary transcendentals and `pow`/`min`/`max`; anything else goes
    /// through `eval_mathfn` verbatim.
    fn exec_call(&mut self, dst: Reg, f: MathFn, args: &[Reg], mask: u32) -> Result<(), SimError> {
        let a0 = *args.first().ok_or_else(bail)?;
        match f {
            MathFn::Exp
            | MathFn::Log
            | MathFn::Sqrt
            | MathFn::Rsqrt
            | MathFn::Abs
            | MathFn::Sin
            | MathFn::Cos
            | MathFn::Floor
            | MathFn::Round => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let x = self.lanes.f32_of(a0, l);
                    let r = match f {
                        MathFn::Exp => x.exp(),
                        MathFn::Log => x.ln(),
                        MathFn::Sqrt => x.sqrt(),
                        MathFn::Rsqrt => 1.0 / x.sqrt(),
                        MathFn::Abs => x.abs(),
                        MathFn::Sin => x.sin(),
                        MathFn::Cos => x.cos(),
                        MathFn::Floor => x.floor(),
                        MathFn::Round => x.round(),
                        _ => unreachable!(),
                    };
                    self.lanes.set_f(dst, l, r);
                    m &= m - 1;
                }
            }
            MathFn::Pow => {
                let a1 = *args.get(1).ok_or_else(bail)?;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    let x = self.lanes.f32_of(a0, l);
                    let y = self.lanes.f32_of(a1, l);
                    self.lanes.set_f(dst, l, x.powf(y));
                    m &= m - 1;
                }
            }
            MathFn::Min | MathFn::Max => {
                let a1 = *args.get(1).ok_or_else(bail)?;
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    // Integer min/max stay integer, like `eval_mathfn`.
                    if self.lanes.tag_of(a0, l) == TI && self.lanes.tag_of(a1, l) == TI {
                        let x = self.lanes.iv[Lanes::off(a0, l)];
                        let y = self.lanes.iv[Lanes::off(a1, l)];
                        let r = if f == MathFn::Min { x.min(y) } else { x.max(y) };
                        self.lanes.set_i(dst, l, r);
                    } else {
                        let x = self.lanes.f32_of(a0, l);
                        let y = self.lanes.f32_of(a1, l);
                        let r = if f == MathFn::Min { x.min(y) } else { x.max(y) };
                        self.lanes.set_f(dst, l, r);
                    }
                    m &= m - 1;
                }
            }
        }
        Ok(())
    }
}
