//! The three stream workloads: the chain gauss5 (σ 1.1) → sobel-x →
//! laplace under Clamp, driven through `Stream::run` on seeded
//! vessel-phantom frames. See `perfbench/README.md` for why each exists.

use crate::ledger::{per_item, Ledger};
use crate::output::Outcome;
use crate::stats::{beyond, geomean, median, quantile, slow_rate, slow_time};
use hipacc_codegen::{verify_compiled, Compiler};
use hipacc_core::pipeline::launch_spec;
use hipacc_core::supervisor::SupervisorConfig;
use hipacc_core::{check_chain, fuse_operators, Engine, FaultPlan, KernelCache, Operator, Target};
use hipacc_filters::gaussian::gaussian_operator;
use hipacc_filters::laplacian::laplacian_operator;
use hipacc_filters::sobel::sobel_operator;
use hipacc_hwmodel::device::tesla_c2050;
use hipacc_image::reference::{convolve2d, MaskCoeffs};
use hipacc_image::rng::Pcg32;
use hipacc_image::{phantom, BoundaryMode, Image};
use hipacc_profile::{now_us, Span};
use hipacc_runtime::{Stream, StreamConfig};
use hipacc_sim::launch::run_on_image_with;
use hipacc_sim::WorkerPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stream workload.
pub struct StreamWorkload {
    pub name: &'static str,
    /// Square frame edge.
    pub size: u32,
    /// Run the fusion planner (`StreamConfig::fuse`).
    pub fuse: bool,
    /// Frames pushed by one `Stream::run` call. At least 100, so the
    /// p90 latency of every call has at least ten samples beyond it.
    pub frames_per_call: usize,
}

pub const STREAM_SMALL: StreamWorkload = StreamWorkload {
    name: "stream_small",
    size: 16,
    fuse: false,
    frames_per_call: 800,
};

pub const STREAM_FUSED: StreamWorkload = StreamWorkload {
    name: "stream_fused",
    size: 16,
    fuse: true,
    frames_per_call: 400,
};

pub const STREAM_LARGE: StreamWorkload = StreamWorkload {
    name: "stream_large",
    size: 128,
    fuse: false,
    frames_per_call: 100,
};

const ENGINE: Engine = Engine::Simd;
const MODE: BoundaryMode = BoundaryMode::Clamp;
const SIGMA: f32 = 1.1;
/// Times set-up is repeated to report its median.
const SETUP_REPEATS: usize = 9;
/// Frames the traced run re-enacts however short the run: with three, the
/// engine-bound `stream_large` ledger left its tolerance in one of nine
/// half-second runs on per-call jitter alone.
const MIN_REENACTED: usize = 9;

fn target() -> Target {
    Target::cuda(tesla_c2050())
}

/// The chain's stages, in order.
fn chain() -> Vec<(&'static str, Operator)> {
    vec![
        ("gauss5", gaussian_operator(5, SIGMA, MODE)),
        ("sobel", sobel_operator(true, MODE)),
        ("laplace", laplacian_operator(MODE)),
    ]
}

/// `n` seeded frames: one vessel phantom, shifted by up to two pixels,
/// rescaled and re-noised per frame. The same seed gives the same frames.
fn frames(seed: u64, size: u32, n: usize) -> Vec<Image<f32>> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let base = phantom::vessel_tree(
        size,
        size,
        &phantom::VesselParams {
            seed: rng.next_u64(),
            ..phantom::VesselParams::default()
        },
    );
    let edge = size as i32 - 1;
    (0..n)
        .map(|_| {
            let dx = rng.gen_range_i64(-2, 2) as i32;
            let dy = rng.gen_range_i64(-2, 2) as i32;
            let gain = rng.gen_range_f32(0.9, 1.1);
            let mut img = Image::from_fn(size, size, |x, y| {
                gain * base.get((x + dx).clamp(0, edge), (y + dy).clamp(0, edge))
            });
            phantom::add_gaussian_noise(&mut img, 0.01, rng.next_u64());
            img
        })
        .collect()
}

/// The independent oracle: the CPU reference filters composed in chain
/// order. Streamed outputs must equal it exactly.
fn reference(frame: &Image<f32>) -> Image<f32> {
    let g = convolve2d(frame, &MaskCoeffs::gaussian(5, 5, SIGMA), MODE);
    let s = convolve2d(&g, &MaskCoeffs::sobel_x(), MODE);
    convolve2d(&s, &MaskCoeffs::laplacian(), MODE)
}

/// Everything built before timing starts.
struct Setup {
    stream: Stream,
    /// Stages `Stream::run` must report after planning: one when the
    /// whole chain fuses.
    stages: usize,
    pool: Arc<WorkerPool>,
    frames: Vec<Image<f32>>,
}

/// Build the frames, operators and stream, then push one cold frame
/// through it: that compiles every stage (or plans and compiles the fused
/// kernel) and fills the shared cache.
fn build(w: &StreamWorkload, seed: u64, workers: usize) -> Result<Setup, String> {
    let frames = frames(seed, w.size, w.frames_per_call);
    let pool = Arc::new(WorkerPool::new(workers));
    let mut stream = Stream::new(w.name, target());
    for (name, op) in chain() {
        stream = stream.stage(name, op);
    }
    let stream = stream
        .with_config(StreamConfig {
            workers: Some(workers),
            engine: Some(ENGINE),
            share_cache: true,
            fuse: w.fuse,
            ..StreamConfig::default()
        })
        .with_shared(Arc::new(KernelCache::default()), Arc::clone(&pool));
    let warm = stream
        .run(frames[..1].to_vec())
        .map_err(|e| format!("cold frame: {e}"))?;
    if warm.report.frames_out != 1 {
        return Err(format!("cold frame failed: {:?}", warm.report.failed));
    }
    Ok(Setup {
        stream,
        stages: if w.fuse { 1 } else { chain().len() },
        pool,
        frames,
    })
}

/// Per-frame latency (µs) from enqueue to last-stage exit, rebuilt from
/// the stage spans of one `Stream::run` call.
///
/// The report keeps only p50 and p99, timed to the collector taking the
/// frame rather than to last-stage exit, so both percentiles are rebuilt
/// here. The producer creates frame `k` as soon as frame `k-1` is
/// admitted, and
/// with a queue bound of `cap` frame `k-1` is admitted when the first
/// stage takes frame `k-1-cap`. So frame `k` was enqueued at the later of
/// frame `k-1`'s enqueue and the first-stage start of frame `k-1-cap`,
/// and frames up to `cap` at the call's start `t0_us`.
fn frame_latencies(
    spans: &[Span],
    first: &str,
    last: &str,
    cap: usize,
    t0_us: u64,
    n: usize,
) -> Vec<f64> {
    let mut start = vec![None; n];
    let mut end = vec![None; n];
    for s in spans {
        let Some((stage, seq)) = s.name.rsplit_once(':') else {
            continue;
        };
        let Ok(seq) = seq.parse::<usize>() else {
            continue;
        };
        if seq >= n {
            continue;
        }
        if stage == first {
            start[seq] = Some(s.start_us);
        }
        if stage == last {
            end[seq] = Some(s.start_us + s.dur_us);
        }
    }
    let mut enqueued = t0_us;
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        if k > cap {
            enqueued = enqueued.max(start[k - 1 - cap].unwrap_or(enqueued));
        }
        if let Some(e) = end[k] {
            out.push(e.saturating_sub(enqueued) as f64);
        }
    }
    out
}

/// What one timed `Stream::run` call measured.
struct Call {
    fps: f64,
    p50_ms: f64,
    p90_ms: f64,
    /// |p50 − the report's p50| / the report's p50. The report times to
    /// the collector taking the frame, not to last-stage exit.
    recon_gap: f64,
    frames: usize,
    queue_max: usize,
    hits: u64,
    misses: u64,
}

/// One timed `Stream::run` over all frames, its outputs checked against
/// the reference. Failed, shed and mismatching frames count as failed.
fn timed_call(s: &Setup, expected: &[Image<f32>], out: &mut Outcome) -> Result<Call, String> {
    let input = s.frames.clone();
    let t0_us = now_us();
    let t = Instant::now();
    let run = s.stream.run(input).map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();

    let r = &run.report;
    let n = s.frames.len();
    out.attempted += n as u64;
    let mut good = 0;
    for f in &run.outputs {
        if expected[f.seq as usize].max_abs_diff(&f.image) == 0.0 {
            good += 1;
        }
    }
    if good != n {
        out.failed += (n - good) as u64;
        out.problem(format!(
            "{} of {n} frames failed, were shed or differ from the reference \
             (failed {}, shed {})",
            n - good,
            r.failed.len(),
            r.shed.len()
        ));
    }
    if r.stages.len() != s.stages {
        out.problem(format!("the planner ran stages {:?}", r.stages));
    }
    let first = r.stages.first().cloned().unwrap_or_default();
    let last = r.stages.last().cloned().unwrap_or_default();
    let lat = frame_latencies(&r.spans, &first, &last, r.queue_capacity, t0_us, n);
    let p50 = quantile(&lat, 0.5).unwrap_or(0.0);
    let reported = r.latency_p50_us as f64;
    Ok(Call {
        fps: r.frames_out as f64 / wall,
        p50_ms: p50 / 1e3,
        p90_ms: quantile(&lat, 0.9).unwrap_or(0.0) / 1e3,
        recon_gap: (p50 - reported).abs() / reported.max(1.0),
        frames: lat.len(),
        queue_max: r.queue_max_depths.iter().copied().max().unwrap_or(0),
        hits: r.cache_hits,
        misses: r.cache_misses,
    })
}

/// One warm-up call, checked but not kept, then timed calls until
/// `budget` is spent (at least one). A call starts only if it is expected
/// to end less than half a call past the budget.
fn timed_calls(
    s: &Setup,
    expected: &[Image<f32>],
    budget: Duration,
    out: &mut Outcome,
) -> Result<Vec<Call>, String> {
    let start = Instant::now();
    timed_call(s, expected, out)?;
    let mut calls = Vec::new();
    let mut last = start.elapsed();
    while calls.is_empty() || start.elapsed() + last / 2 < budget {
        let t = Instant::now();
        calls.push(timed_call(s, expected, out)?);
        last = t.elapsed();
    }
    Ok(calls)
}

/// The stages as `Stream` launches them after planning: three operators,
/// or the one fused operator, each bound to the stream's engine, shared
/// cache and pool.
fn planned_ops(w: &StreamWorkload, s: &Setup) -> Result<Vec<(String, Operator)>, String> {
    let ops = chain();
    let planned = if w.fuse {
        let refs: Vec<&Operator> = ops.iter().map(|(_, op)| op).collect();
        let fused = fuse_operators(&refs).map_err(|e| e.to_string())?;
        let names: Vec<&str> = ops.iter().map(|(n, _)| *n).collect();
        vec![(names.join("+"), fused)]
    } else {
        ops.into_iter().map(|(n, op)| (n.to_string(), op)).collect()
    };
    Ok(planned
        .into_iter()
        .map(|(n, mut op)| {
            op.options.engine = Some(ENGINE);
            op.options.cache = Some(Arc::clone(s.stream.cache()));
            op.options.pool = Some(Arc::clone(&s.pool));
            (n, op)
        })
        .collect())
}

/// Counters summed over the stage launches of one frame.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counts {
    global_loads: u64,
    tex_fetches: u64,
    shared_loads: u64,
    shared_stores: u64,
    barriers: u64,
}

/// Re-enact one frame's stage launches through the public calls the
/// launch path is made of, each timed as its own row. Per stage it also
/// times the whole `execute_with` and `execute_supervised` calls, and it
/// checks that all three produce the same image.
fn reenact_frame(
    l: &mut Ledger,
    planned: &[(String, Operator)],
    frame: &Image<f32>,
    counts: &mut Counts,
) -> Result<Image<f32>, String> {
    let target = target();
    let (w, h) = (frame.width(), frame.height());
    let mut img = frame.clone();
    for (name, op) in planned {
        let (next, _) = l.span(&format!("stage:{name}"), "stage", |l| {
            let inputs = [("Input", &img)];
            let (exec, exec_us) = l.time("core.op_total_us", || {
                op.execute_with(&inputs, &target, ENGINE)
            });
            let exec = exec.map_err(|e| e.to_string())?;
            let (sup, sup_us) = l.span("core.execute_supervised", "core", |_| {
                op.execute_supervised(
                    &inputs,
                    &target,
                    ENGINE,
                    &FaultPlan::none(),
                    &SupervisorConfig::default(),
                )
                .map_err(|e| e.to_string())
            });
            let sup = sup?;
            l.add("core.supervisor_us", sup_us - exec_us);

            let (spec, _) = l.time("core.compile_spec_us", || op.compile_spec(&target, w, h));
            let (key, _) = l.time("core.fingerprint_us", || {
                KernelCache::fingerprint(&op.def, &spec)
            });
            l.add("core.fingerprint_bytes", key.len() as f64);
            let cache = op
                .options
                .cache
                .as_ref()
                .expect("planned ops carry the cache");
            let (hit, _) = l.time("core.cache_lookup_us", || cache.lookup(&key));
            let compiled = hit.ok_or_else(|| format!("stage `{name}` missed the warmed cache"))?;
            let (ls, _) = l.time("core.launch_spec_us", || {
                let mut ls = launch_spec(&compiled, &inputs, &op.params, &op.mask_uploads);
                ls.sim_threads = op.options.sim_threads;
                ls.pool = op.options.pool.clone();
                ls
            });
            let (run, _) = l.time("sim.launch_us", || {
                run_on_image_with(&compiled.device_kernel, &ls, ENGINE)
            });
            let run = run.map_err(|e| e.to_string())?;
            l.time("core.estimate_us", || op.estimate(&compiled, &target));

            if run.output.max_abs_diff(&exec.output) != 0.0
                || run.output.max_abs_diff(&sup.execution.output) != 0.0
            {
                return Err(format!("stage `{name}`: re-enacted launch differs"));
            }
            counts.global_loads += run.stats.global_loads;
            counts.tex_fetches += run.stats.tex_fetches;
            counts.shared_loads += run.stats.shared_loads;
            counts.shared_stores += run.stats.shared_stores;
            counts.barriers += run.stats.barriers;
            Ok(run.output)
        });
        img = next?;
    }
    Ok(img)
}

/// Rows of the launch ledger whose sum, plus `core.unattributed_us`, is
/// `core.op_total_us` (one `execute_with`).
const LAUNCH_ROWS: [&str; 6] = [
    "core.compile_spec_us",
    "core.fingerprint_us",
    "core.cache_lookup_us",
    "core.launch_spec_us",
    "sim.launch_us",
    "core.estimate_us",
];

/// Cold compiles and planning of the chain, outside any cache: the
/// codegen, analysis and fusion-planning rows, and the model outputs.
fn compile_rows(w: &StreamWorkload, l: &mut Ledger, repeats: usize, out: &mut Outcome) {
    let target = target();
    let ops = chain();
    let refs: Vec<&Operator> = ops.iter().map(|(_, op)| op).collect();
    for _ in 0..repeats {
        if w.fuse {
            let ((diags, fused), _) = l.time("core.fusion_plan_us", || {
                (check_chain(&refs), fuse_operators(&refs))
            });
            let (true, Ok(fused)) = (diags.is_empty(), fused) else {
                out.problem("the chain does not fuse");
                return;
            };
            let chain = fused
                .options
                .fused
                .clone()
                .expect("fused operator carries its chain");
            let spec = fused.compile_spec(&target, w.size, w.size);
            let compiler = Compiler::new();
            let (c, _) = l.time("codegen.compile_fused_us", || {
                compiler.compile_fused(&chain, &spec)
            });
            match c {
                Ok(c) => {
                    l.time("analysis.verify_us", || verify_compiled(&c, &spec));
                }
                Err(e) => out.problem(format!("fused compile: {e}")),
            }
        } else {
            let mut compile = 0.0;
            let mut verify = 0.0;
            for op in &refs {
                let spec = op.compile_spec(&target, w.size, w.size);
                let compiler = Compiler::new();
                let (c, us) = l.span("codegen.compile", "codegen", |_| {
                    compiler.compile(&op.def, &spec)
                });
                compile += us;
                match c {
                    Ok(c) => {
                        verify += l
                            .span("analysis.verify", "analysis", |_| {
                                verify_compiled(&c, &spec)
                            })
                            .1
                    }
                    Err(e) => out.problem(format!("compile: {e}")),
                }
            }
            l.add("codegen.compile_us", compile);
            l.add("analysis.verify_us", verify);
        }
    }
}

/// Modelled device time and generated size of the kernels the stream
/// launches; with `counts` also the optimizer and occupancy facts.
fn model_facts(w: &StreamWorkload, out: &mut Outcome, counts: bool) {
    let target = target();
    let ops = chain();
    let launched: Vec<Operator> = if w.fuse {
        let refs: Vec<&Operator> = ops.iter().map(|(_, op)| op).collect();
        match fuse_operators(&refs) {
            Ok(f) => vec![f],
            Err(e) => {
                out.problem(format!("the chain does not fuse: {e}"));
                return;
            }
        }
    } else {
        ops.into_iter().map(|(_, op)| op).collect()
    };
    let (mut times, mut loc, mut fires, mut occ) = (Vec::new(), 0usize, 0u32, Vec::new());
    for op in &launched {
        match op.compile(&target, w.size, w.size) {
            Ok(c) => {
                times.push(op.estimate(&c, &target).total_ms);
                loc += c.generated_loc();
                fires += c.opt.total();
                occ.push(c.occupancy.map(|o| o.occupancy).unwrap_or(0.0));
            }
            Err(e) => out.problem(format!("compile: {e}")),
        }
    }
    let n = launched.len();
    out.push(
        "model_gpu_ms",
        geomean(&times).unwrap_or(0.0),
        "model_ms",
        n,
    );
    out.push("gen_loc", loc as f64, "lines", n);
    if counts {
        out.push("ir.opt_fires", fires as f64, "count", n);
        out.push(
            "hwmodel.occupancy_mean",
            occ.iter().sum::<f64>() / n as f64,
            "ratio",
            n,
        );
    }
}

/// Set up `SETUP_REPEATS` times from scratch and keep the last; report
/// the median set-up time.
fn setup(
    w: &StreamWorkload,
    seed: u64,
    workers: usize,
    out: &mut Outcome,
) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let s = build(w, seed, workers)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    out.push("setup_s", median(&times).unwrap_or(0.0), "s", times.len());
    Ok(last.expect("at least one set-up"))
}

/// Run a stream workload for `seconds`: untimed set-up and checks around
/// timed `Stream::run` calls, or, when `traced`, the per-layer run.
pub fn run(
    w: &StreamWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.note("engine", ENGINE.label());
    out.note("pool_workers", workers);
    out.note("frame_size", format!("{0}x{0}", w.size));
    out.note("frames_per_call", w.frames_per_call);
    out.note("fuse", w.fuse);
    out.note("opt_level", chain()[0].1.options.opt_level);

    let s = setup(w, seed, workers, out)?;
    let expected: Vec<Image<f32>> = s.frames.iter().map(reference).collect();
    let total = Duration::from_secs_f64(seconds);
    if traced {
        return traced_run(w, &s, &expected, total, out);
    }

    let calls = timed_calls(&s, &expected, total, out)?;
    summarize_calls(&calls, out);
    model_facts(w, out, false);
    Ok(())
}

fn summarize_calls(calls: &[Call], out: &mut Outcome) {
    let fps: Vec<f64> = calls.iter().map(|c| c.fps).collect();
    let p50: Vec<f64> = calls.iter().map(|c| c.p50_ms).collect();
    let p90: Vec<f64> = calls.iter().map(|c| c.p90_ms).collect();
    let gaps: Vec<f64> = calls.iter().map(|c| c.recon_gap).collect();
    let n = calls.len();
    out.push("throughput", slow_rate(&fps).unwrap_or(0.0), "1/s", n);
    out.push("latency_p50_ms", slow_time(&p50).unwrap_or(0.0), "ms", n);
    // A call's p90 already sits in the slow phase; a second tail over
    // calls would pick the calls a stall hit, so the median is taken.
    out.push("latency_p90_ms", median(&p90).unwrap_or(0.0), "ms", n);
    out.note("stream_calls", n);
    let per_call = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("throughput_per_call", per_call(&fps));
    out.note("latency_p50_ms_per_call", per_call(&p50));
    out.note("latency_p90_ms_per_call", per_call(&p90));
    out.note(
        "latency_samples_per_call",
        calls.iter().map(|c| c.frames).min().unwrap_or(0),
    );
    out.note(
        "latency_p50_reconstruction_gap",
        median(&gaps).unwrap_or(0.0),
    );
    if calls.iter().any(|c| beyond(c.frames, 0.9) < 10) {
        out.problem("a call left fewer than ten latency samples beyond the p90");
    }
    out.push(
        "runtime.queue_max_depth",
        calls.iter().map(|c| c.queue_max).max().unwrap_or(0) as f64,
        "count",
        n,
    );
    let (hits, misses) = calls
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
    out.push(
        "core.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
}

/// The traced run: timed calls with tracing off, then the sequential
/// reference, then per-layer re-enactment of a subset of frames with
/// spans on (and, alternately, off to price the spans), then cold
/// compiles. Writes and validates a Chrome trace.
fn traced_run(
    w: &StreamWorkload,
    s: &Setup,
    expected: &[Image<f32>],
    total: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    out.push(
        "core.cache_misses",
        s.stream.cache().misses() as f64,
        "count",
        1,
    );
    let calls = timed_calls(s, expected, total.mul_f64(0.3), out)?;
    summarize_calls(&calls, out);
    let fps = slow_rate(&calls.iter().map(|c| c.fps).collect::<Vec<_>>()).unwrap_or(0.0);

    let n_seq = (w.frames_per_call / 2).max(1);
    let t = Instant::now();
    let seq = s
        .stream
        .run_sequential(s.frames[..n_seq].to_vec())
        .map_err(|e| e.to_string())?;
    let seq_wall = t.elapsed().as_secs_f64();
    let seq_fps = seq.report.frames_out as f64 / seq_wall;
    out.push("runtime.sequential_fps", seq_fps, "1/s", n_seq);
    out.push(
        "runtime.pipeline_speedup",
        fps / seq_fps,
        "ratio",
        calls.len(),
    );
    for f in &seq.outputs {
        if expected[f.seq as usize].max_abs_diff(&f.image) != 0.0 {
            out.problem(format!(
                "sequential frame {} differs from the reference",
                f.seq
            ));
        }
    }

    let planned = planned_ops(w, s)?;
    let mut traced = Ledger::new(true);
    let mut untraced = Ledger::new(false);
    let mut counts = Vec::new();
    let mut walls = (Vec::new(), Vec::new());
    let budget = total.mul_f64(0.75);
    let mut i = 0;
    while i < s.frames.len() && (i < MIN_REENACTED || start.elapsed() < budget) {
        let frame = &s.frames[i];
        let mut c = Counts::default();
        let (img, us) = traced.span(&format!("frame:{i}"), "frame", |l| {
            reenact_frame(l, &planned, frame, &mut c)
        });
        let img = img?;
        walls.0.push(us);
        counts.push(c);
        let (_, us) = untraced.span("frame", "frame", |l| {
            reenact_frame(l, &planned, frame, &mut Counts::default())
        });
        walls.1.push(us);
        out.attempted += 1;
        if img.max_abs_diff(&expected[i]) != 0.0 {
            out.failed += 1;
            out.problem(format!("re-enacted frame {i} differs from the reference"));
        }
        i += 1;
    }
    let stages = planned.len();
    let per_frame = |row: &str| median(&per_item(traced.samples(row), stages)).unwrap_or(0.0);
    let total_us = per_frame("core.op_total_us");
    let mut attributed = 0.0;
    for row in LAUNCH_ROWS {
        let v = per_frame(row);
        attributed += v;
        out.push(row, v, "us", i);
    }
    let unattributed = total_us - attributed;
    out.push("core.op_total_us", total_us, "us", i);
    out.push("core.unattributed_us", unattributed, "us", i);
    check_ledger(unattributed, total_us, out);
    out.push(
        "core.supervisor_us",
        per_frame("core.supervisor_us"),
        "us",
        i,
    );
    out.push(
        "core.fingerprint_bytes",
        per_frame("core.fingerprint_bytes"),
        "bytes",
        i,
    );
    let launch = per_frame("sim.launch_us");
    let pixels = (w.size * w.size) as f64 * stages as f64;
    out.push("sim.mpix_per_s", pixels / launch, "Mpix/s", i);
    if counts.windows(2).any(|p| p[0] != p[1]) {
        out.problem("per-frame work counts differ between frames");
    }
    let c = counts[0];
    out.push("sim.global_loads", c.global_loads as f64, "count", i);
    out.push("sim.tex_fetches", c.tex_fetches as f64, "count", i);
    out.push("sim.shared_loads", c.shared_loads as f64, "count", i);
    out.push("sim.shared_stores", c.shared_stores as f64, "count", i);
    out.push("sim.barriers", c.barriers as f64, "count", i);
    let (tw, uw) = (
        median(&walls.0).unwrap_or(0.0),
        median(&walls.1).unwrap_or(1.0),
    );
    out.push("trace.overhead_pct", (tw - uw) / uw * 100.0, "%", i);

    traced.set_lane(2);
    compile_rows(w, &mut traced, 5, out);
    for row in [
        "codegen.compile_us",
        "codegen.compile_fused_us",
        "analysis.verify_us",
        "core.fusion_plan_us",
    ] {
        let xs = traced.samples(row);
        if !xs.is_empty() {
            out.push(row, median(xs).unwrap_or(0.0), "us", xs.len());
        }
    }
    model_facts(w, out, true);
    out.spans = traced.into_spans();
    Ok(())
}

/// The ledger must explain the measured total: the re-enacted rows add
/// up to between 75% and 105% of it.
pub fn check_ledger(unattributed: f64, total: f64, out: &mut Outcome) {
    let share = unattributed / total;
    out.note("unattributed_share", share);
    if !(-0.05..=0.25).contains(&share) {
        out.problem(format!(
            "per-layer rows account for {:.1}% of the measured total, outside 75%..105%",
            (1.0 - share) * 100.0
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_seeded() {
        let a = frames(7, 16, 3);
        let b = frames(7, 16, 3);
        let c = frames(8, 16, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.max_abs_diff(y), 0.0);
        }
        assert!(a[0].max_abs_diff(&c[0]) > 0.0);
        assert!(a[0].max_abs_diff(&a[1]) > 0.0, "frames drift");
    }

    #[test]
    fn latencies_follow_the_admission_order() {
        // cap 1, two stages "a" then "b"; frame k enters "a" at 10k and
        // leaves "b" at 10k + 25.
        let mut spans = Vec::new();
        for k in 0..5u64 {
            spans.push(Span::new(format!("a:{k}"), "stream", 10 * k, 5));
            spans.push(Span::new(format!("b:{k}"), "stream", 10 * k + 5, 20));
        }
        let lat = frame_latencies(&spans, "a", "b", 1, 0, 5);
        // Frames 0 and 1 are enqueued at t0 = 0; frame k >= 2 when "a"
        // took frame k - 2, at 10(k - 2).
        assert_eq!(lat, [25.0, 35.0, 45.0, 45.0, 45.0]);
    }
}
