//! The `compile_paper` workload: a cold `Operator::compile` plus
//! `Operator::estimate` of every kernel behind Tables II–IX and the
//! Figure 4 sweep, in a seeded order, with no kernel cache.

use crate::ledger::Ledger;
use crate::output::Outcome;
use crate::stats::{beyond, geomean, median, quantile, slow_time};
use hipacc_baselines::manual::{manual_bilateral, ManualVariant, TexVariant};
use hipacc_baselines::rapidmind::{rapidmind_bilateral, with_geometry, RapidMindOutcome};
use hipacc_bench::cells::{Cell, Table};
use hipacc_bench::paper;
use hipacc_bench::render::{paired_times, spearman};
use hipacc_bench::tables::{
    bilateral_columns, bilateral_table, gaussian_columns, gaussian_table, IMAGE, SIGMA_D, SIGMA_R,
    TABLE_CONFIG,
};
use hipacc_codegen::{verify_compiled, Compiler, MemVariant};
use hipacc_core::{Engine, Operator, PipelineOptions, Target};
use hipacc_filters::bilateral::bilateral_operator;
use hipacc_filters::gaussian::{default_sigma, gaussian_operator};
use hipacc_hwmodel::device::{quadro_fx_5800, tesla_c2050};
use hipacc_hwmodel::{Architecture, Backend, DeviceModel};
use hipacc_image::reference::{self, convolve2d, MaskCoeffs};
use hipacc_image::rng::Pcg32;
use hipacc_image::{phantom, BoundaryMode, Image};
use std::time::{Duration, Instant};

/// Times set-up is repeated to report its median.
const SETUP_REPEATS: usize = 9;

/// Where a compiled kernel's modelled time lands.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Cell {
        table: usize,
        row: usize,
        col: usize,
    },
    /// Figure 4: the heuristic's own choice, or one swept configuration.
    Fig4 { heuristic: bool },
}

struct Job {
    slot: Slot,
    op: Operator,
    target: Target,
}

enum Source {
    /// Index into `Target::evaluation_targets()`.
    Bilateral(usize),
    Gaussian(DeviceModel, u32),
}

struct TableDef {
    number: u32,
    source: Source,
    /// Cells decided without compiling (crash), the rest filled per pass.
    cells: Vec<Vec<Cell>>,
}

/// Every kernel of the paper set, plus the cells no compile decides.
struct Plan {
    tables: Vec<TableDef>,
    jobs: Vec<Job>,
}

/// The paper's crash rule (Tables II–VII): Undefined handling through
/// plain global reads crashes on the Fermi CUDA path.
fn crashes(mode: BoundaryMode, target: &Target, reads_global: bool) -> bool {
    mode == BoundaryMode::Undefined
        && target.backend == Backend::Cuda
        && target.device.arch == Architecture::Fermi
        && reads_global
}

fn forced(variant: MemVariant) -> PipelineOptions {
    PipelineOptions {
        variant,
        force_config: Some(TABLE_CONFIG),
        ..PipelineOptions::default()
    }
}

/// One table row: a boundary mode to the kernel of that cell, or to the
/// cell itself when no kernel is compiled for it.
type RowFn = Box<dyn Fn(BoundaryMode) -> Result<Operator, Cell>>;

/// The rows of one bilateral table in table order, each as a function
/// from boundary mode to a kernel (or a cell decided without one).
fn bilateral_rows(target: &Target) -> Vec<RowFn> {
    let mut rows: Vec<RowFn> = Vec::new();
    for mask in [false, true] {
        for tex in [TexVariant::None, TexVariant::Linear, TexVariant::Hw2D] {
            let t = target.clone();
            rows.push(Box::new(move |mode| {
                if crashes(mode, &t, tex == TexVariant::None) {
                    return Err(Cell::Crash);
                }
                Ok(manual_bilateral(
                    SIGMA_D,
                    SIGMA_R,
                    ManualVariant { tex, mask },
                    mode,
                    TABLE_CONFIG,
                ))
            }));
        }
    }
    for (tex, mask) in [(false, false), (true, false), (false, true), (true, true)] {
        let t = target.clone();
        rows.push(Box::new(move |mode| {
            if crashes(mode, &t, !tex) {
                return Err(Cell::Crash);
            }
            let variant = if tex {
                MemVariant::Texture
            } else {
                MemVariant::Global
            };
            Ok(bilateral_operator(SIGMA_D, SIGMA_R, mask, mode).with_options(forced(variant)))
        }));
    }
    if target.backend == Backend::Cuda {
        for tex in [false, true] {
            let t = target.clone();
            rows.push(Box::new(move |mode| {
                match rapidmind_bilateral(SIGMA_D, SIGMA_R, mode, t.device.arch, tex) {
                    Err(RapidMindOutcome::Crash) => Err(Cell::Crash),
                    Err(_) => Err(Cell::NotAvailable),
                    Ok(_) if crashes(mode, &t, !tex) => Err(Cell::Crash),
                    Ok(op) => Ok(with_geometry(op, IMAGE, IMAGE)),
                }
            }));
        }
    }
    rows
}

fn gaussian_devices() -> [(DeviceModel, u32, u32); 4] {
    [
        (tesla_c2050(), 3, 8),
        (tesla_c2050(), 5, 8),
        (quadro_fx_5800(), 3, 9),
        (quadro_fx_5800(), 5, 9),
    ]
}

/// Enumerate the paper set: Tables II–VII (bilateral 13×13, every
/// implementation row × boundary mode × the six evaluation targets),
/// Tables VIII–IX (generated Gaussian 3×3/5×5 rows; the OpenCV rows
/// are model-only and compile nothing) and Figure 4 (the heuristic's
/// choice plus every valid configuration).
fn plan() -> Result<Plan, String> {
    let mut tables = Vec::new();
    let mut jobs = Vec::new();
    let modes = bilateral_columns();
    for (i, target) in Target::evaluation_targets().into_iter().enumerate() {
        let table = tables.len();
        let mut cells = Vec::new();
        for (row, make) in bilateral_rows(&target).iter().enumerate() {
            let mut line = Vec::new();
            for (col, (_, mode)) in modes.iter().enumerate() {
                match make(*mode) {
                    Ok(op) => {
                        line.push(Cell::NotAvailable);
                        jobs.push(Job {
                            slot: Slot::Cell { table, row, col },
                            op,
                            target: target.clone(),
                        });
                    }
                    Err(cell) => line.push(cell),
                }
            }
            cells.push(line);
        }
        tables.push(TableDef {
            number: i as u32 + 2,
            source: Source::Bilateral(i),
            cells,
        });
    }
    for (device, size, number) in gaussian_devices() {
        let table = tables.len();
        let mut cells = Vec::new();
        let mut row = 0;
        for target in [Target::cuda(device.clone()), Target::opencl(device.clone())] {
            for variant in [
                MemVariant::Global,
                MemVariant::Texture,
                MemVariant::Scratchpad,
            ] {
                for (col, (_, mode)) in gaussian_columns().iter().enumerate() {
                    let op = gaussian_operator(size, default_sigma(size), *mode).with_options(
                        PipelineOptions {
                            variant,
                            ..PipelineOptions::default()
                        },
                    );
                    jobs.push(Job {
                        slot: Slot::Cell { table, row, col },
                        op,
                        target: target.clone(),
                    });
                }
                cells.push(vec![Cell::NotAvailable; gaussian_columns().len()]);
                row += 1;
            }
        }
        tables.push(TableDef {
            number,
            source: Source::Gaussian(device, size),
            cells,
        });
    }

    let target = Target::cuda(tesla_c2050());
    let base = fig4_base();
    let configs = Compiler::new()
        .explore_configurations(&base.def, &base.compile_spec(&target, IMAGE, IMAGE))
        .map_err(|e| format!("figure 4 exploration: {e}"))?;
    jobs.push(Job {
        slot: Slot::Fig4 { heuristic: true },
        op: base,
        target: target.clone(),
    });
    for cfg in configs {
        jobs.push(Job {
            slot: Slot::Fig4 { heuristic: false },
            op: fig4_base().with_options(PipelineOptions {
                force_config: Some((cfg.bx, cfg.by)),
                ..PipelineOptions::default()
            }),
            target: target.clone(),
        });
    }
    Ok(Plan { tables, jobs })
}

fn fig4_base() -> Operator {
    bilateral_operator(SIGMA_D, SIGMA_R, true, BoundaryMode::Clamp)
}

/// Run each distinct library kernel of the set once at 64² on the
/// simulator and compare with the CPU reference: the Gaussians exactly,
/// the bilaterals (which call `expf`) within 1e-4.
fn precheck(seed: u64, out: &mut Outcome) {
    let img = phantom::vessel_tree(
        64,
        64,
        &phantom::VesselParams {
            seed,
            ..phantom::VesselParams::default()
        },
    );
    let m = BoundaryMode::Clamp;
    let sd = SIGMA_D;
    let sr = SIGMA_R as f32;
    let cases: Vec<(&str, Operator, Image<f32>, f32)> = vec![
        (
            "gaussian 3x3",
            gaussian_operator(3, default_sigma(3), m),
            convolve2d(&img, &MaskCoeffs::gaussian(3, 3, default_sigma(3)), m),
            0.0,
        ),
        (
            "gaussian 5x5",
            gaussian_operator(5, default_sigma(5), m),
            convolve2d(&img, &MaskCoeffs::gaussian(5, 5, default_sigma(5)), m),
            0.0,
        ),
        (
            "bilateral 13x13",
            bilateral_operator(sd, SIGMA_R, false, m),
            reference::bilateral(&img, sd, sr, m),
            1e-4,
        ),
        (
            "bilateral 13x13 masked",
            bilateral_operator(sd, SIGMA_R, true, m),
            reference::bilateral_with_mask(&img, sd, sr, m),
            1e-4,
        ),
    ];
    let target = Target::cuda(tesla_c2050());
    for (name, op, expected, tol) in cases {
        out.attempted += 1;
        match op.execute_with(&[("Input", &img)], &target, Engine::Simd) {
            Ok(e) if e.output.max_abs_diff(&expected) <= tol => {}
            Ok(e) => {
                out.failed += 1;
                out.problem(format!(
                    "{name} differs from the CPU reference by {}",
                    e.output.max_abs_diff(&expected)
                ));
            }
            Err(err) => {
                out.failed += 1;
                out.problem(format!("{name} failed at 64x64: {err}"));
            }
        }
    }
}

/// A seeded permutation of `0..n`, fresh for every pass.
fn shuffled(rng: &mut Pcg32, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_below(i as u32 + 1) as usize);
    }
    order
}

/// The cells, the Figure 4 heuristic's configuration, the modelled
/// times and the generated lines that one pass produced.
#[derive(Clone, PartialEq)]
struct PassResult {
    cells: Vec<Vec<Vec<Cell>>>,
    heuristic_cfg: Option<(u32, u32)>,
    times: Vec<f64>,
    loc: usize,
}

impl PassResult {
    fn new(plan: &Plan, n: usize) -> Self {
        PassResult {
            cells: plan.tables.iter().map(|t| t.cells.clone()).collect(),
            heuristic_cfg: None,
            times: vec![0.0; n],
            loc: 0,
        }
    }

    /// Record one job's compile + estimate outcome.
    fn record(
        &mut self,
        job: &Job,
        index: usize,
        compiled: Option<(&hipacc_codegen::CompiledKernel, f64)>,
    ) {
        let cell = match compiled {
            Some((c, ms)) => {
                self.times[index] = ms;
                self.loc += c.generated_loc();
                if let Slot::Fig4 { heuristic: true } = job.slot {
                    self.heuristic_cfg = Some((c.config.bx, c.config.by));
                }
                Cell::Time(ms)
            }
            None => Cell::NotAvailable,
        };
        if let Slot::Cell { table, row, col } = job.slot {
            self.cells[table][row][col] = cell;
        }
    }
}

/// A paper-vs-model band of `tests/reproduction_guard.rs`.
struct Band {
    /// Index into `paper::bilateral_tables()`.
    index: usize,
    number: u32,
    /// Allowed model/paper geometric-mean ratio.
    geomean: (f64, f64),
    /// Minimum Spearman rank correlation (-1 = unchecked).
    min_rho: f64,
    /// Minimum number of paired cells.
    min_n: usize,
}

const GUARD_BANDS: [Band; 4] = [
    Band {
        index: 0,
        number: 2,
        geomean: (0.75, 1.30),
        min_rho: 0.80,
        min_n: 45,
    },
    Band {
        index: 2,
        number: 4,
        geomean: (0.75, 1.30),
        min_rho: 0.75,
        min_n: 50,
    },
    Band {
        index: 4,
        number: 6,
        geomean: (0.70, 1.45),
        min_rho: -1.0,
        min_n: 45,
    },
    Band {
        index: 5,
        number: 7,
        geomean: (0.70, 1.45),
        min_rho: -1.0,
        min_n: 45,
    },
];

/// Check one pass against the library's own tables cell for cell, the
/// paper-vs-model bands of the reproduction guard, and Figure 4's
/// heuristic choice.
fn check(plan: &Plan, pass: &PassResult, out: &mut Outcome) {
    let targets = Target::evaluation_targets();
    let mut models: Vec<Option<Table>> = Vec::new();
    for (t, def) in plan.tables.iter().enumerate() {
        let (lib, skip) = match &def.source {
            Source::Bilateral(i) => (bilateral_table(&targets[*i], def.number), 0),
            Source::Gaussian(dev, size) => {
                // The first two rows are the model-only OpenCV rows.
                (
                    gaussian_table(&Target::cuda(dev.clone()), *size, def.number),
                    2,
                )
            }
        };
        let mine = &pass.cells[t];
        let same = lib.rows.len() == skip + mine.len()
            && lib.rows[skip..].iter().zip(mine).all(|((_, a), b)| a == b);
        if !same {
            out.failed += 1;
            out.problem(format!("table {} differs from the library's", def.number));
        }
        models.push(matches!(def.source, Source::Bilateral(_)).then(|| {
            Table {
                title: lib.title.clone(),
                columns: lib.columns.clone(),
                rows: lib
                    .rows
                    .iter()
                    .map(|(l, _)| l.clone())
                    .zip(mine.iter().cloned())
                    .collect(),
            }
        }));
    }

    for Band {
        index,
        number,
        geomean: (lo, hi),
        min_rho,
        min_n,
    } in GUARD_BANDS
    {
        let Some(model) = &models[index] else {
            continue;
        };
        let (m, p) = paired_times(model, paper::bilateral_tables()[index]);
        let ratios: Vec<f64> = m.iter().zip(&p).map(|(a, b)| a / b).collect();
        let gm = geomean(&ratios).unwrap_or(0.0);
        let rho = spearman(&m, &p);
        out.note(&format!("table{number}_geomean"), gm);
        if m.len() < min_n || !(lo..=hi).contains(&gm) || rho < min_rho {
            out.failed += 1;
            out.problem(format!(
                "table {number} left the guard band: {} cells, geo-mean {gm:.3}, Spearman {rho:.3}",
                m.len()
            ));
        }
    }
    if let Some(t2) = &models[0] {
        for (row, col, want) in [
            ("Manual", "Undef.", Cell::Crash),
            ("  +2DTex", "Mirror", Cell::NotAvailable),
            ("RapidMind", "Repeat", Cell::Crash),
            ("RapidMind", "Mirror", Cell::NotAvailable),
        ] {
            if t2.cell(row, col) != Some(want) {
                out.failed += 1;
                out.problem(format!("table 2 cell ({row}, {col}) is not {want}"));
            }
        }
    }
    let optimum = (paper::FIG4_OPTIMUM.0, paper::FIG4_OPTIMUM.1);
    if pass.heuristic_cfg != Some(optimum) {
        out.failed += 1;
        out.problem(format!(
            "figure 4 heuristic chose {:?}, not the paper's {optimum:?}",
            pass.heuristic_cfg
        ));
    }
}

/// Set up `SETUP_REPEATS` times (plan the set, then the 64² reference
/// check) and keep the last plan; report the median set-up time.
fn setup(seed: u64, out: &mut Outcome) -> Result<Plan, String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let p = plan()?;
        let mut scratch = Outcome::default();
        precheck(seed, if i == 0 { &mut *out } else { &mut scratch });
        times.push(t.elapsed().as_secs_f64());
        last = Some(p);
    }
    out.push("setup_s", median(&times).unwrap_or(0.0), "s", times.len());
    Ok(last.expect("at least one set-up"))
}

/// Run `compile_paper` for `seconds`: whole passes over the set, each in
/// a fresh seeded order, or, when `traced`, one per-layer pass.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    out.note("engine", "none (compile and model only)");
    out.note("image", format!("{IMAGE}x{IMAGE}"));
    out.note("opt_level", PipelineOptions::default().opt_level);
    let plan = setup(seed, out)?;
    let n = plan.jobs.len();
    out.note("kernels_per_pass", n);
    let mut rng = Pcg32::seed_from_u64(seed);
    if traced {
        return traced_run(&plan, &mut rng, out);
    }

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Compile + estimate times in ms, per kernel, one per pass.
    let mut per_kernel = vec![Vec::new(); n];
    let mut pass_s = Vec::new();
    let mut first: Option<PassResult> = None;
    // The first pass warms up: it is checked but not timed. A pass
    // starts only if it is expected to end less than half a pass past the
    // budget.
    let mut last = Duration::ZERO;
    while pass_s.is_empty() || start.elapsed() + last / 2 < budget {
        let warm_up = first.is_none();
        let order = shuffled(&mut rng, n);
        let mut result = PassResult::new(&plan, n);
        let t_pass = Instant::now();
        for j in order {
            let job = &plan.jobs[j];
            let t = Instant::now();
            let done = job.op.compile(&job.target, IMAGE, IMAGE).map(|c| {
                let ms = job.op.estimate(&c, &job.target).total_ms;
                (c, ms)
            });
            if !warm_up {
                per_kernel[j].push(t.elapsed().as_secs_f64() * 1e3);
            }
            result.record(job, j, done.as_ref().ok().map(|(c, ms)| (c, *ms)));
        }
        last = t_pass.elapsed();
        if !warm_up {
            pass_s.push(last.as_secs_f64());
        }
        out.attempted += n as u64;
        match &first {
            None => first = Some(result),
            Some(f) if *f != result => {
                out.failed += 1;
                out.problem("a later pass modelled different cells than the first");
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one pass");
    check(&plan, &first, out);

    // Each kernel's slow-phase time over the passes; the percentiles and
    // the throughput are taken over those.
    let typical: Vec<f64> = per_kernel.iter().filter_map(|t| slow_time(t)).collect();
    if beyond(typical.len(), 0.9) < 10 {
        out.problem("fewer than ten compile times beyond the p90");
    }
    let paper_s = typical.iter().sum::<f64>() / 1e3;
    out.push("throughput", n as f64 / paper_s, "1/s", pass_s.len());
    out.push(
        "latency_p50_ms",
        quantile(&typical, 0.5).unwrap_or(0.0),
        "ms",
        n,
    );
    out.push(
        "latency_p90_ms",
        quantile(&typical, 0.9).unwrap_or(0.0),
        "ms",
        n,
    );
    let modelled: Vec<f64> = first.times.iter().copied().filter(|t| *t > 0.0).collect();
    out.push(
        "model_gpu_ms",
        geomean(&modelled).unwrap_or(0.0),
        "model_ms",
        modelled.len(),
    );
    out.push("gen_loc", first.loc as f64, "lines", modelled.len());
    out.note("passes", pass_s.len());
    out.note("paper_s", paper_s);
    out.note("pass_wall_s_median", median(&pass_s).unwrap_or(0.0));
    out.note(
        "pass_wall_s_per_pass",
        pass_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    Ok(())
}

/// Rows whose sum, plus `core.unattributed_us`, is `core.op_total_us`
/// (one `Operator::compile` + `Operator::estimate`).
/// `analysis.verify_us` re-runs the verifier that `codegen.compile_us`
/// already includes, so it is not part of the sum.
const COMPILE_ROWS: [&str; 3] = [
    "core.compile_spec_us",
    "codegen.compile_us",
    "core.estimate_us",
];

/// Re-enact one job's compile + estimate through the public calls it is
/// made of. Returns the artifact and modelled time from the whole call.
fn reenact(l: &mut Ledger, job: &Job) -> Option<(hipacc_codegen::CompiledKernel, f64)> {
    let (whole, _) = l.time("core.op_total_us", || {
        job.op.compile(&job.target, IMAGE, IMAGE).ok().map(|c| {
            let ms = job.op.estimate(&c, &job.target).total_ms;
            (c, ms)
        })
    });
    let (spec, _) = l.time("core.compile_spec_us", || {
        job.op.compile_spec(&job.target, IMAGE, IMAGE)
    });
    let compiler = Compiler::new();
    let (c, _) = l.time("codegen.compile_us", || {
        compiler.compile(&job.op.def, &spec)
    });
    match c {
        Ok(c) => {
            l.time("analysis.verify_us", || verify_compiled(&c, &spec));
            l.time("core.estimate_us", || job.op.estimate(&c, &job.target));
        }
        Err(_) => l.add("core.estimate_us", 0.0),
    }
    whole
}

fn traced_run(plan: &Plan, rng: &mut Pcg32, out: &mut Outcome) -> Result<(), String> {
    let n = plan.jobs.len();
    let mut traced = Ledger::new(true);
    let mut untraced = Ledger::new(false);
    let mut result = PassResult::new(plan, n);
    let (mut fires, mut occ) = (0u64, Vec::new());
    let mut walls = (0.0, 0.0);
    for (i, j) in shuffled(rng, n).into_iter().enumerate() {
        let job = &plan.jobs[j];
        let (done, us) = traced.span(&format!("kernel:{j}"), "kernel", |l| reenact(l, job));
        if let Some((c, _)) = &done {
            fires += c.opt.total() as u64;
            occ.push(c.occupancy.map(|o| o.occupancy).unwrap_or(0.0));
        }
        result.record(job, j, done.as_ref().map(|(c, ms)| (c, *ms)));
        // Every fourth kernel again with spans off, to price the spans.
        if i % 4 == 0 {
            walls.0 += us;
            walls.1 += untraced.span("kernel", "kernel", |l| reenact(l, job)).1;
        }
    }
    out.attempted += n as u64;
    check(plan, &result, out);

    let total = row(&traced, "core.op_total_us");
    let mut attributed = 0.0;
    for r in COMPILE_ROWS {
        attributed += row(&traced, r);
        out.push(r, row(&traced, r), "us", n);
    }
    out.push("core.op_total_us", total, "us", n);
    out.push("core.unattributed_us", total - attributed, "us", n);
    crate::stream::check_ledger(total - attributed, total, out);
    out.push(
        "analysis.verify_us",
        row(&traced, "analysis.verify_us"),
        "us",
        occ.len(),
    );
    out.push("ir.opt_fires", fires as f64, "count", occ.len());
    out.push(
        "hwmodel.occupancy_mean",
        occ.iter().sum::<f64>() / occ.len().max(1) as f64,
        "ratio",
        occ.len(),
    );
    out.push(
        "trace.overhead_pct",
        (walls.0 - walls.1) / walls.1 * 100.0,
        "%",
        n / 4,
    );

    let target = Target::cuda(tesla_c2050());
    let base = fig4_base();
    let spec = base.compile_spec(&target, IMAGE, IMAGE);
    traced.set_lane(2);
    for _ in 0..5 {
        let compiler = Compiler::new();
        let (configs, _) = traced.time("codegen.explore_us", || {
            compiler.explore_configurations(&base.def, &spec)
        });
        if configs.is_err() {
            out.problem("figure 4 exploration failed");
        }
    }
    out.push(
        "codegen.explore_us",
        row(&traced, "codegen.explore_us"),
        "us",
        5,
    );
    out.spans = traced.into_spans();
    Ok(())
}

/// The median sample of a ledger row.
fn row(l: &Ledger, r: &str) -> f64 {
    median(l.samples(r)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(&mut Pcg32::seed_from_u64(3), 50);
        let b = shuffled(&mut Pcg32::seed_from_u64(3), 50);
        let c = shuffled(&mut Pcg32::seed_from_u64(4), 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
