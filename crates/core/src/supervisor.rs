//! The resilient launch supervisor.
//!
//! [`supervise`] wraps the plain compile-and-execute pipeline of
//! [`Operator::execute`] in a recovery loop that survives every fault
//! class the injection plane ([`hipacc_faults`]) can produce:
//!
//! * **hung or stalled workers** — every faulted launch runs under the
//!   plan's virtual deadline; a cancellation
//!   ([`SimError::DeadlineExceeded`]) is classified *transient* and
//!   retried with exponential backoff. Both the launch cost and the
//!   backoff live on a **virtual clock** (microseconds accumulated in
//!   the report), so tests never sleep;
//! * **dropped, bit-flipped, or poisoned block results** — the engines
//!   keep per-block checksums of computed vs. committed stores; blocks
//!   whose checksums diverge are **selectively re-executed** on clean
//!   memory ([`LaunchMode::Repair`]) and patched into the output, and the
//!   repair itself is validated against the original checksums;
//! * **corrupted constant banks** — the post-launch scrub compares the
//!   uploaded coefficients bit-for-bit; a dirty bank invalidates the
//!   whole launch, which is retried (with the plan's seed rotated by the
//!   attempt counter, so transient flips do not recur);
//! * **configurations the device cannot sustain** — resource-limit
//!   compile failures and exhausted retries walk the degradation ladder
//!   of [`hipacc_codegen::fallback`]: drop texture/scratchpad paths back
//!   to global memory, then shrink the tile, recompiling at each rung.
//!
//! Every decision is recorded as a [`RecoveryEvent`]; the final
//! [`RecoveryReport`] renders as text or as `"recovery"`-category trace
//! spans merged into the launch profile. With an inert plan
//! ([`FaultPlan::none`]) the supervised result is **bit-identical** to
//! [`Operator::execute`] on the same engine.
//!
//! [`SimError::DeadlineExceeded`]: hipacc_sim::SimError::DeadlineExceeded
//! [`LaunchMode::Repair`]: hipacc_sim::LaunchMode::Repair

use crate::operator::{Execution, Launched, Operator, OperatorError};
use crate::profile::LaunchProfile;
use crate::target::Target;
use hipacc_codegen::{fallback_chain, MemVariant};
use hipacc_faults::{FaultPlan, FaultSession};
use hipacc_image::Image;
use hipacc_profile::{Recorder, Span};
use hipacc_sim::inject::{combine_hash, store_hash};
use hipacc_sim::launch::run_in_mode;
use hipacc_sim::{Engine, LaunchMode};
use std::sync::Arc;

/// Retry and fallback policy for [`supervise`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Launch attempts per configuration before degrading (≥ 1).
    pub max_attempts: u32,
    /// Base of the exponential virtual backoff charged after a transient
    /// failure: attempt `k` waits `backoff_base_us << k` virtual µs.
    pub backoff_base_us: u64,
    /// Walk the config-degradation ladder when retries are exhausted or
    /// compilation hits a resource limit. `false` = retry-only.
    pub fallback: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_us: 100,
            fallback: true,
        }
    }
}

/// What the supervisor did in response to one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The attempt validated clean; its output is the result.
    Completed,
    /// Corrupted blocks were re-executed on clean memory and patched in;
    /// the repaired output is the result.
    Repaired,
    /// The attempt was discarded and relaunched (transient failure,
    /// constant-bank corruption, or a repair that did not validate).
    Retried,
    /// The configuration was abandoned for the next rung of the
    /// degradation ladder (recompile with cheaper options).
    Degraded,
    /// Recovery gave up; the error is surfaced to the caller.
    Surfaced,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryAction::Completed => "completed",
            RecoveryAction::Repaired => "repaired",
            RecoveryAction::Retried => "retried",
            RecoveryAction::Degraded => "degraded",
            RecoveryAction::Surfaced => "surfaced",
        })
    }
}

/// One structured entry of the supervisor's recovery log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Configuration rung the attempt ran under (`initial`,
    /// `scratchpad->global`, `tile 64x1`, …).
    pub step: String,
    /// Attempt index within the step (0-based).
    pub attempt: u32,
    /// What the supervisor did.
    pub action: RecoveryAction,
    /// Human-readable specifics (corrupted blocks, dirty banks, the
    /// failure diagnostic, …). Deterministic for a given plan.
    pub detail: String,
    /// Virtual time charged for the attempt (launch plus any backoff).
    pub virtual_us: u64,
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} attempt {}] {}: {} ({}us)",
            self.step, self.attempt, self.action, self.detail, self.virtual_us
        )
    }
}

/// Outcome counters for one configuration rung the supervisor visited:
/// how many events on that rung ended in each [`RecoveryAction`], plus
/// the compile options the rung ran under. This is the machine-readable
/// side of the event log — the stream resilience governor keys its
/// circuit breaker on the **final** rung (`RecoveryReport::final_rung`),
/// and `StreamReport` derives its action totals from these counters, so
/// both share one source of truth with the rendered text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungOutcome {
    /// Rung label (`initial`, `scratchpad->global`, `tile 64x1`, …).
    pub rung: String,
    /// Memory variant the rung compiled with.
    pub variant: MemVariant,
    /// Forced launch config of the rung (`None` = the database's pick).
    pub force_config: Option<(u32, u32)>,
    /// Attempts on this rung that validated clean.
    pub completed: u32,
    /// Attempts recovered by selective block re-execution.
    pub repaired: u32,
    /// Attempts discarded and relaunched.
    pub retried: u32,
    /// Times this rung was abandoned for the next one.
    pub degraded: u32,
    /// Failures surfaced to the caller from this rung.
    pub surfaced: u32,
}

impl RungOutcome {
    fn new(rung: &str, variant: MemVariant, force_config: Option<(u32, u32)>) -> Self {
        Self {
            rung: rung.to_string(),
            variant,
            force_config,
            completed: 0,
            repaired: 0,
            retried: 0,
            degraded: 0,
            surfaced: 0,
        }
    }

    fn bump(&mut self, action: RecoveryAction) {
        match action {
            RecoveryAction::Completed => self.completed += 1,
            RecoveryAction::Repaired => self.repaired += 1,
            RecoveryAction::Retried => self.retried += 1,
            RecoveryAction::Degraded => self.degraded += 1,
            RecoveryAction::Surfaced => self.surfaced += 1,
        }
    }

    /// The counter for `action`.
    pub fn count(&self, action: RecoveryAction) -> u32 {
        match action {
            RecoveryAction::Completed => self.completed,
            RecoveryAction::Repaired => self.repaired,
            RecoveryAction::Retried => self.retried,
            RecoveryAction::Degraded => self.degraded,
            RecoveryAction::Surfaced => self.surfaced,
        }
    }

    /// Whether this rung produced the validated result (clean or
    /// repaired).
    pub fn succeeded(&self) -> bool {
        self.completed + self.repaired > 0
    }
}

/// The full recovery log of one supervised execution.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Events in the order they happened.
    pub events: Vec<RecoveryEvent>,
    /// Per-rung outcome counters, in ladder order as visited. The last
    /// entry is the rung execution ended on (successfully or not).
    pub rungs: Vec<RungOutcome>,
    /// Total launches attempted (including the successful one).
    pub attempts: u32,
    /// Total virtual time: launches, backoffs, repairs.
    pub virtual_us: u64,
    /// The fault plan's stable summary string.
    pub plan: String,
}

impl RecoveryReport {
    /// Whether any recovery action (beyond a clean first launch) was
    /// needed.
    pub fn recovered(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.action != RecoveryAction::Completed)
    }

    /// Total events across all rungs that ended in `action`.
    pub fn action_total(&self, action: RecoveryAction) -> u32 {
        self.rungs.iter().map(|r| r.count(action)).sum()
    }

    /// The rung execution ended on — the one a circuit breaker pins a
    /// stage to when it decides the ladder's verdict is stable.
    pub fn final_rung(&self) -> Option<&RungOutcome> {
        self.rungs.last()
    }

    /// Whether execution succeeded only after abandoning the requested
    /// configuration (the final rung is a degraded one).
    pub fn degraded_success(&self) -> bool {
        self.final_rung()
            .is_some_and(|r| r.succeeded() && r.rung != "initial")
    }

    /// The recovery log as `"recovery"`-category trace spans laid out
    /// sequentially on the virtual timeline starting at `base_us`.
    pub fn spans(&self, base_us: u64) -> Vec<Span> {
        let mut out = Vec::new();
        let mut cursor = base_us;
        for e in &self.events {
            let dur = e.virtual_us.max(1);
            out.push(
                Span::new(format!("{}: {}", e.action, e.step), "recovery", cursor, dur)
                    .arg("attempt", e.attempt.to_string())
                    .arg("detail", e.detail.clone())
                    .arg("virtual_us", e.virtual_us.to_string()),
            );
            cursor = cursor.saturating_add(dur);
        }
        out
    }

    /// Render the log as deterministic text, one event per line.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "recovery report: {} attempt(s), {} virtual us, plan: {}\n",
            self.attempts, self.virtual_us, self.plan
        );
        for e in &self.events {
            out.push_str(&format!("  {e}\n"));
        }
        for r in &self.rungs {
            out.push_str(&format!(
                "  rung {}: completed={} repaired={} retried={} degraded={} surfaced={}\n",
                r.rung, r.completed, r.repaired, r.retried, r.degraded, r.surfaced
            ));
        }
        out
    }
}

/// A supervised execution that (eventually) produced a validated result.
#[derive(Clone, Debug)]
pub struct Supervised {
    /// The validated execution (output, stats, modelled time, artifact).
    pub execution: Execution,
    /// What it took to get there.
    pub recovery: RecoveryReport,
    /// The launch profile of the successful attempt, with the fault plan
    /// recorded and the recovery spans merged in.
    pub profile: LaunchProfile,
}

/// A supervised execution that exhausted every recovery option.
#[derive(Debug)]
pub struct SupervisedError {
    /// The final, unrecoverable failure.
    pub error: OperatorError,
    /// Everything the supervisor tried before giving up.
    pub report: RecoveryReport,
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "supervision failed after {} attempt(s): {}",
            self.report.attempts, self.error
        )
    }
}

impl std::error::Error for SupervisedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One rung of the configuration ladder the supervisor walks.
#[derive(Clone, Debug)]
struct StepSpec {
    label: String,
    variant: MemVariant,
    force_config: Option<(u32, u32)>,
}

/// Find-or-create the [`RungOutcome`] entry for `rung` and bump its
/// `action` counter. Rung labels are unique across the ladder, so the
/// entries stay in visit order.
fn note_rung(
    report: &mut RecoveryReport,
    rung: &str,
    variant: MemVariant,
    force_config: Option<(u32, u32)>,
    action: RecoveryAction,
) {
    match report.rungs.iter_mut().find(|r| r.rung == rung) {
        Some(r) => r.bump(action),
        None => {
            let mut r = RungOutcome::new(rung, variant, force_config);
            r.bump(action);
            report.rungs.push(r);
        }
    }
}

fn block_list(blocks: &[(u32, u32)]) -> String {
    blocks
        .iter()
        .map(|(x, y)| format!("({x},{y})"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Execute `op` under the supervisor: inject `plan`, validate the
/// output, and retry / repair / degrade per `cfg` until a validated
/// result exists or every option is exhausted.
///
/// With [`FaultPlan::none`] the result is bit-identical to
/// [`Operator::execute_with`] on the same engine.
#[allow(clippy::result_large_err)] // the Err carries the full RecoveryReport by design
pub fn supervise(
    op: &Operator,
    inputs: &[(&str, &Image<f32>)],
    target: &Target,
    engine: Engine,
    plan: &FaultPlan,
    cfg: &SupervisorConfig,
) -> Result<Supervised, SupervisedError> {
    let mut report = RecoveryReport {
        plan: plan.summary(),
        ..RecoveryReport::default()
    };
    let fail = |error: OperatorError,
                mut report: RecoveryReport,
                step: &str,
                attempt: u32,
                variant: MemVariant,
                force: Option<(u32, u32)>| {
        note_rung(&mut report, step, variant, force, RecoveryAction::Surfaced);
        report.events.push(RecoveryEvent {
            step: step.to_string(),
            attempt,
            action: RecoveryAction::Surfaced,
            detail: error.diagnostic().to_string(),
            virtual_us: 0,
        });
        Err(SupervisedError { error, report })
    };

    let Some((_, first)) = inputs.first() else {
        return fail(
            OperatorError::NoInputs,
            report,
            "initial",
            0,
            op.options.variant,
            op.options.force_config,
        );
    };
    let (width, height) = (first.width(), first.height());

    let mut steps = vec![StepSpec {
        label: "initial".into(),
        variant: op.options.variant,
        force_config: op.options.force_config,
    }];
    let mut ladder_built = !cfg.fallback;
    // The fault session's attempt counter is global across rungs, so a
    // transient plan (faulty_attempts = 1) stays cured after a retry even
    // if the supervisor later degrades the configuration.
    let mut fault_attempt: u32 = 0;
    let mut step_idx = 0;

    while step_idx < steps.len() {
        let step = steps[step_idx].clone();
        // The effective compile options of this rung, recorded into the
        // per-rung outcome counters so a circuit breaker can re-create
        // exactly this configuration when it pins the stage.
        let rung_variant = step.variant;
        let rung_force = step.force_config.or(op.options.force_config);

        let mut rec = Recorder::new();
        let mut spec_c = op.compile_spec(target, width, height);
        spec_c.variant = rung_variant;
        spec_c.force_config = rung_force;
        // Kernel-cache policy: only the pristine `initial` rung may be
        // served from (or populate) the cache. Degraded rungs compile with
        // a different fingerprint anyway (variant / force_config are part
        // of the key), but they bypass the cache entirely — recovery
        // timing must never be skewed by warm-cache effects, and a
        // degraded artifact must never linger for later healthy launches.
        let bypass = (step.label != "initial").then_some("bypass: degraded-config");
        let (compiled, cache_report) = match op.compile_cached(&spec_c, Some(&mut rec), bypass) {
            Ok(c) => c,
            Err(e) => {
                let resource = e.is_resource_limit();
                let err = OperatorError::Compile(e);
                if resource && cfg.fallback {
                    if !ladder_built {
                        // No tile hint from a failed compile: degrade
                        // the memory variant only.
                        steps.extend(ladder_steps(op.options.variant, None));
                        ladder_built = true;
                    }
                    if step_idx + 1 < steps.len() {
                        note_rung(
                            &mut report,
                            &step.label,
                            rung_variant,
                            rung_force,
                            RecoveryAction::Degraded,
                        );
                        report.events.push(RecoveryEvent {
                            step: step.label.clone(),
                            attempt: 0,
                            action: RecoveryAction::Degraded,
                            detail: format!(
                                "{} -> trying {}",
                                err.diagnostic(),
                                steps[step_idx + 1].label
                            ),
                            virtual_us: 0,
                        });
                        step_idx += 1;
                        continue;
                    }
                }
                return fail(err, report, &step.label, 0, rung_variant, rung_force);
            }
        };
        if !ladder_built {
            steps.extend(ladder_steps(op.options.variant, Some(compiled.config)));
            ladder_built = true;
        }

        let mut attempt = 0;
        while attempt < cfg.max_attempts.max(1) {
            let session = FaultSession::new(plan.clone(), fault_attempt);
            report.attempts += 1;
            fault_attempt += 1;
            // Pushes the retry event; virtual-time accounting is the
            // caller's (launch time is already counted on success paths).
            let retry = |report: &mut RecoveryReport, detail: String, virtual_us: u64| {
                note_rung(
                    report,
                    &step.label,
                    rung_variant,
                    rung_force,
                    RecoveryAction::Retried,
                );
                report.events.push(RecoveryEvent {
                    step: step.label.clone(),
                    attempt,
                    action: RecoveryAction::Retried,
                    detail,
                    virtual_us,
                });
            };

            let mode = LaunchMode::Fault(&session);
            match op.launch(Arc::clone(&compiled), inputs, target, engine, mode) {
                Err(e) => {
                    let err = OperatorError::Sim(e);
                    let transient = err.class().is_transient();
                    // Charge the deadline, not the saturated worker time:
                    // the watchdog cancels *at* the deadline, and a hung
                    // worker's own clock reads (near) u64::MAX.
                    let elapsed = match &err {
                        OperatorError::Sim(hipacc_sim::SimError::DeadlineExceeded {
                            elapsed_us,
                            deadline_us,
                            ..
                        }) => (*elapsed_us).min(*deadline_us),
                        _ => 0,
                    };
                    if transient && attempt + 1 < cfg.max_attempts {
                        let backoff = cfg.backoff_base_us << attempt;
                        report.virtual_us = report
                            .virtual_us
                            .saturating_add(elapsed.saturating_add(backoff));
                        retry(
                            &mut report,
                            format!("{} -> backoff {}us", err.diagnostic(), backoff),
                            elapsed.saturating_add(backoff),
                        );
                        attempt += 1;
                        continue;
                    }
                    if transient && cfg.fallback && step_idx + 1 < steps.len() {
                        report.virtual_us = report.virtual_us.saturating_add(elapsed);
                        note_rung(
                            &mut report,
                            &step.label,
                            rung_variant,
                            rung_force,
                            RecoveryAction::Degraded,
                        );
                        report.events.push(RecoveryEvent {
                            step: step.label.clone(),
                            attempt,
                            action: RecoveryAction::Degraded,
                            detail: format!(
                                "retries exhausted -> trying {}",
                                steps[step_idx + 1].label
                            ),
                            virtual_us: elapsed,
                        });
                        break; // next rung
                    }
                    return fail(err, report, &step.label, attempt, rung_variant, rung_force);
                }
                Ok(run) => {
                    report.virtual_us += run.faults.virtual_us;
                    if !run.corrupt_const_banks.is_empty() {
                        let detail =
                            format!("constant banks corrupted: {:?}", run.corrupt_const_banks);
                        if attempt + 1 < cfg.max_attempts {
                            retry(&mut report, detail, run.faults.virtual_us);
                            attempt += 1;
                            continue;
                        }
                        return fail(
                            OperatorError::Unrecovered(detail),
                            report,
                            &step.label,
                            attempt,
                            rung_variant,
                            rung_force,
                        );
                    }

                    let corrupted = run.faults.corrupted_blocks();
                    if corrupted.is_empty() {
                        note_rung(
                            &mut report,
                            &step.label,
                            rung_variant,
                            rung_force,
                            RecoveryAction::Completed,
                        );
                        report.events.push(RecoveryEvent {
                            step: step.label.clone(),
                            attempt,
                            action: RecoveryAction::Completed,
                            detail: "validated clean".into(),
                            virtual_us: run.faults.virtual_us,
                        });
                        return finish(op, target, engine, plan, run, rec, report, cache_report);
                    }

                    let launch_us = run.faults.virtual_us;
                    match try_repair(op, inputs, engine, &corrupted, run) {
                        Ok(run) => {
                            note_rung(
                                &mut report,
                                &step.label,
                                rung_variant,
                                rung_force,
                                RecoveryAction::Repaired,
                            );
                            report.events.push(RecoveryEvent {
                                step: step.label.clone(),
                                attempt,
                                action: RecoveryAction::Repaired,
                                detail: format!(
                                    "re-executed {} corrupted block(s): {}",
                                    corrupted.len(),
                                    block_list(&corrupted)
                                ),
                                virtual_us: run.faults.virtual_us,
                            });
                            return finish(
                                op,
                                target,
                                engine,
                                plan,
                                run,
                                rec,
                                report,
                                cache_report,
                            );
                        }
                        Err(detail) => {
                            if attempt + 1 < cfg.max_attempts {
                                retry(&mut report, detail, launch_us);
                                attempt += 1;
                                continue;
                            }
                            return fail(
                                OperatorError::Unrecovered(detail),
                                report,
                                &step.label,
                                attempt,
                                rung_variant,
                                rung_force,
                            );
                        }
                    }
                }
            }
        }
        if attempt >= cfg.max_attempts.max(1) {
            // Retries exhausted without a break-to-degrade: surface.
            return fail(
                OperatorError::Unrecovered(format!(
                    "{} attempt(s) exhausted on step `{}`",
                    cfg.max_attempts, step.label
                )),
                report,
                &step.label,
                attempt.saturating_sub(1),
                rung_variant,
                rung_force,
            );
        }
        step_idx += 1;
    }

    let err = OperatorError::Unrecovered("configuration ladder exhausted".into());
    fail(err, report, "ladder", 0, op.options.variant, None)
}

/// The degradation ladder as supervisor steps.
fn ladder_steps(
    requested: MemVariant,
    config: Option<hipacc_hwmodel::LaunchConfig>,
) -> Vec<StepSpec> {
    fallback_chain(requested, config)
        .into_iter()
        .map(|s| StepSpec {
            label: s.label,
            variant: s.variant,
            force_config: s.force_config,
        })
        .collect()
}

/// Selectively re-execute `corrupted` blocks on clean memory, validate
/// the recomputed stores against the ledger's expected checksums, and
/// patch them into the run's output. Returns the repaired run, or a
/// description of why the repair did not validate.
fn try_repair(
    op: &Operator,
    inputs: &[(&str, &Image<f32>)],
    engine: Engine,
    corrupted: &[(u32, u32)],
    mut run: Launched,
) -> Result<Launched, String> {
    let compiled = &run.execution.compiled;
    let spec = op.sim_spec(compiled, inputs);
    let mode = LaunchMode::Repair(corrupted);
    let stores = run_in_mode(&compiled.device_kernel, &spec, engine, mode)
        .map_err(|e| format!("repair failed: {e}"))?
        .repaired;
    let expected: u64 = run
        .faults
        .ledger
        .iter()
        .filter(|l| corrupted.contains(&(l.bx, l.by)))
        .fold(0u64, |acc, l| acc.wrapping_add(l.expected));
    let recomputed = stores.iter().fold(0u64, |acc, s| {
        combine_hash(acc, store_hash(&s.buf, s.idx, s.value))
    });
    if recomputed != expected {
        return Err(format!(
            "repair of blocks {} did not validate against the ledger",
            block_list(corrupted)
        ));
    }
    let raw = run.execution.output.raw_mut();
    for s in &stores {
        if s.buf == "OUT" && s.idx < raw.len() {
            raw[s.idx] = s.value;
        }
    }
    Ok(run)
}

/// Assemble the successful result: execution, profile (fault plan and
/// recovery spans included), and the recovery report. The recovery
/// spans sit on the virtual timeline and start where the launch ended.
#[allow(clippy::too_many_arguments, clippy::result_large_err)]
fn finish(
    op: &Operator,
    target: &Target,
    engine: Engine,
    plan: &FaultPlan,
    run: Launched,
    rec: Recorder,
    report: RecoveryReport,
    cache_report: Option<crate::cache::CacheReport>,
) -> Result<Supervised, SupervisedError> {
    let recovery_start = run.wall_us.1;
    let fault_plan = plan.any_armed().then(|| plan.summary());
    let (execution, mut profile) =
        run.into_profiled(op, target, engine, rec, cache_report, fault_plan);
    profile.spans.extend(report.spans(recovery_start));
    Ok(Supervised {
        execution,
        recovery: report,
        profile,
    })
}

impl Operator {
    /// [`Self::execute_with`] wrapped in the launch supervisor: inject
    /// `plan`, validate per-block checksums and constant banks, retry /
    /// repair / degrade per `cfg`. See [`supervise`].
    #[allow(clippy::result_large_err)]
    pub fn execute_supervised(
        &self,
        inputs: &[(&str, &Image<f32>)],
        target: &Target,
        engine: Engine,
        plan: &FaultPlan,
        cfg: &SupervisorConfig,
    ) -> Result<Supervised, SupervisedError> {
        supervise(self, inputs, target, engine, plan, cfg)
    }
}
