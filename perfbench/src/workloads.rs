//! The workloads, their repetitions, output checks and metrics.
//!
//! Every workload is a closed loop over a fixed unit of work, a
//! *repetition*, whose inputs derive from the run's seed and the
//! repetition's index.  An untraced run repeats it until the run's time is
//! spent (and at least [`Sizes::min_reps`] times) and reports end-to-end
//! metrics; a traced run alternates untraced and traced repetitions of the
//! same seeds, checks that each pair's histories are bit-identical, and
//! reports per-layer metrics from the traced half's span file.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nnbo_baselines::{weibo, GpSurrogateTrainer};
use nnbo_core::problems::{OpAmpProblem, PvtCorner};
use nnbo_core::{
    BayesOpt, BoConfig, Evaluation, NeuralGpEnsembleTrainer, OptimizationResult, Problem,
    RefitPolicy, SuggestCost, SurrogateTrainer, SweepProblem,
};
use nnbo_pool::WorkerPool;
use nnbo_serve::{BoService, ServeConfig, ShardConfig, ShardedStore, SnapshotStore};
use serde::{Deserialize, Serialize};

use crate::stats;
use crate::trace::{self, AckStore, Span, TimedProblem, TimedStore, TimedTrainer, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's method (neural-GP ensemble, K = 5, refit every step) on
    /// the Table-I op-amp: the surrogate-fit workload.
    PaperOpamp,
    /// WEIBO (classical GP) on the op-amp over 18 PVT corners: an O(N³)
    /// fit with the corner fan-out underneath.
    WeiboPvt,
    /// Two clients running neural op-amp sessions on the service with a
    /// 2-shard store on disk: incremental appends, checkpoint encode and
    /// fsync'd persists.
    ServeCheckpoint,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperOpamp,
        Workload::WeiboPvt,
        Workload::ServeCheckpoint,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperOpamp => "paper-opamp",
            Workload::WeiboPvt => "weibo-pvt",
            Workload::ServeCheckpoint => "serve-checkpoint",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed unit of work of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Initial (Latin-hypercube) design of every BO run or session.
    pub initial: usize,
    /// Model-guided steps of every BO run or session.
    pub steps: usize,
    /// Repetitions every run performs, however long they take; the quality
    /// metric and the tail percentile level are fixed by this count.
    pub min_reps: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub fn standard(w: Workload) -> Sizes {
        let (initial, steps, min_reps) = match w {
            Workload::PaperOpamp => (30, 20, 3),
            Workload::WeiboPvt => (30, 60, 6),
            Workload::ServeCheckpoint => (20, 30, 3),
        };
        Sizes {
            initial,
            steps,
            min_reps,
        }
    }

    /// Small sizes for the identity test.
    pub fn tiny() -> Sizes {
        Sizes {
            initial: 8,
            steps: 6,
            min_reps: 1,
        }
    }

    /// Step samples every run takes at least: the count the tail level is
    /// chosen from.  A served session persists once after its first step and
    /// once more after each step, the last one after the budget-exhausted
    /// step that finishes it: `steps` cycles per session.
    fn min_step_samples(&self, w: Workload) -> usize {
        match w {
            Workload::PaperOpamp | Workload::WeiboPvt => self.min_reps * self.steps,
            Workload::ServeCheckpoint => self.min_reps * SERVE_CLIENTS * self.steps,
        }
    }
}

/// A problem shared with the service's workers.
type SharedProblem = Arc<dyn Problem + Send + Sync>;

/// Concurrent clients of the serve workload: the core count of the 2-core
/// machine the benchmark was sized on.
const SERVE_CLIENTS: usize = 2;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
    /// Operations attempted: evaluations, steps and persists.
    pub attempted: u64,
    /// Operations failed: failed evaluations, step errors, persist failures
    /// and quarantined sessions.
    pub failed: u64,
    /// Failed output checks; the run is correct when this is empty.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a repetition's counts and runs the output checks on its results.
    fn absorb(&mut self, w: Workload, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.problems.extend(rep.problems.iter().cloned());
        for (label, result) in &rep.results {
            check_result(w, label, result, &mut self.problems);
        }
    }
}

/// One repetition's measurements and outputs.
struct Rep {
    setup_s: f64,
    run_s: f64,
    step_ms: Vec<f64>,
    /// `(label, result)`: the run, or each served session.
    results: Vec<(String, OptimizationResult)>,
    attempted: u64,
    failed: u64,
    pool_jobs: usize,
    pool_batch_tasks: usize,
    /// Output checks the repetition itself failed.
    problems: Vec<String>,
}

/// Derives the seed of item `k` below `seed`.
fn derive(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_add(k)
}

fn pool_counts() -> (usize, usize) {
    let s = WorkerPool::global().stats();
    (s.jobs_executed, s.batch_tasks_executed)
}

fn paper_config(s: &Sizes, seed: u64) -> BoConfig {
    BoConfig::new(s.initial, s.initial + s.steps).with_seed(seed)
}

fn serve_config(s: &Sizes, seed: u64) -> BoConfig {
    paper_config(s, seed).with_refit_policy(RefitPolicy::Fixed(5))
}

fn opamp_pvt() -> impl Problem {
    SweepProblem::opamp(PvtCorner::standard_18())
}

/// A fresh, untraced instance of the problem a workload optimises: the
/// oracle a reported best is re-evaluated against.
fn fresh_problem(w: Workload) -> Box<dyn Problem> {
    match w {
        Workload::PaperOpamp | Workload::ServeCheckpoint => Box::new(OpAmpProblem::new()),
        Workload::WeiboPvt => Box::new(opamp_pvt()),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn bo_error(e: impl std::fmt::Display) -> String {
    format!("optimization error: {e}")
}

/// BO attempts and failures of a finished run: evaluation attempts plus
/// steps, against failed or timed-out attempts and degraded steps.
fn bo_counts(result: &OptimizationResult, steps: usize) -> (u64, u64) {
    let r = result.recovery();
    let attempted = result.num_evaluations() + r.eval_retries + steps;
    let failed = r.eval_failures + r.eval_timeouts + r.degraded_refits + r.fallback_suggests;
    (attempted as u64, failed as u64)
}

/// One BO run: construction and the initial design are set-up, then every
/// step is timed (as a `step` span when traced).
fn bo_rep<T: SurrogateTrainer, P: Problem>(
    steps: usize,
    label: &str,
    make: impl FnOnce() -> (BayesOpt<T>, P),
    tracer: Option<(&Arc<Tracer>, &Arc<str>)>,
) -> Result<Rep, String> {
    let (jobs0, tasks0) = pool_counts();
    let started = Instant::now();
    let (driver, problem) = make();
    let mut state = driver.start(&problem).map_err(bo_error)?;
    let setup_s = secs(started);
    let running = Instant::now();
    let mut step_ms = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t = Instant::now();
        let stepped = match tracer {
            Some((tracer, run)) => {
                tracer.span("step", "step", run, 0, || driver.step(&problem, &mut state))
            }
            None => driver.step(&problem, &mut state),
        }
        .map_err(bo_error)?;
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !stepped {
            return Err("the loop stopped before its step budget".into());
        }
    }
    let run_s = secs(running);
    let result = driver.finish(state);
    let (jobs1, tasks1) = pool_counts();
    let (attempted, failed) = bo_counts(&result, steps);
    Ok(Rep {
        setup_s,
        run_s,
        step_ms,
        results: vec![(label.to_string(), result)],
        attempted,
        failed,
        pool_jobs: jobs1 - jobs0,
        pool_batch_tasks: tasks1 - tasks0,
        problems: Vec::new(),
    })
}

/// One serve repetition: a fresh 2-shard store and service, then each
/// client submits one session and waits for it to complete.  A step is the
/// interval between one session's successive acknowledged persists.
fn serve_rep<T, S>(
    sizes: &Sizes,
    rep_seed: u64,
    rep_label: &str,
    dir: &Path,
    session: impl Fn(&str, u64) -> (BayesOpt<T>, SharedProblem),
    wrap: impl FnOnce(ShardedStore) -> S,
) -> Result<Rep, String>
where
    T: SurrogateTrainer + 'static,
    T::Model: Serialize + for<'de> Deserialize<'de> + 'static,
    S: SnapshotStore + 'static,
{
    let (jobs0, tasks0) = pool_counts();
    let started = Instant::now();
    let store = ShardedStore::open(dir, ShardConfig::new(2))
        .map_err(|e| format!("opening the store: {e}"))?;
    let service = BoService::new(
        AckStore::new(wrap(store)),
        ServeConfig {
            max_sessions: SERVE_CLIENTS,
            ..ServeConfig::default()
        },
    );
    // The service runs a session's initial design inside its first job,
    // where it cannot be timed apart from the first step; set-up runs the
    // same designs beforehand, and the service must reproduce them.
    let mut sessions = Vec::new();
    for client in 0..SERVE_CLIENTS {
        let id = format!("{rep_label}-c{client}");
        let (driver, problem) = session(&id, derive(rep_seed, client as u64));
        let design = driver.start(problem.as_ref()).map_err(bo_error)?;
        sessions.push((id, driver, problem, design.evaluations().to_vec()));
    }
    let setup_s = secs(started);
    let running = Instant::now();
    let mut designs = Vec::new();
    for (id, driver, problem, design) in sessions {
        service
            .submit(&id, driver, problem)
            .map_err(|e| format!("submitting {id}: {e}"))?;
        designs.push((id, design));
    }
    service.drain();
    let run_s = secs(running);
    let (jobs1, tasks1) = pool_counts();

    let mut last_ack: HashMap<&str, f64> = HashMap::new();
    let mut step_ms = Vec::new();
    let acks = service.store().acks();
    for (id, at) in &acks {
        if let Some(prev) = last_ack.insert(id.as_str(), *at) {
            step_ms.push((at - prev) * 1e3);
        }
    }
    let stats = service.stats();
    let mut results = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (id, design) in designs {
        let result = service
            .result(&id)
            .map_err(|e| format!("session {id} did not complete: {e}"))?;
        if !starts_with(result.evaluations(), &design) {
            problems.push(format!(
                "{id}: the served initial design differs from set-up's"
            ));
        }
        let (a, f) = bo_counts(&result, sizes.steps);
        attempted += a;
        failed += f;
        results.push((id, result));
    }
    attempted += (stats.steps_persisted + stats.persist_failures) as u64;
    failed += (stats.step_errors
        + stats.persist_failures
        + stats.sessions_quarantined
        + stats.shard_parks) as u64;
    drop(service);
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(Rep {
        setup_s,
        run_s,
        step_ms,
        results,
        attempted,
        failed,
        pool_jobs: jobs1 - jobs0,
        pool_batch_tasks: tasks1 - tasks0,
        problems,
    })
}

/// Runs repetition `index` of `w`, traced when `tracer` is given.
fn rep(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    index: usize,
    tracer: Option<&Arc<Tracer>>,
    dir: &Path,
) -> Result<Rep, String> {
    let rep_seed = derive(seed, index as u64);
    let label = format!("rep{index}");
    let run: Arc<str> = Arc::from(label.as_str());
    match (w, tracer) {
        (Workload::PaperOpamp, None) => bo_rep(
            sizes.steps,
            &label,
            || {
                (
                    BayesOpt::neural(paper_config(sizes, rep_seed)),
                    OpAmpProblem::new(),
                )
            },
            None,
        ),
        (Workload::PaperOpamp, Some(tr)) => bo_rep(
            sizes.steps,
            &label,
            || {
                let trainer = TimedTrainer::new(NeuralGpEnsembleTrainer::default(), tr, &run);
                (
                    BayesOpt::with_trainer(paper_config(sizes, rep_seed), trainer),
                    TimedProblem::new(OpAmpProblem::new(), tr, &run),
                )
            },
            Some((tr, &run)),
        ),
        (Workload::WeiboPvt, None) => bo_rep(
            sizes.steps,
            &label,
            || (weibo(paper_config(sizes, rep_seed)), opamp_pvt()),
            None,
        ),
        (Workload::WeiboPvt, Some(tr)) => bo_rep(
            sizes.steps,
            &label,
            || {
                let trainer = TimedTrainer::new(GpSurrogateTrainer::default(), tr, &run);
                (
                    BayesOpt::with_trainer(paper_config(sizes, rep_seed), trainer),
                    TimedProblem::new(opamp_pvt(), tr, &run),
                )
            },
            Some((tr, &run)),
        ),
        (Workload::ServeCheckpoint, None) => serve_rep(
            sizes,
            rep_seed,
            &label,
            &dir.join(&label),
            |_, seed| {
                let problem: SharedProblem = Arc::new(OpAmpProblem::new());
                (BayesOpt::neural(serve_config(sizes, seed)), problem)
            },
            |store| store,
        ),
        (Workload::ServeCheckpoint, Some(tr)) => serve_rep(
            sizes,
            rep_seed,
            &label,
            &dir.join(format!("{label}-traced")),
            |id, seed| {
                let run: Arc<str> = Arc::from(id);
                let trainer = TimedTrainer::new(NeuralGpEnsembleTrainer::default(), tr, &run);
                let problem: SharedProblem =
                    Arc::new(TimedProblem::new(OpAmpProblem::new(), tr, &run));
                (
                    BayesOpt::with_trainer(serve_config(sizes, seed), trainer),
                    problem,
                )
            },
            |store| TimedStore::new(store, tr),
        ),
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `true` when two evaluations agree bit for bit.
fn same_eval(a: &Evaluation, b: &Evaluation) -> bool {
    a.objective.to_bits() == b.objective.to_bits() && same_bits(&a.constraints, &b.constraints)
}

/// `true` when `history` begins with exactly `prefix`.
fn starts_with(history: &[(Vec<f64>, Evaluation)], prefix: &[(Vec<f64>, Evaluation)]) -> bool {
    history.len() >= prefix.len() && same_history(&history[..prefix.len()], prefix)
}

/// `true` when two histories agree bit for bit.
fn same_history(a: &[(Vec<f64>, Evaluation)], b: &[(Vec<f64>, Evaluation)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((xa, ea), (xb, eb))| same_bits(xa, xb) && same_eval(ea, eb))
}

/// Output checks on one result: every point inside the unit cube, every
/// evaluation finite, the reported best a real (not imputed) point, and
/// that best reproduced by a fresh problem instance.
fn check_result(w: Workload, label: &str, result: &OptimizationResult, problems: &mut Vec<String>) {
    let oracle = fresh_problem(w);
    for (i, (x, e)) in result.evaluations().iter().enumerate() {
        if x.len() != oracle.dim() || !x.iter().all(|v| (0.0..=1.0).contains(v)) {
            problems.push(format!(
                "{label}: evaluation {i} lies outside the unit cube"
            ));
        }
        if !e.objective.is_finite() || !e.constraints.iter().all(|g| g.is_finite()) {
            problems.push(format!("{label}: evaluation {i} is not finite"));
        }
    }
    if let Some(best) = result.best_index() {
        if result.recovery().imputed.contains(&best) {
            problems.push(format!(
                "{label}: the reported best {best} is an imputed point"
            ));
        }
        let (x, e) = &result.evaluations()[best];
        if !oracle
            .try_evaluate(x)
            .ok()
            .is_some_and(|again| same_eval(&again, e))
        {
            problems.push(format!(
                "{label}: a fresh problem does not reproduce the best"
            ));
        }
    }
}

/// A served session's history must equal the same driver stepped in a bare
/// `start`/`step` loop.
fn check_serve_matches_bare_loop(
    sizes: &Sizes,
    seed: u64,
    first: &Rep,
    problems: &mut Vec<String>,
) {
    let (id, served) = &first.results[0];
    let driver = BayesOpt::neural(serve_config(sizes, derive(derive(seed, 0), 0)));
    let problem = OpAmpProblem::new();
    let bare = driver.start(&problem).and_then(|mut state| {
        while driver.step(&problem, &mut state)? {}
        Ok(driver.finish(state))
    });
    match bare {
        Ok(bare) if same_history(bare.evaluations(), served.evaluations()) => {}
        Ok(_) => problems.push(format!(
            "{id}: the served history differs from a bare start/step loop"
        )),
        Err(e) => problems.push(format!("{id}: bare start/step loop failed: {e}")),
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// An untraced run: end-to-end metrics.
pub fn run_untraced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = Outcome::default();
    let (mut setups, mut runs, mut steps, mut gains) = (vec![], vec![], vec![], vec![]);
    let mut quality_runs = 0;
    let mut first = None;
    while runs.len() < sizes.min_reps || secs(started) < seconds {
        let r = rep(w, sizes, seed, runs.len(), None, dir)?;
        out.absorb(w, &r);
        if runs.len() < sizes.min_reps {
            quality_runs += r.results.len();
            // The reported gain is the negated objective (minimised -gain).
            gains.extend(
                r.results
                    .iter()
                    .filter_map(|(_, r)| r.best_objective())
                    .map(|o| -o),
            );
        }
        setups.push(r.setup_s);
        runs.push(r.run_s);
        steps.extend_from_slice(&r.step_ms);
        // Only the first repetition's histories are needed after its checks.
        first.get_or_insert(r);
    }
    if w == Workload::ServeCheckpoint {
        let first = first.expect("at least one repetition ran");
        check_serve_matches_bare_loop(sizes, seed, &first, &mut out.problems);
    }

    out.notes.push(format!(
        "best_gain_db is the mean over the {} of {quality_runs} runs or sessions that found a feasible design",
        gains.len()
    ));
    let gain = if gains.is_empty() {
        out.problems
            .push("no run or session found a feasible design".into());
        0.0
    } else {
        stats::mean(&gains)
    };
    let level = stats::tail_level(sizes.min_step_samples(w))
        .ok_or("too few step samples for a tail percentile")?;
    let tail = stats::percentile(&steps, level);
    let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!(
        "repetitions {} in {:.2} s; step_ms_tail is p{level} of {} step samples ({} beyond it)",
        runs.len(),
        secs(started),
        steps.len(),
        steps.iter().filter(|&&s| s > tail).count()
    ));
    out.notes.push(format!(
        "per repetition run_s: {}",
        runs.iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.metrics = vec![
        metric("setup_s", stats::median(&setups), "s"),
        metric("run_s", stats::median(&runs), "s"),
        metric("step_ms_p50", stats::median(&steps), "ms"),
        metric("step_ms_tail", tail, "ms"),
        metric("best_gain_db", gain, "dB"),
        metric("ok_frac", ok_frac, "fraction"),
        metric(
            "peak_rss_mb",
            crate::sysinfo::peak_rss_mb().ok_or("VmHWM missing from /proc/self/status")?,
            "MiB",
        ),
    ];
    Ok(out)
}

/// Per-layer totals read from a span file.
#[derive(Debug, Default)]
struct Layers {
    fit_calls: u64,
    fit_ns: u64,
    fit_points: u64,
    append_calls: u64,
    append_ns: u64,
    eval_calls: u64,
    eval_ns: u64,
    step_ns: u64,
    step_children_ns: u64,
    step_self_by_run: HashMap<String, u64>,
    persist_ms: Vec<f64>,
    persist_bytes: u64,
    cycles: u64,
    cycle_ns: u64,
    cycle_spans_ns: u64,
    cycle_suggest_ns: f64,
}

/// Aggregates spans by layer: self times as the guide defines them, and for
/// served sessions the cycles between successive persists.
fn layers(spans: &[Span], suggest: &HashMap<String, SuggestCost>) -> Layers {
    let selfs = trace::self_times(spans);
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut l = Layers::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        match s.name.as_str() {
            "fit" => {
                l.fit_calls += 1;
                l.fit_ns += s.dur_ns();
                l.fit_points += s.size;
            }
            "append" => {
                l.append_calls += 1;
                l.append_ns += s.dur_ns();
            }
            "evaluate" => {
                l.eval_calls += s.size;
                l.eval_ns += s.dur_ns();
            }
            "step" => {
                l.step_ns += s.dur_ns();
                *l.step_self_by_run.entry(s.run.clone()).or_default() += self_ns;
            }
            "persist" => {
                l.persist_ms.push(s.dur_ns() as f64 / 1e6);
                l.persist_bytes += s.size;
            }
            _ => {}
        }
        if index
            .get(&s.parent)
            .is_some_and(|&p| spans[p].name == "step")
        {
            l.step_children_ns += self_ns;
        }
    }

    // A served session's spans all start on the worker running its job, with
    // no open parent; its cycles run from one persist's end to the next's.
    let mut by_run: HashMap<&str, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        by_run.entry(s.run.as_str()).or_default().push(s);
    }
    for (run, mut list) in by_run {
        list.sort_by_key(|s| s.end_ns);
        let mut prev_persist: Option<u64> = None;
        let mut inside = 0;
        for s in list {
            match prev_persist {
                Some(from) if s.start_ns >= from => inside += s.dur_ns(),
                _ => {}
            }
            if s.name == "persist" {
                if let Some(from) = prev_persist {
                    l.cycles += 1;
                    l.cycle_ns += s.end_ns - from;
                    l.cycle_spans_ns += inside;
                    l.cycle_suggest_ns += suggest.get(run).map_or(0.0, SuggestCost::mean_nanos);
                }
                prev_persist = Some(s.end_ns);
                inside = 0;
            }
        }
    }
    l
}

/// Lowest accepted ratio of `suggest_cost()` to a step's self time: the
/// self time also covers the loop's own bookkeeping around the acquisition
/// search (incumbent, anchor, history append).
const SUGGEST_AGREEMENT: f64 = 0.9;

/// A traced run: alternating untraced and traced repetitions of the same
/// seeds, per-layer metrics from the traced half.
pub fn run_traced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    dir: &Path,
    span_file: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    let (mut run_pairs, mut pool_jobs, mut pool_tasks) = (Vec::new(), 0, 0);
    let mut suggest: HashMap<String, SuggestCost> = HashMap::new();
    let mut first = None;
    while run_pairs.is_empty() || secs(started) < seconds {
        let i = run_pairs.len();
        // Alternate which side runs first, so drift over the run does not
        // bias the overhead estimate.
        let (plain, traced) = if i % 2 == 0 {
            let plain = rep(w, sizes, seed, i, None, dir)?;
            (plain, rep(w, sizes, seed, i, Some(&tracer), dir)?)
        } else {
            let traced = rep(w, sizes, seed, i, Some(&tracer), dir)?;
            (rep(w, sizes, seed, i, None, dir)?, traced)
        };
        for ((label, a), (_, b)) in plain.results.iter().zip(&traced.results) {
            if !same_history(a.evaluations(), b.evaluations()) {
                out.problems.push(format!(
                    "{label}: the traced history differs from the untraced one"
                ));
            }
        }
        out.absorb(w, &plain);
        out.absorb(w, &traced);
        for (label, result) in &traced.results {
            suggest.insert(label.clone(), result.suggest_cost());
        }
        run_pairs.push((plain.run_s, traced.run_s));
        pool_jobs += traced.pool_jobs;
        pool_tasks += traced.pool_batch_tasks;
        first.get_or_insert(plain);
    }
    if w == Workload::ServeCheckpoint {
        let first = first.expect("at least one pair ran");
        check_serve_matches_bare_loop(sizes, seed, &first, &mut out.problems);
    }

    tracer
        .write(span_file)
        .map_err(|e| format!("writing {}: {e}", span_file.display()))?;
    let spans = trace::read_spans(span_file)?;
    let n = run_pairs.len() as f64;
    let suggest_ns: u64 = suggest.values().map(|c| c.nanos).sum();
    let l = layers(&spans, &suggest);
    let step_self_ns: u64 = l.step_self_by_run.values().sum();

    let bo = w != Workload::ServeCheckpoint;
    if bo {
        // Self times must partition every step: the children never overlap
        // and never leave their step.
        let accounted = step_self_ns + l.step_children_ns;
        if accounted != l.step_ns {
            out.problems.push(format!(
                "step spans {} ns but self times account for {accounted} ns",
                l.step_ns
            ));
        }
        for (run, &self_ns) in &l.step_self_by_run {
            let cost = suggest.get(run).map_or(0, |c| c.nanos);
            let ratio = cost as f64 / self_ns.max(1) as f64;
            if !(SUGGEST_AGREEMENT..=1.0 + 1e-6).contains(&ratio) {
                out.problems.push(format!(
                    "{run}: suggest_cost() {:.3} ms disagrees with the step self time {:.3} ms",
                    cost as f64 / 1e6,
                    self_ns as f64 / 1e6
                ));
            }
        }
    }

    // Paired by seed and adjacent in time, so the machine's speed drift
    // cancels.
    let ratios: Vec<f64> = run_pairs.iter().map(|(p, t)| t / p).collect();
    let overhead_pct = (stats::median(&ratios) - 1.0) * 100.0;
    out.notes.push(format!(
        "{} traced/untraced pairs; traced run_s over untraced, median {overhead_pct:+.2}%; {} spans in {}",
        run_pairs.len(),
        spans.len(),
        span_file.display()
    ));

    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let per_call = |total: u64, calls: u64, scale: f64| {
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64 / scale
        }
    };
    let persist_level = stats::tail_level(l.persist_ms.len());
    let (persist_p50, persist_tail) = if l.persist_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::median(&l.persist_ms),
            persist_level.map_or(0.0, |p| stats::percentile(&l.persist_ms, p)),
        )
    };
    if let Some(p) = persist_level {
        out.notes.push(format!(
            "persist.ms_tail is p{p} of {} persists",
            l.persist_ms.len()
        ));
    }
    let suggest_ms = if bo { ms(step_self_ns) } else { ms(suggest_ns) };
    let other_ms = if l.cycles == 0 {
        0.0
    } else {
        (l.cycle_ns as f64 - l.cycle_spans_ns as f64 - l.cycle_suggest_ns) / l.cycles as f64 / 1e6
    };
    out.metrics = vec![
        metric("fit.calls", l.fit_calls as f64 / n, "count"),
        metric("fit.ms", ms(l.fit_ns), "ms"),
        metric(
            "fit.ms_per_call",
            per_call(l.fit_ns, l.fit_calls, 1e6),
            "ms",
        ),
        metric(
            "fit.mean_n",
            per_call(l.fit_points, l.fit_calls, 1.0),
            "points",
        ),
        metric("append.calls", l.append_calls as f64 / n, "count"),
        metric("append.ms", ms(l.append_ns), "ms"),
        metric("suggest.ms", suggest_ms, "ms"),
        metric("suggest.cost_ms", ms(suggest_ns), "ms"),
        metric("evaluate.calls", l.eval_calls as f64 / n, "count"),
        metric(
            "evaluate.us_per_call",
            per_call(l.eval_ns, l.eval_calls, 1e3),
            "us",
        ),
        metric("pool.batch_tasks", pool_tasks as f64 / n, "count"),
        metric("pool.jobs", pool_jobs as f64 / n, "count"),
        metric("persist.calls", l.persist_ms.len() as f64 / n, "count"),
        metric("persist.ms_p50", persist_p50, "ms"),
        metric("persist.ms_tail", persist_tail, "ms"),
        metric(
            "persist.bytes_per_call",
            per_call(l.persist_bytes, l.persist_ms.len() as u64, 1.0),
            "bytes",
        ),
        metric("serve.other_ms", other_ms, "ms"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ];
    Ok(out)
}

/// Runs one untraced and one traced repetition of `w` and reports whether
/// their histories are bit-identical.
pub fn identity_check(w: Workload, sizes: &Sizes, seed: u64, dir: &Path) -> Result<(), String> {
    let tracer = Tracer::new();
    let plain = rep(w, sizes, seed, 0, None, dir)?;
    let traced = rep(w, sizes, seed, 0, Some(&tracer), dir)?;
    if tracer.is_empty() {
        return Err("the traced repetition recorded no spans".into());
    }
    if let Some(problem) = plain.problems.iter().chain(&traced.problems).next() {
        return Err(problem.clone());
    }
    for ((label, a), (_, b)) in plain.results.iter().zip(&traced.results) {
        if a.num_evaluations() == 0 || !same_history(a.evaluations(), b.evaluations()) {
            return Err(format!("{label}: traced and untraced histories differ"));
        }
    }
    Ok(())
}
