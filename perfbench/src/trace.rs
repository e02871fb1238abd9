//! Spans recorded in memory by delegating timers around the public seams of
//! the crates, written out as a tab-separated file at the end of a traced
//! run and read back to compute self times.
//!
//! The timers wrap [`SurrogateTrainer`], [`Problem`] and [`SnapshotStore`]
//! from the outside; nothing inside the crates is instrumented.  Every
//! wrapper forwards **every** trait method to the wrapped value: relying on
//! a trait default would change behaviour (the default `fit_many` drops the
//! warm-start models, the default `try_evaluate_batch` serialises a corner
//! fan-out), and the identity test pins that a traced run's history equals
//! the untraced one bit for bit.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nnbo_core::{EvalOutcome, Evaluation, Problem, SurrogateTrainer};
use nnbo_serve::{LoadedSession, ServeError, SessionScrub, ShardHealth, SnapshotStore};
use rand::rngs::StdRng;

/// One timed call at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (starting at 1).
    pub id: u64,
    /// The span open on the same thread when this one started (0 = none).
    pub parent: u64,
    /// Layer seam: `step`, `fit`, `append`, `evaluate` or `persist`.
    pub name: String,
    /// The trait method the span timed, e.g. `fit_many` or `try_evaluate`.
    pub tag: String,
    /// The repetition or session the span belongs to.
    pub run: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Size attribute: training points of a fit, payload bytes of a persist.
    pub size: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Record {
    id: u64,
    parent: u64,
    name: &'static str,
    tag: &'static str,
    run: Arc<str>,
    start_ns: u64,
    end_ns: u64,
    size: u64,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Pops the open-span stack even when the timed call unwinds (the service
/// catches step panics, so a worker thread outlives them).
struct OpenGuard;

impl Drop for OpenGuard {
    fn drop(&mut self) {
        OPEN.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The in-memory span recorder of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Record>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span whose parent is the span open on this thread.
    pub fn span<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        run: &Arc<str>,
        size: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let guard = OpenGuard;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        drop(guard);
        self.records
            .lock()
            .expect("span recorder lock poisoned by a panic while recording")
            .push(Record {
                id,
                parent,
                name,
                tag,
                run: Arc::clone(run),
                start_ns,
                end_ns,
                size,
            });
        out
    }

    /// `true` before the first span ends.
    pub fn is_empty(&self) -> bool {
        self.records
            .lock()
            .expect("span recorder lock poisoned by a panic while recording")
            .is_empty()
    }

    /// Writes every recorded span to `path`, one tab-separated line each:
    /// `id parent name tag run start_ns end_ns size`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let records = self
            .records
            .lock()
            .expect("span recorder lock poisoned by a panic while recording");
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for r in records.iter() {
            line.clear();
            let _ = writeln!(
                line,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.id, r.parent, r.name, r.tag, r.run, r.start_ns, r.end_ns, r.size
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Reads a span file written by [`Tracer::write`].
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading span file {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("span file line {}: malformed `{line}`", i + 1);
            if f.len() != 8 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let span = Span {
                id: num(f[0])?,
                parent: num(f[1])?,
                name: f[2].to_string(),
                tag: f[3].to_string(),
                run: f[4].to_string(),
                start_ns: num(f[5])?,
                end_ns: num(f[6])?,
                size: num(f[7])?,
            };
            if span.end_ns < span.start_ns {
                return Err(bad());
            }
            Ok(span)
        })
        .collect()
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// A [`SurrogateTrainer`] that records `fit` and `append` spans around the
/// wrapped trainer's calls.
pub struct TimedTrainer<T> {
    inner: T,
    tracer: Arc<Tracer>,
    run: Arc<str>,
}

impl<T> TimedTrainer<T> {
    /// Wraps `inner`, attributing its spans to `run`.
    pub fn new(inner: T, tracer: &Arc<Tracer>, run: &Arc<str>) -> Self {
        TimedTrainer {
            inner,
            tracer: Arc::clone(tracer),
            run: Arc::clone(run),
        }
    }
}

impl<T: SurrogateTrainer> SurrogateTrainer for TimedTrainer<T> {
    type Model = T::Model;

    fn fit(&self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Result<T::Model, String> {
        self.tracer
            .span("fit", "fit", &self.run, xs.len() as u64, || {
                self.inner.fit(xs, ys, rng)
            })
    }

    fn fit_many(
        &self,
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        prev: Option<&[&T::Model]>,
        rng: &mut StdRng,
    ) -> Result<Vec<T::Model>, String> {
        self.tracer
            .span("fit", "fit_many", &self.run, xs.len() as u64, || {
                self.inner.fit_many(xs, targets, prev, rng)
            })
    }

    fn update(
        &self,
        prev: &T::Model,
        x: &[f64],
        y: f64,
        rng: &mut StdRng,
    ) -> Option<Result<T::Model, String>> {
        self.tracer.span("append", "update", &self.run, 0, || {
            self.inner.update(prev, x, y, rng)
        })
    }
}

/// A [`Problem`] that records an `evaluate` span around every evaluation
/// entry point of the wrapped problem.
pub struct TimedProblem<P> {
    inner: P,
    tracer: Arc<Tracer>,
    run: Arc<str>,
}

impl<P> TimedProblem<P> {
    /// Wraps `inner`, attributing its spans to `run`.
    pub fn new(inner: P, tracer: &Arc<Tracer>, run: &Arc<str>) -> Self {
        TimedProblem {
            inner,
            tracer: Arc::clone(tracer),
            run: Arc::clone(run),
        }
    }
}

impl<P: Problem> Problem for TimedProblem<P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.tracer.span("evaluate", "evaluate", &self.run, 1, || {
            self.inner.evaluate(x)
        })
    }

    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        self.tracer
            .span("evaluate", "try_evaluate", &self.run, 1, || {
                self.inner.try_evaluate(x)
            })
    }

    fn try_evaluate_batch(&self, xs: &[&[f64]]) -> Vec<EvalOutcome> {
        let n = xs.len() as u64;
        self.tracer
            .span("evaluate", "try_evaluate_batch", &self.run, n, || {
                self.inner.try_evaluate_batch(xs)
            })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`SnapshotStore`] that records a `persist` span, sized by the payload,
/// around every persist of the wrapped store.  Spans are attributed to the
/// session being persisted.
pub struct TimedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
    runs: Mutex<std::collections::HashMap<String, Arc<str>>>,
}

impl<S> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: &Arc<Tracer>) -> Self {
        TimedStore {
            inner,
            tracer: Arc::clone(tracer),
            runs: Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn run_for(&self, id: &str) -> Arc<str> {
        let mut runs = self
            .runs
            .lock()
            .expect("session-label lock poisoned by a panic while labelling");
        Arc::clone(runs.entry(id.to_string()).or_insert_with(|| Arc::from(id)))
    }
}

impl<S: SnapshotStore> SnapshotStore for TimedStore<S> {
    fn persist(&self, id: &str, snapshot_json: &str) -> Result<(), ServeError> {
        let run = self.run_for(id);
        self.tracer.span(
            "persist",
            "persist",
            &run,
            snapshot_json.len() as u64,
            || self.inner.persist(id, snapshot_json),
        )
    }

    fn load(&self, id: &str) -> Result<Option<LoadedSession>, ServeError> {
        self.inner.load(id)
    }

    fn list(&self) -> Result<Vec<String>, ServeError> {
        self.inner.list()
    }

    fn remove(&self, id: &str) -> Result<(), ServeError> {
        self.inner.remove(id)
    }

    fn health_for(&self, id: &str) -> ShardHealth {
        self.inner.health_for(id)
    }

    fn placement(&self, id: &str) -> Option<String> {
        self.inner.placement(id)
    }

    fn repair_session(&self, id: &str) -> Result<SessionScrub, ServeError> {
        self.inner.repair_session(id)
    }
}

/// A [`SnapshotStore`] that notes when each session's persist was
/// acknowledged: the client-visible event from which a served session's
/// step cycle (the interval between successive acknowledged checkpoints) is
/// measured, traced or not.
pub struct AckStore<S> {
    inner: S,
    epoch: Instant,
    acks: Mutex<Vec<(String, f64)>>,
}

impl<S> AckStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        AckStore {
            inner,
            epoch: Instant::now(),
            acks: Mutex::new(Vec::new()),
        }
    }

    /// Every successful persist as `(session id, seconds since creation)`,
    /// in acknowledgement order.
    pub fn acks(&self) -> Vec<(String, f64)> {
        self.acks
            .lock()
            .expect("ack lock poisoned by a panic while recording")
            .clone()
    }
}

impl<S: SnapshotStore> SnapshotStore for AckStore<S> {
    fn persist(&self, id: &str, snapshot_json: &str) -> Result<(), ServeError> {
        self.inner.persist(id, snapshot_json)?;
        let at = self.epoch.elapsed().as_secs_f64();
        self.acks
            .lock()
            .expect("ack lock poisoned by a panic while recording")
            .push((id.to_string(), at));
        Ok(())
    }

    fn load(&self, id: &str) -> Result<Option<LoadedSession>, ServeError> {
        self.inner.load(id)
    }

    fn list(&self) -> Result<Vec<String>, ServeError> {
        self.inner.list()
    }

    fn remove(&self, id: &str) -> Result<(), ServeError> {
        self.inner.remove(id)
    }

    fn health_for(&self, id: &str) -> ShardHealth {
        self.inner.health_for(id)
    }

    fn placement(&self, id: &str) -> Option<String> {
        self.inner.placement(id)
    }

    fn repair_session(&self, id: &str) -> Result<SessionScrub, ServeError> {
        self.inner.repair_session(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x".into(),
            tag: String::new(),
            run: "r".into(),
            start_ns,
            end_ns,
            size: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 30]);
    }

    #[test]
    fn nested_spans_get_their_thread_parent_and_round_trip_through_the_file() {
        let tracer = Tracer::new();
        let run: Arc<str> = Arc::from("rep0");
        tracer.span("step", "step", &run, 0, || {
            tracer.span("fit", "fit_many", &run, 7, || ());
        });
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.tsv");
        tracer.write(&path).unwrap();
        let spans = read_spans(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(spans.len(), 2);
        let fit = spans.iter().find(|s| s.name == "fit").unwrap();
        let step = spans.iter().find(|s| s.name == "step").unwrap();
        assert_eq!(fit.parent, step.id);
        assert_eq!(step.parent, 0);
        assert_eq!((fit.tag.as_str(), fit.size), ("fit_many", 7));
        assert_eq!(step.tag, "step");
    }
}
