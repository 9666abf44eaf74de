//! Causal request tracing: trace/span ids, cross-thread context
//! propagation, and per-phase latency attribution.
//!
//! Every traced request (a quote, buy, publish, or attack) opens a
//! [`trace_root`] that allocates a fresh `TraceId`, pushes itself as the
//! thread's current span context, and — via the `mbp-par` task hook — has
//! that context follow work submitted to pool workers, so spans opened
//! inside a `par_map` chunk parent to the request that spawned them.
//! Within a request, [`phase_for`] guards attribute wall time to the
//! canonical serve-path phases (lookup, φ-inversion, noise, ledger,
//! lock-wait) in labeled log-bucket histograms keyed by
//! `(listing, mechanism, phase)`; [`phase`] opens an unlabeled structural
//! child span anywhere. Completed spans land in the flight-recorder ring
//! (see the `recorder` module).
//!
//! Ids are allocated from process-global counters that [`crate::reset`]
//! rewinds, so a single-threaded run re-executed from the same seed
//! produces the identical id sequence; at higher thread counts id
//! *assignment order* may differ, which is why tree comparisons go through
//! [`canonical_tree`] (names, labels, and structure only).
//!
//! Label strings are interned once into a process-lifetime table (bounded
//! at [`MAX_INTERNED`] entries; overflow collapses to `"-"`), and the
//! labeled-histogram handles for a `(listing, mechanism)` pair are cached
//! per thread, so steady-state tracing costs two clock reads plus a few
//! relaxed atomics per span.

use crate::recorder::{self, RawSpan, SpanData};
use crate::registry::{self, Histogram};
use parking_lot::RwLock;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Maximum interned label/name strings; further strings collapse to `"-"`.
pub const MAX_INTERNED: usize = 4096;

/// Labeled histogram recording whole-request latency per
/// `(listing, mechanism)`.
pub const REQUEST_METRIC: &str = "mbp.trace.request.seconds";

/// Labeled histogram recording per-phase latency per
/// `(listing, mechanism, phase)`.
pub const PHASE_METRIC: &str = "mbp.trace.phase.seconds";

// --- string interner ---------------------------------------------------

#[derive(Default)]
struct Interner {
    ids: BTreeMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            ids: BTreeMap::new(),
            names: vec![Box::from("-")], // id 0: unknown/overflow
        })
    })
}

/// Interns `s`, returning its stable id (0 when the table is full or `s`
/// is `"-"`). The table intentionally survives [`crate::reset`] so cached
/// ids in ring slots and thread-local series caches never dangle.
pub(crate) fn intern(s: &str) -> u32 {
    if s == "-" {
        return 0;
    }
    if let Some(&id) = interner().read().ids.get(s) {
        return id;
    }
    let mut t = interner().write();
    if let Some(&id) = t.ids.get(s) {
        return id;
    }
    if t.names.len() >= MAX_INTERNED {
        return 0;
    }
    let id = t.names.len() as u32;
    t.names.push(Box::from(s));
    t.ids.insert(Box::from(s), id);
    id
}

/// Resolves an interned id back to its string (`"-"` for unknown ids).
pub(crate) fn intern_name(id: u32) -> String {
    let t = interner().read();
    t.names
        .get(id as usize)
        .map_or_else(|| "-".to_string(), |n| n.to_string())
}

// --- ids, context, anchor ----------------------------------------------

static NEXT_TRACE: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(0);

fn next_trace() -> u32 {
    (NEXT_TRACE.fetch_add(1, Ordering::Relaxed) as u32).wrapping_add(1)
}

fn next_span() -> u32 {
    (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) as u32).wrapping_add(1)
}

thread_local! {
    /// Packed `(trace << 32) | span` context of the innermost open span on
    /// this thread (0 = none). Propagated across `mbp-par` spawns.
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

fn pack(trace: u32, span: u32) -> u64 {
    (trace as u64) << 32 | span as u64
}

/// The process trace-time anchor: span start offsets are measured from it.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

fn nanos_since_anchor(t: Instant) -> u64 {
    t.saturating_duration_since(anchor()).as_nanos() as u64
}

thread_local! {
    /// One-shot replay-seed hint for the next [`trace_root_hinted`] call on
    /// this thread (0 = none pending).
    static REQUEST_SEED: Cell<u64> = const { Cell::new(0) };
}

/// Attaches `seed` as the replay seed of the next hinted trace root opened
/// on this thread. Callers that derive a request's RNG from a known seed
/// (simulation shards, the CLI trace driver, tests) call this right before
/// entering the broker, so slow-request exemplars carry the seed needed to
/// replay them. No-op when tracing is off.
pub fn set_request_seed(seed: u64) {
    if crate::is_tracing() {
        REQUEST_SEED.with(|c| c.set(seed));
    }
}

/// Takes (and clears) this thread's pending request-seed hint.
pub fn take_request_seed() -> u64 {
    REQUEST_SEED.with(|c| c.replace(0))
}

fn hook_capture() -> u64 {
    CONTEXT.with(|c| c.get())
}

fn hook_enter(t: u64) -> u64 {
    CONTEXT.with(|c| c.replace(t))
}

fn hook_exit(p: u64) {
    CONTEXT.with(|c| c.set(p));
}

/// Installs the `mbp-par` task hook that carries span contexts onto pool
/// workers. Idempotent; called when tracing is first enabled.
pub(crate) fn install_par_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        mbp_par::set_task_hook(mbp_par::TaskHook {
            capture: hook_capture,
            enter: hook_enter,
            exit: hook_exit,
        });
    });
}

/// Rewinds the id counters. Part of [`crate::reset`], whose registry
/// reset also moves the epoch that invalidates thread-local series
/// caches; quiesce tracing first.
pub(crate) fn reset() {
    NEXT_TRACE.store(0, Ordering::SeqCst);
    NEXT_SPAN.store(0, Ordering::SeqCst);
}

// --- phases and the per-thread series cache ----------------------------

/// The canonical serve-path phases attributed by [`phase_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Menu / listing lookup.
    Lookup,
    /// φ-inversion: mapping an error target to a noise-control parameter.
    PhiInversion,
    /// Mechanism noise generation and application.
    Noise,
    /// Ledger append (or stripe append in the concurrent broker).
    Ledger,
    /// Time spent waiting on contended broker locks.
    LockWait,
}

impl Phase {
    /// All phases, in attribution order.
    pub const ALL: [Phase; 5] = [
        Phase::Lookup,
        Phase::PhiInversion,
        Phase::Noise,
        Phase::Ledger,
        Phase::LockWait,
    ];

    /// The phase's label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Lookup => "lookup",
            Phase::PhiInversion => "phi_inversion",
            Phase::Noise => "noise",
            Phase::Ledger => "ledger",
            Phase::LockWait => "lock_wait",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Lookup => 0,
            Phase::PhiInversion => 1,
            Phase::Noise => 2,
            Phase::Ledger => 3,
            Phase::LockWait => 4,
        }
    }
}

fn phase_name_ids() -> &'static [u32; 5] {
    static IDS: OnceLock<[u32; 5]> = OnceLock::new();
    IDS.get_or_init(|| Phase::ALL.map(|p| intern(p.as_str())))
}

/// Interned name id of `p` (0, the unknown-name id, if the table and the
/// enum ever disagree in length).
fn phase_name_id(p: Phase) -> u32 {
    phase_name_ids().get(p.index()).copied().unwrap_or(0)
}

/// Pre-resolved histogram handles for one `(listing, mechanism)` pair.
struct Series {
    listing_id: u32,
    mech_id: u32,
    total: Arc<Histogram>,
    phases: [Arc<Histogram>; 5],
}

thread_local! {
    /// `(registry reset epoch, (listing_id << 32 | mech_id) -> handles)`.
    static SERIES_CACHE: RefCell<(u64, BTreeMap<u64, Rc<Series>>)> =
        const { RefCell::new((0, BTreeMap::new())) };
}

fn resolve_series(listing: &str, mechanism: &str) -> Rc<Series> {
    let listing_id = intern(listing);
    let mech_id = intern(mechanism);
    let key = pack(listing_id, mech_id);
    let epoch = registry::epoch();
    SERIES_CACHE.with(|cache| {
        // Re-entrant resolve (a histogram callback opening its own span)
        // would hit a live borrow; skip the cache rather than abort — the
        // handles are merely memoized, correctness never depends on them.
        let Ok(mut cache) = cache.try_borrow_mut() else {
            return build_series(listing_id, mech_id);
        };
        if cache.0 != epoch {
            // The registry was reset; cached Arcs point at detached
            // histograms. Drop them and re-resolve lazily.
            cache.0 = epoch;
            cache.1.clear();
        }
        if let Some(s) = cache.1.get(&key) {
            return Rc::clone(s);
        }
        let s = build_series(listing_id, mech_id);
        cache.1.insert(key, Rc::clone(&s));
        s
    })
}

/// Resolves the `(listing, mechanism)` histogram handles uncached.
fn build_series(listing_id: u32, mech_id: u32) -> Rc<Series> {
    let l = intern_name(listing_id);
    let m = intern_name(mech_id);
    let total = registry::labeled_histogram(REQUEST_METRIC, &[("listing", &l), ("mechanism", &m)]);
    let phases = Phase::ALL.map(|p| {
        registry::labeled_histogram(
            PHASE_METRIC,
            &[("listing", &l), ("mechanism", &m), ("phase", p.as_str())],
        )
    });
    Rc::new(Series {
        listing_id,
        mech_id,
        total,
        phases,
    })
}

// --- RAII guards -------------------------------------------------------

struct RootInner {
    prev: u64,
    trace: u32,
    span: u32,
    name_id: u32,
    seed: u64,
    series: Rc<Series>,
    start: Instant,
}

/// RAII guard for a traced request. Created by [`trace_root`]; completing
/// (dropping) it records the root span, updates the request histogram, and
/// captures a tail-latency exemplar when the slow threshold is crossed.
pub struct TraceRoot {
    inner: Option<RootInner>,
}

impl TraceRoot {
    /// This request's trace id (`None` when tracing is disabled).
    pub fn trace_id(&self) -> Option<u32> {
        self.inner.as_ref().map(|i| i.trace)
    }

    /// Opens a labeled phase guard under this root, reusing its resolved
    /// `(listing, mechanism)` series.
    pub fn phase(&self, p: Phase) -> PhaseGuard {
        match &self.inner {
            None => PhaseGuard { inner: None },
            Some(root) => {
                let span = next_span();
                let prev = CONTEXT.with(|c| c.replace(pack(root.trace, span)));
                PhaseGuard {
                    inner: Some(PhaseInner {
                        prev,
                        trace: root.trace,
                        span,
                        parent: prev as u32,
                        name_id: phase_name_id(p),
                        series_phase: Some((Rc::clone(&root.series), p.index())),
                        start: Instant::now(),
                    }),
                }
            }
        }
    }
}

impl Drop for TraceRoot {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur = inner.start.elapsed();
        CONTEXT.with(|c| c.set(inner.prev));
        inner.series.total.observe(dur.as_secs_f64());
        let raw = RawSpan {
            trace: inner.trace,
            span: inner.span,
            parent: 0,
            name: inner.name_id,
            listing: inner.series.listing_id,
            mechanism: inner.series.mech_id,
            seed: inner.seed,
            start_nanos: nanos_since_anchor(inner.start),
            dur_nanos: dur.as_nanos() as u64,
        };
        recorder::record(&raw);
        if raw.dur_nanos >= recorder::slow_threshold_nanos() {
            recorder::capture_exemplar(&raw);
        }
    }
}

/// Opens a trace root for one request. `listing`/`mechanism` label the
/// request's latency attribution (`"-"` when not applicable); `seed` is
/// the request's deterministic seed, retained on the root record so slow
/// exemplars can be replayed. Inert (one branch) when tracing is off.
pub fn trace_root(name: &'static str, listing: &str, mechanism: &str, seed: u64) -> TraceRoot {
    if !crate::is_tracing() {
        return TraceRoot { inner: None };
    }
    let series = resolve_series(listing, mechanism);
    let trace = next_trace();
    let span = next_span();
    let prev = CONTEXT.with(|c| c.replace(pack(trace, span)));
    TraceRoot {
        inner: Some(RootInner {
            prev,
            trace,
            span,
            name_id: intern(name),
            seed,
            series,
            start: Instant::now(),
        }),
    }
}

/// Opens a trace root whose replay seed is this thread's pending
/// request-seed hint (see [`set_request_seed`]). This is the form the
/// broker's serve paths use: the broker only sees an opaque `&mut MbpRng`,
/// so the seed rides in out-of-band from whoever derived the RNG. Inert
/// (one branch, the hint untouched) when tracing is off.
pub fn trace_root_hinted(name: &'static str, listing: &str, mechanism: &str) -> TraceRoot {
    if !crate::is_tracing() {
        return TraceRoot { inner: None };
    }
    trace_root(name, listing, mechanism, take_request_seed())
}

struct PhaseInner {
    prev: u64,
    trace: u32,
    span: u32,
    parent: u32,
    name_id: u32,
    series_phase: Option<(Rc<Series>, usize)>,
    start: Instant,
}

/// RAII guard for a child span. Dropping it records the span into the
/// flight-recorder ring and, for labeled guards, the phase histogram.
pub struct PhaseGuard {
    inner: Option<PhaseInner>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur = inner.start.elapsed();
        CONTEXT.with(|c| c.set(inner.prev));
        let mut labels = (0u32, 0u32);
        if let Some((series, idx)) = &inner.series_phase {
            if let Some(h) = series.phases.get(*idx) {
                h.observe(dur.as_secs_f64());
            }
            labels = (series.listing_id, series.mech_id);
        }
        recorder::record(&RawSpan {
            trace: inner.trace,
            span: inner.span,
            parent: inner.parent,
            name: inner.name_id,
            listing: labels.0,
            mechanism: labels.1,
            seed: 0,
            start_nanos: nanos_since_anchor(inner.start),
            dur_nanos: dur.as_nanos() as u64,
        });
    }
}

fn open_phase(name_id: u32, series_phase: Option<(Rc<Series>, usize)>) -> PhaseGuard {
    if !crate::is_tracing() {
        return PhaseGuard { inner: None };
    }
    let ctx = CONTEXT.with(|c| c.get());
    let trace = (ctx >> 32) as u32;
    let span = next_span();
    let prev = CONTEXT.with(|c| c.replace(pack(trace, span)));
    PhaseGuard {
        inner: Some(PhaseInner {
            prev,
            trace,
            span,
            parent: ctx as u32,
            name_id,
            series_phase,
            start: Instant::now(),
        }),
    }
}

/// Opens an unlabeled structural child span named `name` under the current
/// context (which may live on another thread's request, carried here by
/// the `mbp-par` hook). Inert when tracing is off.
pub fn phase(name: &'static str) -> PhaseGuard {
    if !crate::is_tracing() {
        return PhaseGuard { inner: None };
    }
    open_phase(intern(name), None)
}

/// Opens a labeled phase span attributing its wall time to the
/// `(listing, mechanism, phase)` histogram series. Inert when tracing is
/// off.
pub fn phase_for(p: Phase, listing: &str, mechanism: &str) -> PhaseGuard {
    if !crate::is_tracing() {
        return PhaseGuard { inner: None };
    }
    let series = resolve_series(listing, mechanism);
    open_phase(phase_name_id(p), Some((series, p.index())))
}

// --- canonical trees ---------------------------------------------------

/// Renders the span tree of `trace` in a canonical, timing- and
/// id-independent form: each span as `name(listing,mechanism)` with its
/// children rendered recursively, sorted lexicographically. Two runs of
/// the same request produce equal canonical trees regardless of thread
/// count or id assignment order.
pub fn canonical_tree(spans: &[SpanData], trace: u32) -> String {
    let in_trace: Vec<&SpanData> = spans.iter().filter(|s| s.trace == trace).collect();
    let ids: std::collections::BTreeSet<u32> = in_trace.iter().map(|s| s.span).collect();
    let mut by_parent: BTreeMap<u32, Vec<&SpanData>> = BTreeMap::new();
    let mut roots: Vec<&SpanData> = Vec::new();
    for s in &in_trace {
        if s.parent != 0 && ids.contains(&s.parent) && s.parent != s.span {
            by_parent.entry(s.parent).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    fn render(s: &SpanData, by_parent: &BTreeMap<u32, Vec<&SpanData>>, depth: usize) -> String {
        let label = format!("{}({},{})", s.name, s.listing, s.mechanism);
        if depth >= 64 {
            return label; // defensive: a garbled ring must not recurse away
        }
        let mut kids: Vec<String> = by_parent
            .get(&s.span)
            .map(|v| v.iter().map(|c| render(c, by_parent, depth + 1)).collect())
            .unwrap_or_default();
        if kids.is_empty() {
            label
        } else {
            kids.sort();
            format!("{label}[{}]", kids.join(","))
        }
    }
    let mut rendered: Vec<String> = roots.iter().map(|r| render(r, &by_parent, 0)).collect();
    rendered.sort();
    rendered.join(";")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm() {
        crate::reset();
        crate::enable();
        crate::set_tracing(true);
    }

    fn disarm() {
        crate::set_tracing(false);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = crate::test_support::serial();
        crate::reset();
        crate::disable();
        crate::set_tracing(false);
        {
            let root = trace_root("quote", "l1", "gaussian", 7);
            assert_eq!(root.trace_id(), None);
            let _p = root.phase(Phase::Lookup);
            let _q = phase("free");
        }
        assert!(crate::recorder_snapshot().is_empty());
        assert!(crate::snapshot().is_empty());
    }

    #[test]
    fn root_and_phases_record_spans_and_labeled_histograms() {
        let _g = crate::test_support::serial();
        arm();
        {
            let root = trace_root("quote", "l1", "gaussian", 42);
            {
                let _p = root.phase(Phase::Lookup);
            }
            {
                let _p = root.phase(Phase::Noise);
            }
        }
        let spans = crate::recorder_snapshot();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "quote").expect("root");
        assert_eq!(root.seed, 42);
        assert_eq!(root.parent, 0);
        assert_eq!(root.listing, "l1");
        for phase_name in ["lookup", "noise"] {
            let p = spans.iter().find(|s| s.name == phase_name).expect("phase");
            assert_eq!(p.parent, root.span);
            assert_eq!(p.trace, root.trace);
        }
        let snap = crate::snapshot();
        let total = snap
            .labeled(
                REQUEST_METRIC,
                &[("listing", "l1"), ("mechanism", "gaussian")],
            )
            .expect("request series");
        assert_eq!(total.hist.count, 1);
        let lookup = snap
            .labeled(
                PHASE_METRIC,
                &[
                    ("listing", "l1"),
                    ("mechanism", "gaussian"),
                    ("phase", "lookup"),
                ],
            )
            .expect("phase series");
        assert_eq!(lookup.hist.count, 1);
        disarm();
    }

    #[test]
    fn span_tree_is_identical_across_thread_counts() {
        let _g = crate::test_support::serial();
        let tree_at = |threads: usize| {
            arm();
            let tid = {
                let root = trace_root("par_map", "l9", "gaussian", 11);
                mbp_par::with_threads(threads, || {
                    let _out = mbp_par::par_map(64, 4, |i| {
                        let _p = phase("work");
                        i * 2
                    });
                });
                root.trace_id().expect("tracing armed")
            };
            let t = canonical_tree(&crate::recorder_snapshot(), tid);
            disarm();
            t
        };
        let one = tree_at(1);
        let four = tree_at(4);
        assert_eq!(one, four);
        // 64 work phases, all parented to the root.
        assert_eq!(one.matches("work").count(), 64);
        assert!(one.starts_with("par_map(l9,gaussian)["));
    }

    #[test]
    fn ring_is_deterministic_single_threaded() {
        let _g = crate::test_support::serial();
        let run = || {
            arm();
            mbp_par::with_threads(1, || {
                for req in 0..5u64 {
                    let root = trace_root("quote", "l1", "gaussian", req);
                    let _p = root.phase(Phase::Lookup);
                }
            });
            let spans: Vec<(u64, u32, u32, u32, String)> = crate::recorder_snapshot()
                .iter()
                .map(|s| (s.idx, s.trace, s.span, s.parent, s.name.clone()))
                .collect();
            disarm();
            spans
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slow_roots_become_exemplars_and_replay_identically() {
        let _g = crate::test_support::serial();
        arm();
        crate::set_slow_threshold_micros(0); // every root is "slow"
        let run_request = |seed: u64| {
            let root = trace_root("quote", "l1", "gaussian", seed);
            {
                let _p = root.phase(Phase::Lookup);
            }
            {
                let _p = root.phase(Phase::Noise);
            }
            {
                let _p = root.phase(Phase::Ledger);
            }
        };
        run_request(1234);
        let exs = crate::exemplars();
        assert_eq!(exs.len(), 1);
        let ex = &exs[0];
        assert_eq!(ex.root.seed, 1234);
        assert_eq!(ex.children.len(), 3);
        let mut captured: Vec<SpanData> = ex.children.clone();
        captured.push(ex.root.clone());
        let captured_tree = canonical_tree(&captured, ex.root.trace);

        // Replay: reset and re-run the request from the exemplar's seed.
        crate::reset();
        crate::set_slow_threshold_micros(u64::MAX / 1000);
        run_request(exs[0].root.seed);
        let spans = crate::recorder_snapshot();
        let root = spans.iter().find(|s| s.name == "quote").expect("root");
        assert_eq!(root.seed, 1234);
        let replay_tree = canonical_tree(&spans, root.trace);
        assert_eq!(captured_tree, replay_tree);
        disarm();
    }
}
