//! # gp-prof — host-time profiling and memory accounting
//!
//! Std-only observability for the **host** side of the simulator: how
//! long the real machine spends in each phase and how much real memory
//! it touches. This is deliberately a different universe from the
//! simulated-time traces in `gp-core::trace` — simulated seconds come
//! from the cost model and are bit-deterministic; host seconds come
//! from [`std::time::Instant`] and never feed back into simulation
//! logic. The conformance suite enforces that profiled and unprofiled
//! runs produce byte-identical artifacts.
//!
//! Three pieces:
//!
//! * **Clock** — [`now`] / [`HostInstant`]: the one wall-clock used by
//!   everything host-timed in the workspace (`gp-exec`'s `ExecTiming`
//!   sources its wall seconds from here).
//! * **Scoped timers** — [`scope`] / [`scope_label`] return RAII
//!   guards. Each thread keeps a scope stack; on guard drop the
//!   elapsed time is merged under the full path into a process-global
//!   registry. [`take_profile`] turns the registry into a
//!   deterministic-ordered tree (children sorted by name) with
//!   count/total/min/max per node, renderable as markdown or JSON
//!   (numbers in the repo's jsonlint-validated `{:.9}` grammar).
//! * **Counting allocator** — [`CountingAlloc`] is installed as the
//!   `#[global_allocator]`. While enabled it tracks live/peak/total
//!   bytes and allocation counts, globally, per thread, and per
//!   [`MemRegion`] so peak memory of a partitioner or an engine epoch
//!   is a first-class metric.
//!
//! Everything is zero-cost when disabled: `scope()` is a single
//! relaxed atomic load returning an inert guard, and the allocator
//! skips all counting. Enable once per process (e.g. at the top of a
//! bench run) with [`set_enabled`]; toggling mid-scope or disabling
//! memory accounting mid-run leaves counters undefined (documented,
//! not checked).

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// An opaque host-clock timestamp (wraps [`std::time::Instant`]).
///
/// The single wall-clock for host timing across the workspace: scoped
/// timers, `gp-exec` cell/wall seconds and the perf harness all read
/// it, so their numbers are directly comparable.
#[derive(Clone, Copy, Debug)]
pub struct HostInstant(Instant);

/// Read the host clock.
pub fn now() -> HostInstant {
    HostInstant(Instant::now())
}

impl HostInstant {
    /// Seconds elapsed since this timestamp was taken.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Seconds between `earlier` and `self` (0.0 if `earlier` is later).
    pub fn secs_since(&self, earlier: HostInstant) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }
}

// ---------------------------------------------------------------------------
// Enable flags
// ---------------------------------------------------------------------------

static TIMERS_ENABLED: AtomicBool = AtomicBool::new(false);
static MEM_ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable/disable the whole subsystem (scoped timers *and* memory
/// accounting). Enable once, before the profiled run; simulation
/// results never depend on this flag.
pub fn set_enabled(on: bool) {
    TIMERS_ENABLED.store(on, Relaxed);
    MEM_ENABLED.store(on, Relaxed);
}

/// Are scoped timers currently enabled?
pub fn is_enabled() -> bool {
    TIMERS_ENABLED.load(Relaxed)
}

/// Enable/disable only the allocation counters.
pub fn set_mem_enabled(on: bool) {
    MEM_ENABLED.store(on, Relaxed);
}

/// Is allocation counting currently enabled?
pub fn mem_enabled() -> bool {
    MEM_ENABLED.load(Relaxed)
}

// ---------------------------------------------------------------------------
// Scoped timers
// ---------------------------------------------------------------------------

/// Path separator inside registry keys. Unit-separator control char:
/// never appears in scope names, and sorts below every printable
/// character so a BTreeMap over joined paths groups subtrees
/// contiguously.
const SEP: char = '\u{1f}';
const SEP_STR: &str = "\u{1f}";

#[derive(Clone, Copy, Debug, PartialEq)]
struct NodeStat {
    count: u64,
    total: f64,
    min: f64,
    max: f64,
}

impl NodeStat {
    const EMPTY: NodeStat = NodeStat { count: 0, total: 0.0, min: f64::INFINITY, max: 0.0 };

    fn record(&mut self, secs: f64) {
        self.count += 1;
        self.total += secs;
        if secs < self.min {
            self.min = secs;
        }
        if secs > self.max {
            self.max = secs;
        }
    }

    fn merge(&mut self, other: &NodeStat) {
        self.count += other.count;
        self.total += other.total;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

struct ThreadProf {
    stack: Vec<Cow<'static, str>>,
    pending: BTreeMap<String, NodeStat>,
}

thread_local! {
    static TLS: RefCell<ThreadProf> =
        const { RefCell::new(ThreadProf { stack: Vec::new(), pending: BTreeMap::new() }) };
}

/// Process-global profile registry, keyed by SEP-joined scope path.
static REGISTRY: Mutex<BTreeMap<String, NodeStat>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, NodeStat>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard for one profiling scope. Created by [`scope`] /
/// [`scope_label`]; records elapsed host time under the thread's
/// current scope path when dropped. Inert (a `None` start) when
/// profiling is disabled.
#[must_use = "a profiling scope measures the time until the guard is dropped"]
pub struct Scope {
    start: Option<HostInstant>,
}

/// Open a profiling scope with a static name (the common, hot-path
/// form: one relaxed atomic load when disabled).
pub fn scope(name: &'static str) -> Scope {
    if !TIMERS_ENABLED.load(Relaxed) {
        return Scope { start: None };
    }
    scope_enter(Cow::Borrowed(name))
}

/// Open a profiling scope with a dynamic label (e.g.
/// `partition.{name}`). The label closure only runs when profiling is
/// enabled, so disabled call sites pay no formatting cost.
pub fn scope_label(label: impl FnOnce() -> String) -> Scope {
    if !TIMERS_ENABLED.load(Relaxed) {
        return Scope { start: None };
    }
    scope_enter(Cow::Owned(label()))
}

fn scope_enter(label: Cow<'static, str>) -> Scope {
    debug_assert!(!label.contains(SEP), "scope labels must not contain the path separator");
    TLS.with(|t| t.borrow_mut().stack.push(label));
    Scope { start: Some(now()) }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let secs = start.elapsed_secs();
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.stack.is_empty() {
                return; // reset() raced a live scope; drop the sample.
            }
            let key = t.stack.join(SEP_STR);
            t.stack.pop();
            t.pending.entry(key).or_insert(NodeStat::EMPTY).record(secs);
            // Flush per-thread aggregates whenever the thread leaves its
            // outermost scope: hot inner scopes (tensor panels, cells)
            // touch only the thread-local map, the global mutex is taken
            // once per top-level scope.
            if t.stack.is_empty() {
                let drained = std::mem::take(&mut t.pending);
                drop(t);
                let mut g = registry();
                for (k, v) in drained {
                    g.entry(k).or_insert(NodeStat::EMPTY).merge(&v);
                }
            }
        });
    }
}

/// Clear the profile registry (and the calling thread's pending
/// samples). Other threads' in-flight scopes flush later and will
/// reappear; reset at quiescent points.
pub fn reset() {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.pending.clear();
        t.stack.clear();
    });
    registry().clear();
}

/// Drain the registry into a deterministic-ordered [`Profile`] tree.
/// Flushes the calling thread's pending samples first; call it from
/// the thread that ran the workload, outside any open scope.
pub fn take_profile() -> Profile {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let drained = std::mem::take(&mut t.pending);
        drop(t);
        let mut g = registry();
        for (k, v) in drained {
            g.entry(k).or_insert(NodeStat::EMPTY).merge(&v);
        }
    });
    let map = std::mem::take(&mut *registry());
    let mut roots: Vec<ProfileNode> = Vec::new();
    for (path, stat) in &map {
        let parts: Vec<&str> = path.split(SEP).collect();
        insert_node(&mut roots, &parts, stat);
    }
    sort_nodes(&mut roots);
    Profile { roots }
}

fn insert_node(nodes: &mut Vec<ProfileNode>, parts: &[&str], stat: &NodeStat) {
    let (head, rest) = parts.split_first().expect("non-empty path");
    let pos = match nodes.iter().position(|n| n.name == *head) {
        Some(p) => p,
        None => {
            nodes.push(ProfileNode {
                name: (*head).to_string(),
                count: 0,
                total_secs: 0.0,
                min_secs: 0.0,
                max_secs: 0.0,
                children: Vec::new(),
            });
            nodes.len() - 1
        }
    };
    if rest.is_empty() {
        let n = &mut nodes[pos];
        n.count += stat.count;
        n.total_secs += stat.total;
        n.min_secs = if n.count == stat.count { stat.min } else { n.min_secs.min(stat.min) };
        n.max_secs = n.max_secs.max(stat.max);
    } else {
        insert_node(&mut nodes[pos].children, rest, stat);
    }
}

fn sort_nodes(nodes: &mut [ProfileNode]) {
    nodes.sort_by(|a, b| a.name.cmp(&b.name));
    for n in nodes.iter_mut() {
        sort_nodes(&mut n.children);
    }
}

/// One node of the profile tree: a scope path element with aggregate
/// host-time stats and name-sorted children.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileNode {
    pub name: String,
    /// Number of times the scope closed (0 for pure interior nodes).
    pub count: u64,
    pub total_secs: f64,
    pub min_secs: f64,
    pub max_secs: f64,
    pub children: Vec<ProfileNode>,
}

/// One scope name's host time summed over the profile tree (see
/// [`Profile::stages`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    pub name: String,
    /// Number of times the scope closed, on every path.
    pub count: u64,
    /// Seconds inside the scope, counting nested repeats of it once.
    pub total_secs: f64,
    /// Seconds inside the scope and outside all of its child scopes.
    pub self_secs: f64,
}

/// A deterministic-ordered host-time profile tree (see
/// [`take_profile`]). Sibling order is name-sorted, so two runs of the
/// same workload produce structurally identical reports — only the
/// timing numbers differ.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    pub roots: Vec<ProfileNode>,
}

/// Fixed-precision float in the workspace's jsonlint-validated number
/// grammar (same shape as the BENCH artifact writers').
fn fmt9(x: f64) -> String {
    format!("{x:.9}")
}

impl Profile {
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Markdown table: one row per node, names indented by depth.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "# host profile\n\n| scope | count | total s | mean s | min s | max s |\n|---|---|---|---|---|---|\n",
        );
        fn row(out: &mut String, node: &ProfileNode, depth: usize) {
            let mean = if node.count > 0 { node.total_secs / node.count as f64 } else { 0.0 };
            out.push_str(&format!(
                "| {}{} | {} | {} | {} | {} | {} |\n",
                "· ".repeat(depth),
                node.name,
                node.count,
                fmt9(node.total_secs),
                fmt9(mean),
                fmt9(node.min_secs),
                fmt9(node.max_secs),
            ));
            for c in &node.children {
                row(out, c, depth + 1);
            }
        }
        for n in &self.roots {
            row(&mut out, n, 0);
        }
        out
    }

    /// Flat per-stage view: one row per scope name, summed over every
    /// path the scope closes under, name-sorted so that stages sharing
    /// a prefix (`partition.*`) sit together. A stage's total counts
    /// only its outermost occurrence on each path, so a scope nested in
    /// itself (`exec.cell → exec.cell`) is not counted twice; its self
    /// time is the time spent under none of its child scopes.
    pub fn stages(&self) -> Vec<Stage> {
        fn walk<'a>(
            node: &'a ProfileNode,
            open: &mut Vec<&'a str>,
            acc: &mut BTreeMap<&'a str, Stage>,
        ) {
            if node.count > 0 {
                let stage = acc.entry(&node.name).or_insert_with(|| Stage {
                    name: node.name.clone(),
                    count: 0,
                    total_secs: 0.0,
                    self_secs: 0.0,
                });
                let in_children: f64 = node.children.iter().map(|c| c.total_secs).sum();
                stage.count += node.count;
                stage.self_secs += (node.total_secs - in_children).max(0.0);
                if !open.contains(&node.name.as_str()) {
                    stage.total_secs += node.total_secs;
                }
            }
            open.push(&node.name);
            for c in &node.children {
                walk(c, open, acc);
            }
            open.pop();
        }
        let mut acc = BTreeMap::new();
        for n in &self.roots {
            walk(n, &mut Vec::new(), &mut acc);
        }
        acc.into_values().collect()
    }

    /// Markdown table of [`Profile::stages`].
    pub fn to_stage_markdown(&self) -> String {
        let mut out = String::from(
            "# host profile by stage\n\n| stage | count | total s | self s |\n|---|---|---|---|\n",
        );
        for s in self.stages() {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                s.name,
                s.count,
                fmt9(s.total_secs),
                fmt9(s.self_secs)
            ));
        }
        out
    }

    /// JSON document (newline-terminated, jsonlint-valid numbers).
    pub fn to_json(&self) -> String {
        fn node_json(n: &ProfileNode) -> String {
            let children: Vec<String> = n.children.iter().map(node_json).collect();
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_seconds\":{},\"min_seconds\":{},\
                 \"max_seconds\":{},\"children\":[{}]}}",
                n.name,
                n.count,
                fmt9(n.total_secs),
                fmt9(n.min_secs),
                fmt9(n.max_secs),
                children.join(",")
            )
        }
        let roots: Vec<String> = self.roots.iter().map(node_json).collect();
        format!("{{\"profile\":[{}]}}\n", roots.join(","))
    }

    /// Structure signature: names and counts only, no timing. Two runs
    /// of a deterministic workload must produce byte-identical
    /// structures even though their timings differ.
    pub fn structure(&self) -> String {
        fn sig(n: &ProfileNode) -> String {
            let children: Vec<String> = n.children.iter().map(sig).collect();
            format!("{}x{}({})", n.name, n.count, children.join(","))
        }
        let roots: Vec<String> = self.roots.iter().map(sig).collect();
        roots.join(",")
    }
}

/// Replace every JSON-ish number run with `#`, leaving structure,
/// names and punctuation. Lets tests assert "byte-identical modulo
/// timing fields" on rendered reports.
pub fn redact_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_num = false;
    for ch in s.chars() {
        if in_num && (ch.is_ascii_digit() || matches!(ch, '.' | 'e' | 'E' | '+' | '-')) {
            continue;
        }
        if ch.is_ascii_digit() {
            out.push('#');
            in_num = true;
        } else {
            in_num = false;
            out.push(ch);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Counting wrapper around the [`System`] allocator, installed as the
/// workspace `#[global_allocator]`. All counting is gated on
/// [`mem_enabled`]; disabled it is a pass-through plus one relaxed
/// load per call.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Maximum nesting depth of [`MemRegion`]s with exact peak tracking;
/// deeper regions fall back to entry/exit live-byte sampling.
pub const MAX_MEM_REGIONS: usize = 16;
static REGION_PEAK: [AtomicI64; MAX_MEM_REGIONS] = [const { AtomicI64::new(0) }; MAX_MEM_REGIONS];
static REGION_DEPTH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static T_TOTAL: Cell<u64> = const { Cell::new(0) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static T_LIVE: Cell<i64> = const { Cell::new(0) };
}

#[inline]
fn record_alloc(size: usize) {
    if !MEM_ENABLED.load(Relaxed) {
        return;
    }
    TOTAL_BYTES.fetch_add(size as u64, Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Relaxed);
    let depth = REGION_DEPTH.load(Relaxed).min(MAX_MEM_REGIONS);
    for slot in REGION_PEAK.iter().take(depth) {
        slot.fetch_max(live, Relaxed);
    }
    // `try_with`: TLS may already be torn down during thread exit.
    let _ = T_TOTAL.try_with(|c| c.set(c.get() + size as u64));
    let _ = T_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = T_LIVE.try_with(|c| c.set(c.get() + size as i64));
}

#[inline]
fn record_dealloc(size: usize) {
    if !MEM_ENABLED.load(Relaxed) {
        return;
    }
    LIVE_BYTES.fetch_sub(size as i64, Relaxed);
    let _ = T_LIVE.try_with(|c| c.set(c.get() - size as i64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// Process-wide allocation counters (since counting was enabled).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Net live bytes (allocs − deallocs while enabled; can be
    /// negative if objects allocated before enabling are freed after).
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: i64,
    /// Cumulative bytes allocated.
    pub total_bytes: u64,
    /// Cumulative allocation count.
    pub allocs: u64,
}

/// Read the process-wide allocation counters.
pub fn mem_stats() -> MemStats {
    MemStats {
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed),
        total_bytes: TOTAL_BYTES.load(Relaxed),
        allocs: TOTAL_ALLOCS.load(Relaxed),
    }
}

/// Calling-thread allocation counters. Exact for allocations made and
/// freed on this thread, immune to concurrent-test noise — the form
/// unit tests should assert equality on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadMemStats {
    pub live_bytes: i64,
    pub total_bytes: u64,
    pub allocs: u64,
}

/// Read the calling thread's allocation counters.
pub fn thread_mem_stats() -> ThreadMemStats {
    ThreadMemStats {
        live_bytes: T_LIVE.with(Cell::get),
        total_bytes: T_TOTAL.with(Cell::get),
        allocs: T_ALLOCS.with(Cell::get),
    }
}

/// Allocation stats observed over one [`MemRegion`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemRegionStats {
    /// Peak process-wide live bytes observed while the region was
    /// open (≥ the live bytes at entry; monotone over the region's
    /// lifetime).
    pub peak_bytes: u64,
    /// Peak live bytes *above* the entry baseline — the region's own
    /// high-water contribution, assuming no concurrent regions.
    pub peak_delta_bytes: u64,
    /// Bytes allocated process-wide while the region was open.
    pub allocated_bytes: u64,
    /// Allocations process-wide while the region was open.
    pub allocs: u64,
    /// Net change in live bytes since region entry.
    pub live_delta_bytes: i64,
}

/// RAII allocation-accounting region. Nestable ([`MAX_MEM_REGIONS`]
/// deep with exact peaks); regions are process-global, so concurrent
/// regions on different threads attribute each other's allocations —
/// open them around serial phases (a partitioner run, an engine
/// epoch).
#[must_use = "a memory region measures allocations until it is finished/dropped"]
pub struct MemRegion {
    slot: Option<usize>,
    start_live: i64,
    start_total: u64,
    start_allocs: u64,
}

impl MemRegion {
    /// Open a region. Requires [`mem_enabled`] to produce non-zero
    /// numbers (it still functions, reading all-zero counters,
    /// when disabled).
    pub fn enter() -> MemRegion {
        let idx = REGION_DEPTH.fetch_add(1, Relaxed);
        let live = LIVE_BYTES.load(Relaxed);
        let slot = if idx < MAX_MEM_REGIONS {
            REGION_PEAK[idx].store(live, Relaxed);
            Some(idx)
        } else {
            None
        };
        MemRegion {
            slot,
            start_live: live,
            start_total: TOTAL_BYTES.load(Relaxed),
            start_allocs: TOTAL_ALLOCS.load(Relaxed),
        }
    }

    /// Read the region's counters without closing it. `peak_bytes` is
    /// monotone across successive calls.
    pub fn stats(&self) -> MemRegionStats {
        let peak_live = self
            .slot
            .map(|i| REGION_PEAK[i].load(Relaxed))
            .unwrap_or_else(|| LIVE_BYTES.load(Relaxed))
            .max(self.start_live);
        MemRegionStats {
            peak_bytes: peak_live.max(0) as u64,
            peak_delta_bytes: (peak_live - self.start_live).max(0) as u64,
            allocated_bytes: TOTAL_BYTES.load(Relaxed).saturating_sub(self.start_total),
            allocs: TOTAL_ALLOCS.load(Relaxed).saturating_sub(self.start_allocs),
            live_delta_bytes: LIVE_BYTES.load(Relaxed) - self.start_live,
        }
    }

    /// Close the region and return its final counters.
    pub fn finish(self) -> MemRegionStats {
        self.stats() // Drop decrements the depth.
    }
}

impl Drop for MemRegion {
    fn drop(&mut self) {
        REGION_DEPTH.fetch_sub(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry and region state are process-global, and any test that
    /// allocates or frees moves the counters a region reads; every test
    /// takes this lock.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    fn sample_workload() {
        let _a = scope("alpha");
        {
            let _b = scope("beta");
            std::hint::black_box(spin(100));
            for _ in 0..3 {
                let _c = scope_label(|| "gamma-1".to_string());
                std::hint::black_box(spin(10));
            }
        }
        {
            let _b2 = scope("beta2");
            std::hint::black_box(spin(10));
        }
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        sample_workload();
        assert!(take_profile().is_empty());
    }

    #[test]
    fn scopes_build_deterministic_tree() {
        let _g = lock();
        set_enabled(true);
        reset();
        sample_workload();
        let p = take_profile();
        set_enabled(false);
        assert_eq!(p.roots.len(), 1);
        let alpha = &p.roots[0];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.count, 1);
        assert_eq!(alpha.children.len(), 2);
        assert_eq!(alpha.children[0].name, "beta");
        assert_eq!(alpha.children[1].name, "beta2");
        let beta = &alpha.children[0];
        assert_eq!(beta.children.len(), 1);
        assert_eq!(beta.children[0].name, "gamma-1");
        assert_eq!(beta.children[0].count, 3);
        assert!(beta.total_secs >= beta.children[0].total_secs);
        assert!(beta.min_secs <= beta.max_secs);
        assert!(beta.children[0].min_secs <= beta.children[0].max_secs);
    }

    #[test]
    fn two_identical_runs_are_byte_identical_modulo_timing() {
        let _g = lock();
        set_enabled(true);
        reset();
        sample_workload();
        let first = take_profile();
        reset();
        sample_workload();
        let second = take_profile();
        set_enabled(false);
        assert_eq!(first.structure(), second.structure());
        assert_eq!(first.structure(), "alphax1(betax1(gamma-1x3()),beta2x1())");
        assert_eq!(redact_numbers(&first.to_markdown()), redact_numbers(&second.to_markdown()));
        assert_eq!(redact_numbers(&first.to_json()), redact_numbers(&second.to_json()));
        // Timing fields are structurally valid (fixed-precision grammar).
        for line in first.to_json().lines() {
            assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        }
    }

    #[test]
    fn stages_sum_each_scope_over_its_paths() {
        let node = |name: &str, count, total_secs, children| ProfileNode {
            name: name.to_string(),
            count,
            total_secs,
            min_secs: 0.0,
            max_secs: 0.0,
            children,
        };
        // cell(10 s) → { cell(4 s) → partition.A(3 s), partition.A(2 s) };
        // a second root partition.A(1 s).
        let inner = node("cell", 2, 4.0, vec![node("partition.A", 2, 3.0, vec![])]);
        let cell = node("cell", 1, 10.0, vec![inner, node("partition.A", 1, 2.0, vec![])]);
        let profile = Profile { roots: vec![cell, node("partition.A", 1, 1.0, vec![])] };
        let stage = |name: &str, count, total_secs, self_secs| Stage {
            name: name.to_string(),
            count,
            total_secs,
            self_secs,
        };
        assert_eq!(
            profile.stages(),
            vec![stage("cell", 3, 10.0, 5.0), stage("partition.A", 4, 6.0, 6.0)]
        );
        let md = profile.to_stage_markdown();
        assert!(md.contains("| cell | 3 | 10.000000000 | 5.000000000 |"), "{md}");
    }

    #[test]
    fn profile_json_uses_fixed_precision_numbers() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _s = scope("solo");
            std::hint::black_box(spin(10));
        }
        let json = take_profile().to_json();
        set_enabled(false);
        assert!(json.starts_with("{\"profile\":[{\"name\":\"solo\",\"count\":1,"), "{json}");
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"total_seconds\":0."), "fixed-point grammar: {json}");
    }

    #[test]
    fn take_profile_drains_the_registry() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _s = scope("once");
        }
        assert!(!take_profile().is_empty());
        assert!(take_profile().is_empty());
        set_enabled(false);
    }

    #[test]
    fn worker_thread_scopes_merge_into_the_global_profile() {
        let _g = lock();
        set_enabled(true);
        reset();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = scope("worker");
                    std::hint::black_box(spin(50));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = take_profile();
        set_enabled(false);
        assert_eq!(p.structure(), "workerx2()");
    }

    #[test]
    fn thread_live_bytes_return_to_baseline_after_drop() {
        let _g = lock();
        set_mem_enabled(true);
        let base = thread_mem_stats();
        let v = vec![0u8; 1 << 20];
        std::hint::black_box(&v);
        let mid = thread_mem_stats();
        assert!(mid.live_bytes >= base.live_bytes + (1 << 20), "{base:?} -> {mid:?}");
        assert!(mid.allocs > base.allocs);
        drop(v);
        let after = thread_mem_stats();
        assert_eq!(after.live_bytes, base.live_bytes, "live bytes must return to baseline");
        assert!(after.total_bytes >= base.total_bytes + (1 << 20), "total is cumulative");
    }

    /// Run `f` until one run sees no allocator traffic from any other
    /// thread, and return that run's result. Regions read process-wide
    /// counters, and the test harness allocates and frees on its own
    /// threads even while `lock()` is held (a finished test's
    /// bookkeeping); one such free inside a region lowers its peak.
    fn without_foreign_traffic<T>(mut f: impl FnMut() -> T) -> T {
        for _ in 0..1000 {
            let (g0, t0) = (mem_stats(), thread_mem_stats());
            let out = f();
            let (g1, t1) = (mem_stats(), thread_mem_stats());
            if g1.allocs - g0.allocs == t1.allocs - t0.allocs
                && g1.live_bytes - g0.live_bytes == t1.live_bytes - t0.live_bytes
            {
                return out;
            }
        }
        panic!("no run in 1000 free of other threads' allocator traffic");
    }

    #[test]
    fn region_peak_is_monotone_and_sees_large_allocations() {
        let _g = lock();
        set_mem_enabled(true);
        let (d0, d1, p1, p2, fin) = without_foreign_traffic(|| {
            let region = MemRegion::enter();
            let d0 = region.stats().peak_delta_bytes;
            let v = vec![7u8; 4 << 20];
            std::hint::black_box(&v);
            let p1 = region.stats().peak_bytes;
            let d1 = region.stats().peak_delta_bytes;
            drop(v);
            let p2 = region.stats().peak_bytes;
            (d0, d1, p1, p2, region.finish())
        });
        assert!(d1 >= d0 + (4 << 20), "peak must see the allocation: {d0} -> {d1}");
        assert!(p2 >= p1, "peak is monotone within a region: {p1} -> {p2}");
        assert_eq!(fin.peak_bytes, p2);
        assert!(fin.allocated_bytes >= 4 << 20);
        assert!(fin.allocs >= 1);
    }

    #[test]
    fn nested_regions_attribute_inner_allocations_to_both() {
        let _g = lock();
        set_mem_enabled(true);
        let (inner_stats, outer_stats) = without_foreign_traffic(|| {
            let outer = MemRegion::enter();
            let a = vec![1u8; 1 << 20];
            std::hint::black_box(&a);
            let inner = MemRegion::enter();
            let b = vec![2u8; 2 << 20];
            std::hint::black_box(&b);
            let inner_stats = inner.finish();
            let outer_stats = outer.finish();
            drop((a, b));
            (inner_stats, outer_stats)
        });
        assert!(inner_stats.peak_delta_bytes >= 2 << 20, "{inner_stats:?}");
        assert!(inner_stats.allocated_bytes >= 2 << 20);
        // The outer region saw both allocations; its peak covers the
        // inner region's peak.
        assert!(outer_stats.peak_delta_bytes >= (1 << 20) + (2 << 20), "{outer_stats:?}");
        assert!(outer_stats.allocated_bytes >= inner_stats.allocated_bytes + (1 << 20));
        assert!(outer_stats.peak_bytes >= inner_stats.peak_bytes);
    }

    #[test]
    fn global_mem_stats_track_thread_allocations() {
        let _g = lock();
        set_mem_enabled(true);
        let before = mem_stats();
        let v = vec![0u64; 1 << 17]; // 1 MiB
        std::hint::black_box(&v);
        let after = mem_stats();
        assert!(after.total_bytes >= before.total_bytes + (1 << 20));
        assert!(after.allocs > before.allocs);
        assert!(after.peak_bytes >= before.peak_bytes, "global peak is monotone");
        drop(v);
    }

    #[test]
    fn redact_numbers_strips_timings_but_keeps_structure() {
        let _g = lock();
        assert_eq!(redact_numbers("{\"a\":1.25e-3,\"b\":[10,-2]}"), "{\"a\":#,\"b\":[#,-#]}");
        assert_eq!(redact_numbers("| x | 0.000000001 |"), "| x | # |");
        assert_eq!(redact_numbers("name-1"), "name-#");
    }

    #[test]
    fn clock_is_monotone_and_nonnegative() {
        let _g = lock();
        let t0 = now();
        std::hint::black_box(spin(1000));
        let t1 = now();
        assert!(t0.elapsed_secs() >= 0.0);
        assert!(t1.secs_since(t0) >= 0.0);
        assert_eq!(t0.secs_since(t1), 0.0, "saturating at zero");
    }
}
