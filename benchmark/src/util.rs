//! Measurement plumbing that knows nothing about the program: sample
//! statistics, process readings from `/proc`, the counting allocator and
//! the in-memory span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

// ---- Sample statistics ---------------------------------------------------

/// Nearest-rank quantile of `xs` (`q` in 0..=1); 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median, averaging the middle pair of an even-sized sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---- Process readings ----------------------------------------------------

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// User + system CPU seconds of this process, exited threads included
/// (`/proc/self/stat` fields 14 and 15, in the kernel's 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / 100.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---- Counting allocator ---------------------------------------------------

/// Counts allocations while switched on. Off (every timed iteration) it
/// costs one relaxed load of a read-shared flag per allocation. On, each
/// thread adds to a cache line of its own, so the program's worker threads
/// do not contend on the counters and the counted iteration stays near
/// its normal speed.
pub struct CountingAlloc;

#[repr(align(64))]
struct Shard {
    bytes: AtomicU64,
    calls: AtomicU64,
}

const SHARDS: usize = 64;
static COUNTING: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        bytes: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    }
}; SHARDS];

thread_local! {
    /// This thread's shard; assigned round-robin at its first counted
    /// allocation. Const-initialised and without a destructor, so reading
    /// it never allocates and stays valid while the thread winds down.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn note(bytes: usize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    let shard = SHARD.with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS);
        }
        slot.get()
    });
    COUNTS[shard].bytes.fetch_add(bytes as u64, Relaxed);
    COUNTS[shard].calls.fetch_add(1, Relaxed);
}

// SAFETY: every operation is delegated unchanged to `System`; the counters
// are static atomics and a const thread-local, none of which allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn counted() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(bytes, calls), shard| {
        (
            bytes + shard.bytes.load(Relaxed),
            calls + shard.calls.load(Relaxed),
        )
    })
}

/// Runs `f` with allocation counting on; returns its value plus the bytes
/// and calls allocated meanwhile (all threads).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes0, calls0) = counted();
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let (bytes, calls) = counted();
    (out, bytes - bytes0, calls - calls0)
}

// ---- Span recorder ---------------------------------------------------------

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    query: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory spans around the benchmark's own calls into the program:
/// name, start, end, the span that caused it, and the query it serves.
/// Written out as JSON lines when the traced pass ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, query: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            query,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a leaf span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, query);
        let out = f();
        self.end(id);
        out
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of the spans called `name`: duration minus the part their
    /// child spans cover.
    pub fn self_total(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum();
        self.total(name) - children
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.parent),
                s.name,
                opt(s.query),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

// ---- Machine speed ---------------------------------------------------------

/// What one [`probe_pass`] takes on this box (2 cores) while the host is
/// quiet: the tenth percentile of 1200 readings.
const QUIET_PASS_S: f64 = 0.034;
/// Seconds of timed work that one probe pass stands for.
const WORK_PER_PASS_S: f64 = 0.25;
/// Passes in a clock's opening probe, and the most in any later one.
const OPENING_PASSES: usize = 4;
const MOST_PASSES: usize = 8;
/// How much of the slowdown the probes report is taken off the work, as an
/// exponent. A single pass reads ± 20 % from one to the next even while
/// the host is steady, more than the work between two probes feels; fitted
/// over a few hundred iterations of `stream_cold` and `stream_steady`,
/// their wall time went as the probes' slowdown to the power 0.4–0.8, and
/// 0.75 left the least spread on a busy host and on a quiet one.
const TRUST: f64 = 0.75;

/// A fixed piece of work that never calls the program: format strings,
/// count them in a hash map, sort the keys. Allocation, hashing, string
/// compares and cache misses, as the program's inner loops do.
fn probe_chunk(chunk: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ chunk;
    let mut counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(format!("user{:06}", x % 40_000)).or_default() += x & 0xff;
    }
    let mut keys: Vec<(&String, &u64)> = counts.iter().collect();
    keys.sort();
    keys.iter().fold(0u64, |acc, (k, v)| {
        acc.rotate_left(5) ^ k.len() as u64 ^ **v
    })
}

/// Seconds the machine takes right now for 6 chunks on this thread, then
/// 12 chunks handed out to `cores()` threads as the program's pool hands
/// out morsels: its serial and its parallel sections both slow down when
/// the host is busy.
fn probe_pass() -> f64 {
    let t = Instant::now();
    for chunk in 0..6 {
        std::hint::black_box(probe_chunk(chunk));
    }
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..cores() {
            s.spawn(|| loop {
                let chunk = next.fetch_add(1, Relaxed);
                if chunk >= 12 {
                    break;
                }
                std::hint::black_box(probe_chunk(chunk));
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// Total seconds of `passes` probe passes.
fn probe(passes: usize) -> f64 {
    (0..passes).map(|_| probe_pass()).sum()
}

/// Time on a [`SpeedClock`]: as the wall clock read it, and scaled to a
/// quiet machine.
#[derive(Clone, Copy, Default)]
pub struct Elapsed {
    pub raw_s: f64,
    pub quiet_s: f64,
}

/// A stopwatch that reads in seconds of a quiet machine.
///
/// This box is a few cores of a shared host whose speed moves by tens of
/// percent, both within 30 ms and over minutes, so no statistic over raw
/// wall times of one run is steady. The clock therefore probes the machine
/// before the first piece of work, after the last, and between pieces
/// whenever `WORK_PER_PASS_S` of work has passed (a longer piece gets a
/// longer probe), and scales the work between two probes by how much
/// slower than `QUIET_PASS_S` their passes ran. A program that gets slower
/// reads slower by the same factor; a host that gets slower cancels, as far
/// as the probe slows as the program does.
pub struct SpeedClock {
    /// The latest probe: its passes and their total seconds.
    probe: (usize, f64),
    pending_s: f64,
    total: Elapsed,
}

impl SpeedClock {
    pub fn start() -> Self {
        SpeedClock {
            probe: (OPENING_PASSES, probe(OPENING_PASSES)),
            pending_s: 0.0,
            total: Elapsed::default(),
        }
    }

    /// Times `f` as one piece of work.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.pending_s += t.elapsed().as_secs_f64();
        if self.pending_s >= WORK_PER_PASS_S {
            self.settle();
        }
        out
    }

    fn settle(&mut self) {
        let passes = ((self.pending_s / WORK_PER_PASS_S) as usize).clamp(1, MOST_PASSES);
        let next = (passes, probe(passes));
        let pass_s = (self.probe.1 + next.1) / (self.probe.0 + next.0) as f64;
        self.total.raw_s += self.pending_s;
        self.total.quiet_s += self.pending_s / (pass_s / QUIET_PASS_S).powf(TRUST);
        self.pending_s = 0.0;
        self.probe = next;
    }

    pub fn stop(mut self) -> Elapsed {
        if self.pending_s > 0.0 {
            self.settle();
        }
        self.total
    }
}
