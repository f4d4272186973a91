//! Spans around every call the runtime makes into the application layer.
//!
//! The benchmark hands `run_on` a [`TracedWorkload`] that wraps the real
//! workload. It wraps every task the workload (or its repartitioner) builds
//! in a [`TracedTask`], and times each call into the layer behind it:
//! kernel sweeps, ghost encode and decode, checkpoints, restores, re-slices
//! and the workload's own task/assemble/residual calls. Everything between
//! those calls is the runtime: the engine, the P2PSAP session stack, the
//! backend's drive loop and the control plane.
//!
//! Spans are kept in memory (name, start, end, parent, solve id, plus the
//! allocations and bytes of the call) and drained after each solve.

use crate::alloc;
use p2pdc::runtime::engine::GENERATION_TAG_BYTES;
use p2pdc::{FrameSink, IterativeTask, LocalRelax, Repartitioner, Workload};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One `run_on` call; the root of the solve's spans.
    Solve,
    /// `IterativeTask::relax`: the obstacle/heat/pagerank kernels.
    Kernel,
    /// `encode_outgoing` into the engine's `FrameSink` (or legacy `outgoing`).
    Encode,
    /// `incorporate` of a received update.
    Decode,
    /// `checkpoint_state`.
    Checkpoint,
    /// `restore` from a checkpoint.
    Restore,
    /// `Repartitioner::task_for`.
    Reslice,
    /// `Workload::task`.
    Task,
    /// `Workload::assemble`.
    Assemble,
    /// `Workload::residual`.
    Residual,
}

impl Layer {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Solve => "solve",
            Layer::Kernel => "kernel",
            Layer::Encode => "encode",
            Layer::Decode => "decode",
            Layer::Checkpoint => "checkpoint",
            Layer::Restore => "restore",
            Layer::Reslice => "reslice",
            Layer::Task => "workload.task",
            Layer::Assemble => "workload.assemble",
            Layer::Residual => "workload.residual",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// The span that was open on this thread when this one began, or the
    /// solve's root span for calls made on the backend's own threads.
    pub parent: u64,
    /// The solve this span belongs to.
    pub solve: u64,
    /// What the span timed.
    pub layer: Layer,
    /// Start and end, in nanoseconds since the process's first span.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Allocation events the call made on its own thread.
    pub allocs: u64,
    /// Bytes the call encoded, decoded or checkpointed (0 where none).
    pub bytes: u64,
    /// Grid points (work units) a kernel sweep relaxed.
    pub points: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SOLVE: AtomicU64 = AtomicU64::new(0);
static SOLVE_SPAN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sizes a traced call reports about its own work.
#[derive(Default)]
struct Extra {
    bytes: u64,
    points: u64,
}

fn traced<R>(layer: Layer, f: impl FnOnce(&mut Extra) -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(|c| c.replace(id));
    let parent = match outer {
        0 => SOLVE_SPAN.load(Ordering::Relaxed),
        open => open,
    };
    let mut extra = Extra::default();
    let allocs_before = alloc::thread_allocs();
    let start_ns = now_ns();
    let out = f(&mut extra);
    let end_ns = now_ns();
    let allocs = alloc::thread_allocs() - allocs_before;
    CURRENT.with(|c| c.set(outer));
    let span = Span {
        id,
        parent,
        solve: SOLVE.load(Ordering::Relaxed),
        layer,
        start_ns,
        end_ns,
        allocs,
        bytes: extra.bytes,
        points: extra.points,
    };
    alloc::uncounted(|| SPANS.lock().expect("span store poisoned").push(span));
    out
}

/// Run one solve as solve `solve`: every span recorded inside `f`, on any
/// thread, belongs to it.
pub fn solve<R>(solve: u64, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    SOLVE.store(solve, Ordering::Relaxed);
    SOLVE_SPAN.store(id, Ordering::Relaxed);
    let allocs_before = alloc::thread_allocs();
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let span = Span {
        id,
        parent: 0,
        solve,
        layer: Layer::Solve,
        start_ns,
        end_ns,
        allocs: alloc::thread_allocs() - allocs_before,
        bytes: 0,
        points: 0,
    };
    alloc::uncounted(|| SPANS.lock().expect("span store poisoned").push(span));
    SOLVE_SPAN.store(0, Ordering::Relaxed);
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

fn wrap(task: Box<dyn IterativeTask>) -> Box<dyn IterativeTask> {
    alloc::uncounted(|| Box::new(TracedTask { inner: task }))
}

/// A workload whose every call, and every task it builds, is traced.
pub struct TracedWorkload<'a> {
    inner: &'a dyn Workload,
}

impl<'a> TracedWorkload<'a> {
    /// Trace `inner`.
    pub fn new(inner: &'a dyn Workload) -> Self {
        Self { inner }
    }
}

impl Workload for TracedWorkload<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn peers(&self) -> usize {
        self.inner.peers()
    }

    fn task(&self, rank: usize) -> Box<dyn IterativeTask> {
        wrap(traced(Layer::Task, |_| self.inner.task(rank)))
    }

    fn assemble(&self, results: &[(usize, Vec<u8>)]) -> Vec<f64> {
        traced(Layer::Assemble, |_| self.inner.assemble(results))
    }

    fn residual(&self, solution: &[f64]) -> f64 {
        traced(Layer::Residual, |_| self.inner.residual(solution))
    }

    fn repartitioner(&self) -> Option<Arc<dyn Repartitioner>> {
        let inner = self.inner.repartitioner()?;
        Some(alloc::uncounted(|| {
            Arc::new(TracedRepartitioner { inner }) as Arc<dyn Repartitioner>
        }))
    }
}

/// A repartitioner whose re-slices are traced and whose tasks are wrapped.
struct TracedRepartitioner {
    inner: Arc<dyn Repartitioner>,
}

impl Repartitioner for TracedRepartitioner {
    fn items(&self) -> usize {
        self.inner.items()
    }

    fn item_base(&self) -> usize {
        self.inner.item_base()
    }

    fn item_width(&self) -> usize {
        self.inner.item_width()
    }

    fn global_canvas(&self) -> Vec<f64> {
        self.inner.global_canvas()
    }

    fn task_for(
        &self,
        rank: usize,
        parts: &[(usize, usize)],
        global: &[f64],
        iteration: u64,
    ) -> Box<dyn IterativeTask> {
        wrap(traced(Layer::Reslice, |_| {
            self.inner.task_for(rank, parts, global, iteration)
        }))
    }
}

/// A task that forwards every method, defaulted ones included, so tracing
/// never changes which code path the runtime takes.
struct TracedTask {
    inner: Box<dyn IterativeTask>,
}

impl IterativeTask for TracedTask {
    fn relax(&mut self) -> LocalRelax {
        traced(Layer::Kernel, |extra| {
            let relax = self.inner.relax();
            extra.points = relax.work_points;
            relax
        })
    }

    fn outgoing(&mut self) -> Vec<(usize, Vec<u8>)> {
        traced(Layer::Encode, |extra| {
            let out = self.inner.outgoing();
            extra.bytes = out.iter().map(|(_, p)| p.len() as u64).sum();
            out
        })
    }

    fn encode_outgoing(&mut self, sink: &mut FrameSink) {
        traced(Layer::Encode, |extra| {
            let first = sink.len();
            self.inner.encode_outgoing(sink);
            // Payload bytes only, as decode counts them: not the generation
            // tag the sink writes in front of every frame.
            extra.bytes = (first..sink.len())
                .map(|i| sink.peek(i).1.saturating_sub(GENERATION_TAG_BYTES) as u64)
                .sum();
        })
    }

    fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
        traced(Layer::Decode, |extra| {
            extra.bytes = payload.len() as u64;
            self.inner.incorporate(from, payload)
        })
    }

    fn neighbors(&self) -> Vec<usize> {
        self.inner.neighbors()
    }

    fn result(&self) -> Vec<u8> {
        self.inner.result()
    }

    fn relaxations(&self) -> u64 {
        self.inner.relaxations()
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        traced(Layer::Checkpoint, |extra| {
            let state = self.inner.checkpoint_state();
            extra.bytes = state.len() as u64;
            state
        })
    }

    fn restore(&mut self, state: &[u8], iteration: u64) -> bool {
        traced(Layer::Restore, |extra| {
            extra.bytes = state.len() as u64;
            self.inner.restore(state, iteration)
        })
    }
}
