//! `serve-tiered`: batch `serve()` over a population 100× the live table.
//!
//! Tiering is on (`TierConfig`, warm tier only) with 2 workers and a
//! FIFO session queue, so nearly every dispatch slice hibernates the
//! least recently used resident and resumes a snapshot by journal replay.
//! This is the only path to hibernate/resume — `OpenServe` rejects tiered
//! configs — and it reaches the serving layer through the *batch*
//! admission path. Every session is checked against `run_serial` on the
//! same instance.

use crate::gen;
use crate::report::Report;
use crate::spans::{Span, Spans, ROOT};
use crate::stats::{median, ms_p50_tail};
use psme_core::Scheduler;
use psme_obs::TraceKind;
use psme_serve::{
    build_topology, serve, ServeConfig, ServeReport, SessionReport, SessionSpec, TierConfig,
};
use psme_tasks::{eight_puzzle, run_serial, scrambled, RunMode};
use std::collections::BTreeMap;
use std::time::Instant;

/// Live-table capacity (the hot bound).
pub const TABLE: usize = 2;
/// Sessions per batch: 100× the live table.
pub const POPULATION: usize = 100 * TABLE;
/// Serve workers.
pub const WORKERS: usize = 2;
/// Decisions per dispatch slice.
pub const SLICE: u64 = 4;
/// Blank moves per scramble.
pub const MOVES: usize = 2;

fn config() -> ServeConfig {
    let mut cfg = ServeConfig {
        workers: WORKERS,
        scheduler: Scheduler::SingleQueue,
        table_capacity: TABLE,
        admission_depth: POPULATION,
        slice_decisions: SLICE,
        tier: Some(TierConfig::default()),
        ..Default::default()
    };
    cfg.trace.ring_cap = 1 << 18;
    cfg
}

fn specs(pop: &[(u64, bool)]) -> Vec<SessionSpec> {
    pop.iter()
        .enumerate()
        .map(|(i, &(seed, learning))| SessionSpec {
            name: format!("pop-{i}"),
            task: eight_puzzle(&scrambled(MOVES, seed)),
            learning,
        })
        .collect()
}

/// The solo result a served session must equal, field by field.
#[derive(Debug, PartialEq)]
struct Expected {
    stop: Option<psme_soar::StopReason>,
    stats: psme_soar::AgentStats,
    chunks: Vec<String>,
    output: Vec<String>,
}

fn expected_of(s: &SessionReport) -> Expected {
    Expected {
        stop: s.stop,
        stats: s.stats,
        chunks: s.chunk_names.clone(),
        output: s.output.clone(),
    }
}

fn reference(spec: &SessionSpec) -> Expected {
    let mode = if spec.learning {
        RunMode::DuringChunking
    } else {
        RunMode::WithoutChunking
    };
    let r = run_serial(&spec.task, mode, false).0;
    Expected {
        stop: Some(r.stop),
        stats: r.stats,
        chunks: r
            .chunks
            .iter()
            .map(|c| psme_ops::sym_name(c.name).to_string())
            .collect(),
        output: r.output,
    }
}

/// One measured batch.
struct Batch {
    wall_ns: u64,
    setup_ns: f64,
    report: ServeReport,
    ok: Vec<bool>,
}

impl Batch {
    fn correct(&self) -> usize {
        self.ok.iter().filter(|&&o| o).count()
    }

    /// Decisions of the batch's correct sessions.
    fn decisions(&self) -> u64 {
        self.report
            .sessions
            .iter()
            .zip(&self.ok)
            .filter(|(_, &o)| o)
            .map(|(s, _)| s.stats.decisions)
            .sum()
    }
}

/// Each session's median over the batches of a per-session figure
/// (`(session, value)` pairs from `f`), in session order. Every batch
/// serves the same population, so session `i` does the same work in each;
/// a disturbance that hits it in one batch is left out.
fn per_session(batches: &[Batch], f: impl Fn(&Batch) -> Vec<(u32, f64)>) -> Vec<f64> {
    let mut by: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for b in batches {
        for (i, v) in f(b) {
            by.entry(i).or_default().push(v);
        }
    }
    by.values().map(|v| median(v)).collect()
}

/// Samples of a pass.
#[derive(Default)]
struct Pass {
    batches: Vec<Batch>,
}

fn pass(pop: &[(u64, bool)], refs: &[Expected], secs: f64, sp: &mut Spans) -> Pass {
    let mut p = Pass::default();
    let t0 = Instant::now();
    let root = sp.open(ROOT, None, 0);
    let mut req = 0;
    while t0.elapsed().as_secs_f64() < secs {
        req += 1;
        let s0 = Instant::now();
        let id = sp.open("ops.parse", root, req);
        let batch = specs(pop);
        sp.close(id);
        let id = sp.open("rete.compile", root, req);
        let topo = build_topology(&batch[0].task);
        sp.close(id);
        let setup_ns = s0.elapsed().as_nanos() as f64;
        let b0 = Instant::now();
        let id = sp.open("serve.batch", root, req);
        let report = serve(topo, batch, config());
        sp.close(id);
        let wall_ns = b0.elapsed().as_nanos() as u64;
        lay_out_workers(sp, id, &report, req);
        let check = sp.open("bench.check", root, req);
        let ok = report
            .sessions
            .iter()
            .zip(refs)
            .map(|(s, r)| expected_of(s) == *r)
            .collect();
        sp.close(check);
        p.batches.push(Batch {
            wall_ns,
            setup_ns,
            report,
            ok,
        });
    }
    sp.close(root);
    p
}

/// Attribute a batch's worker time inside its `serve.batch` span: the
/// sessions' summed decision-cycle time and the store's summed resume
/// time, each divided by the worker count (2 workers busy for 1 ms are
/// 1 ms of the batch's wall), laid end to end. The span's self time is the
/// rest: admission, session build, hibernation, dispatch and idle workers.
fn lay_out_workers(sp: &mut Spans, batch: crate::spans::SpanId, r: &ServeReport, req: u64) {
    let Some(i) = batch else { return };
    let sum = |q: &psme_obs::Quantiles| q.mean * q.count as f64;
    let exec: f64 = r
        .sessions
        .iter()
        .map(|s| sum(&s.telemetry.cycle_latency))
        .sum();
    let resume = r.tier.as_ref().map_or(0.0, |t| sum(&t.resume_latency));
    let w = r.workers.max(1) as f64;
    let start = sp.spans[i].start_ns;
    sp.lay_out(
        batch,
        start,
        &[
            ("soar.slice_exec", (exec / w) as u64),
            ("store.resume", (resume / w) as u64),
        ],
        req,
    );
}

/// A pass's serve-trace events of one kind, over every batch.
fn events(p: &Pass, kind: TraceKind) -> impl Iterator<Item = &psme_obs::TraceEvent> {
    p.batches
        .iter()
        .flat_map(move |b| b.report.trace.events.iter().filter(move |e| e.kind == kind))
}

/// Run the workload.
pub fn run(seed: u64, secs: f64, traced: bool, rep: &mut Report) -> Vec<Span> {
    let pop = gen::tiered_population(seed, POPULATION);
    let refs: Vec<Expected> = specs(&pop).iter().map(reference).collect();
    let learning = pop.iter().filter(|p| p.1).count();
    rep.note(format!(
        "params: serve() batch population={POPULATION} table={TABLE} ({}x) workers={WORKERS} \
         scheduler=SingleQueue slice={SLICE} tier=warm; sessions: {MOVES}-move eight-puzzle \
         scrambles, {learning} learning",
        POPULATION / TABLE
    ));
    let mut plain = Spans::new(false);
    let a = pass(
        &pop,
        &refs,
        if traced { secs / 2.0 } else { secs },
        &mut plain,
    );
    let wall: f64 = a.batches.iter().map(|b| b.wall_ns as f64).sum::<f64>() * 1e-9;
    let correct: usize = a.batches.iter().map(Batch::correct).sum();
    let decisions: u64 = a.batches.iter().map(Batch::decisions).sum();
    let per_batch =
        |f: &dyn Fn(&Batch) -> f64| median(&a.batches.iter().map(f).collect::<Vec<_>>());
    rep.set("setup_s", per_batch(&|b| b.setup_ns) * 1e-9);
    rep.set(
        "sessions_per_s",
        per_batch(&|b| b.correct() as f64 / b.wall_ns as f64 * 1e9),
    );
    rep.set(
        "decisions_per_s",
        per_batch(&|b| b.decisions() as f64 / b.wall_ns as f64 * 1e9),
    );
    // Every session of a batch is due when serve() is called, the origin
    // of the batch's trace clock: its sojourn is its retirement time.
    // Decision time is each session's mean `Agent::step` time. A wrong
    // output misses every latency limit. Trace session ids index the
    // batch's sessions.
    let timed = |b: &Batch, i: u32, v: f64| if b.ok[i as usize] { v } else { f64::INFINITY };
    let sojourn = per_session(&a.batches, |b| {
        b.report
            .trace
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Retired)
            .map(|e| (e.session, timed(b, e.session, e.t_ns as f64)))
            .collect()
    });
    let (p50, t) = ms_p50_tail(sojourn);
    rep.set_p50_tail("sojourn_ms", p50, t);
    let decision = per_session(&a.batches, |b| {
        (0u32..)
            .zip(&b.report.sessions)
            .map(|(i, s)| (i, timed(b, i, s.telemetry.cycle_latency.mean)))
            .collect()
    });
    let (p50, t) = ms_p50_tail(decision);
    rep.set_p50_tail("decision_ms", p50, t);
    rep.note(format!(
        "  sojourn_ms, decision_ms: one sample per session, its median over the {} batches",
        a.batches.len()
    ));
    let dropped: u64 = a.batches.iter().map(|b| b.report.trace.dropped).sum();
    rep.note(format!(
        "  {} batches, {correct} correct sessions, {decisions} decisions, {wall:.3} s serving; \
         sojourn = serve() call to retirement; trace events dropped: {dropped}",
        a.batches.len()
    ));

    let mut all = vec![a];
    let mut sp = Spans::new(traced);
    if traced {
        let b = pass(&pop, &refs, secs / 2.0, &mut sp);
        let per_session = |p: &Pass| {
            let n: usize = p.batches.iter().map(|b| b.ok.len()).sum();
            p.batches.iter().map(|b| b.wall_ns as f64).sum::<f64>() / n.max(1) as f64
        };
        rep.set(
            "obs.trace_overhead_share",
            per_session(&b) / per_session(&all[0]) - 1.0,
        );
        layer_metrics(rep, &b);
        all.push(b);
    }
    let attempted: usize = all
        .iter()
        .flat_map(|p| &p.batches)
        .map(|b| b.ok.len())
        .sum();
    let ok: usize = all
        .iter()
        .flat_map(|p| &p.batches)
        .map(|b| b.ok.iter().filter(|&&o| o).count())
        .sum();
    let shed: usize = all
        .iter()
        .flat_map(|p| &p.batches)
        .map(|b| b.report.shed)
        .sum();
    rep.attempted = attempted as u64;
    rep.failed = (attempted - ok) as u64;
    // A shed session is a failure but not a wrong output.
    rep.correct = attempted - ok == shed;
    rep.set("failed_share", rep.failed as f64 / attempted.max(1) as f64);
    rep.note(format!(
        "  failed_share = {:.4} ({} of {attempted}; {shed} shed)",
        rep.failed as f64 / attempted.max(1) as f64,
        rep.failed
    ));
    sp.take()
}

fn layer_metrics(rep: &mut Report, p: &Pass) {
    let (p50, t) = ms_p50_tail(
        events(p, TraceKind::SliceStart)
            .map(|e| e.arg_ns as f64)
            .collect(),
    );
    rep.set_p50_tail("serve.queue_wait_ms", p50, t);
    let (p50, t) = ms_p50_tail(
        events(p, TraceKind::SliceEnd)
            .map(|e| e.arg_ns as f64)
            .collect(),
    );
    rep.set_p50_tail("serve.slice_ms", p50, t);
    let (p50, t) = ms_p50_tail(
        events(p, TraceKind::SliceEnd)
            .filter(|e| e.cycle_hi > e.cycle_lo)
            .map(|e| e.arg_ns as f64 / (e.cycle_hi - e.cycle_lo) as f64)
            .collect(),
    );
    rep.set_p50_tail("serve.cycle_ms", p50, t);
    let (p50, t) = ms_p50_tail(
        events(p, TraceKind::Resumed)
            .map(|e| e.arg_ns as f64)
            .collect(),
    );
    rep.set_p50_tail("store.resume_ms", p50, t);
    let reports = || p.batches.iter().map(|b| &b.report);
    let sessions = || reports().flat_map(|r| &r.sessions);
    rep.set(
        "serve.slices",
        sessions().map(|s| s.telemetry.slices).sum::<u64>() as f64,
    );
    rep.set(
        "soar.chunks_built",
        sessions().map(|s| s.stats.chunks_built).sum::<u64>() as f64,
    );
    rep.set(
        "soar.firings",
        sessions().map(|s| s.stats.firings).sum::<u64>() as f64,
    );
    rep.set(
        "serve.shed",
        reports().map(|r| r.shed).sum::<usize>() as f64,
    );
    rep.set(
        "serve.bus_occupancy",
        median(
            &reports()
                .map(|r| r.mean_bus_occupancy())
                .collect::<Vec<_>>(),
        ),
    );
    let tiers: Vec<_> = reports().filter_map(|r| r.tier.as_ref()).collect();
    let hib: u64 = tiers.iter().map(|t| t.hibernated).sum();
    rep.set("store.hibernated", hib as f64);
    rep.set(
        "store.resumed",
        tiers.iter().map(|t| t.resumed).sum::<u64>() as f64,
    );
    let bytes: u64 = tiers.iter().map(|t| t.snapshot_bytes_total).sum();
    rep.set(
        "store.snapshot_kb_per_hibernate",
        bytes as f64 / 1024.0 / hib.max(1) as f64,
    );
    rep.set(
        "store.peak_hot",
        tiers.iter().map(|t| t.peak_hot).max().unwrap_or(0) as f64,
    );
}
