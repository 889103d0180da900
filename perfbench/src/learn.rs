//! `learn`: closed-loop learning runs on the PSM-E parallel engine.
//!
//! One agent at a time, in process, on `ParallelEngine` with 2 match
//! workers. Each instance runs twice per round — without chunking (match
//! reads only) and during chunking (chunks compiled into the running
//! network by §5.1 surgery and primed by the §5.2 state update). Every run
//! is checked against `run_serial` on the same input.
//!
//! Timings are the process's CPU time (all threads: the control thread
//! and both match workers), not wall time. On a shared 2-vCPU virtual
//! machine, CPU steal reached 20–40 % of the guest's CPU ticks while this
//! workload ran, changing from minute to minute, and the same seed's
//! wall-clock decision rate moved by up to 2× with it; the likely cause is
//! that the engine parks its workers between match cycles and wakes them
//! at the next, so every cycle waits for the hypervisor to run an idle
//! vCPU again. CPU time leaves out the time the guest was not running; it
//! is the work the program did, spin-waiting at the barrier included.
//!
//! Every round repeats the same work, so each timed sample — a run's
//! set-up, a run, one `Agent::step` — has a fixed position in the round.
//! The metrics come from the *median round*: each position's median over
//! the rounds, so a disturbance that hits one position in one round is
//! left out.

use crate::gen::{self, Instance};
use crate::meter::{Meter, MeterRef, TimedEngine};
use crate::report::Report;
use crate::spans::{self, SpanId, ROOT};
use crate::stats::{median, ms_p50_tail};
use psme_core::{EngineConfig, MatchEngine, ParallelEngine, Scheduler};
use psme_obs::Counter;
use psme_rete::ReteNetwork;
use psme_soar::{Agent, AgentStats, SoarTask, StopReason};
use psme_tasks::{run_serial, RunMode, DECISION_BUDGET};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU time the process has used so far, over all its threads, in ns.
/// Time the hypervisor took the vCPU away (steal) is not counted.
fn cpu_ns() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed out-parameter.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as f64 * 1e9 + ts.nsec as f64
}

/// Match workers.
pub const WORKERS: usize = 2;
/// Eight-puzzle instances per round: enough that a round holds 100 runs,
/// the fewest whose p90 has 10 samples beyond it.
pub const PUZZLES: usize = 48;

/// What a run must reproduce: everything Soar-visible.
#[derive(Debug, PartialEq)]
struct Expected {
    stop: StopReason,
    stats: AgentStats,
    chunks: Vec<String>,
    output: Vec<String>,
}

/// `update_tasks` is left out of the comparison: the parallel engine's
/// count falls short of the serial engine's under chunking (reported as
/// `core.tasks_lost`, see README.md).
fn visible(stats: AgentStats) -> AgentStats {
    AgentStats {
        update_tasks: 0,
        ..stats
    }
}

struct Reference {
    expected: Expected,
    /// Serial-engine task count (match + state update) for the same run.
    serial_tasks: u64,
}

fn reference(task: &SoarTask, learning: bool) -> Reference {
    let mode = if learning {
        RunMode::DuringChunking
    } else {
        RunMode::WithoutChunking
    };
    let (r, eng) = run_serial(task, mode, false);
    Reference {
        expected: Expected {
            stop: r.stop,
            stats: visible(r.stats),
            chunks: r
                .chunks
                .iter()
                .map(|c| psme_ops::sym_name(c.name).to_string())
                .collect(),
            output: r.output,
        },
        serial_tasks: eng.total_tasks(),
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        scheduler: Scheduler::MultiQueue,
        ..EngineConfig::default()
    }
}

/// The seed's instances with their references: Cypress-sub (4 roots),
/// one STRIPS world and the first [`PUZZLES`] scrambles whose reference
/// runs reach the goal.
fn fixture(seed: u64) -> Fixture {
    let with_refs = |inst: Instance| {
        let t = inst.task();
        let refs = [reference(&t, false), reference(&t, true)];
        (inst, refs)
    };
    let fixed = [
        Instance::Cypress(gen::LEARN_CYPRESS_ROOTS),
        gen::learn_strips(seed),
    ];
    let puzzles = gen::learn_puzzles(seed)
        .map(with_refs)
        .filter(|(_, r)| r.iter().all(|r| r.expected.stop == StopReason::Halted))
        .take(PUZZLES);
    let (instances, refs) = fixed.into_iter().map(with_refs).chain(puzzles).unzip();
    Fixture { instances, refs }
}

/// Parallel-engine counters summed over runs.
#[derive(Default)]
struct Core {
    tasks: u64,
    tasks_lost: i64,
    spins: u64,
    pops: u64,
    failed_pops: u64,
    steals: u64,
    steal_fails: u64,
    mem_spins: u64,
    counters: psme_obs::CounterSet,
}

/// One round's CPU times, in round order.
#[derive(Clone, Debug, Default, PartialEq)]
struct Round {
    /// Parsing the instances, then each run's engine start and agent build.
    setup_ns: Vec<f64>,
    /// Each agent run, first step to stop.
    run_ns: Vec<f64>,
    /// Each `Agent::step` call.
    step_ns: Vec<f64>,
}

/// The median round: each position's median over the rounds (positions
/// every round has; all rounds have the same when every output matched).
fn median_round(rounds: &[Round]) -> Round {
    let col = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        let n = rounds.iter().map(|r| f(r).len()).min().unwrap_or(0);
        (0..n)
            .map(|i| median(&rounds.iter().map(|r| f(r)[i]).collect::<Vec<_>>()))
            .collect()
    };
    Round {
        setup_ns: col(|r| &r.setup_ns),
        run_ns: col(|r| &r.run_ns),
        step_ns: col(|r| &r.step_ns),
    }
}

/// Samples and counts of one measured pass.
#[derive(Default)]
struct Pass {
    rounds: Vec<Round>,
    /// Wall time of the agent runs, summed (reported, not a metric).
    wall_run_ns: f64,
    decisions: u64,
    runs: u64,
    mismatches: u64,
    chunks: u64,
    firings: u64,
    core: Core,
    first_mismatch: Option<String>,
}

struct Fixture {
    instances: Vec<Instance>,
    refs: Vec<[Reference; 2]>,
}

/// Run rounds until `secs` have passed, recording into `meter`.
fn pass(fx: &Fixture, secs: f64, meter: &MeterRef) -> Pass {
    let mut p = Pass::default();
    let t0 = Instant::now();
    let root = meter.borrow_mut().spans.open(ROOT, None, 0);
    let mut req = 0u64;
    while t0.elapsed().as_secs_f64() < secs {
        let c0 = cpu_ns();
        let id = meter.borrow_mut().spans.open("ops.parse", root, req);
        let tasks: Vec<SoarTask> = fx.instances.iter().map(Instance::task).collect();
        meter.borrow_mut().spans.close(id);
        p.rounds.push(Round {
            setup_ns: vec![cpu_ns() - c0],
            ..Round::default()
        });
        for (i, task) in tasks.iter().enumerate() {
            for learning in [false, true] {
                req += 1;
                let ok = one_run(
                    &mut p,
                    task,
                    learning,
                    &fx.refs[i][learning as usize],
                    meter,
                    root,
                    req,
                );
                if !ok && p.first_mismatch.is_none() {
                    p.first_mismatch =
                        Some(format!("{} learning={learning}", fx.instances[i].label()));
                }
            }
        }
    }
    meter.borrow_mut().spans.close(root);
    p
}

/// One agent run, timed into the pass's last round. Returns whether its
/// output matched the reference.
fn one_run(
    p: &mut Pass,
    task: &SoarTask,
    learning: bool,
    r: &Reference,
    meter: &MeterRef,
    root: SpanId,
    req: u64,
) -> bool {
    let c0 = cpu_ns();
    let id = meter
        .borrow_mut()
        .spans
        .open("core.engine_start", root, req);
    let engine = ParallelEngine::new(ReteNetwork::new(), engine_config());
    let build = {
        let mut m = meter.borrow_mut();
        m.spans.close(id);
        let b = m.spans.open("soar.agent", root, req);
        m.parent = b;
        m.req = req;
        m.building = true;
        b
    };
    let mut agent: Agent<TimedEngine<ParallelEngine>> = task.agent(TimedEngine::new(engine, meter));
    {
        let mut m = meter.borrow_mut();
        m.building = false;
        m.spans.close(build);
    }
    let setup_ns = cpu_ns() - c0;
    agent.learning = learning;

    let r0 = Instant::now();
    let run0 = cpu_ns();
    let mut step_ns = Vec::new();
    let stop = loop {
        let c = cpu_ns();
        let step = {
            let mut m = meter.borrow_mut();
            let s = m.spans.open("soar.step", root, req);
            m.parent = s;
            s
        };
        let out = agent.step(DECISION_BUDGET);
        meter.borrow_mut().spans.close(step);
        step_ns.push(cpu_ns() - c);
        if let Some(stop) = out {
            break stop;
        }
    };
    let run_ns = cpu_ns() - run0;
    p.wall_run_ns += r0.elapsed().as_nanos() as f64;
    let round = p.rounds.last_mut().expect("a round is open");
    round.setup_ns.push(setup_ns);
    round.run_ns.push(run_ns);
    round.step_ns.extend(step_ns);

    let id = meter.borrow_mut().spans.open("bench.check", root, req);
    let got = Expected {
        stop,
        stats: visible(agent.stats),
        chunks: agent
            .chunker
            .chunks
            .iter()
            .map(|c| psme_ops::sym_name(c.name).to_string())
            .collect(),
        output: agent.output.clone(),
    };
    let ok = got == r.expected;
    p.runs += 1;
    p.decisions += agent.stats.decisions;
    p.chunks += agent.stats.chunks_built;
    p.firings += agent.stats.firings;
    p.mismatches += u64::from(!ok);
    if meter.borrow().spans.enabled() {
        absorb_core(
            &mut p.core,
            agent
                .engine
                .metrics()
                .expect("parallel engine keeps metrics"),
            r,
        );
    }
    meter.borrow_mut().spans.close(id);
    let id = meter.borrow_mut().spans.open("core.engine_stop", root, req);
    drop(agent);
    meter.borrow_mut().spans.close(id);
    ok
}

fn absorb_core(c: &mut Core, log: &psme_core::MetricsLog, r: &Reference) {
    let tasks = log.total_tasks();
    c.tasks += tasks;
    c.tasks_lost += r.serial_tasks as i64 - tasks as i64;
    for cy in &log.cycles {
        let q = &cy.queue;
        c.spins += q.pop_spins + q.push_spins;
        c.pops += q.pops;
        c.failed_pops += q.failed_pops;
        c.steals += q.steals;
        c.steal_fails += q.steal_fails;
        c.mem_spins += cy.mem_spins;
    }
    c.counters.merge(&log.total_counters());
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Run the workload.
pub fn run(seed: u64, secs: f64, traced: bool, rep: &mut Report) -> Vec<spans::Span> {
    let fx = fixture(seed);
    rep.note(format!(
        "params: engine=ParallelEngine workers={WORKERS} scheduler=MultiQueue budget={DECISION_BUDGET} \
         modes=[without-chunking, during-chunking]"
    ));
    for (inst, r) in fx.instances.iter().zip(&fx.refs) {
        rep.note(format!(
            "  instance: {} ({} / {} decisions without / during chunking)",
            inst.label(),
            r[0].expected.stats.decisions,
            r[1].expected.stats.decisions
        ));
    }

    // Untraced pass: the end-to-end figures (and the overhead baseline of
    // a traced run).
    let plain = Meter::new(false);
    let a = pass(&fx, if traced { secs / 2.0 } else { secs }, &plain);
    let m = median_round(&a.rounds);
    let run_s = m.run_ns.iter().sum::<f64>() * 1e-9;
    let decisions: u64 = fx
        .refs
        .iter()
        .flatten()
        .map(|r| r.expected.stats.decisions)
        .sum();
    rep.set("setup_s", m.setup_ns.iter().sum::<f64>() * 1e-9);
    rep.set("decisions_per_s", decisions as f64 / run_s);
    rep.set("sessions_per_s", m.run_ns.len() as f64 / run_s);
    let (p50, t) = ms_p50_tail(m.step_ns.clone());
    rep.set_p50_tail("decision_ms", p50, t);
    let (p50, t) = ms_p50_tail(m.run_ns.clone());
    rep.set_p50_tail("sojourn_ms", p50, t);
    rep.note(format!(
        "  {} runs in {} rounds, {} decisions, {} mismatches; every figure is process CPU time \
         from the median round ({} runs, {} steps, each the median of its position over the \
         rounds); sojourn = one agent run; wall-clock rate {:.1} decisions/s (not a metric)",
        a.runs,
        a.rounds.len(),
        a.decisions,
        a.mismatches,
        m.run_ns.len(),
        m.step_ns.len(),
        a.decisions as f64 / a.wall_run_ns * 1e9
    ));
    let mut all = a;
    if !traced {
        finish(rep, &all);
        return Vec::new();
    }

    let meter = Meter::new(true);
    let b = pass(&fx, secs / 2.0, &meter);
    let traced_run_s = median_round(&b.rounds).run_ns.iter().sum::<f64>() * 1e-9;
    rep.set("obs.trace_overhead_share", traced_run_s / run_s - 1.0);
    let m = meter.borrow();
    rep.set("core.match_calls", m.match_calls as f64);
    rep.set("rete.add_production_calls", m.add_calls as f64);
    rep.set("soar.chunks_built", b.chunks as f64);
    rep.set("soar.firings", b.firings as f64);
    let c = &b.core;
    rep.set("core.tasks", c.tasks as f64);
    rep.set("core.tasks_lost", c.tasks_lost as f64);
    rep.set("core.queue.spins_per_task", ratio(c.spins, c.tasks));
    rep.set(
        "core.queue.failed_pop_share",
        ratio(c.failed_pops, c.pops + c.failed_pops),
    );
    rep.set(
        "core.line_lock_acquisitions",
        c.counters.get(Counter::LineLockAcquisitions) as f64,
    );
    rep.set("core.mem_spins", c.mem_spins as f64);
    rep.set(
        "core.steal_success_share",
        ratio(c.steals, c.steals + c.steal_fails),
    );
    let beta = c.counters.get(Counter::BetaTasks);
    rep.set(
        "rete.alpha.probes",
        c.counters.get(Counter::AlphaProbes) as f64,
    );
    rep.set(
        "rete.alpha.tests_saved",
        c.counters.get(Counter::AlphaTestsSaved) as f64,
    );
    rep.set(
        "rete.beta.null_share",
        ratio(c.counters.get(Counter::NullActivations), beta),
    );
    rep.set(
        "rete.beta.scanned_per_activation",
        ratio(c.counters.get(Counter::Scanned), beta),
    );
    rep.set(
        "rete.beta.hash_rejects",
        c.counters.get(Counter::HashRejects) as f64,
    );
    rep.note(format!(
        "  core.tasks_lost = {} of {} serial-reference tasks over {} traced runs (known \
         parallel-engine undercount; update_tasks is not compared)",
        c.tasks_lost,
        c.tasks as i64 + c.tasks_lost,
        b.runs
    ));
    drop(m);
    all.runs += b.runs;
    all.mismatches += b.mismatches;
    all.first_mismatch = all.first_mismatch.or(b.first_mismatch);
    finish(rep, &all);
    let out = meter.borrow_mut().spans.take();
    out
}

fn finish(rep: &mut Report, p: &Pass) {
    rep.attempted = p.runs;
    rep.failed = p.mismatches;
    rep.correct = p.mismatches == 0;
    if let Some(m) = &p.first_mismatch {
        rep.note(format!("  MISMATCH against run_serial: {m}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup: &[f64], run: &[f64], step: &[f64]) -> Round {
        Round {
            setup_ns: setup.to_vec(),
            run_ns: run.to_vec(),
            step_ns: step.to_vec(),
        }
    }

    #[test]
    fn the_median_round_takes_each_position_separately() {
        // A stall hits a different position in each round; the median
        // round shows none of them.
        let rounds = [
            round(&[1.0], &[10.0, 90.0], &[5.0, 5.0, 50.0]),
            round(&[1.0], &[80.0, 20.0], &[5.0, 60.0, 5.0]),
            round(&[9.0], &[10.0, 20.0], &[70.0, 5.0, 5.0]),
        ];
        assert_eq!(
            median_round(&rounds),
            round(&[1.0], &[10.0, 20.0], &[5.0, 5.0, 5.0])
        );
        // A round cut short contributes only the positions it has.
        let short = round(&[1.0], &[10.0], &[5.0]);
        assert_eq!(median_round(&[rounds[0].clone(), short]).step_ns.len(), 1);
        assert_eq!(median_round(&[]), Round::default());
    }
}
