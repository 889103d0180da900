//! `serve-open`: open-loop sessions over loopback TCP.
//!
//! An in-process `NetServer` hosts `paper_apps()` (1 shard, 1 worker per
//! app). One connection carries the load; the pacing thread sends each
//! `OpenSession` at its due time and, between sends, drains replies from
//! the `Client` reader — the only two client threads. Sessions are timed
//! from their *due* time, so a late sender shows up as latency (and as
//! `loadgen.lag_ms`) instead of being hidden. Rates form a ladder of fixed
//! absolute rungs; every `Done` summary is checked against a solo run.

use crate::gen::{self, Arrival};
use crate::report::Report;
use crate::spans::{Span, Spans, ROOT};
use crate::stats::{median, ms_p50_tail, percentile, sorted, Tail};
use psme_net::{
    paper_apps, stop_code, AppDef, Client, Frame, NetServer, SessionSummary, APP_SHIFT,
};
use psme_obs::TraceKind;
use psme_rete::{ReteNetwork, SerialEngine};
use psme_serve::{ServeConfig, ServeReport};
use psme_soar::{Agent, SoarTask};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Offered rates, session opens per second, lowest first.
pub const RATES: [f64; 3] = [10.0, 20.0, 60.0];
/// The nominal rung: the highest below the knee. Latencies come from it.
pub const NOMINAL: usize = 1;
/// The overload rung, above the knee: its backlog grows, so completions
/// are bounded by the server's capacity. Throughputs come from it.
pub const OVERLOAD: usize = 2;
/// Share of the run's seconds each rung offers load for.
pub const SHARES: [f64; 3] = [0.05, 0.7, 0.25];
/// Segments each rung is offered in, each against a freshly started
/// server; a rung's figures pool its segments. Over six seeds run
/// interleaved on a 2-vCPU machine this was steadier than one segment per
/// rung (IQR/median of `sojourn_ms.tail` 0.14 against 0.36).
pub const SEGMENTS: [usize; 3] = [1, 4, 3];
/// `sojourn_ms.tail` limit behind `max_rate_ok_per_s`, and the longest a
/// rung may take to drain after its last due open.
pub const SOJOURN_LIMIT_MS: f64 = 500.0;
/// How long [`drive`] waits for the next reply once every open is sent.
/// A session still unresolved then counts as a wrong output.
pub const IDLE_LIMIT: Duration = Duration::from_millis(10 * SOJOURN_LIMIT_MS as u64);
/// Decision credit per grant for credited sessions.
pub const GRANT: u64 = 24;
/// Distinct eight-puzzle scrambles in the session mix.
pub const POOL: usize = 16;

/// One entry of the session mix.
pub struct Mix {
    /// App name.
    pub app: &'static str,
    /// Share of sessions, per mille.
    pub weight: u64,
    /// Open with learning on.
    pub learning: bool,
    /// Decision credit (`None` auto-runs).
    pub grant: Option<u64>,
    /// Toggle learning on over `Learn` at the first park.
    pub learn_on_first_park: bool,
}

/// The session mix.
pub const MIX: [Mix; 3] = [
    Mix {
        app: "eight-puzzle",
        weight: 300,
        learning: false,
        grant: None,
        learn_on_first_park: false,
    },
    Mix {
        app: "strips",
        weight: 500,
        learning: true,
        grant: None,
        learn_on_first_park: false,
    },
    Mix {
        app: "cypress-sub",
        weight: 200,
        learning: false,
        grant: Some(GRANT),
        learn_on_first_park: true,
    },
];

fn weights() -> Vec<u64> {
    MIX.iter().map(|m| m.weight).collect()
}

/// Server configuration: one shard, one worker per app, admission deep
/// enough that nothing is shed. Traced, the serve trace ring is large
/// enough to keep every slice of a run; untraced, it is off.
pub fn serve_config(traced: bool) -> ServeConfig {
    let mut cfg = ServeConfig {
        workers: 1,
        table_capacity: 64,
        admission_depth: 8192,
        slice_decisions: 64,
        ..Default::default()
    };
    cfg.trace.enabled = traced;
    cfg.trace.ring_cap = 1 << 18;
    cfg
}

/// Solo run of one session: same instance, learning flag, and credit /
/// `Learn` pattern, on a serial engine.
pub fn solo(task: &SoarTask, m: &Mix, max_decisions: u64) -> SessionSummary {
    let mut a = task.agent(SerialEngine::new(ReteNetwork::new()));
    a.learning = m.learning;
    let mut stop = None;
    if let Some(g) = m.grant {
        for _ in 0..g {
            if let Some(r) = a.step(max_decisions) {
                stop = Some(r);
                break;
            }
        }
        if stop.is_none() && m.learn_on_first_park {
            a.learning = true;
        }
    }
    let stop = stop.unwrap_or_else(|| a.run(max_decisions));
    summary(&a, stop)
}

fn summary<E: psme_core::MatchEngine>(a: &Agent<E>, stop: psme_soar::StopReason) -> SessionSummary {
    SessionSummary {
        name: String::new(),
        stop: stop_code(stop),
        stats: a.stats,
        chunk_names: a
            .chunker
            .chunks
            .iter()
            .map(|c| psme_ops::sym_name(c.name).to_string())
            .collect(),
        output: a.output.clone(),
    }
}

/// Reference summaries keyed by `(mix, seed)`; apps with a fixed instance
/// ignore the seed, so their key uses seed 0.
struct Refs(HashMap<(usize, u64), SessionSummary>);

impl Refs {
    fn build(apps: &[AppDef], pool: &[u64], max_decisions: u64) -> Refs {
        let mut map = HashMap::new();
        for (mi, m) in MIX.iter().enumerate() {
            let app = apps
                .iter()
                .find(|a| a.name == m.app)
                .expect("mix app is hosted");
            let seeds: Vec<u64> = if mi == 0 { pool.to_vec() } else { vec![0] };
            for s in seeds {
                map.insert((mi, s), solo(&(app.instance)(s), m, max_decisions));
            }
        }
        Refs(map)
    }

    fn explain(&self, mix: usize, seed: u64, got: &SessionSummary) -> String {
        let key = (mix, if mix == 0 { seed } else { 0 });
        format!(
            "{} seed {seed}: got {got:?}, expected {:?}",
            MIX[mix].app,
            self.0.get(&key)
        )
    }

    fn matches(&self, mix: usize, seed: u64, got: &SessionSummary) -> bool {
        let key = (mix, if mix == 0 { seed } else { 0 });
        self.0.get(&key).is_some_and(|r| {
            SessionSummary {
                name: got.name.clone(),
                ..r.clone()
            } == *got
        })
    }
}

/// A live server plus its connected client.
struct Rig {
    server: NetServer,
    client: Client,
    events: Receiver<Frame>,
    /// Hosted app names in wire order (`id >> APP_SHIFT` indexes this).
    apps: Vec<String>,
}

/// Build the apps, start a server whose per-app session-id space holds
/// `max_sessions`, connect and negotiate. `NetServer::start` allocates
/// every session slot up front, so the id space is sized to the run.
fn start_rig(max_sessions: usize, traced: bool) -> Rig {
    let server = NetServer::start(
        "127.0.0.1:0",
        &serve_config(traced),
        paper_apps(),
        max_sessions,
    )
    .expect("bind a loopback port");
    let mut client =
        Client::connect(&server.local_addr().to_string()).expect("connect over loopback");
    let apps = client.hello("perfbench").expect("hello");
    let events = client.take_events().expect("fresh client has its receiver");
    Rig {
        server,
        client,
        events,
        apps,
    }
}

impl Rig {
    fn finish(self) -> Vec<(String, ServeReport)> {
        drop(self.client);
        self.server.finish()
    }
}

/// What happened to one offered session.
#[derive(Clone, Default)]
struct Fate {
    due: Option<Instant>,
    sent: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    decisions: u64,
    name: String,
}

/// Samples of one rung.
#[derive(Default)]
struct Rung {
    fates: Vec<Fate>,
    /// Seconds from each segment's start to its last resolution, summed.
    wall_s: f64,
    /// Longest time from a segment's last due open to its last resolution.
    drain_ms: f64,
    mismatches: u64,
    /// Sessions left without `Done`, shed or `Refused` when the server
    /// fell silent for [`IDLE_LIMIT`].
    lost: u64,
    shed: u64,
    refused: u64,
    rtt_ns: Vec<f64>,
    open_ack_ns: Vec<f64>,
    send_ns: Vec<f64>,
    lag_ns: Vec<f64>,
    frames_sent: u64,
    frames_recv: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    first_mismatch: Option<String>,
}

impl Rung {
    fn sojourn_ns(&self) -> Vec<f64> {
        self.fates
            .iter()
            .map(|f| match (f.ok, f.due, f.done) {
                (true, Some(d), Some(e)) => (e - d).as_nanos() as f64,
                _ => f64::INFINITY,
            })
            .collect()
    }

    fn correct(&self) -> usize {
        self.fates.iter().filter(|f| f.ok).count()
    }

    /// Fold another segment of the same rung in.
    fn absorb(&mut self, o: Rung) {
        self.fates.extend(o.fates);
        self.wall_s += o.wall_s;
        self.drain_ms = self.drain_ms.max(o.drain_ms);
        self.mismatches += o.mismatches;
        self.lost += o.lost;
        self.shed += o.shed;
        self.refused += o.refused;
        self.rtt_ns.extend(o.rtt_ns);
        self.open_ack_ns.extend(o.open_ack_ns);
        self.send_ns.extend(o.send_ns);
        self.lag_ns.extend(o.lag_ns);
        self.frames_sent += o.frames_sent;
        self.frames_recv += o.frames_recv;
        self.bytes_sent += o.bytes_sent;
        self.bytes_recv += o.bytes_recv;
        self.first_mismatch = self.first_mismatch.take().or(o.first_mismatch);
    }

    /// Does the rung meet the latency limit without a growing backlog?
    fn meets_limit(&self) -> bool {
        ms_p50_tail(self.sojourn_ns()).1.value <= SOJOURN_LIMIT_MS
            && self.drain_ms <= SOJOURN_LIMIT_MS
    }
}

struct Live {
    i: usize,
    parks: u64,
    step_sent: Option<Instant>,
}

/// Offer one segment's arrivals and wait until every session resolved,
/// or until the server has been silent for [`IDLE_LIMIT`] after the last
/// open.
fn drive(rig: &Rig, arrivals: &[Arrival], prefix: &str, refs: &Refs) -> Rung {
    let handle = rig.client.handle();
    let n = arrivals.len();
    let mut r = Rung {
        fates: vec![Fate::default(); n],
        ..Default::default()
    };
    // `Opened` replies keep request order per app (one router per app),
    // not across apps: match them against one queue per app.
    let app_of: Vec<usize> = MIX
        .iter()
        .map(|m| {
            rig.apps
                .iter()
                .position(|a| a == m.app)
                .expect("mix app is hosted")
        })
        .collect();
    let mut fifo: Vec<VecDeque<usize>> = vec![VecDeque::new(); rig.apps.len()];
    let mut open: HashMap<u32, Live> = HashMap::new();
    let mut resolved = 0usize;
    let mut next = 0usize;
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut end = t0;
    let send = |r: &mut Rung, f: &Frame| {
        let s = Instant::now();
        handle.send(f).expect("loopback send");
        r.send_ns.push(s.elapsed().as_nanos() as f64);
        r.frames_sent += 1;
        r.bytes_sent += f.encode().len() as u64;
    };
    while resolved < n {
        let now = Instant::now();
        let wait = if next < n {
            let due = t0 + Duration::from_secs_f64(arrivals[next].at);
            if now >= due {
                let a = &arrivals[next];
                let m = &MIX[a.mix];
                let name = format!("{prefix}-{next}");
                let f = Frame::OpenSession {
                    app: m.app.to_string(),
                    session: name.clone(),
                    seed: a.seed,
                    learning: m.learning,
                    grant: m.grant,
                };
                let sent = Instant::now();
                r.lag_ns.push((sent - due).as_nanos() as f64);
                r.fates[next] = Fate {
                    due: Some(due),
                    sent: Some(sent),
                    name,
                    ..Fate::default()
                };
                fifo[app_of[a.mix]].push_back(next);
                send(&mut r, &f);
                next += 1;
                continue;
            }
            due - now
        } else {
            IDLE_LIMIT
        };
        let f = match rig.events.recv_timeout(wait) {
            Ok(f) => f,
            Err(RecvTimeoutError::Timeout) if next < n => continue,
            Err(_) => break,
        };
        let now = Instant::now();
        r.frames_recv += 1;
        r.bytes_recv += f.encode().len() as u64;
        match f {
            Frame::Opened { id } => {
                let i = fifo[(id >> APP_SHIFT) as usize]
                    .pop_front()
                    .expect("an Opened per open sent");
                r.open_ack_ns
                    .push((now - r.fates[i].sent.expect("sent")).as_nanos() as f64);
                open.insert(
                    id,
                    Live {
                        i,
                        parks: 0,
                        step_sent: None,
                    },
                );
            }
            Frame::Refused { session, .. } => {
                let q = fifo
                    .iter_mut()
                    .find(|q| q.front().is_some_and(|&i| r.fates[i].name == session));
                q.expect("a reply per open sent").pop_front();
                r.refused += 1;
                resolved += 1;
            }
            Frame::Stepped { id, .. } => {
                let live = open.get_mut(&id).expect("Stepped for an open session");
                if let Some(s) = live.step_sent.take() {
                    r.rtt_ns.push((now - s).as_nanos() as f64);
                }
                live.parks += 1;
                let m = &MIX[arrivals[live.i].mix];
                let learn = m.learn_on_first_park && live.parks == 1;
                live.step_sent = Some(Instant::now());
                if learn {
                    send(&mut r, &Frame::Learn { id, enable: true });
                }
                send(
                    &mut r,
                    &Frame::Step {
                        id,
                        n: m.grant.unwrap_or(GRANT),
                    },
                );
            }
            Frame::SessionShed { id } => {
                open.remove(&id).expect("shed session was open");
                r.shed += 1;
                resolved += 1;
            }
            Frame::Done { id, summary } => {
                let live = open.remove(&id).expect("Done for an open session");
                if let Some(s) = live.step_sent {
                    r.rtt_ns.push((now - s).as_nanos() as f64);
                }
                let a = &arrivals[live.i];
                let fate = &mut r.fates[live.i];
                fate.done = Some(now);
                fate.ok = refs.matches(a.mix, a.seed, &summary);
                fate.decisions = summary.stats.decisions;
                if !fate.ok && r.first_mismatch.is_none() {
                    r.first_mismatch = Some(refs.explain(a.mix, a.seed, &summary));
                }
                r.mismatches += u64::from(!fate.ok);
                resolved += 1;
            }
            _ => {}
        }
        end = now;
    }
    r.lost = (n - resolved) as u64;
    if r.lost > 0 && r.first_mismatch.is_none() {
        r.first_mismatch = Some(format!(
            "{} of {n} sessions unresolved after {} ms of silence",
            r.lost,
            IDLE_LIMIT.as_millis()
        ));
    }
    r.wall_s = (end - t0).as_secs_f64();
    let last_due = t0 + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.at));
    r.drain_ms = end.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    r
}

/// Per-slice samples from the apps' serve traces: `(queue wait, slice
/// execution, execution per decision cycle)`, ns.
fn slices(reports: &[(String, ServeReport)]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut wait, mut exec, mut cycle) = (vec![], vec![], vec![]);
    for e in reports.iter().flat_map(|(_, r)| &r.trace.events) {
        match e.kind {
            TraceKind::SliceStart => wait.push(e.arg_ns as f64),
            TraceKind::SliceEnd => {
                exec.push(e.arg_ns as f64);
                if e.cycle_hi > e.cycle_lo {
                    cycle.push(e.arg_ns as f64 / (e.cycle_hi - e.cycle_lo) as f64);
                }
            }
            _ => {}
        }
    }
    (wait, exec, cycle)
}

/// One pass over the ladder on a fresh server.
struct Pass {
    rungs: Vec<Rung>,
    reports: Vec<(String, ServeReport)>,
    /// Each nominal session's mean `Agent::step` time, ns.
    nominal_decision: Vec<f64>,
}

impl Rung {
    /// Correct sessions and their decisions per second of wall time.
    fn rates(&self) -> (f64, f64) {
        let decisions: u64 = self
            .fates
            .iter()
            .filter(|f| f.ok)
            .map(|f| f.decisions)
            .sum();
        (
            self.correct() as f64 / self.wall_s,
            decisions as f64 / self.wall_s,
        )
    }
}

fn pass(
    seed: u64,
    secs: f64,
    prefix: &str,
    refs: &Refs,
    pool: &[u64],
    traced: bool,
    setup_ns: &mut Vec<f64>,
) -> Pass {
    let mut reports = Vec::new();
    let mut rungs = Vec::new();
    let mut nominal_decision = Vec::new();
    for (k, &rate) in RATES.iter().enumerate() {
        let segs = SEGMENTS[k];
        let mut rung = Rung::default();
        for g in 0..segs {
            let id = (SEGMENTS[..k].iter().sum::<usize>() + g) as u64;
            let arr = gen::rung_arrivals(
                seed,
                id,
                rate,
                secs * SHARES[k] / segs as f64,
                &weights(),
                pool,
            );
            let s0 = Instant::now();
            let rig = start_rig(arr.len(), traced);
            setup_ns.push(s0.elapsed().as_nanos() as f64);
            let seg = drive(&rig, &arr, &format!("{prefix}{id}"), refs);
            let rr = rig.finish();
            if k == NOMINAL {
                let mean_step = rr
                    .iter()
                    .flat_map(|(_, r)| &r.sessions)
                    .map(|s| s.telemetry.cycle_latency.mean);
                nominal_decision.extend(mean_step);
            }
            rung.absorb(seg);
            reports.extend(rr);
        }
        rungs.push(rung);
    }
    Pass {
        rungs,
        reports,
        nominal_decision,
    }
}

/// Setups measured before the run (each builds the apps, starts a server
/// and connects), on top of the one per measured pass.
const SETUPS: usize = 4;

/// Run the workload.
pub fn run(seed: u64, secs: f64, traced: bool, rep: &mut Report) -> Vec<Span> {
    let origin = Instant::now();
    let pool = gen::seed_pool(seed, POOL);
    let cfg = serve_config(false);
    let refs = Refs::build(&paper_apps(), &pool, cfg.max_decisions);
    rep.note(format!(
        "params: NetServer(paper_apps) shards=1 workers/app={} table={} admission_depth={} slice={} \
         rates/s={RATES:?} shares={SHARES:?} segments={SEGMENTS:?} nominal={} overload={} \
         limit_ms={SOJOURN_LIMIT_MS} client_threads=2",
        cfg.workers,
        cfg.table_capacity,
        cfg.admission_depth,
        cfg.slice_decisions,
        RATES[NOMINAL],
        RATES[OVERLOAD]
    ));
    rep.note(format!(
        "  mix: eight-puzzle(3-move scrambles from a pool of {POOL}) 30% auto learning-off; strips 50% auto \
         learning-on; cypress-sub(2 roots) 20% credited grant={GRANT} Learn-on at first park"
    ));
    let mut setup_ns = Vec::new();
    let offered: usize = RATES
        .iter()
        .zip(SHARES)
        .map(|(r, s)| (r * s * secs).round() as usize)
        .sum();
    for _ in 0..SETUPS {
        let s0 = Instant::now();
        let rig = start_rig(offered, false);
        setup_ns.push(s0.elapsed().as_nanos() as f64);
        rig.finish();
    }
    let a = pass(
        seed,
        if traced { secs / 2.0 } else { secs },
        "a",
        &refs,
        &pool,
        false,
        &mut setup_ns,
    );
    let mut all = vec![a];
    if traced {
        all.push(pass(
            seed,
            secs / 2.0,
            "b",
            &refs,
            &pool,
            true,
            &mut setup_ns,
        ));
    }
    rep.set("setup_s", median(&setup_ns) * 1e-9);
    let rungs = &all[0].rungs;
    let nom = &rungs[NOMINAL];
    let (sessions, decisions) = rungs[OVERLOAD].rates();
    rep.set("sessions_per_s", sessions);
    rep.set("decisions_per_s", decisions);
    let (p50, t) = ms_p50_tail(nom.sojourn_ns());
    rep.set_p50_tail("sojourn_ms", p50, t);
    let (p50, t) = ms_p50_tail(all[0].nominal_decision.clone());
    rep.set_p50_tail("decision_ms", p50, t);
    rep.note(format!(
        "  sessions_per_s, decisions_per_s: correct sessions and their decisions per second of wall \
         time over the {} overload segments; sojourn_ms, decision_ms: every nominal session",
        SEGMENTS[OVERLOAD]
    ));

    for (k, r) in rungs.iter().enumerate() {
        let (p50, t) = ms_p50_tail(r.sojourn_ns());
        let (drain, ok) = (r.drain_ms, r.meets_limit());
        rep.note(format!(
            "  rung {k}: offered {}/s x {} sessions: {} correct, {:.2} done/s, sojourn p50 {p50:.2} ms \
             p{} {:.2} ms ({} samples), drain {drain:.1} ms -> {}",
            RATES[k],
            r.fates.len(),
            r.correct(),
            r.correct() as f64 / r.wall_s,
            t.pct,
            t.value,
            t.n,
            if ok { "meets limit" } else { "over limit" }
        ));
    }
    let (p50, t) = ms_p50_tail(nom.rtt_ns.clone());
    rep.note(format!(
        "  step_rtt_ms (nominal rung): p50 {p50:.3} ms, p{} {:.3} ms over {} samples",
        t.pct, t.value, t.n
    ));
    rep.note(format!(
        "  max_rate_ok_per_s = {} (measured correct sessions/s at the highest rung meeting the limit)",
        max_rate_ok(rungs).map_or("none".into(), |v| format!("{v:.3}"))
    ));
    let all_rungs = || all.iter().flat_map(|p| &p.rungs);
    let count = |f: fn(&Rung) -> u64| all_rungs().map(f).sum::<u64>();
    let attempted = count(|r| r.fates.len() as u64);
    let mismatches = count(|r| r.mismatches);
    let lost = count(|r| r.lost);
    if let Some(m) = all_rungs().find_map(|r| r.first_mismatch.as_ref()) {
        rep.note(format!("  MISMATCH against the solo run: {m}"));
    }
    rep.attempted = attempted;
    rep.failed = attempted - count(|r| r.correct() as u64);
    // A session that never resolved is a wrong output, like a mismatch.
    rep.correct = mismatches == 0 && lost == 0;
    rep.note(format!(
        "  failed_share = {:.4} ({} of {attempted} sessions; {mismatches} mismatches, {lost} \
         unresolved, {} shed, {} refused)",
        rep.failed as f64 / attempted.max(1) as f64,
        rep.failed,
        count(|r| r.shed),
        count(|r| r.refused)
    ));
    if !traced {
        return Vec::new();
    }

    let b = &all[1];
    let nom_b = &b.rungs[NOMINAL];
    let p50_of = |r: &Rung| median(&r.sojourn_ns());
    rep.set(
        "obs.trace_overhead_share",
        p50_of(nom_b) / p50_of(nom) - 1.0,
    );
    rep.set("failed_share", rep.failed as f64 / attempted.max(1) as f64);
    layer_metrics(rep, b);
    request_spans(b, origin)
}

/// The measured correct-session rate of the highest rung that meets the
/// latency limit without a growing backlog.
fn max_rate_ok(rungs: &[Rung]) -> Option<f64> {
    rungs
        .iter()
        .rfind(|r| r.meets_limit())
        .map(|r| r.correct() as f64 / r.wall_s)
}

fn layer_metrics(rep: &mut Report, b: &Pass) {
    let rungs = &b.rungs;
    let nom = &rungs[NOMINAL];
    let cat = |f: &dyn Fn(&Rung) -> &Vec<f64>| {
        rungs
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let (p50, t) = ms_p50_tail(cat(&|r| &r.open_ack_ns));
    rep.set_p50_tail("net.open_ack_ms", p50, t);
    let (p50, t) = ms_p50_tail(cat(&|r| &r.send_ns));
    rep.set_p50_tail(
        "net.client_send_us",
        p50 * 1e3,
        Tail {
            value: t.value * 1e3,
            ..t
        },
    );
    let sum = |f: &dyn Fn(&Rung) -> u64| rungs.iter().map(f).sum::<u64>() as f64;
    rep.set("net.frames_sent", sum(&|r| r.frames_sent));
    rep.set("net.frames_recv", sum(&|r| r.frames_recv));
    rep.set("net.bytes_sent", sum(&|r| r.bytes_sent));
    rep.set("net.bytes_recv", sum(&|r| r.bytes_recv));
    rep.set("serve.refused", sum(&|r| r.refused));
    let (p50, t) = ms_p50_tail(nom.rtt_ns.clone());
    rep.set_p50_tail("open.step_rtt_ms", p50, t);
    rep.set("open.max_rate_ok_per_s", max_rate_ok(rungs).unwrap_or(0.0));
    let lag = sorted(cat(&|r| &r.lag_ns));
    rep.set("loadgen.lag_ms.p50", percentile(&lag, 50.0) * 1e-6);
    rep.set(
        "loadgen.lag_ms.max",
        lag.last().copied().unwrap_or(0.0) * 1e-6,
    );

    let (wait, exec, cycle) = slices(&b.reports);
    let (p50, t) = ms_p50_tail(wait);
    rep.set_p50_tail("serve.queue_wait_ms", p50, t);
    let (p50, t) = ms_p50_tail(exec);
    rep.set_p50_tail("serve.slice_ms", p50, t);
    let (p50, t) = ms_p50_tail(cycle);
    rep.set_p50_tail("serve.cycle_ms", p50, t);
    let sessions = b.reports.iter().flat_map(|(_, r)| &r.sessions);
    let (mut slices_n, mut chunks, mut firings) = (0u64, 0u64, 0u64);
    for s in sessions {
        slices_n += s.telemetry.slices;
        chunks += s.stats.chunks_built;
        firings += s.stats.firings;
    }
    rep.set("serve.slices", slices_n as f64);
    rep.set("soar.chunks_built", chunks as f64);
    rep.set("soar.firings", firings as f64);
    rep.set(
        "serve.shed",
        b.reports.iter().map(|(_, r)| r.shed).sum::<usize>() as f64,
    );
    let occ: Vec<f64> = b
        .reports
        .iter()
        .map(|(_, r)| r.mean_bus_occupancy())
        .collect();
    rep.set(
        "serve.bus_occupancy",
        occ.iter().sum::<f64>() / occ.len().max(1) as f64,
    );
}

/// Request-time spans: one root per correct session from its due time to
/// its `Done`, holding the sender's lag, then the session's summed queue
/// wait and decision-cycle time from its serve report, laid end to end.
/// What remains (wire, router, admission, credit round trips) is the
/// root's self time.
fn request_spans(b: &Pass, origin: Instant) -> Vec<Span> {
    let mut sp = Spans::with_origin(true, origin);
    let tele: HashMap<&str, &psme_serve::SessionReport> = b
        .reports
        .iter()
        .flat_map(|(_, r)| r.sessions.iter().map(|s| (s.name.as_str(), s)))
        .collect();
    let at = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut req = 0;
    for f in b.rungs.iter().flat_map(|r| &r.fates).filter(|f| f.ok) {
        let (Some(due), Some(sent), Some(done)) = (f.due, f.sent, f.done) else {
            continue;
        };
        let Some(s) = tele.get(f.name.as_str()) else {
            continue;
        };
        req += 1;
        let root = sp.push(ROOT, at(due), at(done), None, req);
        let sum = |q: &psme_obs::Quantiles| (q.mean * q.count as f64) as u64;
        sp.lay_out(
            root,
            at(due),
            &[
                ("loadgen.lag", (sent - due).as_nanos() as u64),
                ("serve.queue_wait", sum(&s.telemetry.queue_wait)),
                ("soar.slice_exec", sum(&s.telemetry.cycle_latency)),
            ],
            req,
        );
    }
    sp.take()
}
