//! A benchmark-side [`MatchEngine`] that times each call into the engine.
//!
//! The learn workload runs its agents on `TimedEngine<ParallelEngine>`.
//! With tracing off the wrapper forwards every call untouched; with tracing
//! on it opens a span per `run_changes`/`apply_changes` (`core.match`) and
//! per `add_production` (`rete.compile` while an agent is being built,
//! `rete.add_production` at run time, with the engine recorder's §5.1
//! surgery and §5.2 state-update spans nested under it).

use crate::spans::{SpanId, Spans};
use psme_core::{MatchEngine, MetricsLog};
use psme_obs::{ControlPhase, Recorder};
use psme_ops::{Instantiation, Production, TimeTag, Wme, WmeId};
use psme_rete::{
    AddOutcome, BuildError, ChainDetector, CycleOutcome, NetworkOrg, ReorgDecision, ReorgOutcome,
    WmeStore,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Span state shared between the benchmark loop and its engines.
#[derive(Debug)]
pub struct Meter {
    /// The run's spans.
    pub spans: Spans,
    /// Span that engine calls nest under (the open `soar.step`/`soar.agent`).
    pub parent: SpanId,
    /// Request id stamped on engine spans.
    pub req: u64,
    /// An agent is being built: productions added now are compilation.
    pub building: bool,
    /// Match calls made (traced runs only).
    pub match_calls: u64,
    /// Run-time production additions made (traced runs only).
    pub add_calls: u64,
}

/// Shared handle to a [`Meter`].
pub type MeterRef = Rc<RefCell<Meter>>;

impl Meter {
    /// A meter recording spans when `traced`.
    pub fn new(traced: bool) -> MeterRef {
        Rc::new(RefCell::new(Meter {
            spans: Spans::new(traced),
            parent: None,
            req: 0,
            building: false,
            match_calls: 0,
            add_calls: 0,
        }))
    }
}

/// The timing wrapper.
pub struct TimedEngine<E> {
    /// The wrapped engine.
    pub inner: E,
    meter: MeterRef,
    traced: bool,
}

impl<E: MatchEngine> TimedEngine<E> {
    /// Wrap `inner`, recording into `meter`.
    pub fn new(inner: E, meter: &MeterRef) -> TimedEngine<E> {
        let traced = meter.borrow().spans.enabled();
        TimedEngine {
            inner,
            meter: meter.clone(),
            traced,
        }
    }

    fn timed_match(&mut self, f: impl FnOnce(&mut E) -> CycleOutcome) -> CycleOutcome {
        if !self.traced {
            return f(&mut self.inner);
        }
        let id = {
            let mut m = self.meter.borrow_mut();
            m.match_calls += 1;
            let (parent, req) = (m.parent, m.req);
            m.spans.open("core.match", parent, req)
        };
        let out = f(&mut self.inner);
        self.meter.borrow_mut().spans.close(id);
        out
    }
}

impl<E: MatchEngine> MatchEngine for TimedEngine<E> {
    fn apply_changes(&mut self, adds: Vec<Wme>, removes: Vec<WmeId>) -> CycleOutcome {
        self.timed_match(|e| e.apply_changes(adds, removes))
    }

    fn add_wme(&mut self, w: Wme) -> (WmeId, TimeTag) {
        self.inner.add_wme(w)
    }

    fn remove_wme(&mut self, id: WmeId) -> bool {
        self.inner.remove_wme(id)
    }

    fn run_changes(&mut self, changes: Vec<(WmeId, i32)>) -> CycleOutcome {
        self.timed_match(|e| e.run_changes(changes))
    }

    fn add_production(
        &mut self,
        prod: Arc<Production>,
        org: NetworkOrg,
    ) -> Result<AddOutcome, BuildError> {
        if !self.traced {
            return self.inner.add_production(prod, org);
        }
        let (id, building) = {
            let mut m = self.meter.borrow_mut();
            let building = m.building;
            let name = if building {
                "rete.compile"
            } else {
                "rete.add_production"
            };
            if !building {
                m.add_calls += 1;
            }
            let (parent, req) = (m.parent, m.req);
            (m.spans.open(name, parent, req), building)
        };
        let seen = self.inner.recorder().map_or(0, |r| r.spans.len());
        let out = self.inner.add_production(prod, org);
        let mut m = self.meter.borrow_mut();
        m.spans.close(id);
        if !building {
            if let Some(rec) = self.inner.recorder() {
                let req = m.req;
                import_phases(&mut m.spans, rec, seen, id, req);
            }
        }
        out
    }

    fn with_store<R>(&self, f: impl FnOnce(&WmeStore) -> R) -> R {
        self.inner.with_store(f)
    }

    fn num_net_nodes(&self) -> usize {
        self.inner.num_net_nodes()
    }

    fn current_instantiations(&self) -> Vec<Instantiation> {
        self.inner.current_instantiations()
    }

    fn recorder(&self) -> Option<&Recorder> {
        self.inner.recorder()
    }

    fn metrics(&self) -> Option<&MetricsLog> {
        self.inner.metrics()
    }

    fn set_cost_profiling(&mut self, on: bool) {
        self.inner.set_cost_profiling(on)
    }

    fn poll_reorg(&mut self, det: &mut ChainDetector) -> Option<ReorgDecision> {
        self.inner.poll_reorg(det)
    }

    fn reorganize_production(
        &mut self,
        prod_idx: u32,
        org: NetworkOrg,
    ) -> Result<ReorgOutcome, BuildError> {
        self.inner.reorganize_production(prod_idx, org)
    }
}

/// Copy the engine recorder's §5.1 surgery and §5.2 state-update spans
/// recorded since index `seen` under `parent`, re-expressed on the span
/// clock.
fn import_phases(spans: &mut Spans, rec: &Recorder, seen: usize, parent: SpanId, req: u64) {
    let shift = rec
        .origin()
        .checked_duration_since(spans.origin())
        .map_or(0, |d| d.as_nanos() as u64);
    for s in rec.spans.iter().skip(seen) {
        let name = match s.phase {
            ControlPhase::NetworkSurgery => "rete.surgery",
            ControlPhase::StateUpdate => "rete.state_update",
            _ => continue,
        };
        let start = s.start_ns + shift;
        spans.push(name, start, start + s.dur_ns, parent, req);
    }
}
