//! What one workload run reports, and how it is printed.

use crate::stats::Tail;
use std::collections::BTreeMap;

/// End-to-end metrics every workload reports (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_ms.p50", "ms"),
    ("decision_ms.tail", "ms"),
    ("sessions_per_s", "1/s"),
    ("sojourn_ms.p50", "ms"),
    ("sojourn_ms.tail", "ms"),
];

/// Self-time rows: span name → metric. Together with `wall_ms` they make
/// the traced run's time breakdown; `unattributed_ms` is the roots' self
/// time.
pub const SELF_ROWS: [(&str, &str); 17] = [
    ("ops.parse", "ops.parse_ms"),
    ("rete.compile", "rete.compile_ms"),
    ("core.engine_start", "core.engine_start_ms"),
    ("core.engine_stop", "core.engine_stop_ms"),
    ("soar.agent", "soar.agent_self_ms"),
    ("soar.step", "soar.step_self_ms"),
    ("core.match", "core.match_ms"),
    ("rete.add_production", "rete.add_production_ms"),
    ("rete.surgery", "rete.surgery_ms"),
    ("rete.state_update", "rete.state_update_ms"),
    ("serve.batch", "serve.batch_self_ms"),
    ("serve.queue_wait", "serve.queue_wait_total_ms"),
    ("soar.slice_exec", "soar.slice_exec_ms"),
    ("store.resume", "store.resume_total_ms"),
    ("loadgen.lag", "loadgen.lag_total_ms"),
    ("bench.check", "bench.check_ms"),
    ("root", "unattributed_ms"),
];

/// Per-layer metrics of the traced run (`--trace 1`) beyond the self-time
/// rows, with units. A workload that never reaches a layer reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("wall_ms", "ms"),
    ("obs.trace_overhead_share", "ratio"),
    ("failed_share", "ratio"),
    ("soar.chunks_built", "count"),
    ("soar.firings", "count"),
    ("core.match_calls", "count"),
    ("core.tasks", "count"),
    ("core.tasks_lost", "count"),
    ("core.queue.spins_per_task", "ratio"),
    ("core.queue.failed_pop_share", "ratio"),
    ("core.line_lock_acquisitions", "count"),
    ("core.mem_spins", "count"),
    ("core.steal_success_share", "ratio"),
    ("rete.add_production_calls", "count"),
    ("rete.alpha.probes", "count"),
    ("rete.alpha.tests_saved", "count"),
    ("rete.beta.null_share", "ratio"),
    ("rete.beta.scanned_per_activation", "ratio"),
    ("rete.beta.hash_rejects", "count"),
    ("net.open_ack_ms.p50", "ms"),
    ("net.open_ack_ms.tail", "ms"),
    ("net.client_send_us.p50", "us"),
    ("net.client_send_us.tail", "us"),
    ("net.frames_sent", "count"),
    ("net.frames_recv", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.bytes_recv", "bytes"),
    ("open.step_rtt_ms.p50", "ms"),
    ("open.step_rtt_ms.tail", "ms"),
    ("open.max_rate_ok_per_s", "1/s"),
    ("loadgen.lag_ms.p50", "ms"),
    ("loadgen.lag_ms.max", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.slice_ms.p50", "ms"),
    ("serve.slice_ms.tail", "ms"),
    ("serve.cycle_ms.p50", "ms"),
    ("serve.cycle_ms.tail", "ms"),
    ("serve.slices", "count"),
    ("serve.shed", "count"),
    ("serve.refused", "count"),
    ("serve.bus_occupancy", "ratio"),
    ("store.hibernated", "count"),
    ("store.resumed", "count"),
    ("store.resume_ms.p50", "ms"),
    ("store.resume_ms.tail", "ms"),
    ("store.snapshot_kb_per_hibernate", "kB"),
    ("store.peak_hot", "count"),
];

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every completed output matched its reference.
    pub correct: bool,
    /// Runs, sessions or requests attempted.
    pub attempted: u64,
    /// Attempts that failed, were shed or refused, or returned a wrong
    /// output.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Set `<name>.p50` and `<name>.tail`, and note the tail's percentile
    /// and sample count.
    pub fn set_p50_tail(&mut self, name: &str, p50: f64, t: Tail) {
        self.set(&format!("{name}.p50"), p50);
        self.set(&format!("{name}.tail"), t.value);
        self.lines.push(format!(
            "  {name}.tail = p{} over {} samples ({} beyond)",
            t.pct, t.n, t.beyond
        ));
    }

    /// Record a line for the human-readable part of the output.
    pub fn note(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// The metric set a run prints: end-to-end, or per layer when traced.
    pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            SELF_ROWS
                .iter()
                .map(|&(_, m)| (m, "ms"))
                .chain(PER_LAYER.iter().copied())
                .collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the declared
    /// metrics with their units.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = Report::declared(traced)
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits. A non-finite value (a tail made of
/// failed requests) prints as 1e300 so the line stays valid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = Report::declared(false).iter().map(|m| m.0).collect();
        all.extend(Report::declared(true).iter().map(|m| m.0));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for n in all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Default::default()
        };
        r.set("setup_s", 0.25);
        let line = r.result_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}
