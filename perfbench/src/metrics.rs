//! The metric catalogue — every metric the benchmark prints, with its
//! unit, the layer it belongs to, and the end-to-end metric and
//! workloads a change to that layer should move — and the result line.

use crate::Workload::{self, Fleet, Quiet, Remote};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Module whose work the metric measures (`-` for the whole system).
    pub layer: &'static str,
    /// Workloads whose run measures it; every other workload bypasses
    /// the layer and reports 0, and a change to the layer should leave
    /// it unchanged there.
    pub on: &'static [Workload],
    /// The end-to-end metric a change here should move, and where.
    pub moves: &'static str,
}

const ALL: &[Workload] = &[Quiet, Fleet, Remote];
const COUNTERS: &[Workload] = &[Quiet, Remote];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    on: &'static [Workload],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        on,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run; every workload reports every one, and
/// none is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "setup_s",
        "s",
        Lower,
        "-",
        ALL,
        "median of many constructions timed outside the timed loop, before the input is generated and after the pass: engine or fleet constructor, remote spawn + handshake",
    ),
    m(
        "cpu_ns_per_upd",
        "ns",
        Lower,
        "-",
        ALL,
        "process CPU time (user + system, every thread) per update, lower quartile over >= 1 s windows of the timed region (fleet: steady phase); time the hypervisor steals is not charged",
    ),
    m(
        "messages_per_kupd",
        "msg/kupd",
        Lower,
        "-",
        ALL,
        "tracker plus merge messages per 1000 updates: the paper's cost",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        Lower,
        "-",
        ALL,
        "resident-set high-water mark of the run (VmHWM), inputs included",
    ),
];

/// Metrics of the traced run. A workload that bypasses a layer reports
/// 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "wall.throughput_upd_s",
        "1/s",
        Higher,
        "-",
        ALL,
        "context: updates per second, upper quartile of >= 1 s windows, from the untraced half; follows the CPU the hypervisor steals",
    ),
    m(
        "wall.round_p50_us",
        "us",
        Lower,
        "-",
        ALL,
        "context: lower quartile over 1000-round windows of each window's median round, from the untraced half: how stale the estimate can get",
    ),
    m(
        "wall.round_p90_us",
        "us",
        Lower,
        "-",
        ALL,
        "context: the same window rule on each window's p90 (100 samples beyond it)",
    ),
    m(
        "wall.round_p99_us",
        "us",
        Lower,
        "-",
        ALL,
        "context: the same window rule on each window's p99 (10 samples beyond it)",
    ),
    m(
        "core.absorb.ns_per_upd",
        "ns",
        Lower,
        "dsv-core::api",
        COUNTERS,
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "core.driver.ns_per_upd",
        "ns",
        Lower,
        "dsv-core::api",
        COUNTERS,
        "none: the sequential audited Driver, a single-thread baseline kept as context",
    ),
    m(
        "core.v",
        "count",
        Lower,
        "dsv-core::variability",
        COUNTERS,
        "messages_per_kupd (the theorem's parameter, computed untimed)",
    ),
    m(
        "core.msgs_per_v",
        "msg/v",
        Lower,
        "dsv-core::variability",
        COUNTERS,
        "messages_per_kupd on quiet-pipelined and remote-tcp",
    ),
    m(
        "core.tracker.msgs_per_kupd",
        "msg/kupd",
        Lower,
        "dsv-core::api",
        COUNTERS,
        "messages_per_kupd on remote-tcp (quiet-pipelined sends almost none)",
    ),
    m(
        "engine.consolidate.ns_per_upd",
        "ns",
        Lower,
        "dsv-engine::consolidate",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.consolidate.segs_per_upd",
        "seg/upd",
        Lower,
        "dsv-engine::consolidate",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined (useful output: segments per input)",
    ),
    m(
        "engine.round.overhead_us",
        "us",
        Lower,
        "dsv-engine::sharded",
        COUNTERS,
        "wall.round_p50_us and cpu_ns_per_upd on quiet-pipelined and remote-tcp",
    ),
    m(
        "engine.merge.msgs_per_kupd",
        "msg/kupd",
        Lower,
        "dsv-engine::sharded",
        COUNTERS,
        "messages_per_kupd on remote-tcp (quiet-pipelined sends almost none)",
    ),
    m(
        "engine.audit.violations",
        "count",
        Lower,
        "dsv-engine::sharded",
        ALL,
        "failed count",
    ),
    m(
        "engine.audit.max_rel_err",
        "ratio",
        Lower,
        "dsv-engine::sharded",
        ALL,
        "max boundary |f-fhat|/max(|f|,1)",
    ),
    m(
        "engine.audit.eps_headroom",
        "ratio",
        Lower,
        "dsv-engine::sharded",
        ALL,
        "max boundary |f-fhat|/(eps*max(|f|,1)); above 1 is a violation",
    ),
    m(
        "engine.ingest.push_ns_per_upd",
        "ns",
        Lower,
        "dsv-engine::ingest",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined (remote-tcp bypasses ingest)",
    ),
    m(
        "engine.ingest.push_stalls_per_kframe",
        "count",
        Lower,
        "dsv-engine::ingest",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.ingest.pop_waits_per_kround",
        "count",
        Lower,
        "dsv-engine::ingest",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.ingest.mean_occupancy",
        "upd",
        Lower,
        "dsv-engine::ingest",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.ingest.high_water",
        "upd",
        Lower,
        "dsv-engine::ingest",
        &[Quiet],
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.checkpoint.capture_ms",
        "ms",
        Lower,
        "dsv-engine::checkpoint",
        COUNTERS,
        "cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.checkpoint.encode_ms",
        "ms",
        Lower,
        "dsv-engine::checkpoint",
        COUNTERS,
        "cpu_ns_per_upd on quiet-pipelined; checkpoint bytes",
    ),
    m(
        "engine.delta.bytes_per_boundary",
        "B",
        Lower,
        "dsv-engine::delta",
        &[Quiet],
        "checkpoint bytes per boundary and cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.delta.identity_frac",
        "ratio",
        Higher,
        "dsv-engine::delta",
        &[Quiet],
        "checkpoint bytes per boundary and cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.delta.shrink",
        "ratio",
        Higher,
        "dsv-engine::delta",
        &[Quiet],
        "checkpoint bytes per boundary and cpu_ns_per_upd on quiet-pipelined",
    ),
    m(
        "engine.delta.materialize_ms",
        "ms",
        Lower,
        "dsv-engine::delta",
        &[Quiet],
        "none on the hot path: recovery-side cost of the delta chain",
    ),
    m(
        "engine.fleet.cold_ns_per_key",
        "ns",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "cold admission on fleet-zipf",
    ),
    m(
        "engine.fleet.cold_insert_upd_s",
        "1/s",
        Higher,
        "dsv-engine::fleet",
        &[Fleet],
        "cold admission on fleet-zipf",
    ),
    m(
        "engine.fleet.run_ns_per_upd",
        "ns",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "cpu_ns_per_upd on fleet-zipf",
    ),
    m(
        "engine.fleet.flush_ms",
        "ms",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "wall.round_p50_us and cpu_ns_per_upd on fleet-zipf",
    ),
    m(
        "engine.fleet.topk_us",
        "us",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "read latency (top_k p50) and cpu_ns_per_upd on fleet-zipf",
    ),
    m(
        "engine.fleet.checkpoint_ms",
        "ms",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "checkpoint cost on fleet-zipf",
    ),
    m(
        "engine.fleet.delta_ms",
        "ms",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "checkpoint cost on fleet-zipf",
    ),
    m(
        "engine.fleet.delta_bytes_per_boundary",
        "B",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "checkpoint bytes on fleet-zipf: FleetDelta bytes per boundary it spans",
    ),
    m(
        "engine.fleet.msgs_per_kupd",
        "msg/kupd",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "messages_per_kupd on fleet-zipf",
    ),
    m(
        "engine.fleet.arena_bytes",
        "B",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "peak_rss_mib on fleet-zipf",
    ),
    m(
        "engine.fleet.slot_bytes",
        "B",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "peak_rss_mib on fleet-zipf",
    ),
    m(
        "engine.fleet.index_bytes",
        "B",
        Lower,
        "dsv-engine::fleet",
        &[Fleet],
        "peak_rss_mib on fleet-zipf",
    ),
    m(
        "engine.remote.spawn_ms",
        "ms",
        Lower,
        "dsv-engine::remote",
        &[Remote],
        "setup_s on remote-tcp",
    ),
    m(
        "engine.remote.round_ms",
        "ms",
        Lower,
        "dsv-engine::remote",
        &[Remote],
        "wall.round_p50_us and wall.throughput_upd_s on remote-tcp",
    ),
    m(
        "engine.remote.ckpt_pull_ms",
        "ms",
        Lower,
        "dsv-engine::remote",
        &[Remote],
        "wall.throughput_upd_s on remote-tcp",
    ),
    m(
        "engine.remote.ckpt_bytes_per_commit",
        "B",
        Lower,
        "dsv-engine::remote",
        &[Remote],
        "cpu_ns_per_upd on remote-tcp: checkpoint-pull bytes per commit",
    ),
    m(
        "engine.remote.replayed_rounds",
        "count",
        Lower,
        "dsv-engine::remote",
        &[Remote],
        "failover recovery time on remote-tcp",
    ),
    m(
        "engine.remote.recovery_ms",
        "ms",
        Lower,
        "dsv-engine::remote",
        &[Remote],
        "wall.throughput_upd_s on remote-tcp (faulted segment minus median clean segment)",
    ),
    m(
        "net.wire.frames_per_round",
        "count",
        Lower,
        "dsv-net::transport",
        &[Remote],
        "cpu_ns_per_upd and wall.round_p50_us on remote-tcp",
    ),
    m(
        "net.wire.bytes_per_upd",
        "B",
        Lower,
        "dsv-net::transport",
        &[Remote],
        "cpu_ns_per_upd on remote-tcp",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "-",
        ALL,
        "none: 1 - traced/untraced throughput of the same loop",
    ),
];

/// The catalogue for one mode: end-to-end (untraced) or per-layer.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Find a catalogued metric by name, in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values a workload produced, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under the catalogued `name`. Panics on a name that
    /// is not in the catalogue — that is a bug in the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not catalogued");
        self.0.insert(name, value);
    }
}

/// Check `values` against the catalogue for the mode and return them in
/// catalogue order, with 0 for the per-layer metrics of layers this
/// workload bypasses. Errors name the first metric that is missing,
/// not finite, 0 where it may not be, or reported by a workload that
/// should bypass it.
pub fn complete(
    workload: Workload,
    trace: bool,
    values: &Values,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let mut out = Vec::new();
    for d in catalogue(trace) {
        let measured = d.on.contains(&workload);
        let v = match (values.0.get(d.name), measured) {
            (Some(&v), true) => v,
            (None, false) => 0.0,
            (None, true) => {
                return Err(format!(
                    "{}: metric {} was not measured",
                    workload.name(),
                    d.name
                ))
            }
            (Some(_), false) => {
                return Err(format!(
                    "{}: bypasses {} but reported it",
                    workload.name(),
                    d.name
                ))
            }
        };
        if !v.is_finite() {
            return Err(format!(
                "{}: metric {} is not finite ({v})",
                workload.name(),
                d.name
            ));
        }
        if !trace && v <= 0.0 {
            return Err(format!(
                "{}: metric {} must be positive, got {v}",
                workload.name(),
                d.name
            ));
        }
        out.push((d, v));
    }
    for name in values.0.keys() {
        if !catalogue(trace).iter().any(|d| d.name == *name) {
            return Err(format!(
                "{}: metric {name} does not belong to this mode",
                workload.name()
            ));
        }
    }
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&'static MetricDef, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips,
        // so every measured digit survives.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

/// The layer → metric → workload map as Markdown (`--catalogue`).
pub fn catalogue_markdown() -> String {
    let mut out = String::new();
    let names = |ws: &[Workload]| ws.iter().map(|w| w.name()).collect::<Vec<_>>().join(", ");
    let better = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    out.push_str("| end-to-end metric | unit | better | meaning |\n|---|---|---|---|\n");
    for d in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            d.name,
            d.unit,
            better(d.better),
            d.moves
        );
    }
    out.push_str("\n| per-layer metric | unit | layer | measured on | should move |\n|---|---|---|---|---|\n");
    for d in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | `{}` | {} | {} |",
            d.name,
            d.unit,
            d.layer,
            names(d.on),
            d.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal_name(d.name), "{}", d.name);
            assert!(legal_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(!d.on.is_empty(), "{} is measured nowhere", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END.iter().all(|d| d.on.len() == ALL.len()));
    }

    #[test]
    fn complete_fills_bypassed_layers_and_rejects_gaps() {
        let mut v = Values::default();
        for d in PER_LAYER.iter().filter(|d| d.on.contains(&Fleet)) {
            v.set(d.name, 1.0);
        }
        let done = complete(Fleet, true, &v).expect("fleet metrics complete");
        assert_eq!(done.len(), PER_LAYER.len());
        let ingest = done
            .iter()
            .find(|(d, _)| d.name == "engine.ingest.high_water")
            .unwrap();
        assert_eq!(ingest.1, 0.0, "fleet bypasses ingest");

        v.0.remove("engine.fleet.topk_us");
        assert!(complete(Fleet, true, &v).unwrap_err().contains("topk_us"));
    }

    #[test]
    fn end_to_end_values_must_be_positive() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 2.5);
        }
        assert!(complete(Quiet, false, &v).is_ok());
        v.set("cpu_ns_per_upd", 0.0);
        assert!(complete(Quiet, false, &v).is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let d = &END_TO_END[0];
        let line = result_line(10, 1, &[(d, 0.123456789012345)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
    }
}
