//! The repository benchmark: three closed-loop workloads driven from one
//! bench thread against the public APIs of `dsv-core` and `dsv-engine`.
//!
//! Each run generates its inputs from the seed before timing starts,
//! times the workload for the requested seconds, checks the answers
//! outside the timed region, and reports either the end-to-end metrics
//! (tracing off) or the per-layer metrics of a traced run, as listed in
//! [`metrics`]. Workloads set only logical parameters — sites, shards,
//! batch, ε, checkpoint cadence — and leave every execution knob at its
//! default.

pub mod host;
pub mod metrics;
pub mod stats;
pub mod trace;
mod workloads;

use metrics::{MetricDef, Values};
use trace::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Nearly-monotone stream through pipelined ingestion with delta
    /// checkpoints between segments.
    Quiet,
    /// Keyed fleet: cold admission, then Zipf-skewed bursts with `top_k`
    /// reads.
    Fleet,
    /// Socket-backed shards over TCP loopback with checkpoint commits and
    /// an injected worker kill.
    Remote,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 3] = [Workload::Quiet, Workload::Fleet, Workload::Remote];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Quiet => "quiet-pipelined",
            Workload::Fleet => "fleet-zipf",
            Workload::Remote => "remote-tcp",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the full benchmark, or a tiny pass for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sizes the published metrics are measured at.
    Full,
    /// The same shapes at toy sizes, for a fast self-test.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the timed region lasts (split between the untraced and
    /// traced passes of a traced run).
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted: boundary audits (per-key audits included for
    /// the fleet) plus reads.
    pub attempted: u64,
    /// ε-violations among them.
    pub failed: u64,
    /// Every metric of the mode, in catalogue order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Context printed beside the result: sample counts, percentiles used,
    /// sizes.
    pub details: Vec<(&'static str, String)>,
    /// Spans of the traced pass (empty when tracing is off).
    pub spans: Vec<Span>,
}

/// What a workload hands back before the catalogue check.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub details: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
}

/// Run `workload` once. An `Err` is a correctness failure or an error
/// from the system under test; no metrics accompany it.
pub fn run(workload: Workload, params: &Params, trace: bool) -> Result<Report, String> {
    let measured = match workload {
        Workload::Quiet => workloads::quiet::run(params, trace),
        Workload::Fleet => workloads::fleet::run(params, trace),
        Workload::Remote => workloads::remote::run(params, trace),
    }?;
    if measured.attempted == 0 {
        return Err(format!("{}: no operation was attempted", workload.name()));
    }
    let metrics = metrics::complete(workload, trace, &measured.values)?;
    let mut details = measured.details;
    let share = stats::failure_share(measured.attempted, measured.failed);
    details.push(("failure_share", format!("{share}")));
    Ok(Report {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
        details,
        spans: measured.spans,
    })
}
