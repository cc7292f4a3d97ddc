//! A tiny-size pass of every workload in both modes: every catalogued
//! metric is emitted with its unit, the untraced metrics are positive,
//! and the correctness checks pass.

use dsv_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use dsv_perfbench::{run, Params, Scale, Workload};

fn tiny(workload: Workload, trace: bool) {
    let params = Params {
        seed: 7,
        seconds: 0.2,
        scale: Scale::Tiny,
    };
    let report = run(workload, &params, trace)
        .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
    let want: Vec<&str> = expected.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "{}: metric set", workload.name());
    for (d, v) in &report.metrics {
        assert!(!d.unit.is_empty(), "{} has no unit", d.name);
        assert!(v.is_finite(), "{}: {} = {v}", workload.name(), d.name);
        if !trace || d.on.contains(&workload) && d.name.ends_with("ns_per_upd") {
            assert!(*v > 0.0, "{}: {} = {v}", workload.name(), d.name);
        }
    }
    assert!(report.attempted > 0);
    assert!(report.failed <= report.attempted);
    let line = metrics::result_line(report.attempted, report.failed, &report.metrics);
    for (d, _) in &report.metrics {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        assert!(line.contains(&entry), "{} missing from {line}", d.name);
        assert!(line.contains(&format!("\"unit\": \"{}\"", d.unit)));
    }
    assert_eq!(
        report.spans.is_empty(),
        !trace,
        "{}: spans only when traced",
        workload.name()
    );
}

#[test]
fn quiet_pipelined_emits_every_metric() {
    tiny(Workload::Quiet, false);
    tiny(Workload::Quiet, true);
}

#[test]
fn fleet_zipf_emits_every_metric() {
    tiny(Workload::Fleet, false);
    tiny(Workload::Fleet, true);
}

#[test]
fn remote_tcp_emits_every_metric() {
    tiny(Workload::Remote, false);
    tiny(Workload::Remote, true);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}
