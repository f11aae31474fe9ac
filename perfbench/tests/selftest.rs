//! The benchmark's own self-test, on short (`quick`) runs:
//!
//! * every workload reports every metric it names, with a unit, and the
//!   contract's JSON line carries every gated metric;
//! * a response corrupted in flight is counted as a failure;
//! * two runs with the same seed check identical outputs.
//!
//! Run with `cargo test --release` from this directory (debug builds make
//! the q = 6 lock slow to construct).

use hwm_jsonio::Json;
use hwm_perfbench::report::{Report, END_TO_END, PER_LAYER};
use hwm_perfbench::{run, Opts};

fn quick(seed: u64, trace: bool) -> Opts {
    Opts {
        quick: true,
        ..Opts::new(seed, 0.5, trace)
    }
}

fn run_quick(workload: &str, opts: &Opts) -> Report {
    run(workload, opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// The end-to-end metrics each workload reports by name.
fn named(workload: &str) -> &'static [&'static str] {
    match workload {
        "activate" | "lookup" => &[
            "setup_s",
            "peak_rss_mb",
            "fail_ratio",
            "max_rate_rps",
            "p50_us",
            "p99_us",
        ],
        "failover" => &[
            "setup_s",
            "peak_rss_mb",
            "fail_ratio",
            "throughput_rps",
            "p50_us",
            "p99_us",
            "failover_ms",
        ],
        "lock_q6" => &[
            "setup_s",
            "peak_rss_mb",
            "fail_ratio",
            "lock_build_ms",
            "first_key_ms",
            "keys_per_s",
            "guesses_per_s",
        ],
        other => panic!("no metric list for {other}"),
    }
}

fn json_metrics(line: &str) -> Json {
    let json = Json::parse(line).expect("the last line is JSON");
    for key in ["correct", "attempted", "failed"] {
        assert!(json.get(key).is_some(), "missing {key} in {line}");
    }
    json.get("metrics").expect("metrics object").clone()
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    for &workload in hwm_perfbench::WORKLOADS {
        let report = run_quick(workload, &quick(3, false));
        for name in named(workload) {
            let m = report
                .get(name)
                .unwrap_or_else(|| panic!("{workload} lacks {name}"));
            assert!(!m.unit.is_empty(), "{workload}: {name} has no unit");
            assert!(m.value.is_finite(), "{workload}: {name} is not a number");
            assert!(
                report.summary().contains(name),
                "{workload}: {name} not printed"
            );
        }
        let metrics = json_metrics(&report.json_line(END_TO_END));
        for &(name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: JSON lacks {name}"));
            assert_eq!(m.get("unit"), Some(&Json::Str(unit.to_string())));
            assert!(
                report.get(name).is_some(),
                "{workload}: {name} was never measured"
            );
        }

        let traced = run_quick(workload, &quick(3, true));
        let metrics = json_metrics(&traced.json_line(PER_LAYER));
        for &(name, unit) in PER_LAYER {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: traced JSON lacks {name}"));
            assert_eq!(m.get("unit"), Some(&Json::Str(unit.to_string())));
        }
        assert!(
            traced.get("bench.trace_overhead_pct").is_some(),
            "{workload}: no trace overhead"
        );
        assert!(
            traced.get("metering.key_bfs_us").is_some(),
            "{workload}: no metering layer"
        );
    }
}

#[test]
fn a_corrupted_response_counts_as_a_failure() {
    for workload in ["activate", "lookup"] {
        let clean = run_quick(workload, &quick(5, false));
        assert_eq!(clean.failed, 0, "{workload}: clean run failed");
        assert!(clean.correct);
        let corrupt = run_quick(
            workload,
            &Opts {
                corrupt_response: Some(7),
                ..quick(5, false)
            },
        );
        assert_eq!(
            corrupt.failed, 1,
            "{workload}: the corrupted response was not counted"
        );
        assert!(corrupt.fail_ratio() > 0.0);
        assert_eq!(
            corrupt.get("fail_ratio").map(|m| m.value),
            Some(corrupt.fail_ratio())
        );
    }
}

#[test]
fn same_seed_runs_check_identical_outputs() {
    for &workload in hwm_perfbench::WORKLOADS {
        let a = run_quick(workload, &quick(11, false));
        let b = run_quick(workload, &quick(11, false));
        assert_ne!(a.digest, 0, "{workload}: no digest");
        assert_eq!(
            a.digest, b.digest,
            "{workload}: same seed, different outputs"
        );
        assert_eq!(a.correct, b.correct);
        let c = run_quick(workload, &quick(12, false));
        assert_ne!(a.digest, c.digest, "{workload}: the seed changes nothing");
    }
}

#[test]
fn a_bad_workload_name_is_an_error() {
    assert!(run("nonesuch", &quick(1, false)).is_err());
}
