//! End-to-end tests of the `hca` binary itself.

use std::process::Command;

fn hca(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hca"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn kernels_lists_table1_loops() {
    let (ok, stdout, _) = hca(&["kernels"]);
    assert!(ok);
    for name in [
        "fir2dim",
        "idcthor",
        "mpeg2inter",
        "h264deblocking",
        "biquad",
    ] {
        assert!(stdout.contains(name), "{name} missing:\n{stdout}");
    }
}

#[test]
fn analyze_reports_mii_bounds() {
    let (ok, stdout, _) = hca(&["analyze", "fir2dim"]);
    assert!(ok);
    assert!(stdout.contains("MIIRec               3"), "{stdout}");
    assert!(stdout.contains("MIIRes (unified)     2"), "{stdout}");
}

#[test]
fn clusterize_reports_legality() {
    let (ok, stdout, _) = hca(&["clusterize", "dot_product"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("yes"), "{stdout}");
}

#[test]
fn simulate_verifies_execution() {
    let (ok, stdout, stderr) = hca(&["simulate", "fir8", "--trip", "5"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("match the sequential reference"),
        "{stdout}"
    );
}

/// The gauntlet runs under the `--solver` it is given: exact-small brings
/// fir2dim's final MII from 6 down to 5 on the default machine.
#[test]
fn verify_honours_the_solver_flag() {
    for (args, mii) in [
        (&["verify", "fir2dim"][..], 6),
        (&["verify", "fir2dim", "--solver", "exact-small"][..], 5),
    ] {
        let (ok, stdout, stderr) = hca(args);
        assert!(ok, "{args:?}: {stdout}{stderr}");
        assert!(
            stdout.contains(&format!("fir2dim: final MII {mii} ")),
            "{args:?}: {stdout}"
        );
    }
}

#[test]
fn machine_spec_accepted() {
    let (ok, stdout, stderr) = hca(&["clusterize", "dot_product", "--machine", "4x4@4,4"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("16 CNs"), "{stdout}");
}

#[test]
fn json_roundtrip_through_files() {
    let dir = std::env::temp_dir().join(format!("hca-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("biquad.json");
    let (ok, json, _) = hca(&["export", "biquad", "--json"]);
    assert!(ok);
    std::fs::write(&path, &json).unwrap();
    let (ok2, stdout, stderr) = hca(&["analyze", path.to_str().unwrap()]);
    assert!(ok2, "{stderr}");
    assert!(stdout.contains("MIIRec               4"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_gracefully() {
    let (ok, _, stderr) = hca(&["clusterize", "no_such_kernel"]);
    assert!(!ok);
    assert!(stderr.contains("not a built-in kernel"), "{stderr}");
    let (ok2, _, stderr2) = hca(&["frobnicate"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown command"), "{stderr2}");
    let (ok3, _, stderr3) = hca(&["clusterize", "fir8", "--machine", "nope"]);
    assert!(!ok3);
    assert!(!stderr3.is_empty());
    // The retired wall-clock mode is refused, naming the two real ones.
    let (ok4, _, stderr4) = hca(&["clusterize", "fir2dim", "--solver", "race"]);
    assert!(!ok4);
    assert!(
        stderr4.contains("beam-only") && stderr4.contains("exact-small"),
        "{stderr4}"
    );
    // explain traces one configuration, so it refuses the config sweep
    // instead of explaining a different run.
    let (ok5, _, stderr5) = hca(&["explain", "dot_product", "--portfolio"]);
    assert!(!ok5);
    assert!(stderr5.contains("--portfolio"), "{stderr5}");
    // Retired options are refused by name, not ignored.
    for args in [
        &["schedule", "lms", "--sms"][..],
        &["clusterize", "fir2dim", "--no-memo"],
        &["fuzz", "--no-memo"],
    ] {
        let (ok, _, stderr) = hca(args);
        let option = args[args.len() - 1];
        assert!(!ok, "{args:?} succeeded");
        assert!(
            stderr.contains(&format!("unknown option `{option}`")),
            "{stderr}"
        );
    }
}

#[test]
fn rcp_subcommand_reports_ring_assignment() {
    let (ok, stdout, stderr) = hca(&["rcp", "dot_product"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("RCP ring"), "{stdout}");
    assert!(stdout.contains("legal: true"), "{stdout}");
}

#[test]
fn metrics_out_writes_valid_json_with_phase_timings_and_counters() {
    let dir = std::env::temp_dir().join(format!("hca-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let trace = dir.join("t.jsonl");
    let (ok, _, stderr) = hca(&[
        "clusterize",
        "dot_product",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    // --metrics-out: valid JSON carrying phase timings and pipeline counters.
    let body = std::fs::read_to_string(&metrics).unwrap();
    let v = serde_json::from_str_value(&body).expect("valid JSON");
    let phases = v.field("phases").as_seq().expect("phases array");
    assert!(
        phases
            .iter()
            .any(|p| p.field("phase").as_str() == Some("driver.coherency")),
        "{body}"
    );
    let counters = v.field("counters").as_seq().expect("counters array");
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.field("name").as_str() == Some(name))
            .and_then(|c| c.field("value").as_u64())
    };
    assert!(
        counter("see.states_explored").is_some_and(|n| n > 0),
        "{body}"
    );
    assert!(
        counter("driver.subproblems").is_some_and(|n| n > 0),
        "{body}"
    );
    assert_eq!(counter("coherency.violations"), Some(0), "{body}");

    // --trace-out *.jsonl: every line is one valid JSON event.
    let trace_body = std::fs::read_to_string(&trace).unwrap();
    assert!(!trace_body.is_empty());
    for line in trace_body.lines() {
        let ev = serde_json::from_str_value(line).expect("valid JSONL event");
        assert!(ev.field("phase").as_str().is_some(), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_chrome_trace_loads_as_json() {
    let dir = std::env::temp_dir().join(format!("hca-cli-chrome-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let (ok, _, stderr) = hca(&[
        "clusterize",
        "dot_product",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let body = std::fs::read_to_string(&trace).unwrap();
    let v = serde_json::from_str_value(&body).expect("valid JSON");
    let events = v.field("traceEvents").as_seq().expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(
        events.iter().any(|e| e.field("ph").as_str() == Some("X")),
        "expected at least one complete (span) event"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_is_a_quiet_success() {
    // `hca kernels | head -0`: stdout is closed before the binary writes.
    // The EPIPE must not surface as a panic/backtrace.
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hca"))
        .arg("kernels")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take()); // close the read end immediately
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn explain_reports_mii_attribution_for_a_table1_kernel() {
    let (ok, stdout, stderr) = hca(&["explain", "fir2dim"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("final MII"), "{stdout}");
    assert!(stdout.contains("bound by"), "{stdout}");
    assert!(stdout.contains("sub-problems"), "{stdout}");
    assert!(stdout.contains("pruning reasons"), "{stdout}");
}

#[test]
fn explain_replays_identically_from_a_recorded_trace() {
    let dir = std::env::temp_dir().join(format!("hca-cli-explain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("idcthor.jsonl");
    let (ok, live, stderr) = hca(&["explain", "idcthor", "--trace-out", trace.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let (ok2, replayed, stderr2) = hca(&["explain", trace.to_str().unwrap()]);
    assert!(ok2, "{stderr2}");
    // Same report body after the title line (titles name the source).
    let body = |s: &str| s.split_once('\n').map(|(_, b)| b.to_string()).unwrap();
    assert_eq!(body(&live), body(&replayed));
    std::fs::remove_dir_all(&dir).ok();
}

/// Traces recorded before the frontier dedup and dominance counters were
/// dropped carry `deduped`/`dominated` on their step lines, and traces
/// recorded while direct runs kept a memo cache carry `memo` records: they
/// must still replay, with the retired fields and records ignored.
#[test]
fn explain_replays_a_trace_with_retired_dedup_and_dominance_fields() {
    let dir = std::env::temp_dir().join(format!("hca-cli-legacy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("legacy.jsonl");
    let lines = [
        r#"{"kind":"sub","problem":"0","ws":5}"#,
        r#"{"kind":"memo","problem":"0","ok":false,"why":"miss"}"#,
        concat!(
            r#"{"kind":"step","problem":"0","step":0,"node":3,"beam":4,"explored":10,"#,
            r#""pruned_beam":4,"rej_margin":2,"rej_branch":1,"deduped":2,"dominated":1,"#,
            r#""rescued":false,"ns":1000,"cands":[[0,1.5]]}"#
        ),
    ];
    std::fs::write(&trace, lines.join("\n")).unwrap();
    let (ok, stdout, stderr) = hca(&["explain", trace.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("pruning reasons (7 candidate/state drops)"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("dedup") && !stdout.contains("dominance") && !stdout.contains("memo"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_works_on_a_fuzz_seed() {
    let (ok, stdout, stderr) = hca(&["explain", "fuzz", "--seed", "7"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("final MII"), "{stdout}");
}

/// Under exact-small, explain's portfolio section reports the ladders'
/// bound exits and the speculative work they discarded; one thread runs a
/// bounded ladder in tier order and speculates nothing.
#[test]
fn explain_reports_discarded_speculation_under_exact_small() {
    let out = Command::new(env!("CARGO_BIN_EXE_hca"))
        .args(["explain", "fir2dim", "--solver", "exact-small"])
        .env("HCA_THREADS", "1")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("portfolio ladders:"))
        .unwrap_or_else(|| panic!("no ladder line:\n{stdout}"));
    assert!(line.contains("bound exit(s)"), "{line}");
    assert!(line.contains(", 0 placement step(s) discarded"), "{line}");
    // Beam-only runs compute no bound, so the line does not appear.
    let (ok, beam, stderr) = hca(&["explain", "fir2dim"]);
    assert!(ok, "{stderr}");
    assert!(!beam.contains("portfolio ladders:"), "{beam}");
}

#[test]
fn diff_metrics_attributes_deltas_between_two_runs() {
    let dir = std::env::temp_dir().join(format!("hca-cli-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let (ok, _, stderr) = hca(&[
        "clusterize",
        "fir2dim",
        "--metrics-out",
        a.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok2, _, stderr2) = hca(&[
        "clusterize",
        "idcthor",
        "--metrics-out",
        b.to_str().unwrap(),
    ]);
    assert!(ok2, "{stderr2}");
    let (ok3, stdout, stderr3) = hca(&["diff-metrics", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok3, "{stderr3}");
    assert!(stdout.contains("diff-metrics"), "{stdout}");
    assert!(stdout.contains("phase "), "{stdout}");
    assert!(stdout.contains("counter "), "{stdout}");
    assert!(stdout.contains(" us "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flame_out_writes_collapsed_stacks() {
    let dir = std::env::temp_dir().join(format!("hca-cli-flame-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flame = dir.join("f.txt");
    let (ok, _, stderr) = hca(&[
        "clusterize",
        "dot_product",
        "--flame-out",
        flame.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let body = std::fs::read_to_string(&flame).unwrap();
    assert!(!body.is_empty());
    // Collapsed-stack format: `frame[;frame…] <count>` per line.
    for line in body.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("stack + count");
        assert!(!stack.is_empty(), "{line}");
        assert!(n.parse::<u64>().is_ok(), "{line}");
    }
    assert!(body.contains("driver."), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unroll_flag_scales_the_body() {
    let (ok, stdout, _) = hca(&["analyze", "dot_product", "--unroll", "3"]);
    assert!(ok);
    assert!(stdout.contains("dot_product×3"), "{stdout}");
    assert!(stdout.contains("21 nodes"), "{stdout}"); // 7 × 3
}
