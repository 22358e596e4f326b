//! Smoke tests of the `diffy` binary: exit codes, key output lines, the
//! `--jobs` flag, and the hard errors for a flag given without a value
//! and for a flag the command does not read (both used to be silently
//! ignored).

use std::process::{Command, Output};

fn diffy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diffy"))
        .args(args)
        .output()
        .expect("failed to launch the diffy binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn models_lists_the_zoo() {
    let out = diffy(&["models"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for model in ["DnCNN", "FFDNet", "IRCNN", "JointNet", "VDSR"] {
        assert!(text.contains(model), "missing {model} in:\n{text}");
    }
}

#[test]
fn experiments_maps_artefacts_to_bench_targets() {
    let out = diffy(&["experiments"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cargo bench -p diffy-bench --bench"), "no bench targets in:\n{text}");
    assert!(text.contains("paper artefact"), "no header in:\n{text}");
}

#[test]
fn compare_runs_with_jobs_flag() {
    let out = diffy(&["compare", "IRCNN", "--res", "32", "--jobs", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["IRCNN at 32x32", "VAA", "PRA", "Diffy", "architecture"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn compare_output_is_identical_across_job_counts() {
    let serial = diffy(&["compare", "IRCNN", "--res", "32", "--jobs", "1"]);
    let par = diffy(&["compare", "IRCNN", "--res", "32", "--jobs", "4"]);
    assert!(serial.status.success() && par.status.success());
    assert_eq!(stdout(&serial), stdout(&par), "--jobs must not change output");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = diffy(&["frobnicate"]);
    assert!(!out.status.success(), "unknown command must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "stderr:\n{err}");
    assert!(err.contains("usage:"), "stderr should include usage:\n{err}");
}

#[test]
fn no_command_fails_with_usage() {
    let out = diffy(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn trailing_flag_without_value_is_a_hard_error() {
    // Regression: `--res` as the last argument used to be silently
    // dropped, running the command at the default resolution instead.
    let out = diffy(&["compare", "IRCNN", "--res"]);
    assert!(!out.status.success(), "flag without value must fail");
    assert!(stderr(&out).contains("--res needs a value"), "stderr: {}", stderr(&out));

    let out = diffy(&["compare", "IRCNN", "--res", "32", "--jobs"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--jobs needs a value"), "stderr: {}", stderr(&out));
}

#[test]
fn zero_jobs_is_rejected() {
    let out = diffy(&["compare", "IRCNN", "--res", "32", "--jobs", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad --jobs"), "stderr: {}", stderr(&out));
}

#[test]
fn trace_out_writes_chrome_trace_json() {
    let path = std::env::temp_dir().join(format!("diffy_cli_trace_{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let out = diffy(&["compare", "IRCNN", "--res", "32", "--jobs", "2", "--trace-out", path_str]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("trace:"), "stderr should report the trace write");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let trace = diffy::core::json::parse(&text).expect("trace file is valid JSON");
    let events = trace.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
    assert!(!events.is_empty(), "trace must contain spans");
    assert!(text.contains("evaluate_network"), "missing evaluate_network span:\n{text}");
    assert!(text.contains("tile_sim"), "missing tile_sim span:\n{text}");
}

#[test]
fn trace_out_without_value_is_a_hard_error() {
    let out = diffy(&["compare", "IRCNN", "--res", "32", "--trace-out"]);
    assert!(!out.status.success(), "--trace-out without value must fail");
    assert!(stderr(&out).contains("--trace-out needs a value"), "stderr: {}", stderr(&out));
}

#[test]
fn usage_mentions_serve() {
    let out = diffy(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for needle in [
        "serve",
        "--addr",
        "--queue-depth",
        "--deadline-ms",
        "--max-requests-per-conn",
        "--idle-timeout-ms",
        "--trace-out",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in usage:\n{text}");
    }
}

#[test]
fn usage_names_every_protocol_model_and_scheme_and_the_defaults() {
    // The usage text is a constant: this pins it to the names the
    // protocol accepts and to the defaults the commands apply.
    use diffy::core::accelerator::SchemeChoice;
    use diffy::core::runner::WorkloadOptions;
    let out = diffy(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for model in diffy::models::CiModel::ALL {
        assert!(text.contains(model.name()), "missing model {model} in usage:\n{text}");
    }
    for (scheme, _) in SchemeChoice::NAMED {
        assert!(text.contains(scheme), "missing scheme {scheme} in usage:\n{text}");
    }
    let workload = WorkloadOptions::DEFAULT;
    let defaults = [
        format!("--res N           trace resolution (default {})", workload.resolution),
        format!("--seed N          workload seed (default {})", workload.seed),
        format!("(default {})", SchemeChoice::DEFAULT.label()),
        format!("(default {})", diffy::memsys::MemoryNode::DEFAULT),
        format!("architectures (default {})", diffy::sim::Architecture::DEFAULT),
    ];
    for default in defaults {
        assert!(text.contains(&default), "missing {default:?} in usage:\n{text}");
    }
}

#[test]
fn serve_flags_without_values_are_hard_errors() {
    for flag in [
        "--addr",
        "--queue-depth",
        "--deadline-ms",
        "--max-requests-per-conn",
        "--idle-timeout-ms",
        "--jobs",
    ] {
        let out = diffy(&["serve", flag]);
        assert!(!out.status.success(), "{flag} without value must fail");
        assert!(
            stderr(&out).contains(&format!("{flag} needs a value")),
            "stderr for {flag}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn serve_rejects_bad_flag_values() {
    let out = diffy(&["serve", "--queue-depth", "0"]);
    assert!(!out.status.success(), "--queue-depth 0 must fail");
    assert!(stderr(&out).contains("bad --queue-depth 0"), "stderr: {}", stderr(&out));

    let out = diffy(&["serve", "--deadline-ms", "soon"]);
    assert!(!out.status.success(), "non-numeric --deadline-ms must fail");
    assert!(stderr(&out).contains("bad --deadline-ms soon"), "stderr: {}", stderr(&out));

    let out = diffy(&["serve", "--max-requests-per-conn", "0"]);
    assert!(!out.status.success(), "--max-requests-per-conn 0 must fail");
    assert!(
        stderr(&out).contains("bad --max-requests-per-conn 0"),
        "stderr: {}",
        stderr(&out)
    );

    let out = diffy(&["serve", "--idle-timeout-ms", "forever"]);
    assert!(!out.status.success(), "non-numeric --idle-timeout-ms must fail");
    assert!(stderr(&out).contains("bad --idle-timeout-ms forever"), "stderr: {}", stderr(&out));

    let out = diffy(&["serve", "--jobs", "0"]);
    assert!(!out.status.success(), "--jobs 0 must fail");
    assert!(stderr(&out).contains("bad --jobs"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // A flag the command does not read must fail by name rather than
    // run at a default: a stale `serve --shards 2` must not quietly
    // start one plain instance.
    for args in [&["serve", "--shards", "2"][..], &["compare", "IRCNN", "--archz", "VAA"]] {
        let out = diffy(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "stderr for {args:?}: {}",
            stderr(&out)
        );
    }

    // The global --trace-out stays valid on every command.
    let path = std::env::temp_dir().join(format!("diffy_cli_models_{}.json", std::process::id()));
    let out = diffy(&["models", "--trace-out", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn serve_rejects_unbindable_address() {
    // A malformed bind address must fail fast with a bind error, not hang.
    let out = diffy(&["serve", "--addr", "not-an-address"]);
    assert!(!out.status.success(), "bad --addr must fail");
    assert!(stderr(&out).contains("bind failed"), "stderr: {}", stderr(&out));
}

#[test]
fn name_flags_take_every_protocol_name_and_nothing_else() {
    // The CLI spells memory nodes, schemes and architectures with the
    // request protocol's parsers: every name a request may carry works
    // on the command line, and an unknown one fails by name.
    use diffy::serve::protocol;
    for node in diffy::memsys::MemoryNode::ALL {
        assert_eq!(protocol::parse_memory(node.name()), Ok(node));
        let out = diffy(&["compare", "IRCNN", "--res", "16", "--memory", node.name()]);
        assert!(out.status.success(), "--memory {node}: {}", stderr(&out));
    }
    for (scheme, choice) in diffy::core::accelerator::SchemeChoice::NAMED {
        assert_eq!(protocol::parse_scheme(scheme), Ok(choice));
        let out = diffy(&["compare", "IRCNN", "--res", "16", "--scheme", scheme]);
        assert!(out.status.success(), "--scheme {scheme}: {}", stderr(&out));
    }
    let dir = std::env::temp_dir().join(format!("diffy_cli_names_{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    let archs: Vec<&str> = diffy::sim::Architecture::ALL.iter().map(|a| a.name()).collect();
    let archs = archs.join(",");
    let precompute = |archs: &str| {
        let grid = ["precompute", "--out", dir, "--models", "IRCNN", "--datasets", "Kodak24"];
        diffy(&[&grid[..], &["--res", "16", "--archs", archs]].concat())
    };
    let out = precompute(&archs);
    assert!(out.status.success(), "--archs {archs}: {}", stderr(&out));

    let unknown = [
        (diffy(&["compare", "IRCNN", "--memory", "SRAM"]), "unknown memory node `SRAM`"),
        (diffy(&["compare", "IRCNN", "--scheme", "zip"]), "unknown scheme `zip`"),
        (precompute("Diffy,TPU"), "unknown arch `TPU`"),
    ];
    let _ = std::fs::remove_dir_all(dir);
    for (out, needle) in unknown {
        assert!(!out.status.success(), "{needle} must fail");
        assert!(stderr(&out).contains(needle), "stderr: {}", stderr(&out));
    }
}
