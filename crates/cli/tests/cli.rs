//! End-to-end tests of the `tpcds` command-line toolkit.

use std::process::Command;

fn tpcds() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tpcds"))
}

#[test]
fn schema_stats_match_paper() {
    let out = tpcds().args(["schema", "--stats"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fact tables       7"), "{text}");
    assert!(text.contains("dimension tables  17"));
    assert!(text.contains("foreign keys      104"));
}

#[test]
fn schema_dot_renders_graph() {
    let out = tpcds().args(["schema", "--dot"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("digraph tpcds"));
    assert!(text.contains("store_sales ->"));
}

#[test]
fn dsqgen_prints_one_query() {
    let out = tpcds()
        .args(["dsqgen", "--query", "52", "--streams", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("-- query 52, stream 0"));
    assert!(text.contains("-- query 52, stream 1"));
    assert!(text.to_lowercase().contains("ss_ext_sales_price"));
}

#[test]
fn dsdgen_writes_flat_files() {
    let dir = std::env::temp_dir().join(format!("tpcds_cli_{}", std::process::id()));
    let out = tpcds()
        .args([
            "dsdgen",
            "--scale",
            "0.005",
            "--table",
            "income_band",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read_to_string(dir.join("income_band.dat")).unwrap();
    assert_eq!(data.lines().count(), 20);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_by_id_executes() {
    let out = tpcds()
        .args(["query", "--scale", "0.005", "--id", "96"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows in"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = tpcds().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn explain_analyze_reports_memory() {
    let out = tpcds()
        .args(["explain", "--scale", "0.01", "--id", "96", "--analyze"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The tpcds binary installs the counting allocator, so the analyzed
    // plan attributes peak memory to operators.
    assert!(text.contains("mem_peak="), "{text}");
}

#[test]
fn dsdgen_help_prints_usage_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("tpcds_cli_help_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = tpcds()
        .args(["dsdgen", "--help"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tpcds dsdgen"), "{text}");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = tpcds().args(["run", "--bogus"]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown argument \"--bogus\""), "{text}");
    assert!(text.contains("tpcds run"), "{text}");
}
