//! End-to-end tests of the `ppscan-cli` binary: generate → stats →
//! cluster → convert round trips through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppscan-cli"))
}

/// A scratch directory private to one test: the tests run in parallel
/// and each removes its directory when done, so a shared one would be
/// deleted under a test still using it.
fn tmpdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppscan_cli_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_stats_cluster_roundtrip() {
    let dir = tmpdir("roundtrip");
    let graph_txt = dir.join("g.txt");
    let graph_bin = dir.join("g.bin");
    let clusters = dir.join("clusters.txt");

    // generate an SBM graph as text
    let out = cli()
        .args([
            "generate",
            "sbm",
            "--blocks",
            "3",
            "--block-size",
            "30",
            "--p-in",
            "0.5",
            "--p-out",
            "0.01",
            "--out",
            graph_txt.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stats
    let out = cli()
        .args(["stats", graph_txt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SCAN workload"), "{stdout}");

    // convert to binary
    let out = cli()
        .args([
            "convert",
            graph_txt.to_str().unwrap(),
            graph_bin.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // cluster the binary graph with explicit options
    let out = cli()
        .args([
            "cluster",
            graph_bin.to_str().unwrap(),
            "--eps",
            "0.4",
            "--mu",
            "3",
            "--threads",
            "2",
            "--kernel",
            "merge",
            "--classify",
            "--output",
            clusters.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("3 clusters"),
        "expected 3 clusters, got: {stdout}"
    );

    // membership file exists and is non-trivial
    let body = std::fs::read_to_string(&clusters).unwrap();
    assert!(body.lines().count() > 30, "membership file too small");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_unknown_command_and_kernel() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let dir = tmpdir("kernel");
    let g = dir.join("k.txt");
    std::fs::write(&g, "0 1\n1 2\n").unwrap();
    let out = cli()
        .args(["cluster", g.to_str().unwrap(), "--kernel", "warp-drive"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // A retired kernel name is as unknown as a made-up one.
    let out = cli()
        .args(["cluster", g.to_str().unwrap(), "--kernel", "autotuned"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_unknown_and_typoed_flags() {
    // Regression: `--epsilonn 0.5` used to be silently ignored (the
    // parser only scanned for known flag names), so the run proceeded
    // with the default ε. Unknown flags must print usage and exit 2.
    let dir = tmpdir("unknown-flags");
    let g = dir.join("u.txt");
    std::fs::write(&g, "0 1\n1 2\n2 0\n").unwrap();

    let out = cli()
        .args(["cluster", g.to_str().unwrap(), "--epsilonn", "0.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "typo'd flag must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --epsilonn"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // Every subcommand validates its full argument list.
    for args in [
        vec!["stats", g.to_str().unwrap(), "--verbose"],
        vec!["generate", "roll", "--out", "/tmp/x.txt", "--degrees", "4"],
        vec!["convert", g.to_str().unwrap(), "/tmp/y.txt", "--force"],
        vec!["cluster", g.to_str().unwrap(), "--classifyy"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{args:?} must name the unknown flag"
        );
    }

    // Excess positionals and flags missing their value are errors too.
    let out = cli()
        .args(["stats", g.to_str().unwrap(), "extra.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args(["cluster", g.to_str().unwrap(), "--eps"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value for --eps"));

    // Out-of-range parameters are rejected with the usage, not a panic.
    for (flag, value, reason) in [
        ("--eps", "1.5", "epsilon must be in (0, 1]"),
        ("--eps", "NaN", "epsilon must be in (0, 1]"),
        ("--mu", "0", "mu must be at least 1"),
        ("--threads", "0", "--threads must be at least 1"),
    ] {
        let out = cli()
            .args(["cluster", g.to_str().unwrap(), flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(reason), "{flag} {value}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
    }

    // Known flags still work after validation tightened.
    let out = cli()
        .args(["cluster", g.to_str().unwrap(), "--eps", "0.5", "--mu", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_fails_cleanly() {
    let out = cli()
        .args(["stats", "/nonexistent/graph.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to load"));
}

/// Every write to `/dev/full` fails with "no space left on device". A
/// dropped `BufWriter` discards its final flush's error, so each command
/// must flush, and report the failure with exit 1 rather than succeed or
/// panic.
#[cfg(unix)]
#[test]
fn write_failures_exit_nonzero() {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: this system has no /dev/full");
        return;
    }
    let dir = tmpdir("dev-full");
    let small = dir.join("small.txt");
    std::fs::write(&small, "0 1\n1 2\n2 0\n").unwrap();
    // 5,000 vertices in dense blocks: about 47 KB of memberships, more
    // than one `BufWriter` buffer.
    let big = dir.join("big.txt");
    let out = cli()
        .args([
            "generate",
            "sbm",
            "--blocks",
            "50",
            "--block-size",
            "100",
            "--p-in",
            "0.5",
            "--p-out",
            "0.001",
            "--out",
            big.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let link = dir.join("g.bin");
    std::os::unix::fs::symlink("/dev/full", &link).unwrap();
    let (small, big, link) = (
        small.to_str().unwrap(),
        big.to_str().unwrap(),
        link.to_str().unwrap(),
    );
    let cases: [&[&str]; 5] = [
        &[
            "generate",
            "er",
            "--n",
            "20",
            "--edges",
            "30",
            "--out",
            "/dev/full",
        ],
        &[
            "generate", "er", "--n", "20", "--edges", "30", "--out", link,
        ],
        &[
            "cluster",
            small,
            "--eps",
            "0.5",
            "--mu",
            "2",
            "--output",
            "/dev/full",
        ],
        &[
            "cluster",
            big,
            "--eps",
            "0.5",
            "--mu",
            "2",
            "--output",
            "/dev/full",
        ],
        &["convert", small, "/dev/full"],
    ];
    for args in cases {
        let out = cli().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("failed to write"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
