//! End-to-end tests of the `ppscan-serve` binary through real process
//! invocations: flag validation and the stdin REPL.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppscan-serve"))
}

/// A generated graph written as an edge list into a directory private
/// to one test (the tests run in parallel). Its degree sum exceeds the
/// pool's task threshold, so a multi-thread query really splits.
fn graph_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppscan_serve_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.txt");
    let g = ppscan_graph::gen::planted_partition(20, 100, 0.3, 0.002, 9);
    assert!(2 * g.num_edges() as u64 > ppscan_sched::DEFAULT_DEGREE_THRESHOLD);
    let mut file = std::fs::File::create(&path).unwrap();
    ppscan_graph::io::write_edge_list(&g, &mut file).unwrap();
    path
}

#[test]
fn zero_threads_and_zero_batch_are_rejected() {
    let path = graph_file("zero");
    for flag in ["--threads", "--batch"] {
        let out = serve()
            .args([path.to_str().unwrap(), flag, "0"])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} 0 must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(
            !stderr.contains("serving with"),
            "{flag} 0 started a server: {stderr}"
        );
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn repl_answers_do_not_depend_on_the_thread_count() {
    let path = graph_file("repl");
    let lines = "0.3 2\n0.5 3\n0.7 2\n1.0 1\n0.2 8\n";
    let answers = ["1", "2"].map(|threads| {
        let mut child = serve()
            .args([path.to_str().unwrap(), "--threads", threads])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(lines.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    });
    assert_eq!(answers[0].lines().count(), 5, "{}", answers[0]);
    assert!(
        answers[0].lines().all(|l| l.starts_with("[gen 1] ")),
        "{}",
        answers[0]
    );
    assert_eq!(answers[0], answers[1]);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
