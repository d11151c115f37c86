//! End-to-end tests of the `netembed` binary: generate → inspect → embed,
//! exercising the documented exit codes.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netembed-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("netembed-cli-test-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

#[test]
fn gen_inspect_embed_pipeline() {
    let host = tmp("host.graphml");
    let query = tmp("query.graphml");

    // Generate a host.
    let out = run(&[
        "gen",
        "planetlab",
        "--nodes",
        "30",
        "--seed",
        "5",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Generate a small query (a ring) and write windows into it by hand:
    // reuse gen + a direct GraphML fixture instead.
    let qdoc = r#"<graphml>
      <key id="k1" for="edge" attr.name="dmin" attr.type="double"/>
      <key id="k2" for="edge" attr.name="dmax" attr.type="double"/>
      <graph id="q" edgedefault="undirected">
        <node id="a"/><node id="b"/>
        <edge source="a" target="b">
          <data key="k1">1.0</data><data key="k2">400.0</data>
        </edge>
      </graph></graphml>"#;
    std::fs::write(&query, qdoc).unwrap();

    // Inspect the host.
    let out = run(&["inspect", host.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes:       30"), "{text}");
    assert!(text.contains("undirected"));

    // Embed: generous window ⇒ many mappings, exit code 0.
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
        "--constraint",
        "rEdge.avgDelay >= vEdge.dmin && rEdge.avgDelay <= vEdge.dmax",
        "--mode",
        "3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("a=site"));

    // Infeasible constraint ⇒ exit code 1 (definitive no).
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
        "--constraint",
        "rEdge.avgDelay > 1e9",
    ]);
    assert_eq!(out.status.code(), Some(1));

    // Every algorithm flag works.
    for alg in ["ecf", "rwb", "lns", "par"] {
        let out = run(&[
            "embed",
            "--host",
            host.to_str().unwrap(),
            "--query",
            query.to_str().unwrap(),
            "--constraint",
            "rEdge.avgDelay <= 400.0",
            "--algorithm",
            alg,
            "--mode",
            "first",
            "--quiet",
        ]);
        assert_eq!(out.status.code(), Some(0), "algorithm {alg}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).lines().count(),
            1,
            "algorithm {alg}"
        );
    }

    std::fs::remove_file(&host).ok();
    std::fs::remove_file(&query).ok();
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["embed"]).status.code(), Some(2));
    assert_eq!(
        run(&["gen", "bogus", "--out", "/tmp/x"]).status.code(),
        Some(2)
    );
    assert_eq!(
        run(&["inspect", "/nonexistent/file.graphml"]).status.code(),
        Some(2)
    );
    // Bad constraint syntax.
    let host = tmp("host2.graphml");
    let out = run(&[
        "gen",
        "ring",
        "--nodes",
        "5",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "1 +",
    ]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(&host).ok();
}

#[test]
fn repeat_runs_share_the_prepared_session() {
    let host = tmp("repeat-host.graphml");
    let out = run(&[
        "gen",
        "ring",
        "--nodes",
        "8",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--mode",
        "first",
        "--repeat",
        "3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("run 1/3"), "{stderr}");
    assert!(
        stderr.contains("run 1/3: elapsed") && stderr.contains("filter cache hit: false"),
        "{stderr}"
    );
    // Runs 2 and 3 ride the warm session: the filter comes from the
    // epoch-keyed cache.
    assert!(
        stderr.matches("filter cache hit: true").count() >= 2,
        "{stderr}"
    );
    // Mappings are printed once, for the final run.
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 1);
    std::fs::remove_file(&host).ok();
}

#[test]
fn planner_mode_coalesces_concurrent_clients() {
    let host = tmp("planner-host.graphml");
    let out = run(&[
        "gen",
        "ring",
        "--nodes",
        "8",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--mode",
        "first",
        "--planner",
        "--clients",
        "4",
        "--repeat",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("burst 1/2: 4 clients"), "{stderr}");
    assert!(stderr.contains("burst 2/2"), "{stderr}");
    assert!(stderr.contains("groups dispatched:"), "{stderr}");
    assert!(
        stderr.contains("pool telemetry: parked scratches:"),
        "{stderr}"
    );
    // 8 concurrent equivalent requests (2 bursts × 4 clients), one
    // filter build total: the amortization identity, as printed.
    assert!(stderr.contains("misses: 1"), "{stderr}");
    // Mappings printed once, for the final response.
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 1);
    std::fs::remove_file(&host).ok();
}

#[test]
fn planner_oversub_prints_admission_telemetry() {
    let host = tmp("oversub-host.graphml");
    let out = run(&[
        "gen",
        "ring",
        "--nodes",
        "8",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // 8 clients against an admit queue of 1 (8× oversubscribed). How
    // many are shed depends on scheduling; the admission ledger and the
    // histogram summary lines must print regardless, and every
    // non-shed client reports real mappings (reject mode never
    // degrades), so the exit code stays 0.
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--mode",
        "first",
        "--planner",
        "--clients",
        "8",
        "--oversub",
        "8",
        "--priority",
        "high",
        "--shed",
        "reject",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("# admission: submitted: 8, accepted:"),
        "{stderr}"
    );
    assert!(stderr.contains("# queue wait: n="), "{stderr}");
    assert!(stderr.contains("| dispatch: n="), "{stderr}");
    std::fs::remove_file(&host).ok();
}

#[test]
fn planner_shards_flag_prints_per_shard_summary() {
    let host = tmp("shards-host.graphml");
    let out = run(&[
        "gen",
        "ring",
        "--nodes",
        "8",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--mode",
        "first",
        "--planner",
        "--clients",
        "4",
        "--shards",
        "3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("# planner: shards: 3,"), "{stderr}");
    // One summary line per shard, each carrying a drained gauge and its
    // own shed breakdown.
    for idx in 0..3 {
        assert!(
            stderr.contains(&format!("# shard {idx}: queue depth: 0,")),
            "{stderr}"
        );
    }
    assert!(
        stderr.contains("# shard 0: queue depth: 0, submitted:"),
        "{stderr}"
    );
    assert!(!stderr.contains("# shard 3:"), "{stderr}");

    // A malformed shard count is a usage error.
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--planner",
        "--shards",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(&host).ok();
}

#[test]
fn feed_demo_prints_transitions_and_staleness_ledger() {
    let host = tmp("feed-host.graphml");
    let out = run(&[
        "gen",
        "ring",
        "--nodes",
        "8",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--mode",
        "first",
        "--feed",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The scripted faults play out deterministically: the feed leaves
    // live when the lost delta opens a gap, serves a stale-marked
    // answer inside the lag budget, sheds past it, then resyncs back
    // to live.
    assert!(stderr.contains("# feed: live at cursor 0"), "{stderr}");
    assert!(stderr.contains("live → catching-up"), "{stderr}");
    assert!(stderr.contains("catching-up → live"), "{stderr}");
    assert!(stderr.contains("# serve: fresh"), "{stderr}");
    assert!(stderr.contains("# serve: stale (lag"), "{stderr}");
    assert!(
        stderr.contains("# serve: shed (model feed degraded past max lag)"),
        "{stderr}"
    );
    // The delivery ledger balances and records the recovery.
    assert!(stderr.contains("(balanced: true)"), "{stderr}");
    assert!(stderr.contains("gap resyncs: 1"), "{stderr}");
    assert!(stderr.contains("last applied seq: 12, lag: 0"), "{stderr}");
    // The converged model still embeds: mappings print once.
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 1);
    // Quiet mode suppresses the narration but not the mappings.
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        host.to_str().unwrap(),
        "--constraint",
        "true",
        "--mode",
        "first",
        "--feed",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 1);
    std::fs::remove_file(&host).ok();
}

#[test]
fn help_prints_usage() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn gen_all_generators() {
    for kind in ["brite", "waxman", "clique", "ring", "star"] {
        let f = tmp(&format!("{kind}.graphml"));
        let out = run(&["gen", kind, "--nodes", "12", "--out", f.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Round-trips through the parser.
        let doc = std::fs::read_to_string(&f).unwrap();
        let net = graphml::from_str(&doc).unwrap();
        assert_eq!(net.node_count(), 12, "{kind}");
        std::fs::remove_file(&f).ok();
    }
}

#[test]
fn hierarchy_embed_prints_refinement_summary() {
    let host = tmp("hier-host.graphml");
    let query = tmp("hier-query.graphml");

    // A power-law substrate with a planted `region = "hot"` cluster.
    let out = run(&[
        "gen",
        "powerlaw",
        "--nodes",
        "400",
        "--seed",
        "7",
        "--out",
        host.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A 2-node query path; the constraint pins it to the hot region.
    let qdoc = r#"<graphml>
      <graph id="q" edgedefault="undirected">
        <node id="a"/><node id="b"/>
        <edge source="a" target="b"/>
      </graph></graphml>"#;
    std::fs::write(&query, qdoc).unwrap();

    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
        "--constraint",
        r#"rNode.region == "hot""#,
        "--mode",
        "first",
        "--hierarchy",
        "--levels",
        "4",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // The coarsening ladder is announced up front...
    assert!(
        err.contains("levels over 400 host nodes"),
        "missing ladder line: {err}"
    );
    // ...and the refinement telemetry after the run.
    assert!(
        err.contains("# hierarchy: pruned"),
        "missing refinement summary: {err}"
    );
    assert!(err.contains("filter cells ("), "missing cell ratio: {err}");

    // An impossible node constraint is recognized in the abstract:
    // definitive infeasible (exit 1), not inconclusive.
    let out = run(&[
        "embed",
        "--host",
        host.to_str().unwrap(),
        "--query",
        query.to_str().unwrap(),
        "--constraint",
        "rNode.cpu >= 1000.0",
        "--hierarchy",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_file(&host).ok();
    std::fs::remove_file(&query).ok();
}

#[test]
fn gen_datacenter_generators() {
    // The fat-tree meets a node budget by scaling hosts per edge switch;
    // powerlaw takes --nodes exactly.
    let f = tmp("fattree.graphml");
    let out = run(&[
        "gen",
        "fattree",
        "--nodes",
        "60",
        "--out",
        f.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let net = graphml::from_str(&std::fs::read_to_string(&f).unwrap()).unwrap();
    assert!(
        net.node_count() >= 60,
        "budget not met: {}",
        net.node_count()
    );
    std::fs::remove_file(&f).ok();

    let f = tmp("powerlaw.graphml");
    let out = run(&[
        "gen",
        "powerlaw",
        "--nodes",
        "64",
        "--out",
        f.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let net = graphml::from_str(&std::fs::read_to_string(&f).unwrap()).unwrap();
    assert_eq!(net.node_count(), 64);
    std::fs::remove_file(&f).ok();
}

#[test]
fn closed_stdout_stops_quietly() {
    let host = tmp("pipe-host.graphml");
    let query = tmp("pipe-query.graphml");
    for (kind, nodes, path) in [("clique", "40", &host), ("ring", "3", &query)] {
        let out = run(&[
            "gen",
            kind,
            "--nodes",
            nodes,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    // 40·39·38 mapping rows: far more than a pipe buffer holds, so the
    // CLI is still writing when the reader goes away (`… | head -1`).
    let mut child = bin()
        .args([
            "embed",
            "--host",
            host.to_str().unwrap(),
            "--query",
            query.to_str().unwrap(),
            "--constraint",
            "true",
            "--quiet",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    // The reader, and with it the pipe's read end, drops after one row.
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains('='), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    std::fs::remove_file(&host).ok();
    std::fs::remove_file(&query).ok();
}
