//! Resuming from a snapshot written by an older format version.
//!
//! Version 1 of the daemon snapshot carried a trailing section of
//! machine blobs; the current format does not. A state dir holding a
//! complete, correctly checksummed version-1 file must not stop a
//! `--resume` launch: the daemon announces a `resume_warning`, cold
//! starts, serves new sessions, and its drain checkpoint replaces the
//! old file with a current-version one.

use std::io::Write;
use std::process::{Command, Stdio};

use pacman_daemon::snapshot::{MAGIC, VERSION};
use pacman_daemon::DaemonSnapshot;
use pacman_telemetry::bin::{fnv1a, Writer};
use pacman_telemetry::json::{parse, Value};

const OLD_VERSION: u16 = 1;

/// A version-1 snapshot: one session with one queued job, then the
/// machine-blob section that version 2 dropped.
fn version_one_file() -> Vec<u8> {
    let mut w = Writer::new();
    for total in [1, 0, 0] {
        w.u64(total);
    }
    let empty_registry = |w: &mut Writer| {
        w.bool(true);
        w.usize(0);
        w.usize(0);
        w.usize(0);
    };
    empty_registry(&mut w);
    w.usize(1);
    w.str("old");
    for v in [1, 0, 0, 0] {
        w.u64(v);
    }
    empty_registry(&mut w);
    w.usize(1);
    w.u64(0);
    w.str("oracle --trials 1 --seed 11 --quiet-noise --jobs 1");
    w.u64(0);
    w.usize(1);
    w.bytes(&[0xAB; 64]);
    let body = w.into_bytes();
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&OLD_VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

#[test]
fn a_previous_version_snapshot_resumes_as_a_cold_start() {
    let dir = std::env::temp_dir().join(format!("pacman-old-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.join("state");
    std::fs::create_dir_all(&state).expect("create state dir");
    let path = state.join("pacmand.snapshot");
    std::fs::write(&path, version_one_file()).expect("write old snapshot");

    let mut child = Command::new(env!("CARGO_BIN_EXE_pacman-cli"))
        .arg("daemon")
        .arg("--stdio")
        .args(["--state-dir", state.to_str().unwrap()])
        .args(["--workers", "1"])
        .arg("--resume")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pacman-cli daemon");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in [
            r#"{"type":"open_session","session":"fresh"}"#,
            r#"{"type":"submit","session":"fresh","command":"oracle --trials 1 --seed 11 --quiet-noise --jobs 1"}"#,
        ] {
            writeln!(stdin, "{line}").expect("send request");
        }
    }
    let out = child.wait_with_output().expect("daemon runs to completion");
    assert!(out.status.success(), "an old snapshot must not abort the daemon: {:?}", out.status);

    let records: Vec<Value> = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(|l| parse(l).expect("daemon printed unparsable JSON"))
        .collect();
    let kind = |v: &Value| v.get("type").and_then(Value::as_str).unwrap_or("?").to_string();
    let first = records.first().expect("daemon printed something");
    assert_eq!(kind(first), "resume_warning", "first record: {first:?}");
    let error = first.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(
        error.contains(&format!("version {OLD_VERSION}")),
        "warning names the version: {error}"
    );
    assert!(
        records
            .iter()
            .any(|r| kind(r) == "job_done"
                && r.get("session").and_then(Value::as_str) == Some("fresh")),
        "the cold-started daemon serves new sessions"
    );
    assert!(
        records.iter().all(|r| r.get("session").and_then(Value::as_str) != Some("old")),
        "nothing from the old file was resumed"
    );
    assert_eq!(records.last().map(kind).as_deref(), Some("daemon_drained"));

    let bytes = std::fs::read(&path).expect("drain left a checkpoint");
    assert_eq!(bytes[8..10], VERSION.to_le_bytes(), "the drain rewrote the file as current");
    let snap = DaemonSnapshot::load(&bytes).expect("the new checkpoint loads");
    assert!(snap.sessions.iter().all(|s| s.name != "old"));
    let _ = std::fs::remove_dir_all(&dir);
}
