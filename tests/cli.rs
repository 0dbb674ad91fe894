//! Integration tests for the `rstore-cli` binary: a full VCS session
//! across separate process invocations, exercising the log-engine
//! persistence and `RStore::reopen` path.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rstore-cli"))
        .arg("--data-dir")
        .arg(dir)
        .args(args)
        .output()
        .expect("run rstore-cli")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "cli failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// The data dir's files and their sizes, by name.
fn files(dir: &PathBuf) -> Vec<(String, u64)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), e.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    files
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rstore-cli-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_session_across_processes() {
    let dir = temp_dir("session");

    let out = stdout(&cli(&dir, &["init", "--set", "0=alpha", "--set", "1=beta"]));
    assert!(out.contains("root V0"), "{out}");

    let out = stdout(&cli(
        &dir,
        &["commit", "--parent", "0", "--set", "1=beta-2", "--set", "2=gamma"],
    ));
    assert!(out.contains("committed V1"), "{out}");

    let out = stdout(&cli(&dir, &["commit", "--del", "0"]));
    assert!(out.contains("committed V2"), "{out}");

    // Checkout of the old version still shows the original value.
    let out = stdout(&cli(&dir, &["checkout", "0"]));
    assert!(out.contains("alpha") && out.contains("beta"), "{out}");
    assert!(!out.contains("gamma"), "{out}");

    // The head dropped key 0 and kept the update.
    let out = stdout(&cli(&dir, &["checkout", "2"]));
    assert!(!out.contains("alpha"), "{out}");
    assert!(out.contains("beta-2") && out.contains("gamma"), "{out}");

    // Range checkout; an inverted range holds no key.
    let out = stdout(&cli(&dir, &["checkout", "1", "--range", "0:1"]));
    assert!(out.contains("alpha") && !out.contains("gamma"), "{out}");
    assert_eq!(stdout(&cli(&dir, &["checkout", "1", "--range", "2:0"])), "");

    // Point get against an old version.
    let out = stdout(&cli(&dir, &["get", "1", "--version", "0"]));
    assert!(out.contains("beta") && !out.contains("beta-2"), "{out}");

    // History shows both values of key 1.
    let out = stdout(&cli(&dir, &["history", "1"]));
    assert!(out.contains("beta") && out.contains("beta-2"), "{out}");

    // Log lists three versions with parents.
    let out = stdout(&cli(&dir, &["log"]));
    assert!(out.contains("V0") && out.contains("V1") && out.contains("V2"));
    assert!(out.contains("parents [V1]"), "{out}");

    // Stats report sane numbers.
    let out = stdout(&cli(&dir, &["stats"]));
    assert!(out.contains("versions:            3"), "{out}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cli_rejects_bad_usage() {
    let dir = temp_dir("bad");
    // No command.
    let out = Command::new(env!("CARGO_BIN_EXE_rstore-cli"))
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Commit on an uninitialized store.
    let out = cli(&dir, &["commit", "--set", "0=x"]);
    assert!(!out.status.success());

    stdout(&cli(&dir, &["init", "--set", "0=x"]));
    // Deleting a missing key fails with a clean error.
    let out = cli(&dir, &["commit", "--del", "99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // A malformed number is a usage error, never replaced by a default
    // (the head as parent, the whole key range, two nodes) or left to
    // panic the cluster builder.
    for (args, message) in [
        (&["commit", "--parent", "x1", "--set", "2=z"][..], "--parent expects"),
        (&["checkout", "0", "--range", "a:b"], "--range expects"),
        (&["--nodes", "three", "log"], "--nodes expects"),
        (&["--nodes", "0", "log"], "--nodes expects"),
    ] {
        let out = cli(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(message), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn init_refuses_a_data_dir_that_holds_a_store() {
    // `init` on an existing store exits non-zero and writes nothing:
    // every version stays, with its records.
    let dir = temp_dir("reinit");
    stdout(&cli(&dir, &["init", "--set", "0=alpha", "--set", "1=beta"]));
    stdout(&cli(&dir, &["commit", "--set", "1=gamma"]));
    let before = files(&dir);

    let out = cli(&dir, &["init", "--set", "0=omega"]);
    assert!(!out.status.success(), "init overwrote a store");
    assert!(String::from_utf8_lossy(&out.stderr).contains("already holds data"));
    assert_eq!(files(&dir), before, "the refused init changed the data dir");

    let out = stdout(&cli(&dir, &["log"]));
    assert!(out.contains("V0") && out.contains("V1"), "{out}");
    let out = stdout(&cli(&dir, &["checkout", "0"]));
    assert!(out.contains("alpha") && out.contains("beta") && !out.contains("omega"), "{out}");
    let out = stdout(&cli(&dir, &["checkout", "1"]));
    assert!(out.contains("alpha") && out.contains("gamma") && !out.contains("beta"), "{out}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_store_opens_with_the_node_count_it_was_created_with() {
    // The node count routes every key, so it comes from the data dir:
    // a `--nodes` that disagrees exits non-zero and creates no file.
    let dir = temp_dir("nodes");
    stdout(&cli(&dir, &["init", "--set", "0=a", "--set", "1=b"]));
    stdout(&cli(&dir, &["commit", "--set", "1=c"]));
    let before = files(&dir);
    for n in ["1", "3"] {
        let out = cli(&dir, &["--nodes", n, "log"]);
        assert_eq!(out.status.code(), Some(1), "--nodes {n}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("2-node store"), "--nodes {n}");
        assert_eq!(files(&dir), before, "--nodes {n} changed the data dir");
    }
    for args in [&["log"][..], &["--nodes", "2", "log"]] {
        let out = stdout(&cli(&dir, args));
        assert!(out.contains("V0") && out.contains("V1"), "{args:?}: {out}");
    }

    // A 3-node store needs no --nodes after `init`.
    let three = temp_dir("nodes-three");
    stdout(&cli(&three, &["--nodes", "3", "init", "--set", "0=alpha", "--set", "1=beta"]));
    stdout(&cli(&three, &["commit", "--set", "1=gamma"]));
    let out = stdout(&cli(&three, &["checkout", "1"]));
    assert!(out.contains("alpha") && out.contains("gamma") && !out.contains("beta"), "{out}");

    // A dir with no node log holds no store, and is not created.
    let none = temp_dir("nodes-none");
    let out = cli(&none, &["log"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("holds no store"));
    assert!(!none.exists(), "a command on a missing store created its dir");
    for d in [dir, three] {
        let _ = std::fs::remove_dir_all(d);
    }
}
