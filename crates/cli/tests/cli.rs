//! CLI smoke tests: drive the `rl-planner` binary end to end.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rl-planner"))
}

#[test]
fn list_prints_experiments_and_datasets() {
    let out = bin().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for id in ["fig1", "table9", "table16", "fig2"] {
        assert!(stdout.contains(id), "missing {id} in: {stdout}");
    }
    assert!(stdout.contains("ds-ct"));
}

#[test]
fn plan_subcommand_produces_a_plan() {
    let out = bin()
        .args([
            "plan",
            "--dataset",
            "ds-ct",
            "--episodes",
            "60",
            "--seed",
            "1",
        ])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Exit 0 = clean plan, exit 2 = plan emitted but violates a hard
    // constraint; both mean the planner itself worked, and the code
    // must agree with what stdout reports.
    let code = out.status.code().expect("no exit code");
    assert!(
        code == 0 || code == 2,
        "exit {code}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        code == 2,
        stdout.contains("violation:"),
        "exit code must match stdout: exit {code}, stdout: {stdout}"
    );
    assert!(stdout.contains("plan:"), "{stdout}");
    assert!(stdout.contains("score:"), "{stdout}");
    assert!(
        stdout.contains("CS 675"),
        "starts from the default start: {stdout}"
    );
}

#[test]
fn help_documents_the_exit_code_table() {
    let out = bin().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("exit codes:"), "{stdout}");
    assert!(stdout.contains("violates a hard constraint"), "{stdout}");
    assert!(stdout.contains("serve"), "{stdout}");
}

#[test]
fn train_with_zero_second_budget_still_saves_a_policy() {
    let dir = std::env::temp_dir().join(format!("rl-planner-cli-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy = dir.join("budget.qpol");
    let out = bin()
        .args([
            "train",
            "--dataset",
            "ds-ct",
            "--episodes",
            "5000",
            "--max-seconds",
            "0",
            "--out",
            policy.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The budget stopped training immediately, but the run still
    // completed and persisted what it had.
    assert!(policy.exists());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("trained 0 episodes"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("training budget expired"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_then_recommend_via_policy_file() {
    let dir = std::env::temp_dir().join(format!("rl-planner-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy = dir.join("p.qpol");
    let out = bin()
        .args([
            "train",
            "--dataset",
            "nyc",
            "--out",
            policy.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(policy.exists());

    let out = bin()
        .args([
            "recommend",
            "--dataset",
            "nyc",
            "--policy",
            policy.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("score:"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn datagen_writes_dataset_json() {
    let dir = std::env::temp_dir().join(format!("rl-planner-cli-dg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("univ2.json");
    let out = bin()
        .args([
            "datagen",
            "--dataset",
            "univ2",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read_to_string(&file).unwrap();
    assert!(data.contains("STATS 263"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_arguments_fail_with_usage() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = bin()
        .args(["plan", "--dataset", "nope"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    let out = bin().args(["exp", "table99"]).output().expect("spawn");
    assert!(!out.status.success());

    // `bench` has one mode, the `--load` storm.
    let out = bin().arg("bench").output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bench needs --load"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A misspelt flag must not be silently ignored: `--episode 50`
    // would otherwise train with the default episode count.
    for (args, bad) in [
        (
            &["plan", "--dataset", "ds-ct", "--episode", "50"][..],
            "--episode",
        ),
        (&["gold", "--dataset", "ds-ct", "--resume"], "--resume"),
        (&["bench", "--load", "--requests", "10"], "--requests"),
    ] {
        let out = bin().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown flag {bad}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran: {args:?}");
    }
}

#[test]
fn gold_subcommand_prints_perfect_course_plan() {
    let out = bin()
        .args(["gold", "--dataset", "ds-ct"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("score:     10"), "{stdout}");
}

#[test]
fn compare_subcommand_lists_all_methods() {
    let out = bin()
        .args(["compare", "--dataset", "univ2", "--runs", "2"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for m in ["RL-Planner", "EDA", "OMEGA", "Gold"] {
        assert!(stdout.contains(m), "missing {m}: {stdout}");
    }
}
