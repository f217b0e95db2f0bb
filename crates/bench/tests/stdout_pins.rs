//! Tier-1 pins on what the figure and ablation binaries print: each
//! binary runs as a child process, in text and `--csv` mode, and the
//! `KeyHasher` digest of its stdout must equal the pin, as `smoke_gaps`
//! pins the grid artifact. The sweeps and `fig5_bounds` run on one trace
//! day; the grid-backed ablations and `fig5_bounds` run in text mode
//! again at `--threads 1`, and `ablation_window` on a cold and then a
//! warm `--cache-dir`, which must all print the same. Every printed
//! number, table row and label is covered; stderr (progress and
//! wall-clock lines) is not. A deliberate change to a binary's output
//! re-pins its digests and says so.

use std::process::Command;

use bml_grid::cache::KeyHasher;

/// Run `exe` with `args` and return the digest of its stdout.
fn stdout_digest(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{exe} did not start: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut digest = KeyHasher::new();
    digest.write(&out.stdout);
    digest.finish()
}

/// Pin `exe`'s stdout in text mode and with `--csv` appended to `args`.
fn assert_pinned(exe: &str, args: &[&str], text: &str, csv: &str) {
    let csv_args = [args, &["--csv"]].concat();
    let got = (stdout_digest(exe, args), stdout_digest(exe, &csv_args));
    assert_eq!(got, (text.to_owned(), csv.to_owned()), "{exe} {args:?}");
}

/// [`assert_pinned`], plus the text pin at `--threads 1`: the worker cap
/// changes wall-clock time, never what a binary prints.
fn assert_pinned_at_any_thread_count(exe: &str, args: &[&str], text: &str, csv: &str) {
    assert_pinned(exe, args, text, csv);
    let one_thread = [args, &["--threads", "1"]].concat();
    assert_eq!(
        stdout_digest(exe, &one_thread),
        text,
        "{exe} {one_thread:?}"
    );
}

#[test]
fn table1() {
    assert_pinned(
        env!("CARGO_BIN_EXE_table1"),
        &[],
        "fe232292d1de6c09664ea69921da61b8",
        "fa24e790e8ea49978791a3265a8fadbc",
    );
}

#[test]
fn fig1_candidates() {
    assert_pinned(
        env!("CARGO_BIN_EXE_fig1_candidates"),
        &[],
        "5717acd3cb577afe93482d0e2ad394e9",
        "5d0285a4743222661efa8a0cf5187bd9",
    );
}

#[test]
fn fig2_crossing() {
    assert_pinned(
        env!("CARGO_BIN_EXE_fig2_crossing"),
        &[],
        "dbb3291570a8e4983c52be873fb1c873",
        "7acbf04295a8a2846eb3125ae8fe931d",
    );
}

#[test]
fn fig3_profiles() {
    assert_pinned(
        env!("CARGO_BIN_EXE_fig3_profiles"),
        &[],
        "86da104221a47eb258540924b985b5c1",
        "273401a4bba45455328f1ba541eb545c",
    );
}

#[test]
fn fig4_combination() {
    assert_pinned(
        env!("CARGO_BIN_EXE_fig4_combination"),
        &[],
        "aa796bd70e54f7ef44f1258b615af616",
        "c0d2e0a3dd9ae68f14f4b7ae46df4544",
    );
}

#[test]
fn fig5_bounds() {
    assert_pinned_at_any_thread_count(
        env!("CARGO_BIN_EXE_fig5_bounds"),
        &["--days", "1"],
        "9395786290c1421ef54e72d0f2edd97d",
        "887760c978cde06266870f95abf96ad1",
    );
}

/// Pinned with both columns priced by the DP's power model (see the
/// binary's doc).
#[test]
fn ablation_packing() {
    assert_pinned(
        env!("CARGO_BIN_EXE_ablation_packing"),
        &[],
        "9bbe2cf14f7d60a9d3c51d0eaff2b1c8",
        "ebaa5205f54099ba1aeeab18d49de3e7",
    );
}

#[test]
fn ablation_onoff() {
    assert_pinned(
        env!("CARGO_BIN_EXE_ablation_onoff"),
        &["--days", "1"],
        "5b544dd40d333dc6848616b126b8ab93",
        "30240bf013292dfbf4de5919c6239874",
    );
}

/// The window, scheduler and prediction ablations run their sweep as a
/// grid whose cells carry their offline optimum, so each table ends in a
/// gap column. The noisy rows of `ablation_prediction` draw from their
/// grid cell's seed.
#[test]
fn ablation_window() {
    assert_pinned_at_any_thread_count(
        env!("CARGO_BIN_EXE_ablation_window"),
        &["--days", "1"],
        "81562f618e6a59df6edb48f7e8a13ad0",
        "a49f1086d9a1ebd14d7d9cea5b399794",
    );
}

#[test]
fn ablation_prediction() {
    assert_pinned_at_any_thread_count(
        env!("CARGO_BIN_EXE_ablation_prediction"),
        &["--days", "1"],
        "7988b12e5099cab3c40b205c55ea7f62",
        "d71700c128f78e7150a5d39dde71cfca",
    );
}

#[test]
fn ablation_scheduler() {
    assert_pinned_at_any_thread_count(
        env!("CARGO_BIN_EXE_ablation_scheduler"),
        &["--days", "1"],
        "f09bc4247bea67a15f16a67bb63c481c",
        "60c67f6511d7d577d156ebcf123d93fe",
    );
}

/// `--window` reaches the scheduler ablation's cells: both schedulers
/// then look 189 s ahead instead of the paper's 378 s.
#[test]
fn ablation_scheduler_honors_window() {
    let exe = env!("CARGO_BIN_EXE_ablation_scheduler");
    let digest = stdout_digest(exe, &["--days", "1", "--window", "189"]);
    assert_eq!(digest, "68be71e30a4bd2995e6144de8aed8170");
    assert_ne!(digest, stdout_digest(exe, &["--days", "1"]));
}

/// `--cache-dir` reaches the grid-backed ablations: the first run stores
/// the sweep's one optimum, and a second run on the warm cache prints the
/// same table.
#[test]
fn ablation_window_honors_cache_dir() {
    let exe = env!("CARGO_BIN_EXE_ablation_window");
    let dir = std::env::temp_dir().join("bml_ablation_window_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let args = ["--days", "1", "--cache-dir", dir.to_str().unwrap()];
    let pin = "81562f618e6a59df6edb48f7e8a13ad0";
    assert_eq!(stdout_digest(exe, &args), pin, "cold cache");
    let optima = std::fs::read_dir(dir.join("opt")).unwrap().count();
    assert_eq!(optima, 1, "one trace, catalog and split: one optimum");
    assert_eq!(stdout_digest(exe, &args), pin, "warm cache");
    let _ = std::fs::remove_dir_all(&dir);
}
