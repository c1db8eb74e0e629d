//! Self-run tests: the linter must pass over its own workspace, the
//! report must be byte-stable across runs — the property the CI gate
//! checks with `cmp` on two consecutive `cloudtrain lint` outputs — and
//! every crate must inherit the compiler-stated rules.

use std::path::{Path, PathBuf};

use cloudtrain_lint::{manifest_value, run_workspace};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let report = run_workspace(&workspace_root()).expect("lint run succeeds");
    assert!(report.files > 0, "walker found no Rust sources");
    assert!(report.crates > 0, "walker found no crates");
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report.table()
    );
}

/// The compiler-stated rules (`unsafe_code = "forbid"`, the reasoned
/// `#[expect]` waiver form) live in the root `[workspace.lints]`; a crate
/// reaches them only through `[lints] workspace = true`.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let crates = workspace_root().join("crates");
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    manifests.sort();
    assert!(manifests.len() > 1, "found no crate manifests");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|p| {
            let text = std::fs::read_to_string(p).expect("manifest is readable");
            manifest_value(&text, "lints", "workspace").as_deref() != Some("true")
        })
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "crates without `[lints] workspace = true`: {missing:?}"
    );
}

#[test]
fn report_is_byte_stable_across_runs() {
    let root = workspace_root();
    let a = run_workspace(&root).expect("first run succeeds");
    let b = run_workspace(&root).expect("second run succeeds");
    assert_eq!(a.table(), b.table(), "human table drifted between runs");
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "JSONL report drifted between runs"
    );
}

/// `excluded_path_prefixes` removes whole subtrees from the walk: a file
/// with an obvious `panic_free` violation under an excluded prefix
/// produces no findings, while the same tree with no exclusions does.
/// The default config excludes the conformance seed corpus so checked-in
/// case data can never perturb lint output.
#[test]
fn excluded_path_prefixes_skip_subtrees() {
    use cloudtrain_lint::{run_workspace_with, Config};
    use std::fs;

    let root = std::env::temp_dir().join(format!("cloudtrain-lint-excl-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    let gen = src.join("corpus_gen");
    fs::create_dir_all(&gen).expect("mkdir");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write");
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"cloudtrain-demo\"\n",
    )
    .expect("write");
    fs::write(
        src.join("lib.rs"),
        "#![warn(clippy::unwrap_used)]\npub fn ok() {}\n",
    )
    .expect("write");
    fs::write(gen.join("bad.rs"), "pub fn t(x: &[u8]) -> u8 { x[0] }\n").expect("write");

    let mut config = Config::default();
    assert!(
        config
            .excluded_path_prefixes
            .contains(&"crates/conformance/corpus/".to_string()),
        "default config must exclude the conformance seed corpus"
    );

    config.excluded_path_prefixes = vec!["crates/demo/src/corpus_gen/".to_string()];
    let excluded = run_workspace_with(&root, &config).expect("lint run succeeds");
    assert_eq!(excluded.files, 1, "only lib.rs should be walked");
    assert!(excluded.clean(), "excluded subtree still produced findings");

    config.excluded_path_prefixes.clear();
    let included = run_workspace_with(&root, &config).expect("lint run succeeds");
    assert_eq!(included.files, 2, "both files should be walked");
    assert!(
        !included.findings.is_empty(),
        "panic_free violation should be reported without the exclusion"
    );

    let _ = fs::remove_dir_all(&root);
}
