//! Stamps the git revision and the compiler version into the binary, so
//! every result records what produced it. Both degrade to "unknown"
//! when the tool is missing or the source tree is not a git checkout.

use std::path::PathBuf;
use std::process::Command;

fn capture(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo_root = manifest.parent().unwrap_or(&manifest).to_path_buf();
    // Keep git's repository discovery inside the source tree.
    let ceiling = repo_root.parent().unwrap_or(&repo_root).to_path_buf();
    let rev = capture(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(&repo_root)
            .env("GIT_CEILING_DIRECTORIES", &ceiling),
    );
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = capture(Command::new(rustc).arg("--version"));
    println!("cargo:rustc-env=E2E_GIT_REV={rev}");
    println!("cargo:rustc-env=E2E_RUSTC={rustc_version}");
    println!("cargo:rerun-if-changed=build.rs");
}
