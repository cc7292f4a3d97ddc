//! Records the toolchain and source revision for the result's host block.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");

    // A source checkout without git metadata reports "unknown".
    let sha = capture(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_GIT_SHA={sha}");

    println!("cargo:rerun-if-changed=build.rs");
    for head in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}
