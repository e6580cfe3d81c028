//! Facts about the host a result was measured on.

use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a command prints, or `unknown`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub struct Stamp {
    pub nproc: usize,
    pub rustc: String,
    /// Commit of the checkout the benchmark runs in; `unknown` outside a
    /// git repository.
    pub commit: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        let mut git = Command::new("git");
        git.args(["rev-parse", "HEAD"]);
        // Look no further up than the checkout itself.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_owned()))
        {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
        Stamp {
            nproc: nproc(),
            rustc: first_line(Command::new("rustc").arg("-V")),
            commit: first_line(&mut git),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            crate::json::quote(&self.rustc),
            crate::json::quote(&self.commit)
        )
    }
}
