//! What the process can learn about the machine it runs on: the `host` block
//! stamped on every result file, and the process's peak memory.

use std::process::Command;

use crate::json::Value;

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The trimmed standard output of a command, or "unknown" if it cannot run.
/// `output()` waits for the child, so none outlives this call.
fn ask(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `{cores, cpu_model, rustc, commit}`.  Two files whose hosts differ in
/// cores or CPU model are not comparable.
pub fn block() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::obj([
        ("cores", Value::count(cores)),
        ("cpu_model", Value::Str(cpu_model)),
        ("rustc", Value::Str(ask("rustc", &["--version"]))),
        (
            "commit",
            Value::Str(ask("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_names_the_four_fields() {
        let host = block();
        for key in ["cores", "cpu_model", "rustc", "commit"] {
            assert!(host.get(key).is_some(), "{key}");
        }
        assert_eq!(ask("rtbench-no-such-program", &[]), "unknown");
    }
}
