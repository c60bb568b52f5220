//! Result lines, the machine envelope and the history of earlier runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One reported metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric { name, unit, value, samples }
}

/// The final line: the run's machine-readable result.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Field from `/proc/self/status` in MiB (`0.0` where unavailable).
fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_mib("VmHWM:")
}

/// Anonymous resident memory of this process (`RssAnon`).
pub fn rss_anon_mib() -> f64 {
    proc_status_mib("RssAnon:")
}

/// Total and steal jiffies of the whole machine from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// First line of a command's standard output, or `n/a`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "n/a".to_string())
}

/// nproc, CPU model, rustc and git revision.
pub fn machine_line(nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find(|l| l.starts_with("model name")).map(|l| l.to_string()))
        .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        .unwrap_or_else(|| "n/a".to_string());
    format!(
        "machine: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git_rev={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"])
    )
}

/// Appends this run's end-to-end metrics to the history file.
pub fn append_history(
    path: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    metrics: &[Metric],
) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for m in metrics {
        writeln!(file, "{workload}\t{seed}\t{}\t{}\t{}", u8::from(traced), m.name, m.value)?;
    }
    Ok(())
}

/// Across every recorded run of `workload`: min, median and max of each
/// end-to-end metric over untraced runs, and the tracing overhead (traced
/// median minus untraced median) where both kinds of run exist.
pub fn envelope_lines(path: &Path, workload: &str, metrics: &[Metric]) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut runs: BTreeMap<(&str, bool), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 || f[0] != workload {
            continue;
        }
        let Ok(v) = f[4].parse::<f64>() else { continue };
        runs.entry((f[3], f[2] == "1")).or_default().push(v);
    }
    let mut lines = vec![format!(
        "envelope over recorded runs of {workload}: {} untraced, {} traced",
        runs.get(&(metrics[0].name, false)).map_or(0, Vec::len),
        runs.get(&(metrics[0].name, true)).map_or(0, Vec::len),
    )];
    for m in metrics {
        let plain = runs.get(&(m.name, false)).cloned().unwrap_or_default();
        let traced = runs.get(&(m.name, true)).cloned().unwrap_or_default();
        let mut line = format!("  {:<20}", m.name);
        if plain.is_empty() {
            line.push_str(" untraced: none");
        } else {
            let s = crate::load::sorted(plain);
            line.push_str(&format!(
                " min {:.4} median {:.4} max {:.4} {}",
                s[0],
                median(&s),
                s[s.len() - 1],
                m.unit
            ));
            if !traced.is_empty() {
                let t = crate::load::sorted(traced);
                line.push_str(&format!(
                    " | tracing overhead {:+.4} {}",
                    median(&t) - median(&s),
                    m.unit
                ));
            }
        }
        lines.push(line);
    }
    lines
}

/// Median of sorted values (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
