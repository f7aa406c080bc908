//! The benchmark binary: runs one workload for one seed and prints its
//! metrics, the last line being the JSON result.
//!
//! ```text
//! panda-perfbench --workload <cold-plan|exec-heavy|serve-mixed> --seed <n>
//!                 --seconds <s> --trace <0|1> [--server <panda-server binary>]
//!                 [--trace-out <spans.jsonl>]
//! ```
//!
//! References are computed by a child process of the same binary
//! (`--references`), so neither their time nor their memory shows in the
//! measured processes.  An untraced run measures in [`WORKERS`] further
//! children (`--worker <i>`), one after the other, each with a share of
//! `--seconds`, and pools their samples; a traced run measures in this
//! process.

mod common;
mod layers;
mod library;
mod serve_mixed;

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::process::{Command, ExitCode, Stdio};

use common::{Digest, Measured, Metrics, Tally, WORKERS};
use library::Kind;

/// The program's knobs, removed so every run measures its defaults:
/// sequential engine, row-major layout, plan cache on.
pub const PANDA_ENV: [&str; 3] = ["PANDA_THREADS", "PANDA_LAYOUT", "PANDA_PLAN_CACHE"];

#[derive(Debug, Clone, Copy)]
enum Workload {
    Library(Kind),
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cold-plan" => Ok(Workload::Library(Kind::ColdPlan)),
            "exec-heavy" => Ok(Workload::Library(Kind::ExecHeavy)),
            "serve-mixed" => Ok(Workload::ServeMixed),
            other => Err(format!("unknown workload {other}")),
        }
    }

    fn describe(self) -> String {
        match self {
            Workload::Library(kind) => library::describe(kind).to_string(),
            Workload::ServeMixed => serve_mixed::describe(),
        }
    }

    fn references(self, seed: u64) -> BTreeMap<String, Digest> {
        match self {
            Workload::Library(kind) => library::references(kind, seed),
            Workload::ServeMixed => serve_mixed::references(),
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<String>,
    trace_out: Option<String>,
    references: bool,
    worker: Option<u64>,
}

impl Args {
    fn server(&self) -> Result<&str, String> {
        self.server.as_deref().ok_or_else(|| "serve-mixed needs --server".to_string())
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ServeMixed,
        workload_name: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: None,
        trace_out: None,
        references: false,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--references" {
            args.references = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value)?;
                args.workload_name = value;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--server" => args.server = Some(value),
            "--trace-out" => args.trace_out = Some(value),
            "--worker" => args.worker = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload_name.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn render_references(refs: &BTreeMap<String, Digest>) -> String {
    refs.iter().map(|(key, digest)| format!("{key}\t{}\n", digest.render())).collect()
}

fn parse_references(text: &str) -> Result<BTreeMap<String, Digest>, String> {
    let mut refs = BTreeMap::new();
    for line in text.lines() {
        let parsed = line.split_once('\t').and_then(|(key, digest)| {
            let (rows, sum) = digest.split_once(':')?;
            let digest =
                Digest { rows: rows.parse().ok()?, sum: u64::from_str_radix(sum, 16).ok()? };
            Some((key.to_string(), digest))
        });
        let (key, digest) = parsed.ok_or_else(|| format!("bad reference line `{line}`"))?;
        refs.insert(key, digest);
    }
    Ok(refs)
}

/// Runs this binary again with `args`, `input` on its stdin, and returns
/// its stdout.  With `cpu`, the child is pinned to that CPU through
/// `taskset` when it is installed.
fn child(args: &[String], input: &str, cpu: Option<usize>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let pinned = cpu.and_then(|cpu| {
        Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .arg(&exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .ok()
    });
    let mut proc = match pinned {
        Some(proc) => proc,
        None => Command::new(&exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("child process: {e}"))?,
    };
    let mut stdin = proc.stdin.take().expect("piped stdin");
    let written = stdin.write_all(input.as_bytes());
    drop(stdin);
    let out = proc.wait_with_output().map_err(|e| format!("child process: {e}"))?;
    written.map_err(|e| format!("child process stdin: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process {args:?} failed"));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// One worker's share of an untraced run, in this process, with the
/// references read from stdin.
fn worker(args: &Args, index: u64) -> Result<Measured, String> {
    let mut text = String::new();
    std::io::stdin().read_to_string(&mut text).map_err(|e| e.to_string())?;
    let refs = parse_references(&text)?;
    Ok(match args.workload {
        Workload::Library(kind) => {
            library::run_untraced(kind, args.seed, args.seconds, index, &refs)
        }
        Workload::ServeMixed => {
            serve_mixed::run_untraced(args.server()?, args.seed, args.seconds, index, &refs)?
        }
    })
}

fn traced(args: &Args, refs: &BTreeMap<String, Digest>) -> Result<(Tally, Metrics), String> {
    let trace_out = args.trace_out.as_deref().ok_or("--trace 1 needs --trace-out")?;
    Ok(match args.workload {
        Workload::Library(kind) => {
            library::run_traced(kind, args.seed, args.seconds, trace_out, refs)
        }
        Workload::ServeMixed => {
            serve_mixed::run_traced(args.server()?, args.seed, args.seconds, trace_out, refs)?
        }
    })
}

/// An untraced run: the workers one after the other, their samples pooled.
fn untraced(args: &Args, refs_text: &str) -> Result<(Tally, Metrics), String> {
    let mut base = vec![
        "--workload".to_string(),
        args.workload_name.clone(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        (args.seconds / WORKERS as f64).to_string(),
    ];
    if let Some(server) = &args.server {
        base.extend(["--server".to_string(), server.clone()]);
    }
    // A single-threaded worker runs as fast as the CPU it lands on, and
    // the CPUs of a shared machine need not run equally fast: the library
    // workloads' workers take the allowed CPUs in turn, so every run spends
    // the same share of its time on each.  `serve-mixed` uses them all.
    let cpus = match args.workload {
        Workload::Library(_) => allowed_cpus(),
        Workload::ServeMixed => Vec::new(),
    };
    let mut parts = Vec::new();
    for index in 0..WORKERS {
        let cpu = (cpus.len() >= 2).then(|| cpus[index as usize % cpus.len()]);
        let worker = [&base[..], &["--worker".to_string(), index.to_string()]].concat();
        let out = child(&worker, refs_text, cpu)?;
        parts.push(Measured::parse(&out).ok_or("bad worker output")?);
    }
    Ok(common::end_to_end(parts))
}

fn run(args: &Args) -> Result<(), String> {
    if args.references {
        print!("{}", render_references(&args.workload.references(args.seed)));
        return Ok(());
    }
    if let Some(index) = args.worker {
        print!("{}", worker(args, index)?.render());
        return Ok(());
    }
    let refs_text = child(
        &[
            "--references".to_string(),
            "--workload".to_string(),
            args.workload_name.clone(),
            "--seed".to_string(),
            args.seed.to_string(),
        ],
        "",
        None,
    )?;
    let (tally, metrics) = if args.trace {
        traced(args, &parse_references(&refs_text)?)?
    } else {
        untraced(args, &refs_text)?
    };
    println!(
        "workload={} seed={} inputs: {}",
        args.workload_name,
        args.seed,
        args.workload.describe()
    );
    common::print_result(&tally, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    for var in PANDA_ENV {
        std::env::remove_var(var);
    }
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("panda-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
