//! Shared pieces of the benchmark driver: seeded request mixes,
//! order-independent result digests, sample statistics, peak-memory
//! readings, worker measurements, the in-memory span recorder and the
//! result lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use panda::prelude::*;

/// Requests slower than this count as failed.  The TCP client also uses it
/// as its socket read timeout, so a hung server request fails instead of
/// stalling the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// An untraced run splits its measured phase over this many fresh worker
/// processes, each setting up once: `setup_s` is the median of their
/// set-ups, and the per-process variation of a run (hash seeds, memory
/// layout, the CPU it runs on) averages over them.  Even, so the workers of
/// a library workload split evenly over two CPUs.
pub const WORKERS: u64 = 4;

/// A small deterministic generator (SplitMix64) for request mixes, so the
/// request stream depends on `--seed` alone.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64, stream: u64) -> Mix {
        Mix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Draws indices `0..n` in seeded shuffled rounds, each round holding every
/// index once: a run's mix then has the same proportions for every seed,
/// so its latency percentiles do not jump between request kinds.
pub struct Rounds {
    mix: Mix,
    n: usize,
    round: Vec<usize>,
}

impl Rounds {
    pub fn new(mix: Mix, n: usize) -> Rounds {
        assert!(n > 0, "rounds over an empty set");
        Rounds { mix, n, round: Vec::new() }
    }

    pub fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.round.swap(i, self.mix.below(i as u64 + 1) as usize);
            }
        }
        self.round.pop().expect("refilled above")
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-independent fingerprint of a result: its row count plus the
/// wrapping sum of a per-row hash.  Two results with the same rows in any
/// order share a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add_row(&mut self, row: impl IntoIterator<Item = u64>) {
        let mut h = 0x243F_6A88_85A3_08D3_u64;
        for v in row {
            h = mix64(h ^ v);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix64(h));
    }

    /// The digest of a library result, its columns taken in the order of
    /// the query's free variables (the order the server prints them in).
    pub fn of_result(query: &ConjunctiveQuery, result: &VarRelation) -> Digest {
        let cols: Vec<usize> = query
            .free_vars()
            .to_vec()
            .iter()
            .map(|&v| result.column_of(v).expect("every free variable is a result column"))
            .collect();
        let mut d = Digest::default();
        for row in result.rel.iter() {
            d.add_row(cols.iter().map(|&c| row[c]));
        }
        d
    }

    /// The digest of text lines (EXPLAIN bodies).
    pub fn of_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Digest {
        let mut d = Digest::default();
        for (i, line) in lines.into_iter().enumerate() {
            d.add_row(std::iter::once(i as u64).chain(line.bytes().map(u64::from)));
        }
        d
    }

    pub fn render(self) -> String {
        format!("{}:{:016x}", self.rows, self.sum)
    }
}

/// The reference of one read, computed before the timed phase with a
/// different strategy (`GenericJoin`) than the one the read runs.
pub fn reference_digest(query: &ConjunctiveQuery, db: &Database) -> Digest {
    let result = Panda::new(query.clone())
        .try_evaluate_with(db, EvaluationStrategy::GenericJoin)
        .expect("GenericJoin runs on every query");
    Digest::of_result(query, &result)
}

/// Sample statistics over measured values.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by linear interpolation between closest ranks; 0
    /// for an empty sample (a layer that did no work on this workload).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Read and write tallies of one measured phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub reads: Samples,
    pub writes: Samples,
    /// Requests that completed (reads, writes and other commands).
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were wrong results (as opposed to errors or timeouts).
    pub wrong: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.reads.0.extend(other.reads.0);
        self.writes.0.extend(other.writes.0);
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Records a request that is neither a read nor a write.
    pub fn record_other(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.ops += 1;
        } else {
            self.failed += 1;
            self.wrong += 1;
        }
    }

    /// Records a verified read or write; one slower than the request
    /// timeout counts as failed.
    pub fn record(&mut self, write: bool, elapsed: Duration, ok: bool) {
        self.attempted += 1;
        if !ok || elapsed > REQUEST_TIMEOUT {
            self.failed += 1;
            self.wrong += u64::from(!ok);
            return;
        }
        self.ops += 1;
        let target = if write { &mut self.writes } else { &mut self.reads };
        target.push(ms(elapsed));
    }
}

/// One recorded span: a timed call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans held in memory for the whole run and written out once at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the root span of a new request.
    pub fn request(&mut self, id: u64) -> usize {
        self.request = id;
        self.begin("request")
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn duration_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Per request, the summed duration of the spans with any of `names`,
    /// in ms; requests without such spans are left out.
    pub fn per_request_ms(&self, names: &[&str]) -> Samples {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(s.request).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        Samples(sums.into_values().collect())
    }

    /// Per request, the self time of every layer (a span's duration minus
    /// the part its children cover), in ms.  The layer is the span name up
    /// to its first `.`; root `request` spans belong to no layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, Samples> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some((layer, _)) = s.name.split_once('.') else { continue };
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            *per.entry(layer).or_default().entry(s.request).or_default() += own;
        }
        per.into_iter().map(|(layer, m)| (layer, Samples(m.into_values().collect()))).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// The metrics of one run, in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// One worker's measurements, passed to the parent process as text.
#[derive(Debug, Default)]
pub struct Measured {
    pub tally: Tally,
    pub phase: Duration,
    pub setup_s: f64,
    pub rss_mb: f64,
}

impl Measured {
    pub fn render(&self) -> String {
        let t = &self.tally;
        let mut out = format!(
            "ops {} {} {} {}\nphase {}\nsetup {}\nrss {}\n",
            t.ops,
            t.attempted,
            t.failed,
            t.wrong,
            self.phase.as_secs_f64(),
            self.setup_s,
            self.rss_mb
        );
        for v in &t.reads.0 {
            let _ = writeln!(out, "read {v}");
        }
        for v in &t.writes.0 {
            let _ = writeln!(out, "write {v}");
        }
        out
    }

    pub fn parse(text: &str) -> Option<Measured> {
        let mut m = Measured::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ')?;
            let nums: Vec<f64> = rest.split(' ').map(str::parse).collect::<Result<_, _>>().ok()?;
            match (key, nums.as_slice()) {
                ("ops", &[ops, attempted, failed, wrong]) => {
                    m.tally.ops = ops as u64;
                    m.tally.attempted = attempted as u64;
                    m.tally.failed = failed as u64;
                    m.tally.wrong = wrong as u64;
                }
                ("phase", &[s]) => m.phase = Duration::from_secs_f64(s),
                ("setup", &[s]) => m.setup_s = s,
                ("rss", &[mb]) => m.rss_mb = mb,
                ("read", &[v]) => m.tally.reads.push(v),
                ("write", &[v]) => m.tally.writes.push(v),
                _ => return None,
            }
        }
        Some(m)
    }
}

/// The end-to-end metrics of the workers of a run: their samples pooled,
/// their phases summed, the median set-up and the largest peak memory.
pub fn end_to_end(parts: Vec<Measured>) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut phase = Duration::ZERO;
    let mut setup = Samples::default();
    let mut rss_mb = 0.0_f64;
    for part in parts {
        tally.absorb(part.tally);
        phase += part.phase;
        setup.push(part.setup_s);
        rss_mb = rss_mb.max(part.rss_mb);
    }
    let mut m = Metrics::default();
    m.put("setup_s", setup.median(), "s");
    m.put("ops_per_s", tally.ops as f64 / phase.as_secs_f64(), "1/s");
    m.put("read_p50_ms", tally.reads.quantile(0.5), "ms");
    m.put("read_p90_ms", tally.reads.quantile(0.9), "ms");
    m.put("write_p50_ms", tally.writes.quantile(0.5), "ms");
    m.put("write_p90_ms", tally.writes.quantile(0.9), "ms");
    m.put("peak_rss_mb", rss_mb, "MiB");
    (tally, m)
}

/// Prints the human-readable report and, as the last line, the JSON result.
pub fn print_result(tally: &Tally, metrics: &Metrics) {
    let error_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "reads={} writes={} attempted={} failed={} wrong={} error_frac={error_frac} ratio",
        tally.reads.len(),
        tally.writes.len(),
        tally.attempted,
        tally.failed,
        tally.wrong
    );
    for (name, value, unit) in &metrics.0 {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
