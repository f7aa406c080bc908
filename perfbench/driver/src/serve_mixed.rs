//! The `serve-mixed` workload: a closed loop of two TCP connections to a
//! `panda-server` child, each waiting for every reply before sending its
//! next request.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use panda::prelude::*;
use panda::server::Session;
use panda::workloads::{double_star_db, zipf_graph_db};

use crate::common::{
    ms, peak_rss_mb, Digest, Measured, Metrics, Mix, Rounds, Tally, Tracer, REQUEST_TIMEOUT,
};
use crate::layers::LayerMetrics;
use crate::PANDA_ENV;

const CLIENTS: usize = 2;

/// Two families of relations.  `R,S,T,U` hold a Zipf graph, `A,B,C,D` the
/// double star.
const RELATIONS: [&str; 8] = ["R", "S", "T", "U", "A", "B", "C", "D"];
const ZIPF_RELATIONS: usize = 4;
const VERTICES: u64 = 1000;
const EDGES: usize = 1000;
const STAR_HALF: u64 = 64;
/// The seed of the Zipf graph, the same in every run.  Two planner defects
/// make a query's cost over a Zipf graph depend on the graph: the pick
/// between the 4-cycle's two static decompositions, whose widths tie to
/// the fourth digit while their costs differ up to 50x, and a ~43 ms path
/// that about half of the graphs send the full 3-path down.  A graph drawn
/// per run would make latencies bimodal across runs; this graph shows both
/// defects in every run (the 4-cycle takes ~53 ms, the full 3-path ~44 ms).
/// `--seed` drives the request streams.
const ZIPF_SEED: u64 = 3;

/// The `QUERY` templates: the 4-cycle, a renamed and an atom-permuted
/// isomorph of it (all three share one plan-cache slot) and the Boolean
/// 4-cycle on the double star, where the plan is adaptive; the triangle,
/// paths and the 4-cycle on the Zipf graph.
const QUERIES: [&str; 9] = [
    "Q(X,Y) :- A(X,Y), B(Y,Z), C(Z,W), D(W,X)",
    "Q(P,Q) :- A(P,Q), B(Q,R), C(R,S), D(S,P)",
    "Q(X,Y) :- D(W,X), C(Z,W), B(Y,Z), A(X,Y)",
    "Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)",
    "P(A,C) :- R(A,B), S(B,C)",
    "P(A,B,C,D) :- R(A,B), S(B,C), T(C,D)",
    "Qbool() :- A(X,Y), B(Y,Z), C(Z,W), D(W,X)",
    "P(A,D) :- S(A,B), T(B,C), U(C,D)",
    "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)",
];
/// `EXPLAIN` targets, as indices into [`QUERIES`].
const EXPLAINS: [usize; 2] = [0, 3];

/// One round of a client's mix (46 ops): 4 `LOAD`, 2 `STATS GLOBAL`,
/// 4 `EXPLAIN`, 36 `QUERY`.  Its 40 reads are placed so that each latency
/// percentile falls in the middle of one request kind's band, not at the
/// edge between two: 12 fast reads (EXPLAIN, triangle, paths, Boolean
/// 4-cycle) take the lowest 30% of the ranks, the 16 double-star 4-cycles
/// and their isomorphs the middle 40% (the median), the 4 full 3-paths the
/// next 10% and the 8 Zipf 4-cycles, the slowest, the top 20% (the p90).
#[rustfmt::skip]
const ROUND: &[Slot] = &[
    Slot::Load, Slot::Load, Slot::Load, Slot::Load,
    Slot::Stats, Slot::Stats,
    Slot::Explain(0), Slot::Explain(0), Slot::Explain(3), Slot::Explain(3),
    Slot::Query(3), Slot::Query(3),
    Slot::Query(4), Slot::Query(4),
    Slot::Query(6), Slot::Query(6),
    Slot::Query(7), Slot::Query(7),
    Slot::Query(0), Slot::Query(0), Slot::Query(0), Slot::Query(0), Slot::Query(0),
    Slot::Query(0),
    Slot::Query(1), Slot::Query(1), Slot::Query(1), Slot::Query(1), Slot::Query(1),
    Slot::Query(2), Slot::Query(2), Slot::Query(2), Slot::Query(2), Slot::Query(2),
    Slot::Query(5), Slot::Query(5), Slot::Query(5), Slot::Query(5),
    Slot::Query(8), Slot::Query(8), Slot::Query(8), Slot::Query(8),
    Slot::Query(8), Slot::Query(8), Slot::Query(8), Slot::Query(8),
];

#[derive(Debug, Clone, Copy)]
enum Slot {
    Query(usize),
    Explain(usize),
    Stats,
    Load,
}

pub fn describe() -> String {
    format!(
        "{CLIENTS} closed-loop TCP clients; per session R,S,T,U Zipf(1.1) n={VERTICES} \
         m={EDGES} (seed {ZIPF_SEED}) and A,B,C,D double_star_db({STAR_HALF}); mix 36 QUERY \
         over {} templates, 4 EXPLAIN, 2 STATS GLOBAL, 4 LOAD reloading one relation per 46",
        QUERIES.len()
    )
}

/// Every relation's rows, as a session loads them.
struct Data(Vec<Vec<[u64; 2]>>);

impl Data {
    fn generate() -> Data {
        let zipf = zipf_graph_db(&RELATIONS[..ZIPF_RELATIONS], VERTICES, EDGES, 1.1, ZIPF_SEED);
        let star = double_star_db(STAR_HALF);
        let rows = |db: &Database, name: &str| -> Vec<[u64; 2]> {
            db.relation(name).expect("generated relation").iter().map(|r| [r[0], r[1]]).collect()
        };
        let mut relations: Vec<Vec<[u64; 2]>> =
            RELATIONS[..ZIPF_RELATIONS].iter().map(|name| rows(&zipf, name)).collect();
        relations.resize(RELATIONS.len(), rows(&star, "R"));
        Data(relations)
    }

    fn database(&self) -> Database {
        let mut db = Database::new();
        for (name, rows) in RELATIONS.iter().zip(&self.0) {
            db.insert(*name, Relation::from_rows(2, rows.iter().copied()).deduped());
        }
        db
    }

    fn load_lines(&self, rel: usize) -> Vec<String> {
        let rows = &self.0[rel];
        let mut lines = Vec::with_capacity(rows.len() + 2);
        lines.push(format!("LOAD {} 2", RELATIONS[rel]));
        lines.extend(rows.iter().map(|[a, b]| format!("{a} {b}")));
        lines.push("END".to_string());
        lines
    }
}

fn query_key(template: usize) -> String {
    format!("QUERY {}", QUERIES[template])
}

fn explain_key(template: usize) -> String {
    format!("EXPLAIN {}", QUERIES[template])
}

fn loaded_key(rel: usize) -> String {
    format!("LOAD {}", RELATIONS[rel])
}

/// References for every template: rows by `GenericJoin`, EXPLAIN text from
/// a cold plan, and the deduplicated size of every relation.
pub fn references() -> BTreeMap<String, Digest> {
    let data = Data::generate();
    let db = data.database();
    let mut refs = BTreeMap::new();
    for (t, text) in QUERIES.iter().enumerate() {
        let query = parse_query(text).expect("benchmark queries parse");
        refs.insert(query_key(t), crate::common::reference_digest(&query, &db));
    }
    for t in EXPLAINS {
        plan_cache_clear();
        let query = parse_query(QUERIES[t]).expect("benchmark queries parse");
        let text = Panda::new(query).explain(&db).expect("benchmark queries plan").to_string();
        refs.insert(explain_key(t), Digest::of_lines(text.lines()));
    }
    for (rel, name) in RELATIONS.iter().enumerate() {
        let rows = db.relation(name).expect("loaded relation").len() as u64;
        refs.insert(loaded_key(rel), Digest { rows, sum: 0 });
    }
    refs
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy)]
enum Req {
    Query(usize),
    Explain(usize),
    Stats,
    /// Reload one relation with its rows (the same rows: the reload bumps
    /// the statistics epoch and drops the relation's index caches).
    Load(usize),
}

impl Req {
    fn lines(self, data: &Data) -> Vec<String> {
        match self {
            Req::Query(t) => vec![query_key(t)],
            Req::Explain(t) => vec![explain_key(t)],
            Req::Stats => vec!["STATS GLOBAL".to_string()],
            Req::Load(rel) => data.load_lines(rel),
        }
    }
}

/// What a `LOAD` reloads, in rounds: each Zipf relation twice, each double
/// star relation once, so the write median falls inside the Zipf loads'
/// band of latencies rather than between the two sizes.
const LOAD_ROUND: [usize; 12] = [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7];

/// A client's request stream: seeded shuffled rounds of [`ROUND`], each
/// `LOAD` taking the next relation of its own rounds of [`LOAD_ROUND`].
struct ClientMix {
    ops: Rounds,
    relations: Rounds,
}

impl ClientMix {
    fn new(seed: u64, stream: u64) -> ClientMix {
        ClientMix {
            ops: Rounds::new(Mix::new(seed, stream), ROUND.len()),
            relations: Rounds::new(Mix::new(seed, stream + 1000), LOAD_ROUND.len()),
        }
    }

    fn next(&mut self) -> Req {
        match ROUND[self.ops.next()] {
            Slot::Query(t) => Req::Query(t),
            Slot::Explain(t) => Req::Explain(t),
            Slot::Stats => Req::Stats,
            Slot::Load => Req::Load(LOAD_ROUND[self.relations.next()]),
        }
    }
}

/// A connection speaking the line protocol.
struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { writer: BufWriter::new(stream), reader })
    }

    /// Sends one request and reads its whole reply (header plus the body
    /// lines the header announces).
    fn call(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        for line in lines {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        let header = self.read_line()?;
        let body = panda::server::body_lines(&header);
        let mut reply = Vec::with_capacity(body + 1);
        reply.push(header);
        for _ in 0..body {
            reply.push(self.read_line()?);
        }
        Ok(reply)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }
}

/// Checks a reply against the references.
fn verify(req: Req, reply: &[String], refs: &BTreeMap<String, Digest>) -> bool {
    let header = reply[0].as_str();
    match req {
        Req::Query(t) => {
            let Some(n) = header.strip_prefix("OK rows n=") else { return false };
            let Some(n) = n.split_whitespace().next().and_then(|n| n.parse::<u64>().ok()) else {
                return false;
            };
            let mut d = Digest::default();
            if QUERIES[t].contains("()") {
                // A Boolean reply carries its row count (0 or 1) in the
                // header and `true`/`false` as its body.
                for _ in 0..n {
                    d.add_row(std::iter::empty());
                }
            } else {
                for line in &reply[1..] {
                    d.add_row(line.split(' ').map(|v| v.parse::<u64>().unwrap_or(u64::MAX)));
                }
            }
            d.rows == n && refs.get(&query_key(t)) == Some(&d)
        }
        Req::Explain(t) => {
            header.starts_with("OK explain")
                && refs.get(&explain_key(t))
                    == Some(&Digest::of_lines(reply[1..].iter().map(String::as_str)))
        }
        Req::Stats => header.starts_with("OK stats-global"),
        Req::Load(rel) => refs.get(&loaded_key(rel)).is_some_and(|d| {
            *header == format!("OK loaded rel={} rows={}", RELATIONS[rel], d.rows)
        }),
    }
}

/// A request as a traced phase records it, for the in-process replay.
struct Record {
    req: Req,
    tcp_ms: f64,
    reply: Vec<String>,
}

/// One client's closed loop until `deadline`.
fn client_loop(
    conn: &mut Conn,
    mut mix: ClientMix,
    deadline: Instant,
    data: &Data,
    refs: &BTreeMap<String, Digest>,
    mut records: Option<&mut Vec<Record>>,
) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        let req = mix.next();
        let t0 = Instant::now();
        let reply = match conn.call(&req.lines(data)) {
            Ok(reply) => reply,
            Err(e) => {
                // A timed-out or dropped connection fails its in-flight
                // request; a closed loop has nothing else queued on it.
                eprintln!("{e}");
                tally.attempted += 1;
                tally.failed += 1;
                break;
            }
        };
        let elapsed = t0.elapsed();
        let ok = verify(req, &reply, refs);
        match req {
            Req::Stats => tally.record_other(ok),
            Req::Load(_) => tally.record(true, elapsed, ok),
            Req::Query(_) | Req::Explain(_) => tally.record(false, elapsed, ok),
        }
        if let Some(records) = records.as_deref_mut() {
            records.push(Record { req, tcp_ms: ms(elapsed), reply });
        }
    }
    tally
}

/// A running server with its connected, loaded and warmed clients.  Dropping
/// it stops the server.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    conns: Vec<Conn>,
}

impl Drop for Server {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            let _ = conn.call(&["QUIT".to_string()]);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    fn start(bin: &str, data: &Data) -> std::io::Result<Server> {
        let mut command = Command::new(bin);
        command.args(["--listen", "127.0.0.1:0"]).stdin(Stdio::null()).stdout(Stdio::piped());
        for var in PANDA_ENV {
            command.env_remove(var);
        }
        let mut child = command.spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server { child, stdout, conns: Vec::new() };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ").map(str::to_string) else {
            return Err(std::io::Error::other(format!("unexpected server banner `{line}`")));
        };
        for _ in 0..CLIENTS {
            let mut conn = Conn::open(&addr)?;
            for rel in 0..RELATIONS.len() {
                conn.call(&data.load_lines(rel))?;
            }
            // Warm the plan cache: every template once on each session.
            for t in 0..QUERIES.len() {
                conn.call(&[query_key(t)])?;
            }
            for t in EXPLAINS {
                conn.call(&[explain_key(t)])?;
            }
            server.conns.push(conn);
        }
        Ok(server)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Runs every client's closed loop for `seconds`.
    fn phase(
        &mut self,
        seed: u64,
        stream: u64,
        seconds: f64,
        data: &Data,
        refs: &BTreeMap<String, Digest>,
        record: bool,
    ) -> (Tally, Duration, Vec<Vec<Record>>) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results: Vec<(Tally, Vec<Record>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(client, conn)| {
                    let mix = ClientMix::new(seed, stream * 16 + client as u64);
                    scope.spawn(move || {
                        let mut records = Vec::new();
                        let sink = record.then_some(&mut records);
                        let tally = client_loop(conn, mix, deadline, data, refs, sink);
                        (tally, records)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let phase = start.elapsed();
        let mut tally = Tally::default();
        let mut records = Vec::new();
        for (t, r) in results {
            tally.absorb(t);
            records.push(r);
        }
        (tally, phase, records)
    }

    /// The process-wide plan-cache `(hits, misses)` of `STATS GLOBAL`.
    fn global_stats(&mut self) -> Option<(u64, u64)> {
        let reply = self.conns[0].call(&["STATS GLOBAL".to_string()]).ok()?;
        let field = |key: &str| -> Option<u64> {
            reply[0].split_whitespace().find_map(|f| f.strip_prefix(key)?.parse().ok())
        };
        Some((field("hits=")?, field("misses=")?))
    }
}

fn start(server_bin: &str) -> Result<(Server, Data, f64), String> {
    let t0 = Instant::now();
    let data = Data::generate();
    let server = Server::start(server_bin, &data).map_err(|e| format!("server set-up: {e}"))?;
    Ok((server, data, t0.elapsed().as_secs_f64()))
}

/// One worker's share of an untraced run: start and load a server, then
/// measure for `seconds`.
pub fn run_untraced(
    server_bin: &str,
    seed: u64,
    seconds: f64,
    worker: u64,
    refs: &BTreeMap<String, Digest>,
) -> Result<Measured, String> {
    let (mut server, data, setup_s) = start(server_bin)?;
    let (tally, phase, _) = server.phase(seed, 1 + worker, seconds, &data, refs, false);
    Ok(Measured { tally, phase, setup_s, rss_mb: server.peak_rss_mb() })
}

/// A traced run: half the time untraced, half recorded; the recorded
/// requests are then replayed in process under spans.
pub fn run_traced(
    server_bin: &str,
    seed: u64,
    seconds: f64,
    trace_out: &str,
    refs: &BTreeMap<String, Digest>,
) -> Result<(Tally, Metrics), String> {
    let (mut server, data, _) = start(server_bin)?;
    let (mut tally, _, _) = server.phase(seed, 1, seconds / 2.0, &data, refs, false);
    let untraced_p50 = tally.reads.median();
    let before = server.global_stats();
    let (traced, _, records) = server.phase(seed, 100, seconds / 2.0, &data, refs, true);
    let after = server.global_stats();
    let mut layers = LayerMetrics::default();
    layers.put("trace.overhead_ms", traced.reads.median() - untraced_p50);
    if let (Some((h0, m0)), Some((h1, m1))) = (before, after) {
        let hits = h1 - h0;
        let ratio = hits as f64 / (hits + m1 - m0).max(1) as f64;
        layers.put("panda-core.plan_cache_hit_ratio", ratio);
    }
    tally.absorb(traced);
    let mut tracer = Tracer::new();
    replay(&data, &records, &mut tracer, &mut layers);
    if let Err(e) = tracer.write_to(trace_out) {
        eprintln!("cannot write {trace_out}: {e}");
    }
    Ok((tally, layers.finish(&tracer)))
}

/// Replays each client's recorded requests into an in-process [`Session`]
/// holding the same data, timing `handle_line` and the public stage calls
/// around it; the replayed replies must equal the ones read off the wire.
fn replay(data: &Data, records: &[Vec<Record>], tracer: &mut Tracer, layers: &mut LayerMetrics) {
    let mut request = 0u64;
    for client_records in records {
        let mut session = Session::new();
        let mut shadow = data.database();
        for rel in 0..RELATIONS.len() {
            for line in data.load_lines(rel) {
                session.handle_line(&line);
            }
        }
        for t in 0..QUERIES.len() {
            session.handle_line(&query_key(t));
        }
        for record in client_records {
            request += 1;
            let root = tracer.request(request);
            match record.req {
                Req::Query(t) | Req::Explain(t) => {
                    if let Ok(query) = tracer.span("query.parse_query", || parse_query(QUERIES[t]))
                    {
                        tracer.span("panda-core.canonicalize_query", || canonicalize_query(&query));
                        tracer.span("entropy.StatisticsSet::measure", || {
                            StatisticsSet::measure(&query, &shadow)
                        });
                    }
                }
                Req::Load(rel) => tracer.span("relation.load", || {
                    let rows = data.0[rel].iter().copied();
                    shadow.insert(RELATIONS[rel], Relation::from_rows(2, rows).deduped());
                }),
                Req::Stats => {}
            }
            let id = tracer.begin("server.Session::handle_line");
            let mut reply = Vec::new();
            for line in record.req.lines(data) {
                reply.extend(session.handle_line(&line).lines);
            }
            tracer.end(id);
            tracer.end(root);
            layers.sample("server.wire_ms", record.tcp_ms - tracer.duration_ms(id));
            layers.sample("server.reply_lines", (record.reply.len() - 1) as f64);
            if !matches!(record.req, Req::Stats) {
                layers.fidelity(reply == record.reply);
            }
        }
    }
}
