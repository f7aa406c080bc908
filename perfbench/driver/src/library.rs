//! The two in-process workloads, `cold-plan` and `exec-heavy`: reads are
//! library evaluate calls from query text to verified rows, writes reload
//! one relation through the same calls a server `LOAD … END` makes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use panda::prelude::*;
use panda::workloads::{
    double_star_db, erdos_renyi_db, fd_instance, path_instance, s_full_statistics, zipf_graph_db,
};

use crate::common::{peak_rss_mb, Digest, Measured, Metrics, Mix, Rounds, Tally, Tracer};
use crate::layers::LayerMetrics;

/// Which of the two library workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdPlan,
    ExecHeavy,
}

/// One read of the stream: a query text over one of the databases.
#[derive(Debug, Clone)]
pub struct Read {
    pub text: &'static str,
    pub db: usize,
    /// `S_full` statistics `(n, c)` to plan with instead of measured ones.
    pub s_full: Option<(u64, u64)>,
}

impl Read {
    pub fn key(&self) -> String {
        format!("{}@{}", self.text, self.db)
    }

    fn panda(&self, query: ConjunctiveQuery) -> Panda {
        match self.s_full {
            Some((n, c)) => Panda::new(query).with_statistics(s_full_statistics(n, c)),
            None => Panda::new(query),
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub dbs: Vec<Database>,
    /// Each database's relations as row lists, the input of writes.
    rows: Vec<Vec<(String, Vec<[u64; 2]>)>>,
    pub reads: Vec<Read>,
    /// The databases whose relations writes reload.
    write_dbs: Vec<usize>,
}

const FOUR_CYCLE: &str = "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)";
const FOUR_CYCLE_FULL: &str = "Qfull(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)";
const FOUR_CYCLE_BOOL: &str = "Qbool() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)";
const TRIANGLE: &str = "Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)";
const TWO_PATH_FULL: &str = "P(X,Y,Z) :- R(X,Y), S(Y,Z)";
const THREE_PATH: &str = "P(A,D) :- R(A,B), S(B,C), T(C,D)";
const THREE_PATH_FULL: &str = "P(A,B,C,D) :- R(A,B), S(B,C), T(C,D)";

/// `S_full` parameters of the full 4-cycle instance: `n` tuples per
/// relation, `deg_U(W|X) ≤ c`.
const FD_N: u64 = 60;
const FD_C: u64 = 2;

/// `cold-plan` draws this many ER and this many Zipf graphs per run.
const INSTANCES: u64 = 24;
/// `exec-heavy` draws this many Zipf graphs and path instances per run.
const EXEC_INSTANCES: u64 = 3;
/// `cold-plan`'s double star, small enough that execution stays cheap.
const STAR_HALF: u64 = 8;

/// One op in `write_every(kind)` is a write.  `exec-heavy` writes more
/// often because its reads are slower: its runs still see 100 writes.
fn write_every(kind: Kind) -> u64 {
    match kind {
        Kind::ColdPlan => 10,
        Kind::ExecHeavy => 5,
    }
}

/// Input sizes, recorded in the run's output.
pub fn describe(kind: Kind) -> &'static str {
    match kind {
        Kind::ColdPlan => {
            "24 ER n=30 m=60 and 24 Zipf(1.1) n=40 m=120 graphs; 2 fd_instance n=60 c=2 with \
             S_full; double_star_db(8); 1 op in 10 a write"
        }
        Kind::ExecHeavy => {
            "triangle on 3 Zipf(1.1) n=1000 m=10000; projected 4-cycle on double_star_db(192); \
             projected and full 3-path on 3 path_instance(2000, 4); 1 op in 5 a write \
             reloading a Zipf relation"
        }
    }
}

pub fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut dbs = Vec::new();
    let mut reads = Vec::new();
    match kind {
        Kind::ColdPlan => {
            // Several small instances per run, so the planning cost of a run
            // averages over the statistics they give rather than hinging on
            // one graph.
            for i in 0..INSTANCES {
                let s = seed.wrapping_mul(INSTANCES).wrapping_add(i);
                dbs.push(erdos_renyi_db(&["R", "S", "T", "U"], 30, 60, s));
                dbs.push(zipf_graph_db(&["R", "S", "T", "U"], 40, 120, 1.1, s));
            }
            // Two thirds of the reads plan a 4-cycle, so the read median
            // falls inside their band of latencies, not at its lower edge
            // next to the fast triangle and 2-path plans.
            for db in 0..dbs.len() {
                for text in [
                    FOUR_CYCLE,
                    FOUR_CYCLE,
                    FOUR_CYCLE_BOOL,
                    FOUR_CYCLE_BOOL,
                    TRIANGLE,
                    TWO_PATH_FULL,
                ] {
                    reads.push(Read { text, db, s_full: None });
                }
            }
            for i in 0..2 {
                dbs.push(fd_instance(FD_N, FD_C, seed.wrapping_mul(2).wrapping_add(i)));
                let read =
                    Read { text: FOUR_CYCLE_FULL, db: dbs.len() - 1, s_full: Some((FD_N, FD_C)) };
                reads.extend([read.clone(), read]);
            }
            // The double star is where subw < fhtw: its reads plan the
            // adaptive evaluator (every selector LP, proof and partition).
            dbs.push(double_star_db(STAR_HALF));
            for text in [FOUR_CYCLE, FOUR_CYCLE, FOUR_CYCLE_BOOL, FOUR_CYCLE_BOOL] {
                reads.push(Read { text, db: dbs.len() - 1, s_full: None });
            }
        }
        Kind::ExecHeavy => {
            // The seeded graphs in several instances per run, so a run's
            // latencies average over them rather than hinging on one graph;
            // the double star is the same in every run.
            dbs.push(double_star_db(192));
            for i in 0..EXEC_INSTANCES {
                let s = seed.wrapping_mul(EXEC_INSTANCES).wrapping_add(i);
                dbs.push(zipf_graph_db(&["R", "S", "T"], 1000, 10_000, 1.1, s));
                dbs.push(path_instance(2000, 4, s));
            }
            // Per instance six slots: below the 4-cycle's latencies the
            // triangle and the full 3-path, above them the projected 3-path
            // twice.  The 4-cycle's two slots span the middle third of the
            // ranks, so the read median falls in the middle of one query's
            // band of latencies and the p90 inside the slowest one's.
            for i in 0..EXEC_INSTANCES as usize {
                let (zipf, path) = (1 + 2 * i, 2 + 2 * i);
                for (text, db) in [
                    (TRIANGLE, zipf),
                    (THREE_PATH_FULL, path),
                    (FOUR_CYCLE, 0),
                    (FOUR_CYCLE, 0),
                    (THREE_PATH, path),
                    (THREE_PATH, path),
                ] {
                    reads.push(Read { text, db, s_full: None });
                }
            }
        }
    }
    let rows = dbs
        .iter()
        .map(|db| {
            db.iter()
                .map(|(name, rel)| (name.to_string(), rel.iter().map(|r| [r[0], r[1]]).collect()))
                .collect()
        })
        .collect();
    // `exec-heavy` reloads only its Zipf relations, all of one size, so the
    // write percentiles fall inside one band of latencies rather than
    // between the double star's, the paths' and the Zipf graphs' sizes.
    let write_dbs = match kind {
        Kind::ColdPlan => (0..dbs.len()).collect(),
        Kind::ExecHeavy => (0..EXEC_INSTANCES as usize).map(|i| 1 + 2 * i).collect(),
    };
    Inputs { dbs, rows, reads, write_dbs }
}

/// References for every read, computed with `GenericJoin`.
pub fn references(kind: Kind, seed: u64) -> BTreeMap<String, Digest> {
    let inputs = generate(kind, seed);
    inputs
        .reads
        .iter()
        .map(|read| {
            let query = parse_query(read.text).expect("benchmark queries parse");
            (read.key(), crate::common::reference_digest(&query, &inputs.dbs[read.db]))
        })
        .collect()
}

/// Set-up: generate the inputs and, for `exec-heavy`, warm the plan cache
/// (and the relations' index caches) with one evaluation of every read.
fn setup(kind: Kind, seed: u64) -> Inputs {
    plan_cache_clear();
    let inputs = generate(kind, seed);
    if kind == Kind::ExecHeavy {
        for read in &inputs.reads {
            let query = parse_query(read.text).expect("benchmark queries parse");
            let _ =
                read.panda(query).try_evaluate_with(&inputs.dbs[read.db], EvaluationStrategy::Auto);
        }
    }
    inputs
}

/// One write: reload a relation from its rows (content unchanged, so the
/// references still hold; the reload drops the relation's index caches).
fn write(inputs: &mut Inputs, db: usize, rel: usize, tracer: Option<&mut Tracer>) {
    let (name, rows) = &inputs.rows[db][rel];
    let mut load = || {
        let relation = Relation::from_rows(2, rows.iter().copied()).deduped();
        inputs.dbs[db].insert(name.clone(), relation);
    };
    match tracer {
        Some(t) => t.span("relation.load", load),
        None => load(),
    }
}

/// What each op of the stream is.
enum Op {
    Read(Read),
    Write { db: usize, rel: usize },
}

struct Stream {
    n: u64,
    write_every: u64,
    reads: Rounds,
    /// Rounds over the `(database, relation)` pairs writes reload.
    writes: Rounds,
    targets: Vec<(usize, usize)>,
}

impl Stream {
    fn new(kind: Kind, inputs: &Inputs, seed: u64, stream: u64) -> Stream {
        let targets: Vec<(usize, usize)> = inputs
            .write_dbs
            .iter()
            .flat_map(|&db| (0..inputs.rows[db].len()).map(move |rel| (db, rel)))
            .collect();
        Stream {
            n: 0,
            write_every: write_every(kind),
            reads: Rounds::new(Mix::new(seed, stream), inputs.reads.len()),
            writes: Rounds::new(Mix::new(seed, stream + 100), targets.len()),
            targets,
        }
    }

    fn next(&mut self, inputs: &Inputs) -> Op {
        self.n += 1;
        if self.n.is_multiple_of(self.write_every) {
            let (db, rel) = self.targets[self.writes.next()];
            return Op::Write { db, rel };
        }
        Op::Read(inputs.reads[self.reads.next()].clone())
    }
}

/// The untraced read: query text to verified rows.
fn read_plain(kind: Kind, read: &Read, db: &Database, refs: &BTreeMap<String, Digest>) -> bool {
    if kind == Kind::ColdPlan {
        plan_cache_clear();
    }
    let Ok(query) = parse_query(read.text) else { return false };
    let panda = read.panda(query);
    match panda.try_evaluate_with(db, EvaluationStrategy::Auto) {
        Ok(result) => refs.get(&read.key()) == Some(&Digest::of_result(panda.query(), &result)),
        Err(_) => false,
    }
}

fn untraced_phase(
    kind: Kind,
    inputs: &mut Inputs,
    refs: &BTreeMap<String, Digest>,
    seed: u64,
    stream: u64,
    seconds: f64,
) -> (Tally, Duration) {
    let mut tally = Tally::default();
    let mut stream = Stream::new(kind, inputs, seed, stream);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        match stream.next(inputs) {
            Op::Read(read) => {
                let t0 = Instant::now();
                let ok = read_plain(kind, &read, &inputs.dbs[read.db], refs);
                tally.record(false, t0.elapsed(), ok);
            }
            Op::Write { db, rel } => {
                let t0 = Instant::now();
                write(inputs, db, rel, None);
                tally.record(true, t0.elapsed(), true);
            }
        }
    }
    (tally, start.elapsed())
}

/// One worker's share of an untraced run: set up once, then measure for
/// `seconds`, on a request stream of its own.
pub fn run_untraced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    worker: u64,
    refs: &BTreeMap<String, Digest>,
) -> Measured {
    let t0 = Instant::now();
    let mut inputs = setup(kind, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let (tally, phase) = untraced_phase(kind, &mut inputs, refs, seed, 1 + worker, seconds);
    Measured { tally, phase, setup_s, rss_mb: peak_rss_mb("self") }
}

/// A traced run: half the time untraced, half traced; the difference of
/// their read medians is the tracing overhead.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace_out: &str,
    refs: &BTreeMap<String, Digest>,
) -> (Tally, Metrics) {
    let mut inputs = setup(kind, seed);
    let (mut tally, _) = untraced_phase(kind, &mut inputs, refs, seed, 1, seconds / 2.0);
    let untraced_p50 = tally.reads.median();
    let mut tracer = Tracer::new();
    let mut layers = LayerMetrics::default();
    let traced =
        traced_phase(kind, &mut inputs, refs, seed, seconds / 2.0, &mut tracer, &mut layers);
    layers.put("trace.overhead_ms", traced.reads.median() - untraced_p50);
    tally.absorb(traced);
    if let Err(e) = tracer.write_to(trace_out) {
        eprintln!("cannot write {trace_out}: {e}");
    }
    (tally, layers.finish(&tracer))
}

fn traced_phase(
    kind: Kind,
    inputs: &mut Inputs,
    refs: &BTreeMap<String, Digest>,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut LayerMetrics,
) -> Tally {
    // The adaptive evaluators the warm plans hold, rebuilt from the public
    // planner so execution can be replayed stage by stage.
    let mut evaluators: BTreeMap<String, PandaEvaluator> = BTreeMap::new();
    if kind == Kind::ExecHeavy {
        for read in &inputs.reads {
            let query = parse_query(read.text).expect("benchmark queries parse");
            let db = &inputs.dbs[read.db];
            let panda = read.panda(query.clone());
            let report = panda.plan_report(db).expect("benchmark queries plan");
            if report.strategy == EvaluationStrategy::Adaptive {
                let stats = StatisticsSet::measure(&query, db);
                let evaluator = PandaEvaluator::plan(&query, &stats).expect("adaptive plans");
                evaluators.insert(read.key(), evaluator);
            }
        }
    }
    let mut tally = Tally::default();
    let mut stream = Stream::new(kind, inputs, seed, 100);
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        request += 1;
        let root = tracer.request(request);
        let (write_op, ok) = match stream.next(inputs) {
            Op::Read(read) => {
                let ok = match kind {
                    Kind::ColdPlan => {
                        traced_cold_read(&read, &inputs.dbs[read.db], refs, tracer, layers)
                    }
                    Kind::ExecHeavy => traced_warm_read(
                        &read,
                        &inputs.dbs[read.db],
                        refs,
                        evaluators.get(&read.key()),
                        tracer,
                        layers,
                    ),
                };
                (false, ok)
            }
            Op::Write { db, rel } => {
                write(inputs, db, rel, Some(tracer));
                (true, true)
            }
        };
        tracer.end(root);
        let elapsed = Duration::from_secs_f64(tracer.duration_ms(root) / 1e3);
        tally.record(write_op, elapsed, ok);
    }
    layers.put("panda-core.plan_cache_hit_ratio", layers.hit_ratio());
    tally
}

/// A `cold-plan` read, traced: the planning pipeline rebuilt from the
/// public stage functions (TD and selector enumeration, the width LPs, one
/// proof sequence per selector), its plan executed, then the library's own
/// cold `plan_report` and the (now warm) evaluation.  The rebuilt plan's
/// rows must equal the library's bit for bit.
fn traced_cold_read(
    read: &Read,
    db: &Database,
    refs: &BTreeMap<String, Digest>,
    tracer: &mut Tracer,
    layers: &mut LayerMetrics,
) -> bool {
    plan_cache_clear();
    let Ok(query) = tracer.span("query.parse_query", || parse_query(read.text)) else {
        return false;
    };
    let stats = match read.s_full {
        Some((n, c)) => s_full_statistics(n, c),
        None => {
            tracer.span("entropy.StatisticsSet::measure", || StatisticsSet::measure(&query, db))
        }
    };
    tracer.span("panda-core.canonicalize_query", || canonicalize_query(&query));
    let order = query.free_vars().to_vec();
    let mut rebuilt: Option<VarRelation> = None;
    if !Panda::new(query.clone()).is_free_connex_acyclic() {
        let tds = tracer
            .span("query.TreeDecomposition::enumerate", || TreeDecomposition::enumerate(&query));
        let selectors =
            tracer.span("query.BagSelector::enumerate", || BagSelector::enumerate(&tds));
        layers.sample("query.td_count", tds.len() as f64);
        layers.sample("query.selector_count", selectors.len() as f64);
        let fhtw = tracer
            .span("entropy.fhtw_with_tds", || panda::entropy::fhtw_with_tds(&query, &tds, &stats));
        let subw = tracer
            .span("entropy.subw_with_tds", || panda::entropy::subw_with_tds(&query, &tds, &stats));
        let (Ok(fhtw), Ok(subw)) = (fhtw, subw) else { return false };
        let bags: usize = tds.iter().map(TreeDecomposition::num_bags).sum();
        layers.sample("entropy.lp_solves", (bags + subw.per_selector.len()) as f64);
        let mut steps = 0usize;
        for sel in &subw.per_selector {
            tracer.span("proof.ProofSequence::derive", || {
                let Ok(integral) = sel.report.flow.to_integral() else { return };
                let identity = TermIdentity::from_flow(&integral);
                if let Ok(sequence) = ProofSequence::derive(&identity) {
                    steps += sequence.len();
                }
            });
        }
        layers.sample("proof.steps", steps as f64);
        rebuilt = Some(if subw.value < fhtw.value {
            let evaluator = tracer.span("panda-core.PandaEvaluator::from_reports", || {
                PandaEvaluator::from_reports(&query, &subw, &fhtw)
            });
            adaptive_stages(&query, db, &evaluator, tracer, layers)
        } else {
            tracer.span("panda-core.StaticTdPlan::evaluate_with_engine", || {
                StaticTdPlan::new(fhtw.best_td().clone()).evaluate_with_engine(
                    &query,
                    db,
                    Engine::from_env(),
                )
            })
        });
    }
    // The library's own cold plan, under an unlimited pivot budget so it
    // reports the pivots it used (a budget only counts pivots).
    plan_cache_clear();
    let panda =
        read.panda(query.clone()).with_budgets(Budgets::unlimited().with_lp_pivot_budget(u64::MAX));
    let Ok(report) = tracer.span("panda-core.Panda::plan_report", || panda.plan_report(db)) else {
        return false;
    };
    layers.cache_events(&report.cache_events);
    if let Some(pivots) = report.lp_pivots_used {
        layers.sample("lp.pivots", pivots as f64);
    }
    finish_read(&panda, read, db, refs, rebuilt, &order, tracer, layers)
}

/// An `exec-heavy` read, traced: a warm read whose adaptive execution is
/// also replayed stage by stage (branch partitioning, then each branch's
/// decomposition choice and static plan), checked against the library.
fn traced_warm_read(
    read: &Read,
    db: &Database,
    refs: &BTreeMap<String, Digest>,
    evaluator: Option<&PandaEvaluator>,
    tracer: &mut Tracer,
    layers: &mut LayerMetrics,
) -> bool {
    let Ok(query) = tracer.span("query.parse_query", || parse_query(read.text)) else {
        return false;
    };
    tracer.span("entropy.StatisticsSet::measure", || StatisticsSet::measure(&query, db));
    tracer.span("panda-core.canonicalize_query", || canonicalize_query(&query));
    let order = query.free_vars().to_vec();
    let rebuilt = evaluator.map(|e| adaptive_stages(&query, db, e, tracer, layers));
    finish_read(&read.panda(query), read, db, refs, rebuilt, &order, tracer, layers)
}

/// The adaptive evaluator's execution, replayed from its public stages.
fn adaptive_stages(
    query: &ConjunctiveQuery,
    db: &Database,
    evaluator: &PandaEvaluator,
    tracer: &mut Tracer,
    layers: &mut LayerMetrics,
) -> VarRelation {
    let branches = tracer
        .span("panda-core.PandaEvaluator::build_branches", || evaluator.build_branches(query, db));
    layers.sample("panda-core.branches", branches.len() as f64);
    let order = query.free_vars().to_vec();
    let mut result = VarRelation::new(order.clone(), Relation::new(order.len()));
    let mut rows_max = 0usize;
    for branch in &branches {
        let id = tracer.begin("panda-core.branch");
        let td = evaluator.choose_td_for(query, branch);
        let out = StaticTdPlan::new(td).evaluate_with_engine(query, branch, Engine::from_env());
        let out = out.project_onto(&order).rel;
        tracer.end(id);
        layers.sample("panda-core.branch_exec_ms", tracer.duration_ms(id));
        rows_max = rows_max.max(out.len());
        result.rel.extend_from(&out);
    }
    result.rel.dedup();
    layers.sample("panda-core.branch_rows_max", rows_max as f64);
    result
}

/// The library evaluation every traced read ends with, checked against
/// the reference and, when a pipeline was rebuilt, against its rows.
#[allow(clippy::too_many_arguments)]
fn finish_read(
    panda: &Panda,
    read: &Read,
    db: &Database,
    refs: &BTreeMap<String, Digest>,
    rebuilt: Option<VarRelation>,
    order: &[Var],
    tracer: &mut Tracer,
    layers: &mut LayerMetrics,
) -> bool {
    let result = tracer.span("panda-core.Panda::try_evaluate_with", || {
        panda.try_evaluate_with_events(db, EvaluationStrategy::Auto)
    });
    let Ok((result, events)) = result else { return false };
    layers.cache_events(&events);
    layers.sample("relation.output_rows", result.len() as f64);
    if let Some(rebuilt) = rebuilt {
        let same = rebuilt.canonical_rows_ordered(order) == result.canonical_rows_ordered(order);
        layers.fidelity(same);
        if !same {
            return false;
        }
    }
    refs.get(&read.key()) == Some(&Digest::of_result(panda.query(), &result))
}
