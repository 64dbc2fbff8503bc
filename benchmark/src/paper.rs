//! `paper_tp`, `paper_bgp`, `paper_reasoning`: the paper's own experiment
//! (§7.3.3–7.3.5). In-process, one closed-loop thread: a
//! `SuccinctEdgeStore` over one LUBM university, the class's queries of
//! the paper workload (`inputs::paper_workload`: datagen's, with S1–S10's
//! ties broken deterministically) in rotation through one `PlanCache`.
//! All time is in `se-sds` / `se-litemat` / `se-core` / `se-sparql`; the
//! stream and server layers are never entered, so a wire, WAL or overlay
//! change must leave these three flat.

use crate::inputs::{self, lubm_graph, paper_workload};
use crate::stats::{self, Digest};
use crate::trace::{self, Tracer};
use crate::{median_setup, sorted_rows, Measured, Metrics, RunArgs, RunResult, WARMUP_S};
use rand::RngExt;
use se_baselines::{rewrite_with_ontology, MultiIndexStore};
use se_core::{SuccinctEdgeStore, TripleSource, Value};
use se_datagen::workload::WorkloadQuery;
use se_ontology::lubm_ontology;
use se_rdf::Graph;
use se_sds::{HeapSize, RsBitVec, WaveletTree};
use se_sparql::{
    execute_query_cached, ir, parse_query, PlanCache, PlanTrace, QueryOptions, ResultSet,
};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// S1–S15 (Tables 1–2, Figure 12).
    SingleTp,
    /// M1–M5 (Figure 13).
    Bgp,
    /// R1–R6, reasoning on (Figure 14).
    Reasoning,
}

impl Class {
    fn prefix(self) -> char {
        match self {
            Class::SingleTp => 'S',
            Class::Bgp => 'M',
            Class::Reasoning => 'R',
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::SingleTp => "paper_tp",
            Class::Bgp => "paper_bgp",
            Class::Reasoning => "paper_reasoning",
        }
    }
}

struct Setup {
    graph: Graph,
    store: SuccinctEdgeStore,
    queries: Vec<WorkloadQuery>,
    cache: PlanCache,
}

fn options(q: &WorkloadQuery) -> QueryOptions {
    if q.reasoning {
        QueryOptions::default()
    } else {
        QueryOptions::without_reasoning()
    }
}

fn setup(seed: u64, class: Class) -> Setup {
    let graph = lubm_graph(seed);
    let store = SuccinctEdgeStore::build(&lubm_ontology(), &graph).expect("LUBM graph is valid");
    let queries = paper_workload(&graph)
        .into_iter()
        .filter(|q| q.id.starts_with(class.prefix()))
        .collect();
    Setup {
        graph,
        store,
        queries,
        cache: PlanCache::new(),
    }
}

/// The answers an independent store gives: three BTree indexes over a
/// term dictionary, reasoning by UNION rewriting (§7.3.5).
fn oracle_rows(s: &Setup) -> Vec<Vec<String>> {
    let oracle = MultiIndexStore::build(&s.graph);
    let dicts = lubm_ontology().encode().expect("LUBM ontology encodes");
    s.queries
        .iter()
        .map(|q| {
            let parsed = parse_query(&q.text).expect("workload query parses");
            let query = if q.reasoning {
                rewrite_with_ontology(&parsed, &dicts)
                    .expect("rewriting within the branch cap")
                    .0
            } else {
                parsed
            };
            sorted_rows(&oracle.query(&query).expect("oracle answers"))
        })
        .collect()
}

/// Issues the class's queries in rotation for `seconds`. Every answer's
/// row count is checked; `full_check` also compares the sorted rows.
fn measure(
    s: &Setup,
    expected: &[Vec<String>],
    seconds: f64,
    full_check: bool,
    tracer: &mut Option<Tracer>,
) -> (Measured, Vec<Vec<f64>>) {
    let mut m = Measured::default();
    let mut per_query = vec![Vec::new(); s.queries.len()];
    let opts: Vec<QueryOptions> = s.queries.iter().map(options).collect();
    let start = Instant::now();
    let mut op = 0u64;
    'run: loop {
        for (i, q) in s.queries.iter().enumerate() {
            let t = Instant::now();
            let root = trace::enter(tracer, "query", op);
            let call = trace::enter(tracer, "sparql.execute_text", op);
            let answer = execute_query_cached(&s.store, &q.text, &opts[i], &s.cache);
            trace::exit(tracer, call);
            let rows = answer.as_ref().map_or(0, ResultSet::len);
            let ok = rows == expected[i].len()
                && (!full_check
                    || answer
                        .as_ref()
                        .is_ok_and(|rs| sorted_rows(rs) == expected[i]));
            trace::exit(tracer, root);
            let us = t.elapsed().as_secs_f64() * 1e6;
            m.lat_us.push(us);
            per_query[i].push(us);
            m.failed += u64::from(!ok);
            op += 1;
            if start.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    (m, per_query)
}

/// The class's headline latency: the geometric mean over its queries of
/// each query's median. A pooled median over a rotation of six queries
/// sits on the boundary between the third and fourth cost cluster and
/// jumps between them; this figure moves with every query, by its ratio.
fn class_p50(per_query: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_query
        .iter()
        .filter(|q| !q.is_empty())
        .map(|q| stats::median(q))
        .collect();
    stats::geomean(&medians)
}

pub fn run(class: Class, args: RunArgs) -> RunResult {
    let (s, setup_s) = median_setup(|_| setup(args.seed, class));
    let mut digest = Digest::default();
    digest.graph(&s.graph);
    for q in &s.queries {
        digest.text(&q.text);
    }
    let expected = oracle_rows(&s);

    // Warm-up doubles as the full row-for-row oracle comparison.
    let (warm, _) = measure(&s, &expected, WARMUP_S, true, &mut None);
    let mut failed = warm.failed;
    let mut attempted = warm.attempted();

    let metrics = if args.trace {
        let quarter = args.seconds / 4.0;
        let (plain, plain_q) = measure(&s, &expected, quarter, false, &mut None);
        let mut tracer = Some(Tracer::new(Instant::now()));
        let (traced, _) = measure(&s, &expected, quarter, false, &mut tracer);
        let mut tracer = tracer.expect("constructed above");
        failed += plain.failed + traced.failed;
        attempted += plain.attempted() + traced.attempted();

        // Per-query medians of the traced execute_text spans, by op_id.
        let mut span_q = vec![Vec::new(); s.queries.len()];
        for sp in tracer
            .spans()
            .iter()
            .filter(|sp| sp.name == "sparql.execute_text")
        {
            span_q[sp.op_id as usize % s.queries.len()].push(sp.duration_us());
        }
        let n = traced.attempted();
        // What the harness itself adds around each call: the root span
        // minus the execute_text span it contains.
        println!(
            "# harness self time per query: p50_us={:.2}",
            stats::median(&tracer.self_times_us("query"))
        );
        let mut metrics = Metrics::new();
        metrics.insert(
            "trace_overhead_share",
            (class_p50(&span_q) / class_p50(&plain_q) - 1.0, n),
        );
        metrics.insert("sparql.exec_cached_us", (class_p50(&span_q), n));
        sparql_probes(&s, &mut metrics, &mut tracer);
        core_probes(&s, args.seed, &mut metrics, &mut tracer);
        litemat_probes(&s, &mut metrics, &mut tracer);
        sds_probes(&s, args.seed, &mut metrics, &mut tracer);
        tracer.save(class.name());
        metrics
    } else {
        let (m, per_query) = measure(&s, &expected, args.seconds, false, &mut None);
        // The paper reports each query on its own (Figures 12–14).
        for ((q, lat), rows) in s.queries.iter().zip(&per_query).zip(&expected) {
            println!(
                "# {} rows={} p50_us={:.1} n={}",
                q.id,
                rows.len(),
                stats::median(lat),
                lat.len()
            );
        }
        failed += m.failed;
        attempted += m.attempted();
        m.end_to_end(setup_s, class_p50(&per_query))
    };
    RunResult {
        attempted,
        failed,
        metrics,
        input_digest: digest.value(),
    }
}

// ------------------------------------------------------------ probes
//
// Each probe times calls into one layer's public functions with seeded
// arguments, as one span around the whole batch of calls.

/// Mean ns per call of `f` over `args`, recorded as one span.
fn per_call_ns<A>(
    tracer: &mut Tracer,
    name: &'static str,
    args: &[A],
    mut f: impl FnMut(&A),
) -> (f64, u64) {
    let id = tracer.enter(name, 0);
    let t = Instant::now();
    for a in args {
        f(a);
    }
    let ns = t.elapsed().as_nanos() as f64;
    tracer.exit(id);
    (ns / args.len() as f64, args.len() as u64)
}

const SDS_PROBES: usize = 1_000_000;
const CORE_PROBES: usize = 10_000;

/// Probes an `RsBitVec` and a `WaveletTree` rebuilt from the store's own
/// object layer (its `BM_so` bitmap and `WT_o` sequence), so length and
/// alphabet are exactly the ones the queries navigate.
fn sds_probes(s: &Setup, seed: u64, metrics: &mut Metrics, tracer: &mut Tracer) {
    let triples: Vec<(u64, u64, u64)> = s.store.object_layer().iter().collect();
    let objects: Vec<u64> = triples.iter().map(|t| t.2).collect();
    let bm = RsBitVec::from_bits(
        triples
            .iter()
            .enumerate()
            .map(|(i, t)| i == 0 || (triples[i - 1].0, triples[i - 1].1) != (t.0, t.1)),
    );
    let wt = WaveletTree::new(&objects);
    let n = objects.len();
    let mut rng = inputs::rng(seed, "sds-probes");

    let positions: Vec<usize> = (0..SDS_PROBES).map(|_| rng.random_range(0..n)).collect();
    metrics.insert(
        "sds.rank1_ns",
        per_call_ns(tracer, "sds.rank1", &positions, |&i| {
            black_box(bm.rank1(black_box(i)));
        }),
    );
    let ones = bm.count_ones();
    let ranks: Vec<usize> = (0..SDS_PROBES).map(|_| rng.random_range(0..ones)).collect();
    metrics.insert(
        "sds.select1_ns",
        per_call_ns(tracer, "sds.select1", &ranks, |&k| {
            black_box(bm.select1(black_box(k)));
        }),
    );
    metrics.insert(
        "sds.wt_access_ns",
        per_call_ns(tracer, "sds.wt_access", &positions, |&i| {
            black_box(wt.access(black_box(i)));
        }),
    );
    // (position, symbol) pairs whose symbol occurs: drawn from the
    // sequence itself.
    let pairs: Vec<(usize, u64)> = positions
        .iter()
        .map(|&i| (rng.random_range(0..=n), objects[i]))
        .collect();
    metrics.insert(
        "sds.wt_rank_ns",
        per_call_ns(tracer, "sds.wt_rank", &pairs, |&(i, sym)| {
            black_box(wt.rank(black_box(i), sym));
        }),
    );
    let selects: Vec<(usize, u64)> = positions
        .iter()
        .map(|&i| (rng.random_range(0..wt.rank(n, objects[i])), objects[i]))
        .collect();
    metrics.insert(
        "sds.wt_select_ns",
        per_call_ns(tracer, "sds.wt_select", &selects, |&(k, sym)| {
            black_box(wt.select(black_box(k), sym));
        }),
    );
    // Windows the width of a large object run, each searched for a
    // symbol it contains; cost is reported per hit found.
    const WINDOW: usize = 256;
    let windows: Vec<(usize, usize, u64)> = (0..SDS_PROBES / 10)
        .map(|_| {
            let a = rng.random_range(0..n.saturating_sub(WINDOW).max(1));
            let b = (a + WINDOW).min(n);
            (a, b, objects[rng.random_range(a..b)])
        })
        .collect();
    let mut hits = 0usize;
    let (ns_per_window, _) =
        per_call_ns(tracer, "sds.wt_range_search", &windows, |&(a, b, sym)| {
            hits += black_box(wt.range_search(a, b, sym)).len()
        });
    metrics.insert(
        "sds.wt_range_search_ns_per_hit",
        (
            ns_per_window * windows.len() as f64 / hits as f64,
            hits as u64,
        ),
    );
    metrics.insert(
        "sds.bits_per_symbol",
        (wt.heap_size() as f64 * 8.0 / n as f64, n as u64),
    );
}

fn litemat_probes(s: &Setup, metrics: &mut Metrics, tracer: &mut Tracer) {
    let onto = lubm_ontology();
    let encode: Vec<f64> = (0..9)
        .map(|_| {
            let id = tracer.enter("litemat.encode", 0);
            let t = Instant::now();
            black_box(onto.encode().expect("LUBM ontology encodes"));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.exit(id);
            ms
        })
        .collect();
    metrics.insert("litemat.encode_ms", (stats::median(&encode), 9));

    let dicts = s.store.dictionaries();
    let concepts: Vec<&str> = dicts.concepts.encoding().iter().map(|(t, _)| t).collect();
    let properties: Vec<&str> = dicts.properties.encoding().iter().map(|(t, _)| t).collect();
    let lookups: Vec<(bool, &str)> = concepts
        .iter()
        .map(|t| (true, *t))
        .chain(properties.iter().map(|t| (false, *t)))
        .cycle()
        .take(CORE_PROBES)
        .collect();
    metrics.insert(
        "litemat.interval_lookup_ns",
        per_call_ns(
            tracer,
            "litemat.interval_lookup",
            &lookups,
            |&(concept, iri)| {
                if concept {
                    black_box(s.store.concept_interval(iri));
                } else {
                    black_box(s.store.property_interval(iri));
                }
            },
        ),
    );
}

/// `TripleSource` probes on the built store, with ids sampled from the
/// triples it holds.
fn core_probes(s: &Setup, seed: u64, metrics: &mut Metrics, tracer: &mut Tracer) {
    let onto = lubm_ontology();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let id = tracer.enter("core.build", 0);
            let t = Instant::now();
            black_box(SuccinctEdgeStore::build(&onto, &s.graph).expect("LUBM graph is valid"));
            let secs = t.elapsed().as_secs_f64();
            tracer.exit(id);
            secs
        })
        .collect();
    metrics.insert("core.build_s", (stats::median(&builds), 3));

    let store: &dyn TripleSource = &s.store;
    let triples: Vec<(u64, u64, u64)> = s.store.object_layer().iter().collect();
    let mut rng = inputs::rng(seed, "core-probes");
    let sample: Vec<(u64, u64, u64)> = (0..CORE_PROBES)
        .map(|_| triples[rng.random_range(0..triples.len())])
        .collect();
    metrics.insert(
        "core.objects_ns",
        per_call_ns(tracer, "core.objects", &sample, |&(p, sub, _)| {
            black_box(store.objects(p, sub));
        }),
    );
    metrics.insert(
        "core.subjects_ns",
        per_call_ns(tracer, "core.subjects", &sample, |&(p, _, o)| {
            black_box(store.subjects(p, &Value::Instance(o)));
        }),
    );
    // Half present, half absent (the object of another sampled triple).
    let membership: Vec<(u64, u64, u64)> = sample
        .iter()
        .enumerate()
        .map(|(i, &(p, sub, o))| {
            if i % 2 == 0 {
                (p, sub, o)
            } else {
                (p, sub, sample[i - 1].2)
            }
        })
        .collect();
    metrics.insert(
        "core.contains_ns",
        per_call_ns(tracer, "core.contains", &membership, |&(p, sub, o)| {
            black_box(store.contains(p, sub, &Value::Instance(o)));
        }),
    );

    let dicts = s.store.dictionaries();
    let properties: Vec<u64> = dicts
        .properties
        .encoding()
        .iter()
        .filter_map(|(t, _)| store.property_id(t))
        .collect();
    let mut rows = 0usize;
    let (ns, calls) = per_call_ns(tracer, "core.scan_predicate", &properties, |&p| {
        rows += black_box(store.scan_predicate(p)).len();
    });
    metrics.insert(
        "core.scan_ns_per_row",
        (ns * calls as f64 / rows.max(1) as f64, rows as u64),
    );
    let intervals: Vec<_> = dicts
        .concepts
        .encoding()
        .iter()
        .filter_map(|(t, _)| store.concept_interval(t))
        .collect();
    let mut rows = 0usize;
    let (ns, calls) = per_call_ns(tracer, "core.type_interval", &intervals, |&iv| {
        rows += black_box(store.subjects_of_concept_interval(iv)).len();
    });
    metrics.insert(
        "core.type_interval_ns_per_row",
        (ns * calls as f64 / rows.max(1) as f64, rows as u64),
    );

    let n = s.store.len() as f64;
    let total = s.store.memory_footprint() as f64;
    let layers = (s.store.object_layer().heap_size() + s.store.datatype_layer().heap_size()) as f64;
    metrics.insert("core.bytes_per_triple", (total / n, n as u64));
    metrics.insert("core.layer_bytes_per_triple", (layers / n, n as u64));
    // The rest of `memory_footprint()`: dictionaries and the type store.
    metrics.insert(
        "core.dict_bytes_per_triple",
        ((total - layers) / n, n as u64),
    );
}

fn sparql_probes(s: &Setup, metrics: &mut Metrics, tracer: &mut Tracer) {
    const REPS: usize = 50;
    let mut parse = Vec::new();
    let mut compile = Vec::new();
    let (mut examined, mut results) = (0usize, 0usize);
    for q in &s.queries {
        let opts = options(q);
        for _ in 0..REPS {
            let id = tracer.enter("sparql.parse", 0);
            let t = Instant::now();
            let parsed = black_box(parse_query(&q.text).expect("workload query parses"));
            parse.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.exit(id);
            let id = tracer.enter("sparql.compile", 0);
            let t = Instant::now();
            black_box(ir::compile(&parsed, &s.store, &opts, 0));
            compile.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.exit(id);
        }
        let parsed = parse_query(&q.text).expect("workload query parses");
        let plan = ir::compile(&parsed, &s.store, &opts, 0);
        let (_, consts) = ir::normalize(&parsed);
        let mut trace = PlanTrace::default();
        let id = tracer.enter("sparql.execute_plan_traced", 0);
        let rs = ir::execute_plan_traced(&s.store, &plan, &consts, &opts, &mut trace)
            .expect("workload query executes");
        tracer.exit(id);
        examined += trace.steps_examined();
        results += rs.len();
    }
    let n = parse.len() as u64;
    metrics.insert("sparql.parse_us", (stats::median(&parse), n));
    metrics.insert("sparql.compile_us", (stats::median(&compile), n));
    metrics.insert(
        "sparql.rows_examined_per_result",
        (examined as f64 / results.max(1) as f64, results as u64),
    );
    // Cumulative since the cache was created, warm-up included: the
    // first pass over the class is all text misses, everything after
    // is text hits.
    let c = s.cache.stats();
    let lookups = c.hits + c.misses;
    metrics.insert(
        "sparql.text_hit_ratio",
        (c.hits as f64 / lookups.max(1) as f64, lookups),
    );
    // Of the text misses, the share that found a compiled plan of the
    // same shape (S1–S5 share one, S6–S10 another).
    metrics.insert(
        "sparql.plan_hit_ratio",
        (
            (c.misses - c.compiles) as f64 / c.misses.max(1) as f64,
            c.misses,
        ),
    );
}
