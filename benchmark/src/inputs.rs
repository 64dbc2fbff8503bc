//! Every input of every workload, generated in-process from `--seed`:
//! the LUBM graph and its query workload, the water baseline and its
//! sliding-window stream, and the served query mix. Nothing else in the
//! benchmark draws randomness.

use crate::stats::Digest;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use se_datagen::water::{generate_stream, WaterConfig};
use se_datagen::workload::{self, WorkloadQuery};
use se_datagen::{lubm, StreamBatch};
use se_rdf::vocab::qudt;
use se_rdf::{Graph, Term, Triple};
use std::collections::{BTreeMap, BTreeSet};

/// An independent generator seed per input stream, so adding a draw to
/// one input never shifts another.
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(&seed.to_le_bytes());
    d.text(stream);
    d.value()
}

pub fn rng(seed: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// Fisher–Yates with the run's generator (the vendored `rand` has no
/// `shuffle`).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// One LUBM university is 88–129 K triples depending on how many
/// departments the seed draws, and scan and join latencies follow the
/// size. Every seed is cut to the same length (the paper carves its
/// subsets the same way) so that runs on different seeds measure the
/// same amount of work.
pub const LUBM_TRIPLES: usize = 85_000;

pub fn lubm_graph(seed: u64) -> Graph {
    let mut g = lubm::generate(1, sub_seed(seed, "lubm"));
    g.truncate(LUBM_TRIPLES);
    g
}

/// The paper workload over `graph`, with S1–S10's constants chosen here.
///
/// `se_datagen::workload::{spo_queries, po_queries}` pick the subject or
/// object whose fan-out is closest to each Table 1–2 target with
/// `min_by_key` over a `HashMap`, so ties between equally good constants
/// are broken by the map's per-instance random iteration order: the same
/// seed gave different S1–S10 texts on each call. The benchmark must give
/// the same inputs for the same seed, and may not edit `crates/`, so it
/// makes the same choice over sorted maps (first minimum in term order).
/// S11–S15, M1–M5 and R1–R6 come from datagen unchanged; once datagen
/// breaks ties deterministically this function reduces to `full_workload`.
pub fn paper_workload(graph: &Graph) -> Vec<WorkloadQuery> {
    let mut fanout_sp: BTreeMap<(&Term, &Term), usize> = BTreeMap::new();
    let mut fanout_po: BTreeMap<(&Term, &Term), usize> = BTreeMap::new();
    for t in graph.iter().filter(|t| !t.is_type_triple()) {
        *fanout_sp.entry((&t.subject, &t.predicate)).or_default() += 1;
        if t.object.is_resource() {
            *fanout_po.entry((&t.predicate, &t.object)).or_default() += 1;
        }
    }
    let closest = |counts: &BTreeMap<(&Term, &Term), usize>, target: usize| {
        let (&(a, b), _) = counts
            .iter()
            .min_by_key(|(_, &c)| c.abs_diff(target))
            .expect("graph has non-type triples");
        (a.clone(), b.clone())
    };
    let query = |id: String, text: String, target: usize| WorkloadQuery {
        id,
        text,
        reasoning: false,
        paper_cardinality: Some(target),
    };
    let mut out = Vec::new();
    for (i, &target) in workload::SPO_TARGETS.iter().enumerate() {
        let (s, p) = closest(&fanout_sp, target);
        let text = format!("SELECT ?X WHERE {{ {s} {p} ?X }}");
        out.push(query(format!("S{}", i + 1), text, target));
    }
    for (i, &target) in workload::PO_TARGETS.iter().enumerate() {
        let (p, o) = closest(&fanout_po, target);
        let text = format!("SELECT ?X WHERE {{ ?X {p} {o} }}");
        out.push(query(format!("S{}", i + 6), text, target));
    }
    out.extend(workload::p_queries());
    out.extend(workload::m_queries(graph));
    out.extend(workload::r_queries(graph));
    out
}

/// A sliding-window water stream: `baseline` is the net content of the
/// first `retain` rounds (the window, full), `batches` are the rounds
/// that follow, each inserting one round per sensor and retiring the
/// round that left the window.
pub struct WaterStream {
    pub baseline: Graph,
    pub batches: Vec<StreamBatch>,
}

pub fn water_stream(seed: u64, stations: usize, retain: usize, batches: usize) -> WaterStream {
    let cfg = WaterConfig {
        stations,
        rounds: 0,
        anomaly_rate: 0.1,
        seed: sub_seed(seed, "water"),
    };
    let mut all = generate_stream(&cfg, retain + batches, retain);
    let batches = all.split_off(retain);
    let mut oracle = Oracle::default();
    for b in &all {
        oracle.apply(b);
    }
    WaterStream {
        baseline: oracle.graph(),
        batches,
    }
}

/// The naive reference for every streaming check: a term-space triple
/// set replayed batch by batch, deletes before inserts like the engine.
#[derive(Default, Clone)]
pub struct Oracle(pub BTreeSet<Triple>);

impl Oracle {
    pub fn from_graph(g: &Graph) -> Self {
        Self(g.iter().cloned().collect())
    }

    pub fn apply(&mut self, b: &StreamBatch) {
        for t in &b.deletes {
            self.0.remove(t);
        }
        for t in &b.inserts {
            self.0.insert(t.clone());
        }
    }

    pub fn graph(&self) -> Graph {
        self.0.iter().cloned().collect()
    }

    pub fn agrees_with(&self, g: &Graph) -> bool {
        g.len() == self.0.len() && g.iter().all(|t| self.0.contains(t))
    }
}

pub fn digest_batches(d: &mut Digest, batches: &[StreamBatch]) {
    for b in batches {
        d.graph(&b.inserts);
        d.graph(&b.deletes);
    }
}

const WATER_PREFIXES: &str = "PREFIX sosa: <http://www.w3.org/ns/sosa/>\n\
     PREFIX qudt: <http://qudt.org/schema/qudt/>\n\
     PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

/// The three delta-eligible continuous BGP shapes registered beside the
/// anomaly query (pure BGPs with constant predicates, so the registry
/// evaluates them from each batch's delta).
pub fn continuous_bgps() -> [(&'static str, String); 3] {
    [
        (
            "observed",
            format!("{WATER_PREFIXES}SELECT ?s ?o WHERE {{ ?s sosa:observes ?o . ?o sosa:hasResult ?r }}"),
        ),
        (
            "values",
            format!("{WATER_PREFIXES}SELECT ?o ?v WHERE {{ ?o sosa:hasResult ?r . ?r qudt:numericValue ?v }}"),
        ),
        (
            "pressure",
            format!("{WATER_PREFIXES}SELECT ?r ?u WHERE {{ ?r qudt:unit ?u . ?u rdf:type qudt:PressureUnit }}"),
        ),
    ]
}

/// The read mix of `served_read`: a fixed rotation of [`MIX_CYCLE`]
/// slots, shuffled by the seed, rather than independent draws — the
/// shares below then hold exactly in every run, so two seeds differ in
/// constants and order but not in how much of each query they issue.
pub struct ReadMix {
    /// Distinct query texts: the hot ones first, then the cold family.
    pub texts: Vec<String>,
    /// Indices into `texts`, one per request, `len` a multiple of the
    /// cycle; requests are issued in this order, wrapping around.
    pub schedule: Vec<usize>,
    pub hot: usize,
}

pub const MIX_CYCLE: usize = 40;
/// More distinct texts than the plan cache's 1024-entry text level
/// holds, all of one shape: each is a text miss and a shape hit.
pub const COLD_TEXTS: usize = 4096;

/// Slots per cycle of each hot text, in `texts` order: four point
/// lookups 4 each, the LIMITed scan 5, two subsumption queries 5 each,
/// the anomaly query 1. With the 8 cold slots that is 80 % hot / 20 %
/// cold, 60 % of all requests single-pattern point lookups (so the
/// pooled median sits inside one cost cluster), and the expensive
/// anomaly query a 2.5 % tail.
const HOT_SLOTS: [usize; 8] = [4, 4, 4, 4, 5, 5, 5, 1];

pub fn read_mix(seed: u64, stream: &WaterStream, stations: usize) -> ReadMix {
    let mut rng = rng(seed, "read-mix");
    let station = |rng: &mut StdRng| rng.random_range(1..=stations);
    // Literal constants come from the data, so lookups hit: the hot one
    // from the uncompacted overlay, the cold family from anywhere.
    let values = |g: &Graph| -> Vec<Term> {
        g.iter()
            .filter(|t| t.predicate.as_iri() == Some(qudt::NUMERIC_VALUE))
            .map(|t| t.object.clone())
            .collect()
    };
    let overlay_values: Vec<Term> = stream
        .batches
        .iter()
        .flat_map(|b| values(&b.inserts))
        .collect();
    let hot_value = overlay_values[rng.random_range(0..overlay_values.len())].clone();

    let mut texts = vec![
        format!(
            "{WATER_PREFIXES}SELECT ?s WHERE {{ <http://engie.example/station/{}> sosa:hosts ?s }}",
            station(&mut rng)
        ),
        format!(
            "{WATER_PREFIXES}SELECT ?st WHERE {{ ?st sosa:hosts <http://engie.example/sensor/chem{}> }}",
            station(&mut rng)
        ),
        format!(
            "{WATER_PREFIXES}SELECT ?st WHERE {{ ?st sosa:hosts <http://engie.example/sensor/pressure{}> }}",
            station(&mut rng)
        ),
        format!("{WATER_PREFIXES}SELECT ?r WHERE {{ ?r qudt:numericValue {hot_value} }}"),
        format!("{WATER_PREFIXES}SELECT ?s ?o WHERE {{ ?s sosa:observes ?o }} LIMIT 20"),
        format!("{WATER_PREFIXES}SELECT ?u WHERE {{ ?u rdf:type qudt:Unit }}"),
        format!("{WATER_PREFIXES}SELECT ?u WHERE {{ ?u rdf:type qudt:MechanicsUnit }}"),
        se_datagen::workload::water_anomaly_query(),
    ];
    let hot = texts.len();

    let mut cold: BTreeSet<String> = values(&stream.baseline)
        .into_iter()
        .chain(overlay_values)
        .map(|v| v.to_string())
        .collect();
    cold.remove(&hot_value.to_string());
    let mut cold: Vec<String> = cold.into_iter().collect();
    shuffle(&mut cold, &mut rng);
    // Too few distinct readings in the data: fill with absent values
    // (same shape, empty answer).
    let mut filler = 0u32;
    while cold.len() < COLD_TEXTS {
        cold.push(se_rdf::Literal::double(1e6 + f64::from(filler)).to_string());
        filler += 1;
    }
    cold.truncate(COLD_TEXTS);
    for v in cold {
        texts.push(format!(
            "{WATER_PREFIXES}SELECT ?r WHERE {{ ?r qudt:numericValue {v} }}"
        ));
    }

    // Each cold text is issued once per pass over the schedule.
    let cold_per_cycle = MIX_CYCLE - HOT_SLOTS.iter().sum::<usize>();
    let cycles = COLD_TEXTS / cold_per_cycle;
    let mut schedule = Vec::with_capacity(cycles * MIX_CYCLE);
    for c in 0..cycles {
        let mut cycle: Vec<usize> = HOT_SLOTS
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .chain((0..cold_per_cycle).map(|k| hot + c * cold_per_cycle + k))
            .collect();
        shuffle(&mut cycle, &mut rng);
        schedule.extend(cycle);
    }
    ReadMix {
        texts,
        schedule,
        hot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64) -> u64 {
        let stream = water_stream(seed, 4, 6, 5);
        let mix = read_mix(seed, &stream, 4);
        let mut d = Digest::default();
        d.graph(&stream.baseline);
        digest_batches(&mut d, &stream.batches);
        for &i in &mix.schedule[..200] {
            d.text(&mix.texts[i]);
        }
        let mut g = lubm::generate(1, sub_seed(seed, "lubm"));
        g.truncate(20_000);
        d.graph(&g);
        for q in paper_workload(&g) {
            d.text(&q.text);
        }
        d.value()
    }

    #[test]
    fn paper_workload_is_the_paper_s_and_breaks_ties_in_term_order() {
        let mut g = lubm::generate(1, sub_seed(4, "lubm"));
        g.truncate(20_000);
        let w = paper_workload(&g);
        let ids: Vec<&str> = w.iter().map(|q| q.id.as_str()).collect();
        let datagen: Vec<String> = workload::full_workload(&g)
            .into_iter()
            .map(|q| q.id)
            .collect();
        assert_eq!(ids, datagen, "same 26 queries, same order");
        // Each S1–S5 constant has the fan-out closest to its target, as
        // datagen's choice has.
        for (q, target) in w.iter().zip(workload::SPO_TARGETS) {
            let chosen = g
                .iter()
                .filter(|t| {
                    q.text
                        .contains(&format!("{{ {} {} ?X", t.subject, t.predicate))
                })
                .count();
            let best = {
                let mut counts: BTreeMap<(&Term, &Term), usize> = BTreeMap::new();
                for t in g.iter().filter(|t| !t.is_type_triple()) {
                    *counts.entry((&t.subject, &t.predicate)).or_default() += 1;
                }
                counts.values().map(|c| c.abs_diff(target)).min().unwrap()
            };
            assert_eq!(chosen.abs_diff(target), best, "{}", q.id);
        }
    }

    #[test]
    fn same_seed_same_digest() {
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }

    #[test]
    fn mix_shares_hold_exactly() {
        let stream = water_stream(3, 4, 6, 5);
        let mix = read_mix(3, &stream, 4);
        assert_eq!(mix.texts.len(), mix.hot + COLD_TEXTS);
        assert_eq!(mix.schedule.len() % MIX_CYCLE, 0);
        // The first four hot texts and the whole cold family are
        // single-pattern point lookups.
        let points = mix
            .schedule
            .iter()
            .filter(|&&i| i < 4 || i >= mix.hot)
            .count();
        assert_eq!(points * 10, mix.schedule.len() * 6, "60 % point lookups");
        let cold = mix.schedule.iter().filter(|&&i| i >= mix.hot).count();
        assert_eq!(cold * 5, mix.schedule.len(), "20 % cold texts");
        let distinct: BTreeSet<&String> = mix.texts.iter().collect();
        assert_eq!(distinct.len(), mix.texts.len(), "texts are distinct");
    }

    #[test]
    fn baseline_is_the_full_window() {
        let stream = water_stream(5, 4, 6, 5);
        let mut oracle = Oracle::from_graph(&stream.baseline);
        let before = oracle.0.len();
        for b in &stream.batches {
            assert!(
                !b.deletes.is_empty(),
                "window full: every batch retires a round"
            );
            oracle.apply(b);
        }
        assert_eq!(oracle.0.len(), before, "steady state");
    }
}
