//! Synthetic water-distribution measurement graphs (the paper's real-world
//! ENGIE datasets, §2 and §7.2).
//!
//! Each graph is a snapshot of a building's potable-water IoT network:
//! stations (SOSA platforms) host pressure and chemistry sensors whose
//! observations carry QUDT-annotated results. Faithfully to §2, the two
//! station profiles annotate similar measures with *different* concepts
//! and units:
//!
//! * **Station profile 1** — pressure results typed
//!   `qudt:PressureOrStressUnit`, value in Bar (`unit:BAR`); chemistry
//!   results typed `qudt:Chemistry`;
//! * **Station profile 2** — pressure results typed `qudt:PressureUnit`,
//!   value in hectopascal (`unit:HectoPA`); chemistry results typed
//!   `qudt:AmountOfSubstanceUnit`.
//!
//! A single query over `qudt:PressureUnit` with LiteMat reasoning catches
//! both profiles — that is the §2 scenario. Normal pressure lies in
//! `[3.0, 4.5]` Bar; with probability `anomaly_rate` a measurement falls
//! outside (the anomaly the continuous query must detect).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use se_rdf::vocab::{qudt, rdf, sosa, xsd};
use se_rdf::{Graph, Literal, Term, Triple};

/// Tunable generator configuration.
#[derive(Debug, Clone)]
pub struct WaterConfig {
    /// Number of stations (alternating between the two §2 profiles).
    pub stations: usize,
    /// Measurement rounds per sensor.
    pub rounds: usize,
    /// Probability that a pressure measurement is anomalous.
    pub anomaly_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WaterConfig {
    fn default() -> Self {
        Self {
            stations: 2,
            rounds: 8,
            anomaly_rate: 0.1,
            seed: 42,
        }
    }
}

/// Generates a measurement graph of roughly `target_triples` triples
/// (250 or 500 in the paper). Rounds are added until the target is met.
pub fn generate(target_triples: usize, seed: u64) -> Graph {
    // Each round on each station produces ~22 triples (two sensors).
    let mut cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.15,
        seed,
    };
    loop {
        // Unit IRIs are shared across observations, so their rdf:type
        // triples repeat; size on *distinct* triples like the paper's
        // datasets.
        let mut g = generate_with(&cfg);
        g.dedup();
        if g.len() >= target_triples || cfg.rounds > 10_000 {
            g.truncate(target_triples);
            return g;
        }
        cfg.rounds += 1;
    }
}

/// Generates with explicit configuration.
pub fn generate_with(cfg: &WaterConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    let mut blank = 0usize;
    for st in 0..cfg.stations {
        let profile1 = st % 2 == 0;
        let station = Term::iri(format!("http://engie.example/station/{}", st + 1));
        g.insert(Triple::new(
            station.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(sosa::PLATFORM),
        ));
        let pressure_sensor = Term::iri(format!("http://engie.example/sensor/pressure{}", st + 1));
        let chem_sensor = Term::iri(format!("http://engie.example/sensor/chem{}", st + 1));
        for sensor in [&pressure_sensor, &chem_sensor] {
            g.insert(Triple::new(
                station.clone(),
                Term::iri(sosa::HOSTS),
                sensor.clone(),
            ));
            g.insert(Triple::new(
                sensor.clone(),
                Term::iri(rdf::TYPE),
                Term::iri(sosa::SENSOR),
            ));
        }
        for round in 0..cfg.rounds {
            // -------- pressure observation --------
            let anomalous = rng.random_bool(cfg.anomaly_rate);
            let bar = if anomalous {
                if rng.random_bool(0.5) {
                    rng.random_range(0.5..2.9)
                } else {
                    rng.random_range(4.6..7.0)
                }
            } else {
                rng.random_range(3.0..4.5)
            };
            let (value, unit_iri, unit_class) = if profile1 {
                (bar, qudt::BAR, qudt::PRESSURE_OR_STRESS_UNIT)
            } else {
                (bar * 1000.0, qudt::HECTO_PA, qudt::PRESSURE_UNIT)
            };
            emit_observation(
                &mut g,
                &mut blank,
                &pressure_sensor,
                round,
                value,
                unit_iri,
                unit_class,
            );
            // -------- chemistry observation --------
            let chem_value = rng.random_range(0.1..2.0);
            let chem_class = if profile1 {
                qudt::CHEMISTRY
            } else {
                qudt::AMOUNT_OF_SUBSTANCE_UNIT
            };
            emit_observation(
                &mut g,
                &mut blank,
                &chem_sensor,
                round,
                chem_value,
                "http://qudt.org/vocab/unit/MOL-PER-L",
                chem_class,
            );
        }
    }
    g
}

fn emit_observation(
    g: &mut Graph,
    blank: &mut usize,
    sensor: &Term,
    round: usize,
    value: f64,
    unit_iri: &str,
    unit_class: &str,
) {
    let (own, shared) = observation_triples(blank, sensor, round, value, unit_iri, unit_class);
    for t in own {
        g.insert(t);
    }
    g.insert(shared);
}

/// The triples of one observation, split into the observation-specific
/// part (blank-node subgraph + sensor edge — safe to retire later) and the
/// shared unit-typing triple (referenced by every observation using the
/// unit, so never retired with an individual observation).
fn observation_triples(
    blank: &mut usize,
    sensor: &Term,
    round: usize,
    value: f64,
    unit_iri: &str,
    unit_class: &str,
) -> (Vec<Triple>, Triple) {
    // Blank nodes for observation and result, as in the paper's Figure 1
    // ("green nodes are blank nodes").
    let obs = Term::blank(format!("obs{}", *blank));
    let res = Term::blank(format!("res{}", *blank));
    // One distinct unit node per observation, typed with the profile's
    // unit concept and linked to the concrete unit IRI via its own
    // annotation — the unit node is what `?u1 a qudt:PressureUnit` binds.
    let unit = Term::iri(unit_iri.to_string());
    *blank += 1;
    let own = vec![
        Triple::new(sensor.clone(), Term::iri(sosa::OBSERVES), obs.clone()),
        Triple::new(
            obs.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(sosa::OBSERVATION),
        ),
        Triple::new(obs.clone(), Term::iri(sosa::HAS_RESULT), res.clone()),
        Triple::new(
            obs.clone(),
            Term::iri(sosa::RESULT_TIME),
            Term::Literal(Literal::typed(
                format!("2020-11-01T{:02}:00:00Z", round % 24),
                xsd::DATE_TIME,
            )),
        ),
        Triple::new(res.clone(), Term::iri(rdf::TYPE), Term::iri(sosa::RESULT)),
        Triple::new(
            res.clone(),
            Term::iri(qudt::NUMERIC_VALUE),
            Term::Literal(Literal::double((value * 1000.0).round() / 1000.0)),
        ),
        Triple::new(res, Term::iri(qudt::UNIT), unit.clone()),
    ];
    let shared = Triple::new(
        unit,
        Term::iri(rdf::TYPE),
        Term::iri(unit_class.to_string()),
    );
    (own, shared)
}

/// One streamed batch of sensor data: fresh measurement rounds to insert
/// and expired observations to delete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamBatch {
    /// Newly arrived triples (topology on the first batch, then one
    /// measurement round per sensor).
    pub inserts: Graph,
    /// Retired triples (observation subgraphs older than the retention
    /// window; shared unit-typing triples are never retired).
    pub deletes: Graph,
}

/// Generates a deterministic stream of measurement batches over the §2
/// two-profile station topology.
///
/// Batch 0 carries the static topology plus the first measurement round;
/// every later batch carries one round per sensor. Once a round falls out
/// of the `retain_rounds` window, its observation subgraphs (blank-node
/// observations/results and the `sosa:observes` edges) are emitted as
/// deletions — the sliding-window ingestion pattern of an edge deployment.
pub fn generate_stream(
    cfg: &WaterConfig,
    batches: usize,
    retain_rounds: usize,
) -> Vec<StreamBatch> {
    assert!(retain_rounds >= 1, "retention window must keep >= 1 round");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut blank = 0usize;
    let mut out = Vec::with_capacity(batches);
    // Per-round observation-specific triples, for later retirement.
    let mut round_own: Vec<Vec<Triple>> = Vec::with_capacity(batches);

    // Static topology (batch 0).
    let mut topology = Graph::new();
    let mut sensors: Vec<(Term, Term, bool)> = Vec::new(); // (pressure, chem, profile1)
    for st in 0..cfg.stations {
        let profile1 = st % 2 == 0;
        let station = Term::iri(format!("http://engie.example/station/{}", st + 1));
        topology.insert(Triple::new(
            station.clone(),
            Term::iri(rdf::TYPE),
            Term::iri(sosa::PLATFORM),
        ));
        let pressure = Term::iri(format!("http://engie.example/sensor/pressure{}", st + 1));
        let chem = Term::iri(format!("http://engie.example/sensor/chem{}", st + 1));
        for sensor in [&pressure, &chem] {
            topology.insert(Triple::new(
                station.clone(),
                Term::iri(sosa::HOSTS),
                sensor.clone(),
            ));
            topology.insert(Triple::new(
                sensor.clone(),
                Term::iri(rdf::TYPE),
                Term::iri(sosa::SENSOR),
            ));
        }
        sensors.push((pressure, chem, profile1));
    }

    for round in 0..batches {
        let mut inserts = if round == 0 {
            topology.clone()
        } else {
            Graph::new()
        };
        let mut own_this_round = Vec::new();
        for (pressure_sensor, chem_sensor, profile1) in &sensors {
            // -------- pressure observation --------
            let anomalous = rng.random_bool(cfg.anomaly_rate);
            let bar = if anomalous {
                if rng.random_bool(0.5) {
                    rng.random_range(0.5..2.9)
                } else {
                    rng.random_range(4.6..7.0)
                }
            } else {
                rng.random_range(3.0..4.5)
            };
            let (value, unit_iri, unit_class) = if *profile1 {
                (bar, qudt::BAR, qudt::PRESSURE_OR_STRESS_UNIT)
            } else {
                (bar * 1000.0, qudt::HECTO_PA, qudt::PRESSURE_UNIT)
            };
            let (own, shared) = observation_triples(
                &mut blank,
                pressure_sensor,
                round,
                value,
                unit_iri,
                unit_class,
            );
            for t in &own {
                inserts.insert(t.clone());
            }
            inserts.insert(shared);
            own_this_round.extend(own);
            // -------- chemistry observation --------
            let chem_value = rng.random_range(0.1..2.0);
            let chem_class = if *profile1 {
                qudt::CHEMISTRY
            } else {
                qudt::AMOUNT_OF_SUBSTANCE_UNIT
            };
            let (own, shared) = observation_triples(
                &mut blank,
                chem_sensor,
                round,
                chem_value,
                "http://qudt.org/vocab/unit/MOL-PER-L",
                chem_class,
            );
            for t in &own {
                inserts.insert(t.clone());
            }
            inserts.insert(shared);
            own_this_round.extend(own);
        }
        round_own.push(own_this_round);

        let mut deletes = Graph::new();
        if round >= retain_rounds {
            for t in &round_own[round - retain_rounds] {
                deletes.insert(t.clone());
            }
        }
        out.push(StreamBatch { inserts, deletes });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        let g250 = generate(250, 1);
        assert_eq!(g250.len(), 250);
        let g500 = generate(500, 1);
        assert_eq!(g500.len(), 500);
    }

    #[test]
    fn deterministic() {
        let a = generate(250, 5);
        let b = generate(250, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn two_profiles_use_different_annotations() {
        let g = generate(500, 1);
        let has = |c: &str| {
            g.iter()
                .any(|t| t.is_type_triple() && t.object.as_iri() == Some(c))
        };
        assert!(has(qudt::PRESSURE_OR_STRESS_UNIT), "profile 1 annotation");
        assert!(has(qudt::PRESSURE_UNIT), "profile 2 annotation");
        assert!(has(qudt::CHEMISTRY) || has(qudt::AMOUNT_OF_SUBSTANCE_UNIT));
    }

    #[test]
    fn units_differ_between_profiles() {
        let g = generate(500, 1);
        let unit_used = |u: &str| {
            g.iter()
                .any(|t| t.predicate.as_iri() == Some(qudt::UNIT) && t.object.as_iri() == Some(u))
        };
        assert!(unit_used(qudt::BAR));
        assert!(unit_used(qudt::HECTO_PA));
    }

    #[test]
    fn observation_shape_matches_figure_1() {
        let g = generate_with(&WaterConfig {
            stations: 1,
            rounds: 1,
            anomaly_rate: 0.0,
            seed: 1,
        });
        let has_pred = |p: &str| g.iter().any(|t| t.predicate.as_iri() == Some(p));
        for p in [
            sosa::HOSTS,
            sosa::OBSERVES,
            sosa::HAS_RESULT,
            sosa::RESULT_TIME,
            qudt::NUMERIC_VALUE,
            qudt::UNIT,
        ] {
            assert!(has_pred(p), "missing predicate {p}");
        }
        // Observations and results are blank nodes.
        assert!(g.iter().any(|t| matches!(&t.subject, Term::Blank(_))));
    }

    #[test]
    fn stream_batches_are_deterministic_and_windowed() {
        let cfg = WaterConfig {
            stations: 2,
            rounds: 1,
            anomaly_rate: 0.2,
            seed: 11,
        };
        let a = generate_stream(&cfg, 8, 3);
        let b = generate_stream(&cfg, 8, 3);
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 8);
        // Batch 0 carries topology; all batches carry observations.
        assert!(a[0].inserts.len() > a[1].inserts.len());
        // No deletions until the window fills.
        for batch in &a[..3] {
            assert!(batch.deletes.is_empty());
        }
        // Afterwards every batch retires one round.
        for batch in &a[3..] {
            assert!(!batch.deletes.is_empty());
            // Shared unit-typing triples are never retired.
            for t in &batch.deletes {
                let retires_unit_typing = t.is_type_triple()
                    && t.subject
                        .as_iri()
                        .is_some_and(|s| s.contains("/vocab/unit/"));
                assert!(!retires_unit_typing, "retired shared unit typing: {t}");
            }
        }
        // Deleted triples were inserted in an earlier batch.
        let all_inserted: std::collections::HashSet<_> =
            a.iter().flat_map(|b| b.inserts.iter().cloned()).collect();
        for batch in &a {
            for t in &batch.deletes {
                assert!(all_inserted.contains(t), "deletion of never-inserted {t}");
            }
        }
    }

    #[test]
    fn stream_covers_both_profiles() {
        let cfg = WaterConfig {
            stations: 2,
            rounds: 1,
            anomaly_rate: 0.0,
            seed: 5,
        };
        let batches = generate_stream(&cfg, 4, 2);
        let has_class = |c: &str| {
            batches.iter().any(|b| {
                b.inserts
                    .iter()
                    .any(|t| t.is_type_triple() && t.object.as_iri() == Some(c))
            })
        };
        assert!(has_class(qudt::PRESSURE_OR_STRESS_UNIT));
        assert!(has_class(qudt::PRESSURE_UNIT));
    }

    #[test]
    fn anomaly_rate_zero_keeps_values_in_band() {
        let g = generate_with(&WaterConfig {
            stations: 2,
            rounds: 50,
            anomaly_rate: 0.0,
            seed: 3,
        });
        for t in &g {
            if t.predicate.as_iri() == Some(qudt::NUMERIC_VALUE) {
                let v: f64 = t.object.as_literal().unwrap().as_f64().unwrap();
                // Bar values in [3,4.5]; hPa values in [3000,4500]; chem < 2.
                assert!(
                    (0.0..=4.5).contains(&v) || (3000.0..=4500.0).contains(&v),
                    "out-of-band value {v}"
                );
            }
        }
    }
}
