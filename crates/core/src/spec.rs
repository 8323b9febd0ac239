//! Textual scenario-spec parsing shared by every served front-end.
//!
//! The `sweep` CLI, the `sweep-server` wire protocol and the
//! `sweep-load` generator all accept the same compact scenario grammar
//! (`three_pairs`, `pairs:4`, `multi_ap:2x3`, `hidden:5`, `asym:3`,
//! `dense:16`, `random:7`, `city:1024`), optionally wrapped in a
//! traffic-model prefix (`load:poisson:0.5/city:64`). This module is
//! the one fallible parser behind all of them: every malformed spec —
//! unparseable numbers, out-of-range family sizes, a city too large
//! for the chosen environment — is an `Err` with a one-line message,
//! never a panic, so a server can reject it with an error response and
//! a CLI with a clean exit 2.

use crate::generator::{ScenarioGenerator, MAX_DENSE_NODES, MAX_NODES};
use crate::sim::{Flow, Scenario, TrafficModel};
use nplus_channel::placement::MULTI_CELL_GROUP;

/// A fully parsed scenario spec: the scenario itself plus the traffic
/// model a `load:` prefix requested (`None` = the caller's default,
/// i.e. saturated).
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `parse_spec`
pub struct ParsedSpec {
    /// The parsed scenario.
    pub scenario: Scenario,
    /// Traffic model from a `load:<model>/` prefix, if one was given.
    pub traffic: Option<TrafficModel>,
}

/// Deterministic procedural city: `n_nodes / 8` cells of one 4-antenna
/// AP plus seven stations alternating 1 and 2 antennas. Station flows
/// cycle downlink, downlink, uplink by station index, so roughly a
/// third of the traffic is station→AP. Zero RNG — the scenario is a
/// pure function of `n_nodes`, which keeps equal `city:` specs equal
/// everywhere (the server's content-addressed cache relies on that).
///
/// Placement comes from the environment's testbed (the `multi_cell`
/// grid places node `8k` at cell `k`'s centre), so this scenario only
/// fits environments with at least `n_nodes` slots.
///
/// # Panics
/// If `n_nodes` is zero or not a multiple of [`MULTI_CELL_GROUP`] (the
/// spec parser validates first; direct callers must too).
pub(crate) fn city_scenario(n_nodes: usize) -> Scenario {
    assert!(
        n_nodes > 0 && n_nodes.is_multiple_of(MULTI_CELL_GROUP),
        "city_scenario: n_nodes must be a positive multiple of {MULTI_CELL_GROUP}, got {n_nodes}"
    );
    let mut antennas = Vec::with_capacity(n_nodes);
    let mut flows = Vec::new();
    for cell in 0..n_nodes / MULTI_CELL_GROUP {
        let ap = cell * MULTI_CELL_GROUP;
        antennas.push(4);
        for j in 0..MULTI_CELL_GROUP - 1 {
            let sta = ap + 1 + j;
            antennas.push(1 + (sta % 2));
            if j % 3 == 0 {
                flows.push(Flow { tx: sta, rx: ap });
            } else {
                flows.push(Flow { tx: ap, rx: sta });
            }
        }
    }
    Scenario { antennas, flows }
}

/// Parses one operand of the scenario grammar into a [`Scenario`].
///
/// Generated families are seeded (generator seed 42 unless `random:`
/// supplies one), so equal specs parse to equal scenarios everywhere —
/// the property the server's content-addressed cache keys rely on.
/// `env_capacity` sizes the `random:` family draw to the chosen
/// environment's map ([`ScenarioGenerator::random_for_capacity`]).
///
/// # Errors
/// A one-line description of the malformed spec (unknown form, number
/// that does not parse, family size outside its documented range).
pub(crate) fn parse_scenario_spec(spec: &str, env_capacity: usize) -> Result<Scenario, String> {
    fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{what} needs a number, got {s:?}"))
    }
    if let Some(n) = spec.strip_prefix("pairs:") {
        let n: usize = num(n, "pairs:<n>")?;
        if !(1..=MAX_NODES / 2).contains(&n) {
            return Err(format!("pairs:<n> needs 1..={}", MAX_NODES / 2));
        }
        return Ok(ScenarioGenerator::new(42).n_pairs(n));
    }
    if let Some(shape) = spec.strip_prefix("multi_ap:") {
        let (a, c) = shape
            .split_once('x')
            .ok_or_else(|| format!("multi_ap:<aps>x<clients> needs AxC, got {shape:?}"))?;
        let (a, c): (usize, usize) = (num(a, "multi_ap AP count")?, num(c, "multi_ap clients")?);
        if a < 1 || c < 1 || a * (1 + c) > MAX_NODES {
            return Err(format!(
                "multi_ap:<aps>x<clients> needs aps*(1+clients) in 2..={MAX_NODES}"
            ));
        }
        return Ok(ScenarioGenerator::new(42).multi_ap(a, c));
    }
    if let Some(n) = spec.strip_prefix("hidden:") {
        let n: usize = num(n, "hidden:<n>")?;
        if !(2..MAX_NODES).contains(&n) {
            return Err(format!("hidden:<n> needs 2..={}", MAX_NODES - 1));
        }
        return Ok(ScenarioGenerator::new(42).hidden_terminal(n));
    }
    if let Some(n) = spec.strip_prefix("asym:") {
        let n: usize = num(n, "asym:<n>")?;
        if !(1..=MAX_NODES / 2).contains(&n) {
            return Err(format!("asym:<n> needs 1..={}", MAX_NODES / 2));
        }
        return Ok(ScenarioGenerator::new(42).asymmetric_antenna(n));
    }
    if let Some(n) = spec.strip_prefix("dense:") {
        let n: usize = num(n, "dense:<n>")?;
        if !(4..=MAX_DENSE_NODES).contains(&n) || !n.is_multiple_of(2) {
            return Err(format!(
                "dense:<n> needs an even node count in 4..={MAX_DENSE_NODES}"
            ));
        }
        return Ok(ScenarioGenerator::new(42).dense(n));
    }
    if let Some(seed) = spec.strip_prefix("random:") {
        let seed: u64 = num(seed, "random:<seed>")?;
        if env_capacity < 6 {
            return Err(format!(
                "random: needs an environment with >= 6 placement slots, got {env_capacity}"
            ));
        }
        return Ok(ScenarioGenerator::new(seed).random_for_capacity(env_capacity));
    }
    if let Some(n) = spec.strip_prefix("city:") {
        let n: usize = num(n, "city:<n>")?;
        if n == 0 || !n.is_multiple_of(MULTI_CELL_GROUP) {
            return Err(format!(
                "city:<n> needs a positive multiple of {MULTI_CELL_GROUP}, got {n}"
            ));
        }
        if n > env_capacity {
            return Err(format!(
                "city:{n} does not fit the environment's {env_capacity} placement slots \
                 (try --env multi_cell)"
            ));
        }
        return Ok(city_scenario(n));
    }
    if spec.starts_with("load:") {
        return Err(
            "load:<model>/<spec> carries a traffic model; this front-end only accepts \
             plain scenario specs"
                .to_string(),
        );
    }
    match spec {
        "three_pairs" => Ok(Scenario::three_pairs()),
        "ap_downlink" => Ok(Scenario::ap_downlink()),
        other => Err(format!("unknown scenario spec {other:?}")),
    }
}

/// Parses the full spec grammar: every scenario form (`three_pairs`,
/// `pairs:4`, `city:1024`, …), plus an optional `load:<model>/`
/// traffic prefix (`load:poisson:0.5/city:64`, `load:bursty:3x9/pairs:4`,
/// `load:saturated/dense:16`). The model names and parameter syntax
/// are exactly [`TrafficModel`]'s spec strings, so the wrapped form
/// round-trips through `CanonicalSpec` hashing unchanged.
///
/// # Errors
/// A one-line description of the malformed spec — from the scenario
/// grammar or from the traffic-model parse.
pub fn parse_spec(spec: &str, env_capacity: usize) -> Result<ParsedSpec, String> {
    if let Some(rest) = spec.strip_prefix("load:") {
        // The model's own parameters may contain `:` (poisson:0.5), so
        // the scenario divider is `/` — split once, model first.
        let (model, inner) = rest.split_once('/').ok_or_else(|| {
            format!("load:<model>/<spec> needs a '/' before the scenario, got {rest:?}")
        })?;
        let traffic: TrafficModel = model.parse()?;
        if inner.starts_with("load:") {
            return Err(format!("load: cannot nest: {spec:?}"));
        }
        let scenario = parse_scenario_spec(inner, env_capacity)?;
        return Ok(ParsedSpec {
            scenario,
            traffic: Some(traffic),
        });
    }
    Ok(ParsedSpec {
        scenario: parse_scenario_spec(spec, env_capacity)?,
        traffic: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_and_generated_forms_parse() {
        assert_eq!(
            parse_scenario_spec("three_pairs", 40).unwrap().antennas,
            Scenario::three_pairs().antennas
        );
        assert_eq!(
            parse_scenario_spec("ap_downlink", 40).unwrap().flows,
            Scenario::ap_downlink().flows
        );
        let pairs = parse_scenario_spec("pairs:4", 40).unwrap();
        assert_eq!(pairs.antennas.len(), 8);
        assert_eq!(pairs.flows.len(), 4);
        // Generated specs are deterministic: same text, same scenario.
        assert_eq!(
            parse_scenario_spec("pairs:4", 40).unwrap().antennas,
            pairs.antennas
        );
        let ap = parse_scenario_spec("multi_ap:2x3", 40).unwrap();
        assert_eq!(ap.antennas.len(), 8);
        assert!(parse_scenario_spec("hidden:3", 40).is_ok());
        assert!(parse_scenario_spec("asym:2", 40).is_ok());
        assert!(parse_scenario_spec("dense:16", 40).is_ok());
        // random: sizes itself to the environment capacity.
        let r = parse_scenario_spec("random:7", 8).unwrap();
        assert!(r.antennas.len() <= 8);
    }

    #[test]
    fn city_specs_build_deterministic_cells() {
        let city = parse_scenario_spec("city:16", 4096).unwrap();
        assert_eq!(city.antennas.len(), 16);
        assert_eq!(city.flows.len(), 14); // 7 station flows per cell
                                          // Cell structure: AP at 8k with 4 antennas, stations alternate.
        assert_eq!(city.antennas[0], 4);
        assert_eq!(city.antennas[8], 4);
        assert_eq!(&city.antennas[1..8], &[2, 1, 2, 1, 2, 1, 2]);
        // Stations j=0,3,6 in each cell send uplink, the rest downlink.
        let uplinks = city.flows.iter().filter(|f| f.rx.is_multiple_of(8)).count();
        assert_eq!(uplinks, 6);
        city.validate().unwrap();
        // Pure function of n: equal specs are equal scenarios.
        let again = parse_scenario_spec("city:16", 4096).unwrap();
        assert_eq!(city.antennas, again.antennas);
        assert_eq!(city.flows, again.flows);
        // A thousand-node city is valid and sized as promised.
        let big = parse_scenario_spec("city:1024", 4096).unwrap();
        assert_eq!(big.antennas.len(), 1024);
        big.validate().unwrap();
    }

    #[test]
    fn load_prefix_parses_traffic_and_inner_scenario() {
        let p = parse_spec("load:poisson:0.5/city:16", 4096).unwrap();
        assert_eq!(p.scenario.antennas.len(), 16);
        assert_eq!(
            p.traffic,
            Some(TrafficModel::Poisson {
                mean_per_round: 0.5
            })
        );
        let p = parse_spec("load:bursty:3x9/pairs:2", 40).unwrap();
        assert_eq!(
            p.traffic,
            Some(TrafficModel::Bursty {
                mean_on_rounds: 3.0,
                mean_off_rounds: 9.0
            })
        );
        let p = parse_spec("load:saturated/three_pairs", 40).unwrap();
        assert_eq!(p.traffic, Some(TrafficModel::Saturated));
        // No prefix: plain scenarios pass through with traffic = None.
        let p = parse_spec("dense:8", 40).unwrap();
        assert!(p.traffic.is_none());
        assert_eq!(p.scenario.antennas.len(), 8);
    }

    #[test]
    fn every_malformed_spec_is_an_err_not_a_panic() {
        for bad in [
            "pairs:",
            "pairs:zero",
            "pairs:0",
            "pairs:999",
            "multi_ap:3",
            "multi_ap:AxB",
            "multi_ap:9x9",
            "hidden:1",
            "hidden:99",
            "hidden:abc",
            "asym:0",
            "asym:9",
            "dense:3",
            "dense:7",
            "dense:34",
            "random:",
            "random:x",
            "city:",
            "city:0",
            "city:7",
            "city:12",
            "warehouse",
            "",
        ] {
            let err = parse_scenario_spec(bad, 40).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        // Tiny environments reject the random family cleanly too.
        assert!(parse_scenario_spec("random:1", 5).is_err());
        // A city larger than the environment's map is an Err, not a
        // panic deep inside placement.
        assert!(parse_scenario_spec("city:48", 40).is_err());
        assert!(parse_scenario_spec("city:8", 40).is_ok());
        // load: belongs to parse_spec; the plain parser refuses it.
        assert!(parse_scenario_spec("load:poisson:0.5/pairs:2", 40).is_err());
        // Malformed load: wrappers fail with one-line errors too.
        for bad in [
            "load:poisson:0.5",                      // no '/<spec>'
            "load:/pairs:2",                         // empty model
            "load:cbr:4/pairs:2",                    // unknown model
            "load:poisson:0/pairs:2",                // invalid parameter
            "load:poisson:0.5/",                     // empty inner spec
            "load:poisson:0.5/warehouse",            // unknown inner spec
            "load:saturated/load:saturated/pairs:2", // nesting
        ] {
            let err = parse_spec(bad, 40).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        // Every parsed scenario passes structural validation.
        for good in ["pairs:2", "multi_ap:1x2", "hidden:4", "asym:3", "dense:8"] {
            parse_scenario_spec(good, 40)
                .unwrap()
                .validate()
                .unwrap_or_else(|e| panic!("{good}: {e}"));
        }
    }
}
