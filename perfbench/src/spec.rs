//! One textual description of a sweep, turned into either a `SweepSpec`
//! (the in-process path) or a `sweep` request (the served path).

use nplus::sim::{MobilityModel, SinrGrid, SweepSpec};
use nplus_channel::environment::environment_from_name;
use nplus_testkit::parse_spec;
use std::fmt::Write as _;

/// A sweep in the vocabulary both front-ends accept.
#[derive(Debug, Clone)]
pub struct SpecText {
    /// Scenario in the testkit grammar (`three_pairs`, `load:…/city:1024`).
    pub scenario: String,
    /// Environment registry name.
    pub environment: String,
    /// Policy registry names, in comparison order.
    pub policies: Vec<String>,
    /// Topology seeds, in job order.
    pub seeds: Vec<u64>,
    /// Rounds per run.
    pub rounds: usize,
    /// Mobility model spec string (`None` = static).
    pub mobility: Option<String>,
    /// SINR grid spec string (`None` = full grid).
    pub sinr_grid: Option<String>,
}

impl SpecText {
    /// Policy-rounds one sweep of this spec simulates.
    pub fn policy_rounds(&self) -> usize {
        self.seeds.len() * self.rounds * self.policies.len()
    }

    /// The spec through the `SweepSpec` builder, serial (`threads(1)`).
    ///
    /// # Errors
    /// A one-line description of whatever part the registries or the
    /// scenario grammar reject.
    pub fn builder_spec(&self) -> Result<SweepSpec, String> {
        let env = environment_from_name(&self.environment)
            .ok_or_else(|| format!("unknown environment {:?}", self.environment))?;
        let parsed = parse_spec(&self.scenario, env.capacity())?;
        let mut spec = SweepSpec::new(parsed.scenario)
            .environment_named(&self.environment)?
            .rounds(self.rounds)
            .seeds(self.seeds.iter().copied())
            .threads(1);
        if let Some(traffic) = parsed.traffic {
            spec = spec.traffic(traffic);
        }
        if let Some(m) = &self.mobility {
            spec = spec.mobility(m.parse::<MobilityModel>()?);
        }
        if let Some(g) = &self.sinr_grid {
            spec = spec.sinr_grid(g.parse::<SinrGrid>()?);
        }
        for p in &self.policies {
            spec = spec.policy_named(p)?;
        }
        Ok(spec)
    }

    /// The `{"cmd":"sweep",…,"threads":1}` request text.
    pub fn request_json(&self) -> String {
        let quoted = |items: &[String]| {
            items
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let mut out = format!(
            "{{\"cmd\":\"sweep\",\"scenario\":\"{}\",\"environment\":\"{}\",\"policies\":[{}],\"seeds\":[{}],\"rounds\":{},\"threads\":1",
            self.scenario,
            self.environment,
            quoted(&self.policies),
            seeds.join(","),
            self.rounds
        );
        if let Some(m) = &self.mobility {
            let _ = write!(out, ",\"mobility\":\"{m}\"");
        }
        if let Some(g) = &self.sinr_grid {
            let _ = write!(out, ",\"sinr_grid\":\"{g}\"");
        }
        out.push('}');
        out
    }
}
