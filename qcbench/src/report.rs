//! The metrics a run prints: a human-readable table (value, unit, the
//! spread measured within the run, and its base) and the one-line JSON
//! result that ends standard output.

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Quartile spread of the repetitions behind the value, as a share
    /// of their median (`None` for deterministic values).
    pub spread: Option<f64>,
    /// What the value was computed from.
    pub base: String,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Engine run calls whose outputs the run used.
    pub calls: u64,
}

impl Report {
    /// Add a metric measured by repetition.
    pub fn timed(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        spread: f64,
        base: String,
    ) {
        self.push(name, value, unit, Some(spread), base);
    }

    /// Add a deterministic metric (or a count).
    pub fn exact(&mut self, name: &'static str, value: f64, unit: &'static str, base: String) {
        self.push(name, value, unit, None, base);
    }

    fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        spread: Option<f64>,
        base: String,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            spread,
            base,
        });
    }

    /// The table, one metric a line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>16} {:<14} {:>8}  {}\n",
            "metric", "value", "unit", "spread", "base"
        );
        for m in &self.metrics {
            let spread = m
                .spread
                .map_or_else(|| "exact".to_string(), |s| format!("{:.1}%", s * 100.0));
            out.push_str(&format!(
                "{:<34} {:>16.6} {:<14} {:>8}  {}\n",
                m.name, m.value, m.unit, spread, m.base
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric's value and unit. Only a run that passed the correctness
    /// gate prints it, so `failed` is always 0.
    ///
    /// # Errors
    ///
    /// A metric whose value is not a finite number.
    pub fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.calls.max(1),
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.timed("latency_ms", 1.25, "ms", 0.01, "n=3".into());
        r.exact("count", 3.0, "count", String::new());
        r.calls = 4;
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.exact("bad", f64::NAN, "ms", String::new());
        assert!(r.json().is_err());
    }
}
