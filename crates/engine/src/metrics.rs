//! A metrics registry fed from the trace event stream.
//!
//! [`MetricsSink`] is a [`TraceSink`] that aggregates the core/lifecycle
//! events into a [`MetricsRegistry`]: global counters, gauges, histograms
//! with explicit buckets, and per-rule / per-predicate breakdowns. The
//! registry exports deterministic JSON ([`MetricsRegistry::to_json`]).
//!
//! Histograms observe **logical quantities only** (atoms per application)
//! — never wall-clock durations.
//! Timing would make the registry nondeterministic and would require
//! clock reads inside the chase hot loop; the deterministic core stays
//! clock-free, and the progress reporter (which genuinely is about time)
//! lives separately. Every counter reconciles exactly with
//! [`ChaseStats`]: `chase.applications == stats.applications`,
//! `atoms.inserted == stats.atoms_added`, and so on — a property the test
//! suite enforces on random programs.
//!
//! [`ChaseStats`]: crate::ChaseStats

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use chasekit_core::display::json_string;
use chasekit_core::Program;

use crate::trace::{TraceEvent, TraceSink};

/// A histogram over a logical (unitless, monotonic) quantity with explicit
/// bucket bounds: `counts[i]` counts observations `<= bounds[i]`, and the
/// final slot counts overflows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of the buckets, ascending.
    pub bounds: Vec<u64>,
    /// One count per bound, plus a trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram with the given bucket bounds.
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }
}

/// Per-rule firing profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleMetrics {
    /// Triggers admitted to the queue for this rule.
    pub admitted: u64,
    /// Candidate triggers deduplicated away.
    pub deduped: u64,
    /// Triggers skipped as satisfied (restricted chase).
    pub skipped: u64,
    /// Applications of this rule.
    pub applied: u64,
    /// New atoms its applications produced.
    pub atoms_added: u64,
    /// Duplicate head images its applications produced.
    pub duplicates: u64,
}

/// The aggregated metrics of one (or more) chase runs.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    /// Monotonic counters, keyed by dotted name.
    counters: BTreeMap<String, u64>,
    /// Last-value gauges, keyed by dotted name.
    gauges: BTreeMap<String, u64>,
    /// Logical-quantity histograms, keyed by dotted name.
    histograms: BTreeMap<String, Histogram>,
    /// Firing profile per rule index.
    per_rule: Vec<RuleMetrics>,
    /// Rule labels (rendered rules), parallel to `per_rule`.
    rule_labels: Vec<String>,
    /// Atoms inserted per predicate id.
    per_pred: Vec<u64>,
    /// Predicate names, parallel to `per_pred`.
    pred_labels: Vec<String>,
}

/// Bucket bounds for atoms-per-application (head sizes are small).
const APPLY_BUCKETS: &[u64] = &[0, 1, 2, 4, 8];

impl MetricsRegistry {
    /// An empty registry labelled for `program`'s rules and predicates.
    pub fn new(program: &Program) -> Self {
        let rule_labels = program
            .rules()
            .iter()
            .map(|r| chasekit_core::display::rule_to_string(r, &program.vocab))
            .collect::<Vec<_>>();
        let pred_labels = (0..program.vocab.pred_count())
            .map(|i| program.vocab.pred_name(chasekit_core::PredId(i as u32)).to_string())
            .collect::<Vec<_>>();
        let mut histograms = BTreeMap::new();
        histograms.insert("apply.new_atoms".to_string(), Histogram::new(APPLY_BUCKETS));
        MetricsRegistry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms,
            per_rule: vec![RuleMetrics::default(); rule_labels.len()],
            rule_labels,
            per_pred: vec![0; pred_labels.len()],
            pred_labels,
        }
    }

    /// Adds `by` to a counter.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Observes a value into a named histogram, creating it with `bounds`
    /// if missing.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The per-rule firing profiles, in rule order.
    pub fn per_rule(&self) -> &[RuleMetrics] {
        &self.per_rule
    }

    /// Atoms inserted per predicate id.
    pub fn per_pred(&self) -> &[u64] {
        &self.per_pred
    }

    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::TriggerAdmitted { rule } => {
                self.inc("triggers.admitted", 1);
                if let Some(r) = self.per_rule.get_mut(*rule) {
                    r.admitted += 1;
                }
            }
            TraceEvent::TriggerDeduped { rule } => {
                self.inc("triggers.deduped", 1);
                if let Some(r) = self.per_rule.get_mut(*rule) {
                    r.deduped += 1;
                }
            }
            TraceEvent::TriggerSkipped { rule } => {
                self.inc("triggers.skipped", 1);
                if let Some(r) = self.per_rule.get_mut(*rule) {
                    r.skipped += 1;
                }
            }
            TraceEvent::Applied { rule, new_atoms, duplicates, .. } => {
                self.inc("chase.applications", 1);
                self.inc("atoms.duplicates", *duplicates as u64);
                self.observe("apply.new_atoms", APPLY_BUCKETS, *new_atoms as u64);
                if let Some(r) = self.per_rule.get_mut(*rule) {
                    r.applied += 1;
                    r.atoms_added += *new_atoms as u64;
                    r.duplicates += *duplicates as u64;
                }
            }
            TraceEvent::AtomInserted { pred, .. } => {
                self.inc("atoms.inserted", 1);
                if let Some(p) = self.per_pred.get_mut(*pred as usize) {
                    *p += 1;
                }
            }
            TraceEvent::Stop { reason, applications, atoms } => {
                self.inc(&format!("stops.{}", reason.keyword()), 1);
                self.set_gauge("final.applications", *applications);
                self.set_gauge("final.atoms", *atoms as u64);
            }
            TraceEvent::CheckpointWrite { .. } => self.inc("checkpoint.writes", 1),
            TraceEvent::CheckpointResume { .. } => self.inc("checkpoint.resumes", 1),
            TraceEvent::GuardTrip { reason } => {
                self.inc(&format!("guard.trips.{}", reason.keyword()), 1);
            }
            TraceEvent::Retract { atoms, apps } => {
                self.inc("update.retractions", 1);
                self.inc("update.overdeleted_atoms", *atoms as u64);
                self.inc("update.invalidated_apps", *apps as u64);
            }
            TraceEvent::Rederive { apps, atoms } => {
                self.inc("update.rederived_apps", *apps as u64);
                self.inc("update.restored_atoms", *atoms as u64);
            }
            TraceEvent::EditApply { adds, retracts } => {
                self.inc("update.edits.adds", *adds as u64);
                self.inc("update.edits.retracts", *retracts as u64);
            }
        }
    }

    /// Deterministic JSON export: counters and gauges sorted by name,
    /// histograms with explicit bounds, per-rule and per-predicate tables
    /// in program order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");

        out.push_str("  \"counters\": {");
        push_map(&mut out, self.counters.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        push_map(&mut out, self.gauges.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        let rendered = self.histograms.iter().map(|(k, h)| {
            let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            (
                k.as_str(),
                format!(
                    "{{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
                    bounds.join(", "),
                    counts.join(", "),
                    h.sum,
                    h.count
                ),
            )
        });
        push_map(&mut out, rendered);
        out.push_str("},\n");

        out.push_str("  \"per_rule\": [");
        for (i, (r, label)) in self.per_rule.iter().zip(&self.rule_labels).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {i}, \"label\": {}, \"admitted\": {}, \"deduped\": {}, \
                 \"skipped\": {}, \"applied\": {}, \"atoms_added\": {}, \"duplicates\": {}}}",
                json_string(label),
                r.admitted,
                r.deduped,
                r.skipped,
                r.applied,
                r.atoms_added,
                r.duplicates
            ));
        }
        if !self.per_rule.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"per_predicate\": [");
        for (i, (count, label)) in self.per_pred.iter().zip(&self.pred_labels).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"predicate\": {}, \"atoms_inserted\": {count}}}",
                json_string(label)
            ));
        }
        if !self.per_pred.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {v}", json_string(k)));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// A [`TraceSink`] that aggregates events into a shared
/// [`MetricsRegistry`]. The registry is behind an `Arc<Mutex<_>>` so the
/// caller keeps a handle while the machine owns the sink.
pub struct MetricsSink {
    registry: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsSink {
    /// A sink over a fresh registry labelled for `program`.
    pub fn new(program: &Program) -> Self {
        MetricsSink { registry: Arc::new(Mutex::new(MetricsRegistry::new(program))) }
    }

    /// A handle on the registry (readable after the run).
    pub fn registry(&self) -> Arc<Mutex<MetricsRegistry>> {
        Arc::clone(&self.registry)
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, _seq: u64, event: &TraceEvent) {
        self.registry.lock().unwrap().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1045);
    }

    #[test]
    fn registry_json_is_deterministic_and_sorted() {
        let p = Program::parse("p(a). p(X) -> q(X, Y).").unwrap();
        let mut r = MetricsRegistry::new(&p);
        r.inc("z.last", 1);
        r.inc("a.first", 2);
        r.set_gauge("final.atoms", 7);
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        let a = json.find("\"a.first\"").unwrap();
        let z = json.find("\"z.last\"").unwrap();
        assert!(a < z, "counters must be name-sorted");
        assert!(json.contains("\"per_rule\""));
        assert!(json.contains("p(X) -> q(X, Y)."));
    }

    #[test]
    fn sink_aggregates_events() {
        let p = Program::parse("p(a). p(X) -> q(X, Y).").unwrap();
        let sink = MetricsSink::new(&p);
        let registry = sink.registry();
        let mut sink: Box<dyn TraceSink> = Box::new(sink);
        sink.record(0, &TraceEvent::TriggerAdmitted { rule: 0 });
        sink.record(1, &TraceEvent::Applied { app: 0, rule: 0, new_atoms: 1, duplicates: 0 });
        sink.record(2, &TraceEvent::AtomInserted { atom: 1, pred: 1, rule: 0, app: 0 });
        let r = registry.lock().unwrap();
        assert_eq!(r.counter("triggers.admitted"), 1);
        assert_eq!(r.counter("chase.applications"), 1);
        assert_eq!(r.counter("atoms.inserted"), 1);
        assert_eq!(r.per_rule()[0].applied, 1);
        assert_eq!(r.per_pred()[1], 1);
        assert_eq!(r.histogram("apply.new_atoms").unwrap().count, 1);
    }
}
