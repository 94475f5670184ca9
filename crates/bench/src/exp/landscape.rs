//! E9 — the corpus-scale termination-checker shoot-out.
//!
//! Runs the **whole portfolio** — WA/RA via `check_with_work`, JA, aGRD,
//! MFA via `mfa_report`, the exact linear procedure (critical-WA/RA), the
//! guarded pumping procedure, the general pumping semi-decision, the
//! `decide` front door, and the restricted-chase procedure — over
//! thousands of ontology-shaped generated programs
//! ([`chasekit_datagen::ontology`]), establishes ground truth by bounded
//! chase of the critical instance under all three variants, and
//! cross-validates every verdict.
//!
//! # Ground-truth protocol
//!
//! For each program the critical instance is chased under each variant
//! with a budget. Saturation proves termination (Marnette's lemma for the
//! oblivious/semi-oblivious chase; for the restricted chase it only
//! reports that this fair order terminated on this database). A budget
//! overrun lands the program in the explicit **`exceeded` bucket**:
//! presumed diverging, never proven. Because terminating chases can be
//! long (see `binary_counter`), a checker claim of *terminates* against
//! an exceeded run first triggers one **escalated** re-run with
//! `escalation ×` the budget; only if the chase still exceeds is the pair
//! counted a contradiction.
//!
//! Contradictions are **hard failures**, not statistics:
//!
//! * claim `terminates` + chase exceeded (after escalation) — every
//!   variant (for the restricted chase a diverging fair order on the
//!   critical instance already refutes CT);
//! * claim `diverges` + chase saturated — oblivious/semi-oblivious only
//!   (restricted saturation of one order proves nothing about all
//!   databases, so the pair is skipped there).

use chasekit_acyclicity::{check_with_work, is_grd_acyclic, is_jointly_acyclic, GraphKind};
use chasekit_core::RuleClass;
use chasekit_datagen::ontology::{critical_constants, dl_lite_r, lubm};
use chasekit_datagen::LabeledProgram;
use chasekit_engine::{Budget, ChaseVariant};
use chasekit_termination::{
    decide, decide_guarded, decide_linear, mfa_report, pumping_decide, CheckerEffort,
    GuardedConfig, MfaStatus,
};

use crate::exp::timed;
use crate::table::Table;
use crate::truth::{critical_chase_truth, ChaseTruth};

/// Every checker in the shoot-out, in record order. The JSON rows and the
/// smoke tests key on these names.
pub const CHECKERS: &[&str] = &[
    "wa(so)",
    "ra(o)",
    "ja(so)",
    "agrd(so)",
    "agrd(o)",
    "mfa(so)",
    "critical-wa(so)",
    "critical-ra(o)",
    "guarded(so)",
    "guarded(o)",
    "pumping(so)",
    "pumping(o)",
    "portfolio(so)",
    "portfolio(o)",
    "restricted",
];

/// Index into the per-variant ground truth for each checker: 0 = so,
/// 1 = o, 2 = restricted.
const CHECKER_VARIANT: &[usize] = &[0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 2];

const VARIANT_NAMES: &[&str] = &["so", "o", "restricted"];

/// A seeded, size-parameterized program generator.
pub type FamilyGen = fn(usize, u64) -> LabeledProgram;

/// The generated families (name, generator).
pub const FAMILIES: &[(&str, FamilyGen)] =
    &[("dl-lite-r", dl_lite_r), ("lubm", lubm), ("critical-constants", critical_constants)];

/// E9 parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Family size parameters to sweep.
    pub sizes: Vec<usize>,
    /// Seeds per (family, size) cell.
    pub seeds_per_size: u64,
    /// Per-checker fuel (MFA, pumping, portfolio).
    pub checker_budget: Budget,
    /// Ground-truth bounded-chase fuel (before escalation).
    pub truth_budget: Budget,
    /// Budget multiplier for the escalated ground-truth re-run.
    pub escalation: u32,
    /// Marked in the JSON so smoke-mode numbers are never mistaken for
    /// real ones.
    pub quick: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            sizes: vec![2, 4, 8, 12],
            seeds_per_size: 125,
            checker_budget: Budget {
                max_applications: 10_000,
                max_atoms: 100_000,
                ..Budget::unlimited()
            },
            truth_budget: Budget {
                max_applications: 20_000,
                max_atoms: 200_000,
                ..Budget::unlimited()
            },
            escalation: 8,
            quick: false,
        }
    }
}

impl Params {
    /// The `--quick` smoke configuration: still ≥ 1000 programs across
    /// the three families, smaller budgets.
    pub fn quick() -> Params {
        Params {
            sizes: vec![2, 4, 6],
            seeds_per_size: 112,
            checker_budget: Budget {
                max_applications: 4_000,
                max_atoms: 40_000,
                ..Budget::unlimited()
            },
            truth_budget: Budget {
                max_applications: 8_000,
                max_atoms: 80_000,
                ..Budget::unlimited()
            },
            escalation: 8,
            quick: true,
        }
    }
}

/// One checker's outcome on one program.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// `None` both for "no claim" (a sufficient condition rejecting) and
    /// for fuel-limited unknowns.
    claim: Option<bool>,
    /// Whether the checker ran at all (the exact procedures only accept
    /// their class).
    applicable: bool,
    /// [`CheckerEffort::cost`] scalar.
    cost: u64,
    /// Wall-clock microseconds.
    us: u128,
}

const NOT_APPLICABLE: Record = Record { claim: None, applicable: false, cost: 0, us: 0 };

/// One program's full evaluation.
struct ProgramEval {
    /// The generated program's name (family + size + seed); tests key
    /// assertion messages on it, the aggregator only reads the fields
    /// below.
    #[cfg_attr(not(test), allow(dead_code))]
    name: String,
    /// Ground truth per variant (so, o, restricted).
    truth: [ChaseTruth; 3],
    /// Whether the escalated re-run fired per variant.
    escalated: [bool; 3],
    records: Vec<Record>,
    contradictions: Vec<String>,
}

/// E9 outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Programs evaluated.
    pub programs: u64,
    /// Hard cross-validation failures (must be empty).
    pub contradictions: Vec<String>,
}

/// Tables + outcome + the BENCH_checker_landscape.json body.
pub struct LandscapeResult {
    /// Rendered tables (per-checker landscape, ground-truth census).
    pub tables: Vec<Table>,
    /// Pass/fail counters.
    pub outcome: Outcome,
    /// JSON body for `BENCH_checker_landscape.json`.
    pub json: String,
}

fn scaled(budget: &Budget, factor: u32) -> Budget {
    Budget {
        max_applications: budget.max_applications.saturating_mul(factor as u64),
        max_atoms: budget.max_atoms.saturating_mul(factor as usize),
        ..*budget
    }
}

/// Runs every checker on one program (ground truth comes separately).
fn run_checkers(lp: &LabeledProgram, params: &Params) -> Vec<Record> {
    let p = &lp.program;
    let class = p.class();
    let linear = class <= RuleClass::Linear;
    let guarded = class <= RuleClass::Guarded;
    let mut recs = Vec::with_capacity(CHECKERS.len());

    // wa(so) / ra(o): sufficient, termination claims only.
    for kind in [GraphKind::Standard, GraphKind::Extended] {
        let ((verdict, work), us) = timed(|| check_with_work(p, kind));
        recs.push(Record {
            claim: verdict.is_acyclic().then_some(true),
            applicable: true,
            cost: CheckerEffort::from(work).cost(),
            us,
        });
    }
    // ja(so).
    let (ja, us) = timed(|| is_jointly_acyclic(p));
    recs.push(Record { claim: ja.then_some(true), applicable: true, cost: 0, us });
    // agrd: one computation, sound for both variants.
    let (agrd, us) = timed(|| is_grd_acyclic(p));
    let agrd_rec = Record { claim: agrd.then_some(true), applicable: true, cost: 0, us };
    recs.push(agrd_rec);
    recs.push(agrd_rec);
    // mfa(so).
    let (mfa, us) = timed(|| mfa_report(p, &params.checker_budget));
    recs.push(Record {
        claim: (mfa.status == MfaStatus::Mfa).then_some(true),
        applicable: true,
        cost: mfa.effort.cost(),
        us,
    });
    // critical-wa(so) / critical-ra(o): exact on linear inputs.
    for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
        if linear {
            let (d, us) = timed(|| decide_linear(p, variant, false).expect("class checked"));
            recs.push(Record {
                claim: Some(d.terminates),
                applicable: true,
                cost: CheckerEffort::graph(d.position_nodes, d.position_edges, 0).cost(),
                us,
            });
        } else {
            recs.push(NOT_APPLICABLE);
        }
    }
    // guarded(so) / guarded(o): exact (modulo fuel) on guarded inputs.
    for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
        if guarded {
            let mut cfg = GuardedConfig::new(variant);
            cfg.max_applications = params.checker_budget.max_applications;
            cfg.max_atoms = params.checker_budget.max_atoms;
            let (r, us) = timed(|| decide_guarded(p, cfg).expect("class checked"));
            recs.push(Record {
                claim: r.verdict.terminates(),
                applicable: true,
                cost: r.effort.cost(),
                us,
            });
        } else {
            recs.push(NOT_APPLICABLE);
        }
    }
    // pumping(so) / pumping(o): the sound-both-ways semi-decision, any class.
    for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
        let mut cfg = GuardedConfig::new(variant);
        cfg.max_applications = params.checker_budget.max_applications;
        cfg.max_atoms = params.checker_budget.max_atoms;
        let (r, us) = timed(|| pumping_decide(p, cfg).expect("variant is not restricted"));
        recs.push(Record {
            claim: r.verdict.terminates(),
            applicable: true,
            cost: r.effort.cost(),
            us,
        });
    }
    // portfolio(so) / portfolio(o): the front door.
    for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
        let (d, us) = timed(|| decide(p, variant, &params.checker_budget));
        recs.push(Record { claim: d.terminates, applicable: true, cost: d.effort.cost(), us });
    }
    // restricted.
    let (v, us) = timed(|| chasekit_termination::restricted_verdict(p));
    recs.push(Record { claim: v.terminates, applicable: true, cost: 0, us });

    recs
}

fn evaluate(lp: &LabeledProgram, params: &Params) -> ProgramEval {
    let records = run_checkers(lp, params);

    let variants = [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious, ChaseVariant::Restricted];
    let mut truth = [ChaseTruth::Exceeded; 3];
    let mut escalated = [false; 3];
    for (vi, &variant) in variants.iter().enumerate() {
        truth[vi] = critical_chase_truth(&lp.program, variant, &params.truth_budget);
        if truth[vi] == ChaseTruth::Exceeded {
            // Escalate only when a checker actually claims termination for
            // this variant — the only case where `exceeded` could turn a
            // slow saturation into a false contradiction.
            let claimed = records
                .iter()
                .zip(CHECKER_VARIANT)
                .any(|(r, &cv)| cv == vi && r.claim == Some(true));
            if claimed {
                escalated[vi] = true;
                truth[vi] = critical_chase_truth(
                    &lp.program,
                    variant,
                    &scaled(&params.truth_budget, params.escalation),
                );
            }
        }
    }

    let mut contradictions = Vec::new();
    for (ci, rec) in records.iter().enumerate() {
        let vi = CHECKER_VARIANT[ci];
        match (rec.claim, truth[vi]) {
            (Some(true), ChaseTruth::Exceeded) => contradictions.push(format!(
                "{}: {} claims terminates but the {} chase of the critical instance \
                 exceeded the escalated budget",
                lp.name, CHECKERS[ci], VARIANT_NAMES[vi]
            )),
            (Some(false), ChaseTruth::Saturates) if vi != 2 => contradictions.push(format!(
                "{}: {} claims diverges but the {} chase of the critical instance saturated",
                lp.name, CHECKERS[ci], VARIANT_NAMES[vi]
            )),
            _ => {}
        }
    }

    ProgramEval { name: lp.name.clone(), truth, escalated, records, contradictions }
}

/// Aggregated statistics for one checker over a set of programs.
#[derive(Debug, Default, Clone)]
struct CheckerAgg {
    applicable: u64,
    claims_terminate: u64,
    claims_diverge: u64,
    unknown: u64,
    correct: u64,
    /// Claims the bounded chase cannot adjudicate: a restricted-chase
    /// `diverges` claim against a saturating restricted order (CT-restricted
    /// quantifies over *all* fair orders and databases, so one saturating
    /// order neither confirms nor refutes it). Excluded from the precision
    /// denominator.
    unverifiable: u64,
    costs: Vec<u64>,
    micros: Vec<u128>,
}

impl CheckerAgg {
    fn add(&mut self, rec: &Record, truth: ChaseTruth, restricted: bool) {
        if !rec.applicable {
            return;
        }
        self.applicable += 1;
        self.costs.push(rec.cost);
        self.micros.push(rec.us);
        match rec.claim {
            Some(true) => {
                self.claims_terminate += 1;
                if truth == ChaseTruth::Saturates {
                    self.correct += 1;
                }
            }
            Some(false) => {
                self.claims_diverge += 1;
                if truth == ChaseTruth::Exceeded {
                    self.correct += 1;
                } else if restricted {
                    self.unverifiable += 1;
                }
            }
            None => self.unknown += 1,
        }
    }

    fn decided(&self) -> u64 {
        self.claims_terminate + self.claims_diverge - self.unverifiable
    }

    /// Fraction of chase-adjudicable claims agreeing with ground truth
    /// (1 when silent).
    fn precision(&self) -> f64 {
        if self.decided() == 0 {
            1.0
        } else {
            self.correct as f64 / self.decided() as f64
        }
    }

    /// Fraction of applicable programs correctly decided.
    fn recall(&self) -> f64 {
        if self.applicable == 0 {
            0.0
        } else {
            self.correct as f64 / self.applicable as f64
        }
    }
}

fn percentile<T: Copy + Ord>(xs: &[T], pct: usize) -> Option<T> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    Some(sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)])
}

/// One (family, size) sweep cell: its per-checker aggregates, ground-truth
/// census (saturated/exceeded per variant), and escalation count.
struct Cell {
    family: String,
    size: usize,
    programs: u64,
    aggs: Vec<CheckerAgg>,
    census: [u64; 6],
    escalations: u64,
}

/// Runs E9.
pub fn run(params: &Params) -> LandscapeResult {
    let mut outcome = Outcome::default();
    let mut cells: Vec<Cell> = Vec::new();
    let mut global: Vec<CheckerAgg> = vec![CheckerAgg::default(); CHECKERS.len()];
    let mut truth_census = [0u64; 6]; // sat/exc per variant
    let mut escalations = 0u64;

    for (fi, &(family, gen)) in FAMILIES.iter().enumerate() {
        for &size in &params.sizes {
            let base = 1_000_003u64
                .wrapping_mul(size as u64)
                .wrapping_add(7_000_019u64.wrapping_mul(fi as u64));
            let evals = crate::parallel::par_map_seeds(params.seeds_per_size, |seed| {
                evaluate(&gen(size, base.wrapping_add(seed)), params)
            });

            let mut aggs = vec![CheckerAgg::default(); CHECKERS.len()];
            let mut cell_census = [0u64; 6];
            let mut cell_escalations = 0u64;
            for eval in &evals {
                outcome.programs += 1;
                for vi in 0..3 {
                    let slot = vi * 2 + (eval.truth[vi] == ChaseTruth::Exceeded) as usize;
                    cell_census[slot] += 1;
                    truth_census[slot] += 1;
                    cell_escalations += eval.escalated[vi] as u64;
                }
                for (ci, rec) in eval.records.iter().enumerate() {
                    let t = eval.truth[CHECKER_VARIANT[ci]];
                    let restricted = CHECKER_VARIANT[ci] == 2;
                    aggs[ci].add(rec, t, restricted);
                    global[ci].add(rec, t, restricted);
                }
                outcome.contradictions.extend(eval.contradictions.iter().cloned());
            }
            escalations += cell_escalations;
            cells.push(Cell {
                family: family.to_string(),
                size,
                programs: evals.len() as u64,
                aggs,
                census: cell_census,
                escalations: cell_escalations,
            });
        }
    }

    // Table 1: per-checker landscape over the whole corpus.
    let mut t1 = Table::new(
        "E9 / checker landscape: full portfolio over ontology-shaped corpora",
        &[
            "checker",
            "applicable",
            "terminates",
            "diverges",
            "unknown",
            "precision",
            "recall",
            "med effort",
            "p95 effort",
            "med us",
            "p95 us",
        ],
    );
    for (ci, agg) in global.iter().enumerate() {
        t1.row(&[
            CHECKERS[ci].to_string(),
            agg.applicable.to_string(),
            agg.claims_terminate.to_string(),
            agg.claims_diverge.to_string(),
            agg.unknown.to_string(),
            format!("{:.3}", agg.precision()),
            format!("{:.3}", agg.recall()),
            percentile(&agg.costs, 50).unwrap_or(0).to_string(),
            percentile(&agg.costs, 95).unwrap_or(0).to_string(),
            percentile(&agg.micros, 50).unwrap_or(0).to_string(),
            percentile(&agg.micros, 95).unwrap_or(0).to_string(),
        ]);
    }

    // Table 2: ground-truth census per (family, size).
    let mut t2 = Table::new(
        "E9 / bounded-chase ground truth census",
        &[
            "family",
            "size",
            "programs",
            "so sat/exc",
            "o sat/exc",
            "restricted sat/exc",
            "escalations",
        ],
    );
    for cell in &cells {
        t2.row(&[
            cell.family.clone(),
            cell.size.to_string(),
            cell.programs.to_string(),
            format!("{}/{}", cell.census[0], cell.census[1]),
            format!("{}/{}", cell.census[2], cell.census[3]),
            format!("{}/{}", cell.census[4], cell.census[5]),
            cell.escalations.to_string(),
        ]);
    }

    let json = render_json(params, &outcome, &cells, &truth_census, escalations);
    LandscapeResult { tables: vec![t1, t2], outcome, json }
}

fn render_json(
    params: &Params,
    outcome: &Outcome,
    cells: &[Cell],
    truth_census: &[u64; 6],
    escalations: u64,
) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"checker_landscape\",\n");
    json.push_str(&format!("  \"quick\": {},\n", params.quick));
    json.push_str(&format!("  \"programs\": {},\n", outcome.programs));
    json.push_str(&format!("  \"contradictions\": {},\n", outcome.contradictions.len()));
    json.push_str(&format!(
        "  \"ground_truth\": {{\"budget_applications\": {}, \"budget_atoms\": {}, \
         \"escalation\": {}, \"escalated_runs\": {}, \"so\": {{\"saturated\": {}, \
         \"exceeded\": {}}}, \"o\": {{\"saturated\": {}, \"exceeded\": {}}}, \
         \"restricted\": {{\"saturated\": {}, \"exceeded\": {}}}}},\n",
        params.truth_budget.max_applications,
        params.truth_budget.max_atoms,
        params.escalation,
        escalations,
        truth_census[0],
        truth_census[1],
        truth_census[2],
        truth_census[3],
        truth_census[4],
        truth_census[5],
    ));
    json.push_str("  \"families\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"size\": {}, \"programs\": {}, \
             \"truth\": {{\"so_saturated\": {}, \"so_exceeded\": {}, \"o_saturated\": {}, \
             \"o_exceeded\": {}, \"restricted_saturated\": {}, \"restricted_exceeded\": {}, \
             \"escalations\": {}}},\n",
            cell.family,
            cell.size,
            cell.programs,
            cell.census[0],
            cell.census[1],
            cell.census[2],
            cell.census[3],
            cell.census[4],
            cell.census[5],
            cell.escalations,
        ));
        json.push_str("     \"checkers\": [\n");
        for (ci, agg) in cell.aggs.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"checker\": \"{}\", \"applicable\": {}, \"terminates\": {}, \
                 \"diverges\": {}, \"unknown\": {}, \"precision\": {:.4}, \"recall\": {:.4}, \
                 \"median_effort\": {}, \"p95_effort\": {}, \"median_us\": {}, \
                 \"p95_us\": {}}}{}\n",
                CHECKERS[ci],
                agg.applicable,
                agg.claims_terminate,
                agg.claims_diverge,
                agg.unknown,
                agg.precision(),
                agg.recall(),
                percentile(&agg.costs, 50).unwrap_or(0),
                percentile(&agg.costs, 95).unwrap_or(0),
                percentile(&agg.micros, 50).unwrap_or(0),
                percentile(&agg.micros, 95).unwrap_or(0),
                if ci + 1 < cell.aggs.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!("     ]}}{}\n", if i + 1 < cells.len() { "," } else { "" }));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        Params { sizes: vec![2, 3], seeds_per_size: 6, ..Params::quick() }
    }

    #[test]
    fn shootout_has_no_contradictions_on_a_small_slice() {
        let result = run(&tiny_params());
        assert_eq!(result.outcome.programs, 2 * 6 * FAMILIES.len() as u64);
        assert!(result.outcome.contradictions.is_empty(), "{:?}", result.outcome.contradictions);
    }

    #[test]
    fn json_mentions_every_checker_and_family() {
        let result = run(&tiny_params());
        for name in CHECKERS {
            assert!(result.json.contains(&format!("\"checker\": \"{name}\"")), "missing {name}");
        }
        for (family, _) in FAMILIES {
            assert!(result.json.contains(&format!("\"family\": \"{family}\"")));
        }
        assert!(result.json.contains("\"quick\": true"));
        // Balanced braces/brackets — the writer is hand-rolled.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = result.json.matches(open).count();
            let closes = result.json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn exact_checkers_decide_linear_members() {
        // On the dl-lite-r cell every program is simple linear, so the
        // exact linear procedure must decide all of them.
        let params = tiny_params();
        let evals: Vec<ProgramEval> =
            (0..8u64).map(|seed| evaluate(&dl_lite_r(3, seed), &params)).collect();
        let cw = CHECKERS.iter().position(|&c| c == "critical-wa(so)").unwrap();
        for e in &evals {
            assert!(e.records[cw].applicable, "{}", e.name);
            assert!(e.records[cw].claim.is_some(), "{}", e.name);
            assert!(e.contradictions.is_empty(), "{:?}", e.contradictions);
        }
    }
}
