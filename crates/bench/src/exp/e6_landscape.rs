//! E6 — the sufficient-condition landscape (the paper's §1: "a long line of
//! research on sufficient conditions").
//!
//! On a random linear population (where the exact answer is computable),
//! measures each classical condition against exact `CTˢ°` / `CT°`:
//! acceptance counts, soundness violations (a condition accepting a
//! diverging set — must be zero), and strictness witnesses for the known
//! containments `RA ⊊ WA ⊊ JA ⊆ MFA ⊊ CTˢ°` and `aGRD` incomparable
//! with all of them.

use chasekit_acyclicity::{
    is_grd_acyclic, is_jointly_acyclic, is_richly_acyclic, is_weakly_acyclic,
};
use chasekit_datagen::{random_linear, RandomConfig};
use chasekit_engine::{Budget, ChaseVariant};
use chasekit_termination::{decide_linear, mfa_status, MfaStatus};

use crate::table::Table;

/// E6 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of sampled linear rule sets.
    pub samples: u64,
    /// Generator dials.
    pub cfg: RandomConfig,
    /// MFA chase budget.
    pub mfa_budget: Budget,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            samples: 1_500,
            cfg: RandomConfig { constants: 1, complexity: 0.4, ..RandomConfig::default() },
            mfa_budget: Budget {
                max_applications: 3_000,
                max_atoms: 30_000,
                ..Budget::unlimited()
            },
        }
    }
}

/// E6 outcome counters.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Any condition accepting a set whose chase diverges (must be zero).
    pub soundness_violations: u64,
    /// Containment violations among RA⊆WA⊆JA⊆MFA (must be zero).
    pub containment_violations: u64,
}

/// Runs E6.
pub fn run(params: &Params) -> (Vec<Table>, Outcome) {
    let mut outcome = Outcome::default();

    let mut accept = [0u64; 6]; // RA, WA, JA, MFA, aGRD, exact-so
    let mut exact_o_count = 0u64;
    // Strictness witnesses.
    let mut wa_not_ra = 0u64;
    let mut ja_not_wa = 0u64;
    let mut mfa_not_ja = 0u64;
    let mut exact_not_mfa = 0u64;
    let mut agrd_not_wa = 0u64;
    let mut wa_not_agrd = 0u64;
    let mut mfa_unknown = 0u64;

    let records = crate::parallel::par_map_seeds(params.samples, |seed| {
        let program = random_linear(&params.cfg, 7_000_000 + seed);
        (
            is_richly_acyclic(&program),
            is_weakly_acyclic(&program),
            is_jointly_acyclic(&program),
            mfa_status(&program, &params.mfa_budget),
            is_grd_acyclic(&program),
            decide_linear(&program, ChaseVariant::SemiOblivious, false)
                .expect("generated sets are linear")
                .terminates,
            decide_linear(&program, ChaseVariant::Oblivious, false)
                .expect("generated sets are linear")
                .terminates,
        )
    });

    for (seed, (ra, wa, ja, mfa_raw, agrd, exact_so, exact_o)) in records.into_iter().enumerate() {
        let mfa = match mfa_raw {
            MfaStatus::Mfa => Some(true),
            MfaStatus::NotMfa => Some(false),
            MfaStatus::Unknown => {
                mfa_unknown += 1;
                None
            }
        };

        accept[0] += ra as u64;
        accept[1] += wa as u64;
        accept[2] += ja as u64;
        accept[3] += (mfa == Some(true)) as u64;
        accept[4] += agrd as u64;
        accept[5] += exact_so as u64;
        exact_o_count += exact_o as u64;

        // Soundness: each condition implies termination of its variant.
        if ra && !exact_o {
            outcome.soundness_violations += 1;
        }
        for (cond, name) in [(wa, "WA"), (ja, "JA"), (mfa == Some(true), "MFA"), (agrd, "aGRD")] {
            if cond && !exact_so {
                outcome.soundness_violations += 1;
                eprintln!("soundness violation: {name} accepted a diverging set (seed {seed})");
            }
        }

        // Containments.
        if ra && !wa {
            outcome.containment_violations += 1;
        }
        if wa && !ja {
            outcome.containment_violations += 1;
        }
        if ja && mfa == Some(false) {
            outcome.containment_violations += 1;
        }

        // Strictness witnesses.
        wa_not_ra += (wa && !ra) as u64;
        ja_not_wa += (ja && !wa) as u64;
        mfa_not_ja += (mfa == Some(true) && !ja) as u64;
        exact_not_mfa += (exact_so && mfa == Some(false)) as u64;
        agrd_not_wa += (agrd && !wa) as u64;
        wa_not_agrd += (wa && !agrd) as u64;
    }

    let mut acc = Table::new(
        "E6a / sufficient-condition landscape: acceptance on random linear sets",
        &["condition", "accepts", "of exact CT-so", "guarantee"],
    );
    let names = ["RA", "WA", "JA", "MFA", "aGRD", "exact CT-so"];
    let guarantees = [
        "oblivious chase",
        "semi-oblivious chase",
        "semi-oblivious chase",
        "semi-oblivious chase",
        "all chase variants",
        "exact (this paper)",
    ];
    for i in 0..6 {
        acc.row(&[
            names[i].to_string(),
            accept[i].to_string(),
            format!("{:.1}%", 100.0 * accept[i] as f64 / accept[5].max(1) as f64),
            guarantees[i].to_string(),
        ]);
    }

    let mut strict = Table::new(
        "E6b / strictness witnesses (counts of separating samples)",
        &["separation", "witnesses"],
    );
    strict.row(&["WA \\ RA (o-chase diverges, so-chase terminates)", &wa_not_ra.to_string()]);
    strict.row(&["JA \\ WA", &ja_not_wa.to_string()]);
    strict.row(&["MFA \\ JA", &mfa_not_ja.to_string()]);
    strict.row(&["exact CT-so \\ MFA", &exact_not_mfa.to_string()]);
    strict.row(&["aGRD \\ WA", &agrd_not_wa.to_string()]);
    strict.row(&["WA \\ aGRD", &wa_not_agrd.to_string()]);
    strict.row(&["MFA unknown (fuel)", &mfa_unknown.to_string()]);
    strict.row(&["exact CT-o terminating", &exact_o_count.to_string()]);
    strict.row(&["soundness violations", &outcome.soundness_violations.to_string()]);
    strict.row(&["containment violations", &outcome.containment_violations.to_string()]);

    (vec![acc, strict], outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landscape_is_sound_and_properly_nested() {
        let params = Params { samples: 250, ..Default::default() };
        let (_, outcome) = run(&params);
        assert_eq!(outcome.soundness_violations, 0);
        assert_eq!(outcome.containment_violations, 0);
    }
}
