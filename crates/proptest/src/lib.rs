//! # klest-proptest
//!
//! A small, dependency-free, *deterministic* property-based testing
//! framework for the `klest` workspace. It exists because the paper's
//! value proposition is numerical trustworthiness: every refactor of the
//! Galerkin/KLE/SSTA pipeline should be checkable against analytic
//! oracles and differential cross-checks over a broad, reproducible
//! input space — offline, with no external crates.
//!
//! The design mirrors the classic QuickCheck loop with three workspace
//! constraints baked in:
//!
//! - **Determinism.** Every case seed derives from a master seed through
//!   a [`SplitMix64`] stream; the same master seed produces the same
//!   cases on every platform, forever. The master seed is the property
//!   name hash mixed with a fixed workspace constant (overridable via
//!   `KLEST_PROPTEST_MASTER_SEED` for CI smoke passes).
//! - **Replayability.** A failing case prints its own 64-bit case seed;
//!   `KLEST_PROPTEST_SEED=<property>:<seed>` re-runs exactly that one
//!   case of that one property (every other property runs normally) so
//!   a CI failure reproduces locally in milliseconds.
//! - **Shrinking.** On failure the runner greedily walks
//!   [`Strategy::shrink`] candidates, keeping any that still fail, and
//!   reports the minimal counterexample it reached along with the
//!   original.
//!
//! ```
//! use klest_proptest::{check, strategies};
//!
//! // Squares of reals in [-10, 10) are never negative.
//! check("square_nonneg", &strategies::f64_in(-10.0..10.0), |x| {
//!     if x * x >= 0.0 {
//!         Ok(())
//!     } else {
//!         Err(format!("{x}² < 0"))
//!     }
//! });
//! ```

#![deny(missing_docs)]

pub mod strategies;
mod strategy;

pub use strategy::Strategy;

use klest_rng::{fnv1a64, Rng, SeedableRng, SplitMix64, StdRng};
use std::fmt;

/// Environment variable that replays exactly one case: set it to the
/// `<property>:<seed>` pair printed by a failure report. Only the named
/// property enters replay mode; every other property in the test binary
/// runs normally, so the replay session is not muddied by unrelated
/// strategies reinterpreting the same case seed. A bare `<seed>` is also
/// accepted — scoped by [`PROPERTY_ENV`] when that is set, applied to
/// all properties otherwise.
pub const SEED_ENV: &str = "KLEST_PROPTEST_SEED";

/// Environment variable scoping a bare [`SEED_ENV`] seed to one
/// property by name; properties that don't match run normally.
pub const PROPERTY_ENV: &str = "KLEST_PROPTEST_PROPERTY";

/// Environment variable overriding the number of cases per property
/// (e.g. a short CI smoke pass sets a small count).
pub const CASES_ENV: &str = "KLEST_PROPTEST_CASES";

/// Environment variable overriding the master seed mixed into every
/// property's stream (a randomized CI pass sets this to the run id).
pub const MASTER_SEED_ENV: &str = "KLEST_PROPTEST_MASTER_SEED";

/// Fixed workspace constant mixed with the property-name hash to form
/// the default master seed.
const WORKSPACE_SEED: u64 = 0x6b6c_6573_7400_2008; // "klest" + DATE 2008

/// Per-property run configuration. [`Config::from_env`] is what
/// [`check`] uses; construct one directly to pin cases/seed in-code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Number of generated cases (ignored when `replay` is set).
    pub cases: usize,
    /// Master seed for the case-seed stream.
    pub seed: u64,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_steps: usize,
    /// When set, run exactly one case with this case seed.
    pub replay: Option<u64>,
}

impl Config {
    /// A configuration with the workspace defaults (64 cases, 200 shrink
    /// steps) and the given master seed.
    pub fn new(seed: u64) -> Self {
        Config {
            cases: 64,
            seed,
            max_shrink_steps: 200,
            replay: None,
        }
    }

    /// Builds the configuration [`check`] uses for a named property:
    /// master seed = FNV-1a(name) ⊕ workspace constant (or the
    /// `KLEST_PROPTEST_MASTER_SEED` override), case count from
    /// `KLEST_PROPTEST_CASES` if set, and single-case replay mode when
    /// `KLEST_PROPTEST_SEED` names this property (see [`SEED_ENV`]).
    pub fn from_env(name: &str) -> Self {
        let master = read_env_u64(MASTER_SEED_ENV).unwrap_or(WORKSPACE_SEED);
        let mut cfg = Config::new(master ^ fnv1a64(name.as_bytes()));
        if let Some(cases) = read_env_u64(CASES_ENV) {
            cfg.cases = (cases as usize).max(1);
        }
        cfg.replay = replay_for(
            name,
            std::env::var(SEED_ENV).ok().as_deref(),
            std::env::var(PROPERTY_ENV).ok().as_deref(),
        );
        cfg
    }

    /// Returns the configuration with a different case count.
    pub fn with_cases(mut self, cases: usize) -> Self {
        self.cases = cases.max(1);
        self
    }
}

fn read_env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.trim().parse().ok()
}

/// Resolves the replay request for property `name` from the raw
/// [`SEED_ENV`] / [`PROPERTY_ENV`] values. `<property>:<seed>` (the form
/// failure reports print) replays only the named property; a bare seed
/// is scoped by the property filter when present and global otherwise.
/// The split is on the *last* `:` so property names containing colons
/// still round-trip. Returns `None` — run normally — for properties the
/// request is not scoped to, and for unparseable values.
fn replay_for(name: &str, seed_env: Option<&str>, property_env: Option<&str>) -> Option<u64> {
    let raw = seed_env?.trim();
    let (scope, seed_str) = match raw.rsplit_once(':') {
        Some((prop, seed)) => (Some(prop), seed),
        None => (property_env, raw),
    };
    let seed = seed_str.trim().parse().ok()?;
    match scope {
        Some(prop) if prop.trim() != name => None,
        _ => Some(seed),
    }
}

/// Statistics from a passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Number of cases generated and checked.
    pub cases_run: usize,
}

/// A property failure: the original counterexample, the shrunk minimal
/// one, and everything needed to replay it. `Display` (and `Debug`,
/// which forwards to it so `expect` prints the full report) renders the
/// human-facing report.
#[derive(Clone, PartialEq)]
pub struct PropFailure {
    /// The property's name as given to the runner.
    pub property: String,
    /// Index of the failing case within the run.
    pub case_index: usize,
    /// The case seed — feed to `KLEST_PROPTEST_SEED` as
    /// `<property>:<seed>` (the report's replay line) to replay.
    pub case_seed: u64,
    /// `Debug` rendering of the originally generated counterexample.
    pub original: String,
    /// `Debug` rendering of the shrunk minimal counterexample.
    pub shrunk: String,
    /// How many shrink steps were accepted.
    pub shrink_steps: usize,
    /// The failure message of the (shrunk) counterexample.
    pub message: String,
}

impl fmt::Display for PropFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property '{}' failed at case {} (seed {})",
            self.property, self.case_index, self.case_seed
        )?;
        writeln!(f, "  message:  {}", self.message)?;
        writeln!(f, "  original: {}", self.original)?;
        writeln!(
            f,
            "  shrunk ({} step(s)): {}",
            self.shrink_steps, self.shrunk
        )?;
        write!(
            f,
            "  replay:   {}={}:{} cargo test",
            SEED_ENV, self.property, self.case_seed
        )
    }
}

impl fmt::Debug for PropFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `expect` on a failing check prints Debug; forward to the
        // human-facing report so the replay seed always reaches the user.
        write!(f, "\n{self}")
    }
}

/// Runs `property` against `config.cases` generated values, shrinking
/// the first failure. This is the non-panicking core — use it to assert
/// that a property *fails* (regression tests for the framework itself
/// and for deliberately broken inputs).
///
/// # Errors
///
/// Returns the shrunk [`PropFailure`] for the first failing case.
pub fn check_result<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    property: F,
) -> Result<CheckStats, Box<PropFailure>>
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), String>,
{
    if let Some(case_seed) = config.replay {
        run_case(name, config, strategy, &property, 0, case_seed)?;
        return Ok(CheckStats { cases_run: 1 });
    }
    let mut seeder = SplitMix64::new(config.seed);
    for index in 0..config.cases {
        let case_seed = seeder.next_u64();
        run_case(name, config, strategy, &property, index, case_seed)?;
    }
    Ok(CheckStats {
        cases_run: config.cases,
    })
}

/// Runs `property` under the environment-derived [`Config`] for `name`
/// and aborts the enclosing test with a replayable report on failure.
/// This is the entry point ordinary property tests call.
pub fn check<S, F>(name: &str, strategy: &S, property: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), String>,
{
    check_config(name, &Config::from_env(name), strategy, property);
}

/// [`check`] with an explicit configuration (still honouring replay mode
/// if `config.replay` is set).
pub fn check_config<S, F>(name: &str, config: &Config, strategy: &S, property: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), String>,
{
    // A failed property must abort the test; `expect` on the typed
    // failure is the framework's one documented abort site (the custom
    // Debug impl prints the full replayable report).
    let _ = check_result(name, config, strategy, property).expect("property failed");
}

fn run_case<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    property: &F,
    index: usize,
    case_seed: u64,
) -> Result<(), Box<PropFailure>>
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), String>,
{
    let mut rng = StdRng::seed_from_u64(case_seed);
    let value = strategy.generate(&mut rng);
    match property(&value) {
        Ok(()) => Ok(()),
        Err(message) => Err(Box::new(shrink_failure(
            name, config, strategy, property, index, case_seed, value, message,
        ))),
    }
}

/// Greedy shrink: repeatedly take the first shrink candidate that still
/// fails, until no candidate fails or the step budget is exhausted.
#[allow(clippy::too_many_arguments)]
fn shrink_failure<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    property: &F,
    case_index: usize,
    case_seed: u64,
    original: S::Value,
    original_message: String,
) -> PropFailure
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), String>,
{
    let original_repr = format!("{original:?}");
    let mut current = original;
    let mut message = original_message;
    let mut steps = 0usize;
    'outer: while steps < config.max_shrink_steps {
        for candidate in strategy.shrink(&current) {
            if let Err(m) = property(&candidate) {
                current = candidate;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    PropFailure {
        property: name.to_string(),
        case_index,
        case_seed,
        original: original_repr,
        shrunk: format!("{current:?}"),
        shrink_steps: steps,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies;

    #[test]
    fn same_seed_same_cases() {
        // Determinism contract: record the generated stream twice.
        let cfg = Config::new(42).with_cases(16);
        let strat = strategies::f64_in(0.0..1.0);
        let collect = || {
            let mut seen = Vec::new();
            let mut seeder = SplitMix64::new(cfg.seed);
            for _ in 0..cfg.cases {
                let mut rng = StdRng::seed_from_u64(seeder.next_u64());
                seen.push(strat.generate(&mut rng));
            }
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn passing_property_reports_case_count() {
        let cfg = Config::new(7).with_cases(20);
        let stats =
            check_result("always_ok", &cfg, &strategies::usize_in(0..100), |_| Ok(())).unwrap();
        assert_eq!(stats.cases_run, 20);
    }

    #[test]
    fn failure_shrinks_to_minimal_counterexample() {
        // Property "x < 50" fails for x >= 50; the minimal failing usize
        // under halving-toward-0 shrinking is exactly 50.
        let cfg = Config::new(3).with_cases(64);
        let failure = check_result("lt_50", &cfg, &strategies::usize_in(0..1000), |&x| {
            if x < 50 {
                Ok(())
            } else {
                Err(format!("{x} >= 50"))
            }
        })
        .unwrap_err();
        assert_eq!(failure.shrunk, "50", "report: {failure}");
        assert!(failure.message.contains(">= 50"));
    }

    #[test]
    fn replay_seed_reproduces_the_exact_case() {
        let cfg = Config::new(11).with_cases(64);
        let strat = strategies::f64_in(-1.0..1.0);
        let failure = check_result("negative", &cfg, &strat, |&x| {
            if x >= 0.0 {
                Ok(())
            } else {
                Err(format!("{x} < 0"))
            }
        })
        .unwrap_err();
        // Re-run just that case through replay mode: same generated value.
        let mut replay_cfg = cfg.clone();
        replay_cfg.replay = Some(failure.case_seed);
        let replayed = check_result("negative", &replay_cfg, &strat, |&x| {
            if x >= 0.0 {
                Ok(())
            } else {
                Err(format!("{x} < 0"))
            }
        })
        .unwrap_err();
        assert_eq!(replayed.original, failure.original);
        assert_eq!(replayed.case_seed, failure.case_seed);
    }

    #[test]
    fn failure_report_contains_replay_instructions() {
        let cfg = Config::new(5).with_cases(8);
        let failure = check_result("always_fails", &cfg, &strategies::usize_in(0..4), |_| {
            Err("nope".to_string())
        })
        .unwrap_err();
        let report = failure.to_string();
        assert!(report.contains(SEED_ENV), "{report}");
        assert!(report.contains(&failure.case_seed.to_string()), "{report}");
        assert!(report.contains("shrunk"), "{report}");
    }

    #[test]
    fn replay_request_is_scoped_to_one_property() {
        // The `<property>:<seed>` form (what failure reports print)
        // replays only the named property; others run normally.
        assert_eq!(
            replay_for("mercer_psd", Some("mercer_psd:42"), None),
            Some(42)
        );
        assert_eq!(replay_for("delaunay", Some("mercer_psd:42"), None), None);
        // A bare seed is scoped by the property filter when present…
        assert_eq!(
            replay_for("mercer_psd", Some("42"), Some("mercer_psd")),
            Some(42)
        );
        assert_eq!(replay_for("delaunay", Some("42"), Some("mercer_psd")), None);
        // …and global otherwise (backwards compatible).
        assert_eq!(replay_for("anything", Some("42"), None), Some(42));
        // Last-colon split: property names containing ':' round-trip.
        assert_eq!(replay_for("a:b", Some("a:b:7"), None), Some(7));
        // Unparseable seeds and unset env mean "run normally".
        assert_eq!(replay_for("p", Some("p:not_a_seed"), None), None);
        assert_eq!(replay_for("p", None, Some("p")), None);
    }

    #[test]
    fn report_replay_line_is_property_scoped() {
        let cfg = Config::new(5).with_cases(8);
        let failure = check_result("scoped_prop", &cfg, &strategies::usize_in(0..4), |_| {
            Err("nope".to_string())
        })
        .unwrap_err();
        let report = failure.to_string();
        assert!(
            report.contains(&format!("{}=scoped_prop:{}", SEED_ENV, failure.case_seed)),
            "{report}"
        );
    }

    #[test]
    fn per_property_seeds_differ() {
        assert_ne!(
            Config::from_env("property_a").seed,
            Config::from_env("property_b").seed
        );
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn check_config_panics_with_report() {
        let cfg = Config::new(9).with_cases(4);
        check_config("doomed", &cfg, &strategies::usize_in(0..10), |_| {
            Err("doomed".to_string())
        });
    }

    #[test]
    fn shrink_step_budget_is_respected() {
        let mut cfg = Config::new(13).with_cases(1);
        cfg.max_shrink_steps = 3;
        let failure = check_result("budget", &cfg, &strategies::usize_in(0..1_000_000), |_| {
            Err("always".to_string())
        })
        .unwrap_err();
        assert!(failure.shrink_steps <= 3);
    }
}
