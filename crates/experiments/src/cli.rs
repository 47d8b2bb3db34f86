//! Minimal hand-rolled CLI (clap is outside the approved dependency set).

use std::collections::BTreeMap;

/// Every scenario name the driver dispatches on, in help order.
pub const COMMANDS: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "figures",
    "figures-ci",
    "fig9",
    "ablation-h",
    "ablation-threshold",
    "scalability",
    "attack",
    "lossy",
    "failover",
    "inter-community",
    "multi-resource",
    "speculative",
    "balance",
    "staleness",
    "dynamics",
    "deadlines",
    "trace",
    "analyze",
    "churn",
    "cluster",
    "all",
    "help",
];

/// The canned scenarios of the `trace` subcommand.
pub const TRACE_SCENARIOS: &[&str] = &["paper", "lossy", "failover"];

/// Reject unknown scenario names with a message that lists the valid ones.
pub fn validate_command(command: &str) -> Result<(), String> {
    if COMMANDS.contains(&command) {
        Ok(())
    } else {
        Err(format!(
            "unknown scenario '{command}'; expected one of: {}",
            COMMANDS.join(", ")
        ))
    }
}

/// Reject unknown `trace --scenario` names the same way.
pub fn validate_trace_scenario(name: &str) -> Result<(), String> {
    if TRACE_SCENARIOS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown trace scenario '{name}'; expected one of: {}",
            TRACE_SCENARIOS.join(", ")
        ))
    }
}

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Cli {
    pub command: String,
    options: BTreeMap<String, String>,
}

impl Cli {
    /// Parse `std::env::args`-style input (element 0 is the program name).
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut it = args.iter().skip(1);
        let command = it.next().cloned().unwrap_or_else(|| "help".to_string());
        let mut options = BTreeMap::new();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument: {arg}"));
            };
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            options.insert(key.to_string(), value.clone());
        }
        Ok(Cli { command, options })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer"))
            })
            .unwrap_or(default)
    }

    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be a number"))
            })
            .unwrap_or(default)
    }

    /// Parse `--jobs N` (worker count for sweep commands). Absent means
    /// serial (`1`); zero and non-integers are rejected with a clear
    /// message rather than a panic so `main` can exit non-zero.
    pub fn get_jobs(&self) -> Result<usize, String> {
        let Some(v) = self.get("jobs") else {
            return Ok(1);
        };
        match v.parse::<usize>() {
            Ok(0) => Err("--jobs must be >= 1".to_string()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("--jobs must be a positive integer, got '{v}'")),
        }
    }

    pub fn get_flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Parse `--lambdas 1,2,3` or `--lambdas 1..10` (inclusive, step 1).
    pub fn get_lambdas(&self, default: &[f64]) -> Vec<f64> {
        let Some(spec) = self.get("lambdas") else {
            return default.to_vec();
        };
        if let Some((lo, hi)) = spec.split_once("..") {
            let lo: u64 = lo.parse().expect("--lambdas range start");
            let hi: u64 = hi.parse().expect("--lambdas range end");
            (lo..=hi).map(|v| v as f64).collect()
        } else {
            spec.split(',')
                .map(|v| v.trim().parse().expect("--lambdas list entry"))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(s: &str) -> Cli {
        let args: Vec<String> = std::iter::once("prog".to_string())
            .chain(s.split_whitespace().map(|s| s.to_string()))
            .collect();
        Cli::parse(&args).unwrap()
    }

    #[test]
    fn parses_command_and_options() {
        let c = cli("fig5 --horizon 5000 --seed 7");
        assert_eq!(c.command, "fig5");
        assert_eq!(c.get_u64("horizon", 0), 5000);
        assert_eq!(c.get_u64("seed", 42), 7);
        assert_eq!(c.get_u64("missing", 9), 9);
    }

    #[test]
    fn parses_lambda_specs() {
        assert_eq!(
            cli("x --lambdas 2..4").get_lambdas(&[]),
            vec![2.0, 3.0, 4.0]
        );
        assert_eq!(cli("x --lambdas 1.5,2.5").get_lambdas(&[]), vec![1.5, 2.5]);
        assert_eq!(cli("x").get_lambdas(&[7.0]), vec![7.0]);
    }

    #[test]
    fn rejects_positional_and_dangling() {
        let args = vec!["p".into(), "cmd".into(), "oops".into()];
        assert!(Cli::parse(&args).is_err());
        let args = vec!["p".into(), "cmd".into(), "--key".into()];
        assert!(Cli::parse(&args).is_err());
    }

    #[test]
    fn missing_command_defaults_to_help() {
        let args = vec!["p".to_string()];
        assert_eq!(Cli::parse(&args).unwrap().command, "help");
    }

    #[test]
    fn unknown_scenario_is_rejected_with_the_valid_names() {
        let err = validate_command("fig99").unwrap_err();
        assert!(err.contains("unknown scenario 'fig99'"), "{err}");
        assert!(err.contains("fig5"), "{err}");
        assert!(err.contains("trace"), "{err}");
        for cmd in COMMANDS {
            assert!(validate_command(cmd).is_ok(), "{cmd} should be valid");
        }
    }

    #[test]
    fn unknown_trace_scenario_is_rejected() {
        let err = validate_trace_scenario("mesh").unwrap_err();
        assert!(err.contains("unknown trace scenario 'mesh'"), "{err}");
        assert!(err.contains("failover"), "{err}");
        for s in TRACE_SCENARIOS {
            assert!(validate_trace_scenario(s).is_ok());
        }
    }

    #[test]
    fn jobs_defaults_to_serial_and_rejects_bad_values() {
        assert_eq!(cli("figures").get_jobs(), Ok(1));
        assert_eq!(cli("figures --jobs 1").get_jobs(), Ok(1));
        assert_eq!(cli("figures --jobs 8").get_jobs(), Ok(8));
        let err = cli("figures --jobs 0").get_jobs().unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        let err = cli("figures --jobs two").get_jobs().unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(cli("figures --jobs -3").get_jobs().is_err());
        assert!(cli("figures --jobs 2.5").get_jobs().is_err());
    }
}
