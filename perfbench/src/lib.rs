//! The benchmark of the Diffy reproduction: four workloads run against
//! the real `diffy-serve` server and the `diffy_core` library, their
//! end-to-end metrics, and a traced in-process replay that times each
//! layer. See `README.md` in this directory.

pub mod affinity;
pub mod alloc;
pub mod keys;
pub mod server;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, one of [`spec::WORKLOADS`].
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run, which prints per-layer metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <cold_miss|warm_hit|stream|hd_eval> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --pin-digests <n>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, every flag
    /// required, each once.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Result<String, String> {
            let at: Vec<usize> = argv
                .iter()
                .enumerate()
                .filter(|(_, a)| *a == flag)
                .map(|(i, _)| i)
                .collect();
            match at[..] {
                [i] => argv
                    .get(i + 1)
                    .cloned()
                    .ok_or(format!("{flag} needs a value")),
                [] => Err(format!("missing {flag}")),
                _ => Err(format!("{flag} given twice")),
            }
        };
        let workload = get("--workload")?;
        if !spec::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let seed = get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds {seconds} outside (0, 3600]"));
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other} (want 0 or 1)")),
        };
        if argv.len() != 8 {
            return Err("unexpected arguments".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(&argv("--workload hd_eval --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "hd_eval".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload hd_eval --seed x --seconds 10 --trace 0",
            "--workload hd_eval --seed 7 --seconds 0 --trace 0",
            "--workload hd_eval --seed 7 --seconds 10 --trace 2",
            "--workload hd_eval --seed 7 --seconds 10",
            "--workload hd_eval --seed 7 --seed 8 --seconds 10 --trace 0",
            "--workload hd_eval --seed 7 --seconds 10 --trace 0 extra",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
