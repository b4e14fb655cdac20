//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). They share:
//!
//! * a tiny `--key value` argument parser over declared keys ([`Args`]);
//! * the calibrated machine model ([`paper_machine`], [`paper_cost_model`]):
//!   34 worker cores per node at 30 GFlop/s sustained ≈ 1 TFlop/s per node,
//!   100 Gb/s links — the scale of the paper's PlaFRIM testbed;
//! * the matrix-size ladder used by the performance figures, scaled down by
//!   default so a full figure regenerates in about a minute (`--full`
//!   switches to the paper's 50k…200k sizes);
//! * TSV output helpers (one row per plotted point).

use flexdist_kernels::KernelCostModel;
use flexdist_runtime::MachineConfig;
use std::collections::HashMap;

/// Tile size used throughout the paper's evaluation.
pub const PAPER_TILE: usize = 500;

/// Sustained per-core kernel rate calibrated so one 34-worker node delivers
/// ~1 TFlop/s, the per-node ballpark of the paper's figures.
pub const CORE_GFLOPS: f64 = 30.0;

/// Minimal `--key value` / `--flag` argument parser over the keys a binary
/// declares.
#[derive(Debug)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parse `std::env::args` against `keys`, the flags (without `--`) the
    /// binary takes. An undeclared flag or a stray token prints the error
    /// and exits 2.
    #[must_use]
    pub fn parse(keys: &[&str]) -> Self {
        Self::from_tokens(keys, std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parse a token list against `keys`.
    ///
    /// # Errors
    /// Errors on a token that is not a `--` flag or on a flag not in `keys`.
    pub fn from_tokens(
        keys: &[&str],
        tokens: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut iter = tokens.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}; use --key value"))?;
            if !keys.contains(&key) {
                let takes: Vec<String> = keys.iter().map(|k| format!("--{k}")).collect();
                return Err(format!("unknown flag --{key} (takes {})", takes.join(" ")));
            }
            let value = iter
                .next_if(|v| !v.starts_with("--"))
                .unwrap_or_else(|| "true".to_string());
            map.insert(key.to_string(), value);
        }
        Ok(Self { map })
    }

    /// Typed lookup with default.
    ///
    /// # Errors
    /// Errors, naming the flag, if the value does not parse as `T`.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v:?}: cannot parse")),
            None => Ok(default),
        }
    }

    /// [`Args::try_get`] that prints the error and exits 2.
    #[must_use]
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// Boolean flag presence.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The paper's cluster model with `p` nodes.
#[must_use]
pub fn paper_machine(p: u32) -> MachineConfig {
    MachineConfig::paper_testbed(p)
}

/// The paper's kernel timing model (500×500 tiles).
#[must_use]
pub fn paper_cost_model() -> KernelCostModel {
    KernelCostModel::uniform(PAPER_TILE, CORE_GFLOPS)
}

/// Matrix sizes (in elements) for the performance sweeps: the paper's
/// 50,000…200,000 when `full`, otherwise scaled to 25,000…100,000 so a full
/// sweep simulates in about a minute.
#[must_use]
pub fn matrix_sizes(full: bool) -> Vec<usize> {
    if full {
        vec![50_000, 75_000, 100_000, 125_000, 150_000, 175_000, 200_000]
    } else {
        vec![25_000, 40_000, 55_000, 70_000, 85_000, 100_000]
    }
}

/// Tile count for a matrix of `m` elements per side.
#[must_use]
pub fn tiles_for(m: usize) -> usize {
    (m / PAPER_TILE).max(1)
}

/// Print a TSV header line.
pub fn tsv_header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Print one TSV row.
pub fn tsv_row(fields: &[String]) {
    println!("{}", fields.join("\t"));
}

/// Format a float with 3 decimals (the precision the paper's tables use).
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_for_paper_sizes() {
        assert_eq!(tiles_for(50_000), 100);
        assert_eq!(tiles_for(200_000), 400);
        assert_eq!(tiles_for(100), 1);
    }

    #[test]
    fn sizes_ladders() {
        assert_eq!(matrix_sizes(true).len(), 7);
        assert!(matrix_sizes(false).iter().all(|&m| m <= 100_000));
    }

    #[test]
    fn machine_calibration_gives_terascale_nodes() {
        let m = paper_machine(4);
        let c = paper_cost_model();
        let node_gflops = f64::from(m.workers_per_node) * c.core_gflops;
        assert!((950.0..1100.0).contains(&node_gflops), "{node_gflops}");
    }

    fn parse(keys: &[&str], tokens: &[&str]) -> Result<Args, String> {
        Args::from_tokens(keys, tokens.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_declared_pairs_and_flags() {
        let a = parse(&["pmax", "full"], &["--pmax", "3", "--full"]).unwrap();
        assert_eq!(a.try_get::<u32>("pmax", 120), Ok(3));
        assert!(a.flag("full"));
        let a = parse(&["pmax", "full"], &[]).unwrap();
        assert_eq!(a.try_get::<u32>("pmax", 120), Ok(120));
        assert!(!a.flag("full"));
    }

    #[test]
    fn rejects_undeclared_flag_by_name() {
        let err = parse(&["pmax"], &["--p-max", "3"]).unwrap_err();
        assert!(err.contains("--p-max") && err.contains("--pmax"), "{err}");
    }

    #[test]
    fn rejects_stray_token() {
        let err = parse(&["pmax"], &["3"]).unwrap_err();
        assert!(err.contains("\"3\""), "{err}");
    }

    #[test]
    fn unparsable_value_names_the_flag() {
        let a = parse(&["pmax"], &["--pmax", "x"]).unwrap();
        let err = a.try_get::<u32>("pmax", 120).unwrap_err();
        assert!(err.contains("--pmax") && err.contains("\"x\""), "{err}");
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
