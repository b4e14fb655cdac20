//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed flags: `--key value` pairs and bare `--flag`s (value `"true"`).
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parse a token list.
    ///
    /// # Errors
    /// Errors on tokens that are not `--`-prefixed flags.
    pub fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut iter = tokens.iter().peekable();
        while let Some(tok) = iter.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {tok:?}; flags are --key [value]"))?;
            let value = match iter.peek() {
                Some(v) if !v.starts_with("--") => iter.next().expect("peeked").clone(),
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Self { map })
    }

    /// Typed lookup with a default.
    ///
    /// # Errors
    /// Errors when the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v:?}: cannot parse")),
            None => Ok(default),
        }
    }

    /// Required typed lookup.
    ///
    /// # Errors
    /// Errors when missing or unparsable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .map
            .get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))?;
        v.parse()
            .map_err(|_| format!("--{key} {v:?}: cannot parse"))
    }

    /// String lookup with default.
    #[must_use]
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Flag presence.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Every flag given, without the `--`, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&sv(&["--p", "23", "--print", "--name", "x"])).unwrap();
        assert_eq!(a.get::<u32>("p", 0).unwrap(), 23);
        assert!(a.flag("print"));
        assert_eq!(a.get_str("name", "y"), "x");
        assert_eq!(a.get_str("missing", "y"), "y");
    }

    #[test]
    fn rejects_bare_values() {
        assert!(Args::parse(&sv(&["oops"])).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(&[]).unwrap();
        assert!(a.require::<u32>("p").unwrap_err().contains("--p"));
    }

    #[test]
    fn bad_parse_reports_key() {
        let a = Args::parse(&sv(&["--p", "xyz"])).unwrap();
        assert!(a.get::<u32>("p", 0).unwrap_err().contains("xyz"));
    }
}
