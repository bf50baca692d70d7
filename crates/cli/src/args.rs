//! Tiny dependency-free flag parser: `--name value` pairs plus
//! positional arguments, with typed accessors.

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    /// `--name value` pairs in argv order.
    flags: Vec<(String, String)>,
    positional: Vec<String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["header", "verbose", "reestimate"];

impl Args {
    /// Parses `--name value` pairs, bare `--switch` flags and
    /// positionals from an argv slice.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    out.switches.push(name.to_string());
                    i += 1;
                } else {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{name} requires a value"))?;
                    if out.get(name).is_some() {
                        return Err(format!("flag --{name} given twice"));
                    }
                    out.flags.push((name.to_string(), value.clone()));
                    i += 2;
                }
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A bare switch like `--header`.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Fails on a flag or switch that is in none of the `allowed`
    /// lists: a misspelt flag is an error, never silently ignored.
    pub fn reject_unknown(&self, command: &str, allowed: &[&[&str]]) -> Result<(), String> {
        let unknown = self
            .flags
            .iter()
            .map(|(n, _)| n)
            .chain(&self.switches)
            .find(|n| !allowed.iter().any(|list| list.contains(&n.as_str())));
        match unknown {
            Some(name) => Err(format!(
                "unknown flag --{name} for {command} (see hos-miner help)"
            )),
            None => Ok(()),
        }
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// A typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{name}")),
        }
    }

    /// An optional typed flag.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {v:?} for --{name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&argv(&["query", "--k", "5", "--data", "x.csv", "--header"])).unwrap();
        assert_eq!(a.positional(), &["query".to_string()]);
        assert_eq!(a.get("k"), Some("5"));
        assert_eq!(a.require("data").unwrap(), "x.csv");
        assert!(a.switch("header"));
        assert!(!a.switch("verbose"));
    }

    #[test]
    fn typed_accessors() {
        let a = Args::parse(&argv(&["--k", "7", "--q", "0.9"])).unwrap();
        assert_eq!(a.get_or("k", 5usize).unwrap(), 7);
        assert_eq!(a.get_or("missing", 5usize).unwrap(), 5);
        assert_eq!(a.get_opt::<f64>("q").unwrap(), Some(0.9));
        assert_eq!(a.get_opt::<f64>("nope").unwrap(), None);
        assert!(a.get_or("q", 1usize).is_err());
    }

    #[test]
    fn error_cases() {
        assert!(Args::parse(&argv(&["--k"])).is_err());
        assert!(Args::parse(&argv(&["--k", "1", "--k", "2"])).is_err());
        let a = Args::parse(&argv(&[])).unwrap();
        assert!(a.require("data").is_err());
    }
}
