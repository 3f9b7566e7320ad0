//! The lint registry: stable codes, human names, rationale and path
//! applicability for every check the auditor knows.
//!
//! Codes are append-only: a released code never changes meaning, so
//! `audit.toml` suppressions and downstream JSON consumers stay valid
//! across versions.

/// A registered lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// `DET001` — `HashMap`/`HashSet` in a trajectory-affecting crate.
    Det001,
    /// `DET002` — entropy-seeded randomness outside bench/timing modules.
    Det002,
    /// `DET003` — parallel float reduction on an aggregation path.
    Det003,
    /// `PANIC001` — panic-capable construct on a never-panic path.
    Panic001,
    /// `SAFE001` — `unsafe` without a `// SAFETY:` comment.
    Safe001,
}

/// Crates whose source feeds the per-seed trajectory: one nondeterministic
/// iteration order or float-reduction order here silently voids the
/// bit-identical-trajectory claim (see EXPERIMENTS.md).
const TRAJECTORY_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/dist/src/",
    "crates/scenario/src/",
    "crates/attacks/src/",
    "crates/compress/src/",
];

/// Paths holding aggregation kernels, where a rayon `sum`/`reduce` over
/// floats would make the reduction order (and thus the result bits) depend
/// on thread scheduling.
const AGGREGATION_SRC: &[&str] = &["crates/core/src/", "crates/dist/src/"];

/// The never-panic surface: everything that touches bytes from the wire.
/// `krum-wire` decodes attacker-controlled frames; `krum-server` handles
/// them; the quorum machine takes worker ids from frames and checkpoint
/// files. A panic here is a remote denial of service.
const NEVER_PANIC_SRC: &[&str] = &[
    "crates/wire/src/",
    "crates/server/src/",
    "crates/dist/src/quorum.rs",
];

/// Benchmark / timing code is the one place entropy and wall clocks are
/// legitimate; everything else must derive randomness from the master seed.
const ENTROPY_EXEMPT: &[&str] = &["crates/bench/"];

fn under(path: &str, roots: &[&str]) -> bool {
    roots.iter().any(|root| path.starts_with(root))
}

impl Lint {
    /// Every registered lint, in code order.
    pub const ALL: [Lint; 5] = [
        Lint::Det001,
        Lint::Det002,
        Lint::Det003,
        Lint::Panic001,
        Lint::Safe001,
    ];

    /// The stable diagnostic code (`DET001`, …).
    pub fn code(self) -> &'static str {
        match self {
            Lint::Det001 => "DET001",
            Lint::Det002 => "DET002",
            Lint::Det003 => "DET003",
            Lint::Panic001 => "PANIC001",
            Lint::Safe001 => "SAFE001",
        }
    }

    /// Short kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Det001 => "hash-iteration",
            Lint::Det002 => "entropy-rng",
            Lint::Det003 => "parallel-float-reduction",
            Lint::Panic001 => "panic-path",
            Lint::Safe001 => "undocumented-unsafe",
        }
    }

    /// One-line rationale, shown by `krum list`.
    pub fn summary(self) -> &'static str {
        match self {
            Lint::Det001 => {
                "HashMap/HashSet in a trajectory-affecting crate: iteration order is \
                 nondeterministic — use BTreeMap/BTreeSet or sort before iterating"
            }
            Lint::Det002 => {
                "entropy-seeded RNG (thread_rng/from_entropy/SystemTime) outside bench \
                 modules: all randomness must derive from the master seed"
            }
            Lint::Det003 => {
                "parallel float sum/reduce/fold on an aggregation path: reduction order \
                 depends on thread scheduling, so result bits do too"
            }
            Lint::Panic001 => {
                "unwrap/expect/panic!/indexing on the wire-decode or frame-handling \
                 path: malformed input must surface as a structured error, never a panic"
            }
            Lint::Safe001 => "unsafe block/impl/fn without a preceding `// SAFETY:` comment",
        }
    }

    /// Resolves a stable code (`"DET001"`) back to its lint.
    pub fn from_code(code: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.code() == code)
    }

    /// Whether this lint scans the file at `path` (workspace-relative,
    /// `/`-separated).
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Lint::Det001 => under(path, TRAJECTORY_SRC),
            Lint::Det002 => !under(path, ENTROPY_EXEMPT),
            Lint::Det003 => under(path, AGGREGATION_SRC),
            Lint::Panic001 => under(path, NEVER_PANIC_SRC),
            Lint::Safe001 => true,
        }
    }

    /// Whether this lint also scans `#[cfg(test)]` regions. Test code may
    /// unwrap and take entropy freely; undocumented `unsafe` is held to the
    /// same standard everywhere.
    pub fn scans_test_code(self) -> bool {
        matches!(self, Lint::Safe001)
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for lint in Lint::ALL {
            assert_eq!(Lint::from_code(lint.code()), Some(lint));
        }
        assert_eq!(Lint::from_code("DET999"), None);
    }

    #[test]
    fn applicability_matches_the_documented_scopes() {
        assert!(Lint::Det001.applies_to("crates/core/src/krum.rs"));
        assert!(!Lint::Det001.applies_to("crates/metrics/src/export.rs"));
        assert!(Lint::Det002.applies_to("crates/server/src/job.rs"));
        assert!(!Lint::Det002.applies_to("crates/bench/src/bin/e1_linear_fragility.rs"));
        assert!(Lint::Det003.applies_to("crates/core/src/kernel.rs"));
        assert!(!Lint::Det003.applies_to("crates/cli/src/lib.rs"));
        assert!(Lint::Panic001.applies_to("crates/wire/src/lib.rs"));
        assert!(Lint::Panic001.applies_to("crates/dist/src/quorum.rs"));
        assert!(!Lint::Panic001.applies_to("crates/dist/src/engine.rs"));
        assert!(!Lint::Panic001.applies_to("crates/core/src/krum.rs"));
        assert!(Lint::Safe001.applies_to("tests/allocation_regression.rs"));
    }
}
