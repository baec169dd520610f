//! Negative fixture for `variant-has-constructor`: every variant is built
//! somewhere the rule looks (see the callers in `fixtures_test.rs`).

/// Built in code, by `Default` and as a function value.
#[derive(Debug, Default)]
pub enum Kind {
    /// `#[default]` builds it.
    #[default]
    Plain,
    /// Passed as a function.
    Tuple(u32),
    /// Built in a struct literal's field.
    Struct {
        /// A field.
        n: u32,
    },
    /// Built only by an integration test.
    ByTest,
    /// Built by a function of its own impl that has a caller.
    ByImpl,
    /// Compared against: a value, so a construction.
    Compared,
}

impl Kind {
    /// Called by `kinds`.
    pub fn by_impl() -> Self {
        Self::ByImpl
    }
}

/// Holds a kind.
pub struct Holder {
    /// The kind.
    pub kind: Kind,
}

/// Builds the kinds.
pub fn kinds(ns: &[u32]) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = ns.iter().copied().map(Kind::Tuple).collect();
    let holder = Holder {
        kind: Kind::Struct { n: 1 },
    };
    kinds.push(holder.kind);
    kinds.push(Kind::by_impl());
    kinds
}

/// Built by `Default`.
pub enum Level {
    /// Only `default` builds it.
    Low,
}

impl Default for Level {
    fn default() -> Self {
        Level::Low
    }
}

/// A comparison builds its right side.
pub fn is_compared(kind: &Kind) -> bool {
    let default = Level::default();
    matches!(default, Level::Low) && std::mem::discriminant(kind) == std::mem::discriminant(&Kind::Compared)
}

/// Reserved.
pub enum Reserved {
    /// Never built, justified.
    // aqua-lint: allow(variant-has-constructor) the fixture's wire format reserves it
    Future,
}
