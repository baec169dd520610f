//! Negative fixture for `pub-has-caller`: every `pub` item has a caller
//! somewhere the rule must look (see the callers in `fixtures_test.rs`).

use std::fmt;

/// Named by the benchmark caller.
pub trait Shape {
    /// Trait methods are not `pub` items.
    fn area(&self) -> f64;
}

/// Built by `used_by_test`.
pub struct Square(pub f64);

impl Shape for Square {
    fn area(&self) -> f64 {
        self.0 * self.0
    }
}

impl fmt::Display for Square {
    // A trait-impl method nothing names: not a `pub` item.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "square {}", self.0)
    }
}

/// Called from an integration test.
pub fn used_by_test() -> Square {
    Square(helper())
}

/// Called from the benchmark.
pub fn used_by_benchmark() {}

/// Called from this crate.
pub const fn helper() -> f64 {
    2.0
}

// aqua-lint: allow(pub-has-caller) the fixture's stated entry point for embedders
pub fn deliberate_api() {}

pub(crate) fn narrowed() {}
