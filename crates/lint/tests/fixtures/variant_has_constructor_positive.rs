//! Positive fixture for `variant-has-constructor`: one variant of each
//! shape that nothing builds outside `#[cfg(test)]` code, and uses that do
//! not build.

/// A unit, a tuple and a struct variant, each only matched on.
pub enum Shape {
    /// Built below.
    Built,
    /// A unit variant.
    Unit,
    /// A tuple variant.
    Tuple(u32),
    /// A struct variant.
    Struct {
        /// A field.
        side: u32,
    },
}

/// Every use here is a pattern.
pub fn area(shape: &Shape) -> u32 {
    let built = Shape::Built;
    if let Shape::Tuple(n) = shape {
        return *n;
    }
    let Shape::Struct { side } = shape else {
        return u32::from(matches!(shape, Shape::Unit | Shape::Built) && !matches!(built, Shape::Unit));
    };
    match shape {
        Shape::Unit | Shape::Tuple(_) => 0,
        Shape::Struct { side: 1 } if *side > 0 => 1,
        Shape::Built => 2,
        Shape::Struct { .. } => side * side,
    }
}

/// Built only in its own impl, by a function nothing calls.
pub enum Mode {
    /// Built by `fast`, which has a caller.
    Fast,
    /// Built by `slow`, which has none.
    Slow,
}

impl Mode {
    /// Has a caller below.
    pub fn fast() -> Self {
        Mode::Fast
    }

    fn slow() -> Self {
        Self::Slow
    }
}

/// Calls `Mode::fast`.
pub fn run() -> bool {
    matches!(Mode::fast(), Mode::Fast)
}

/// An allow without a reason suppresses nothing.
pub enum Unjustified {
    /// Never built.
    // aqua-lint: allow(variant-has-constructor)
    Never,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_shape() {
        for shape in [Shape::Unit, Shape::Tuple(2), Shape::Struct { side: 3 }] {
            area(&shape);
        }
        let _ = Mode::slow();
        let _ = Unjustified::Never;
    }
}
