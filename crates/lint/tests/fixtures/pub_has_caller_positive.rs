//! Positive fixture for `pub-has-caller`: one `pub` item of each kind that
//! nothing calls, and uses that do not count as a call.

/// A fn.
pub fn lonely_fn() {}

/// A struct named only by its own impls.
pub struct LonelyStruct;

impl LonelyStruct {
    /// A method: only its own body names it.
    pub fn lonely_method(&self) -> LonelyStruct {
        self.lonely_method()
    }
}

impl Default for LonelyStruct {
    fn default() -> Self {
        LonelyStruct
    }
}

/// An enum.
pub enum LonelyEnum {
    /// Its one variant.
    Only,
}

/// A trait.
pub trait LonelyTrait {
    /// Not a `pub` item itself.
    fn act(&self);
}

/// A type alias.
pub type LonelyAlias = u32;

/// A const.
pub const LONELY_CONST: u32 = 1;

/// A static.
pub static LONELY_STATIC: [u8; 2] = [0; 2];

/// Named only in docs: [`DocOnly`], and
///
/// ```
/// let _ = fixture::DocOnly;
/// ```
pub struct DocOnly;

mod inner {
    /// Named only by the re-export below.
    pub fn reexport_only() {}
}

pub use inner::reexport_only;

/// Called only from `#[cfg(test)]` code.
pub fn test_only() {}

// aqua-lint: allow(pub-has-caller)
pub fn unjustified() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::test_only();
    }
}
