//! Positive fixture for `knob-census`: config fields that code outside
//! tests and examples gives at most one value.

/// A config struct.
pub struct LinkConfig {
    /// Only `Default` gives it a value.
    pub retries: u32,
    /// Set to the `Default` value again.
    pub timeout_ms: u64,
    /// Only tests give it another value.
    pub jitter: f64,
    /// Assigned the same value as its `Default` one.
    pub window: usize,
    /// A builder sets the same value as its `Default` one.
    pub label: &'static str,
    /// The same literal twice counts once.
    pub burst: u32,
    /// A justified allow keeps it.
    // aqua-lint: allow(knob-census) the fixture's deployment address
    pub address: &'static str,
    /// An allow without a reason keeps nothing.
    // aqua-lint: allow(knob-census)
    pub unjustified: bool,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            retries: 3,
            timeout_ms: 100,
            jitter: 0.0,
            window: 5,
            label: "link",
            burst: 8,
            address: "127.0.0.1:1",
            unjustified: false,
        }
    }
}

impl LinkConfig {
    /// Sets the label.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }
}

/// Builds the one deployed link.
pub fn deployed() -> LinkConfig {
    let mut config = LinkConfig {
        timeout_ms: 100,
        burst: 8,
        ..LinkConfig::default()
    };
    config.window = 5;
    let config = config.with_label("link");
    match config {
        LinkConfig { burst: 16, .. } => LinkConfig::default(),
        other => other,
    }
}

/// A derived `Default` is its one value.
#[derive(Default)]
pub struct PathSpec {
    /// Nothing else sets it.
    pub depth: u32,
}

/// Named like a config, read only.
pub struct ReadPolicy {
    /// Never set.
    pub strict: bool,
}

/// Reads a policy.
pub fn strict(policy: &ReadPolicy) -> bool {
    policy.strict && PathSpec::default().depth == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitters() {
        let config = LinkConfig {
            jitter: 0.5,
            retries: 9,
            ..LinkConfig::default()
        };
        assert!(config.jitter > 0.0);
    }
}
