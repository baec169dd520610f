//! Negative fixture for `knob-census`: every config field takes two values
//! outside tests and examples, or is not a knob.

/// A config struct.
#[derive(Clone)]
pub struct PoolConfig {
    /// Two literals.
    pub size: usize,
    /// Set from a variable.
    pub seed: u64,
    /// Set by field shorthand, from a variable.
    pub name: String,
    /// A second value by assignment.
    pub window: usize,
    /// A second value by a `with_` builder.
    pub give_up_ms: u64,
    /// A second value from the benchmark.
    pub batch: u32,
    /// Private state is not a knob.
    generation: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 4,
            seed: 0,
            name: String::new(),
            window: 5,
            give_up_ms: 1_000,
            batch: 1,
            generation: 0,
        }
    }
}

impl PoolConfig {
    /// A named pool.
    pub fn named(name: String, seed: u64) -> Self {
        PoolConfig {
            size: 8,
            seed,
            name,
            ..Self::default()
        }
    }

    /// Sets the give-up.
    pub fn with_give_up_ms(mut self, give_up_ms: u64) -> Self {
        self.give_up_ms = give_up_ms;
        self
    }
}

/// Builds the pools.
pub fn pools() -> Vec<PoolConfig> {
    let mut wide = PoolConfig::named("wide".to_string(), 7).with_give_up_ms(250);
    wide.window = 10;
    vec![wide]
}

/// Not a config struct: its name does not end in `Config`, `Spec` or
/// `Policy`.
pub struct Counter {
    /// One value.
    pub count: u64,
}

/// Builds a counter.
pub fn counter() -> Counter {
    Counter { count: 0 }
}
