//! The repo's benchmark: five seeded workloads over the gateway, the
//! socket runtime and both simulators, each measured end to end in an
//! untraced window and layer by layer in a traced one. See `README.md`
//! for the glossary and `../BENCHMARK.json` for the contract.
//!
//! Everything here is a caller of the crates under `../crates`: it times
//! their public functions from outside and changes none of them.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod catalogue;
pub mod cli;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod pass;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod window;
pub mod workloads;
