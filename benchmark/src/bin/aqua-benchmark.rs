//! The untraced binary: end-to-end metrics, system allocator.

fn main() {
    aqua_benchmark::cli::main(false);
}
