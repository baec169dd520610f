//! The traced binary: the same program behind a counting allocator, so
//! `process.allocs_per_call` exists and the untraced binary pays nothing
//! for it.

#[global_allocator]
static ALLOCATOR: aqua_benchmark::alloc::Counting = aqua_benchmark::alloc::Counting;

fn main() {
    aqua_benchmark::cli::main(true);
}
