//! Traced benchmark run: per-layer metrics, with every heap allocation
//! counted.

#[global_allocator]
static ALLOCATOR: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::run::main(true)
}
