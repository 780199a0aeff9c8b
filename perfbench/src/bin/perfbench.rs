//! Untraced benchmark run: end-to-end metrics, system allocator.

fn main() -> std::process::ExitCode {
    perfbench::run::main(false)
}
