//! `rdp-bench`: see `benchmark::cli`.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    benchmark::cli::main(&args)
}
