//! `tasq-benchmark`: see `tasq_benchmark::run::USAGE`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(tasq_benchmark::run::main_with(&args));
}
