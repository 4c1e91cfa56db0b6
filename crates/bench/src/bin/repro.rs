//! `repro [NAME...]`: runs rows of the reproduction table ([`bench::FIGURES`])
//! and prints their tables and shape checks. See the `bench` crate docs for
//! the flags and the exit status.

fn main() {
    std::process::exit(bench::repro(std::env::args().skip(1)));
}
