//! D6 positive: printing from library code.
pub fn report(hits: u64) {
    println!("hits = {hits}"); // violation: clippy::print_stdout
    eprintln!("warn"); // violation: clippy::print_stderr
}
