//! D1 negative: simulated time only; `Instant::now()` appears solely in
//! this comment and in the string below, which must not fire.
pub fn tick(now_us: u64) -> u64 {
    let label = "Instant::now() is banned here";
    let _ = label;
    now_us + 1
}
