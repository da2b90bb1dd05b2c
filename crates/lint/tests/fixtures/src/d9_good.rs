//! D9 negative: fallible lookups return options, the one index carries
//! its invariant, and test code may panic freely.
#[expect(clippy::indexing_slicing, reason = "first() returned Some, so the slice is nonempty")]
pub fn head_and_tail(v: &[u64]) -> Option<u64> {
    let head = *v.first()?;
    let tail = *v.last()?;
    Some(head + tail + v[0])
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v = vec![1u64, 2];
        assert_eq!(super::head_and_tail(&v).unwrap(), 4);
        assert_eq!(v[0], 1);
    }
}
