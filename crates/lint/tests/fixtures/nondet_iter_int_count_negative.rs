//! Clean: integer counting over a hash map is order-independent.
use std::collections::HashMap;

pub fn total(counts: &HashMap<u32, u32>, hist: &mut [u32]) -> u32 {
    let mut total = 0u32;
    for (&w, n) in counts {
        total += *n;
        hist[w as usize % hist.len()] += 1;
    }
    total
}
