//! Deliberate violation: a float accumulated with `+=` over a hash map's
//! iteration order (the shape of a Dirichlet-multinomial likelihood).
use std::collections::HashMap;

pub fn log_likelihood(doc: &[u32], node: &HashMap<u32, u32>, eta: f64) -> f64 {
    let mut local: HashMap<u32, u32> = HashMap::new();
    for &w in doc {
        *local.entry(w).or_insert(0) += 1;
    }
    let mut ll = 0.0;
    for (&w, &c) in &local {
        let base = node.get(&w).copied().unwrap_or(0) as f64;
        ll += ln_gamma(base + c as f64 + eta) - ln_gamma(base + eta);
    }
    ll
}

fn ln_gamma(x: f64) -> f64 {
    x.ln()
}
