// Fed as `crates/crypto/src/ct_select_branch.rs`. `ct_select` returns
// the value its secret `choice` picked, so branching on that result
// leaks the choice: a deny. A `ct_eq` result is the one value a branch
// may read.
pub fn pick(key_bit: bool, a: u64, b: u64) -> u64 {
    if ct_select(key_bit, 1, 0) > 0 {
        a
    } else {
        b
    }
}

pub fn same(key: &[u8], other: &[u8]) -> bool {
    if ct_eq(key, other) {
        return true;
    }
    false
}
