// Fed as `crates/crypto/src/ct_helper.rs`. A secret limb returned by a
// helper fn: the caller's neutral-named binding is secret, so branching
// on it is a deny.
fn first_word(key: &[u64]) -> u64 {
    key[0]
}

pub fn is_small(words: &[u64]) -> bool {
    let t = first_word(words);
    if t > 3 {
        return false;
    }
    true
}
