// Fed as `crates/tpm/src/arm_leak.rs`. A sealing call in one arm of an
// `if` on the right of a `let` seals that arm only: the other arm hands
// the raw key on, so the binding is secret and the print is a deny.
pub fn export_key(key: &[u8], w: bool) {
    let out = if w { seal_blob(key) } else { key.to_vec() };
    println!("{:?}", out);
}
