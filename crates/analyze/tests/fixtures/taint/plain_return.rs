// Fed as `crates/tpm/src/plain_return.rs`. Only the tail `v` is a return
// position of `plain`: the secret-named `seed` binding before it is a
// statement, so `plain` is not secret-returning and the print is clean.
pub fn plain(v: u64) -> u64 {
    let seed = 7u64;
    let _ = seed;
    v
}

pub fn log_plain(v: u64) {
    let x = plain(v);
    println!("{:?}", x);
}
