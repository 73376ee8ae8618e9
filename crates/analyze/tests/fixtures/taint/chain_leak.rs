// Fed as `crates/tpm/src/chain_leak.rs`. Key material returned four
// neutral-named calls deep, with every caller defined before its callee:
// the return summary runs to convergence, so both prints are denies.
pub fn log_f3(v: &[u8]) {
    let x = f3(v);
    println!("{:?}", x);
}

pub fn log_f4(v: &[u8]) {
    let x = f4(v);
    println!("{:?}", x);
}

pub fn f4(v: &[u8]) -> Vec<u8> {
    f3(v)
}

pub fn f3(v: &[u8]) -> Vec<u8> {
    f2(v)
}

pub fn f2(v: &[u8]) -> Vec<u8> {
    f1(v)
}

pub fn f1(v: &[u8]) -> Vec<u8> {
    derive_key(v)
}

pub fn derive_key(v: &[u8]) -> Vec<u8> {
    v.to_vec()
}
