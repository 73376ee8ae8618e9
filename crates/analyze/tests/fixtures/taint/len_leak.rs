// Fed as `crates/tpm/src/len_leak.rs`. Next to `len_public.rs`: the
// same key printed itself, or its first byte, still denies.
pub fn log_key(session_key: &[u8]) {
    eprintln!("{}", session_key.len());
    eprintln!("{:?}", session_key);
    eprintln!("{:?}", session_key.first());
}
