// Fed as `crates/tpm/src/pcr.rs` (a TCB file). `unreachable!` aborts the
// session exactly like `panic!`, so the one panic-site list flags it in
// a TCB file too, not only in code the TCB reaches.
pub struct PcrIndex(u32);

impl PcrIndex {
    pub fn checked(&self) -> u32 {
        if self.0 > 1000 {
            unreachable!()
        }
        self.0
    }
}
