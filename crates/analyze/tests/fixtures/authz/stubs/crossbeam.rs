//! Fed as `shims/crossbeam/src/lib.rs`: the channel send the
//! `wal-before-ack` rule names as its after-event.
#![forbid(unsafe_code)]
pub mod channel {
    pub struct Sender;

    impl Sender {
        pub fn send(&self, value: u64) -> Result<(), u64> {
            Ok(())
        }
    }
}
