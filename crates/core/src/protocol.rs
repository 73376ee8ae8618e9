//! Wire protocol between service provider, client orchestrator and PAL.

use utp_crypto::sha1::{Sha1, Sha1Digest};
use utp_flicker::marshal::{put_bytes, put_u32, put_u64, Reader};
use utp_flicker::FlickerError;
use utp_tpm::quote::Quote;

/// Protocol version tag embedded in every structure.
pub const PROTOCOL_VERSION: u32 = 1;

/// Length of a typed confirmation code.
pub const CODE_LEN: usize = 6;

/// A transaction awaiting confirmation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Provider-assigned identifier.
    pub id: u64,
    /// Payee / merchant identifier.
    pub payee: String,
    /// Amount in minor units (cents).
    pub amount_cents: u64,
    /// ISO-ish currency code.
    pub currency: String,
    /// Free-text memo (order number, etc.).
    pub memo: String,
}

impl Transaction {
    /// Creates a transaction.
    pub fn new(
        id: u64,
        payee: impl Into<String>,
        amount_cents: u64,
        currency: impl Into<String>,
        memo: impl Into<String>,
    ) -> Self {
        Transaction {
            id,
            payee: payee.into(),
            amount_cents,
            currency: currency.into(),
            memo: memo.into(),
        }
    }

    /// Canonical byte encoding (digest input and wire format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, PROTOCOL_VERSION);
        put_u64(&mut buf, self.id);
        put_bytes(&mut buf, self.payee.as_bytes());
        put_u64(&mut buf, self.amount_cents);
        put_bytes(&mut buf, self.currency.as_bytes());
        put_bytes(&mut buf, self.memo.as_bytes());
        buf
    }

    /// Parses the canonical encoding.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FlickerError> {
        let mut r = Reader::new(data);
        let tx = Self::read(&mut r)?;
        r.finish()?;
        Ok(tx)
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, FlickerError> {
        let version = r.u32()?;
        if version != PROTOCOL_VERSION {
            return Err(FlickerError::Marshal(format!(
                "unsupported transaction version {}",
                version
            )));
        }
        let id = r.u64()?;
        let payee = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|e| FlickerError::Marshal(e.to_string()))?;
        let amount_cents = r.u64()?;
        let currency = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|e| FlickerError::Marshal(e.to_string()))?;
        let memo = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|e| FlickerError::Marshal(e.to_string()))?;
        Ok(Transaction {
            id,
            payee,
            amount_cents,
            currency,
            memo,
        })
    }

    pub(crate) fn write(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }

    /// SHA-1 digest of the canonical encoding — the 20-byte value bound
    /// into PCR 17 and checked by the verifier.
    pub fn digest(&self) -> Sha1Digest {
        Sha1::digest(&self.to_bytes())
    }

    /// Human-readable amount, e.g. `42.00 EUR`.
    pub fn display_amount(&self) -> String {
        format!(
            "{}.{:02} {}",
            self.amount_cents / 100,
            self.amount_cents % 100,
            self.currency
        )
    }
}

/// How the PAL asks the human to confirm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfirmMode {
    /// Press Enter to approve, Escape to reject. Fast; vulnerable to a
    /// human rubber-stamping without reading.
    PressEnter,
    /// Type a random on-screen code. Slower; proves the human read the
    /// screen the PAL drew (the mode the paper recommends for high-value
    /// transactions and as the CAPTCHA replacement).
    TypeCode,
}

impl ConfirmMode {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            ConfirmMode::PressEnter => 0,
            ConfirmMode::TypeCode => 1,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ConfirmMode::PressEnter),
            1 => Some(ConfirmMode::TypeCode),
            _ => None,
        }
    }
}

/// The provider's challenge: a transaction plus a fresh nonce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionRequest {
    /// The transaction to confirm.
    pub transaction: Transaction,
    /// Single-use anti-replay nonce, also the quote's `externalData`.
    pub nonce: Sha1Digest,
    /// Requested confirmation UX.
    pub mode: ConfirmMode,
}

impl TransactionRequest {
    /// Canonical encoding — these exact bytes are the PAL's input and are
    /// bound into PCR 17 via the session I/O digest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.transaction.write(&mut buf);
        buf.extend_from_slice(self.nonce.as_bytes());
        buf.push(self.mode.to_u8());
        buf
    }

    /// Parses the canonical encoding.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FlickerError> {
        let mut r = Reader::new(data);
        let transaction = Transaction::read(&mut r)?;
        let nonce = Sha1Digest::from_slice(r.take(20)?)
            .ok_or_else(|| FlickerError::Marshal("nonce needs 20 bytes".into()))?;
        let mode_byte = r.take(1)?[0];
        r.finish()?;
        let mode = ConfirmMode::from_u8(mode_byte)
            .ok_or_else(|| FlickerError::Marshal(format!("bad mode byte {}", mode_byte)))?;
        Ok(TransactionRequest {
            transaction,
            nonce,
            mode,
        })
    }
}

/// The human's verdict as the PAL recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The human approved the transaction.
    Confirmed,
    /// The human explicitly rejected it.
    Rejected,
    /// The human stopped responding (or exhausted code attempts).
    Timeout,
}

impl Verdict {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Verdict::Confirmed => 1,
            Verdict::Rejected => 2,
            Verdict::Timeout => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Verdict::Confirmed),
            2 => Some(Verdict::Rejected),
            3 => Some(Verdict::Timeout),
            _ => None,
        }
    }
}

/// The PAL's output: verdict bound to transaction and nonce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmationToken {
    /// Digest of the transaction the PAL displayed.
    pub tx_digest: Sha1Digest,
    /// The request nonce, echoed.
    pub nonce: Sha1Digest,
    /// UX mode actually used.
    pub mode: ConfirmMode,
    /// The verdict.
    pub verdict: Verdict,
    /// Code-entry attempts the human needed (0 for `PressEnter`).
    pub attempts: u32,
}

impl ConfirmationToken {
    /// Canonical encoding — the PAL's exact output bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, PROTOCOL_VERSION);
        buf.extend_from_slice(self.tx_digest.as_bytes());
        buf.extend_from_slice(self.nonce.as_bytes());
        buf.push(self.mode.to_u8());
        buf.push(self.verdict.to_u8());
        put_u32(&mut buf, self.attempts);
        buf
    }

    /// Parses the canonical encoding.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FlickerError> {
        let mut r = Reader::new(data);
        let version = r.u32()?;
        if version != PROTOCOL_VERSION {
            return Err(FlickerError::Marshal(format!(
                "bad token version {}",
                version
            )));
        }
        let tx_digest = Sha1Digest::from_slice(r.take(20)?)
            .ok_or_else(|| FlickerError::Marshal("tx digest needs 20 bytes".into()))?;
        let nonce = Sha1Digest::from_slice(r.take(20)?)
            .ok_or_else(|| FlickerError::Marshal("nonce needs 20 bytes".into()))?;
        let mode = ConfirmMode::from_u8(r.take(1)?[0])
            .ok_or_else(|| FlickerError::Marshal("bad mode".into()))?;
        let verdict = Verdict::from_u8(r.take(1)?[0])
            .ok_or_else(|| FlickerError::Marshal("bad verdict".into()))?;
        let attempts = r.u32()?;
        r.finish()?;
        Ok(ConfirmationToken {
            tx_digest,
            nonce,
            mode,
            verdict,
            attempts,
        })
    }
}

/// Everything the client sends back to the provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The PAL's output token (exact bytes, as bound into PCR 17).
    pub token_bytes: Vec<u8>,
    /// The TPM quote over PCR 17 with the request nonce.
    pub quote: Quote,
    /// The AIK certificate issued by the privacy CA.
    pub aik_cert: Vec<u8>,
}

impl Evidence {
    /// Wire encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &self.token_bytes);
        put_bytes(&mut buf, &self.quote.to_bytes());
        put_bytes(&mut buf, &self.aik_cert);
        buf
    }

    /// Parses the wire encoding.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FlickerError> {
        let mut r = Reader::new(data);
        let token_bytes = r.bytes()?.to_vec();
        let quote = Quote::from_bytes(r.bytes()?)
            .ok_or_else(|| FlickerError::Marshal("bad quote encoding".into()))?;
        let aik_cert = r.bytes()?.to_vec();
        r.finish()?;
        Ok(Evidence {
            token_bytes,
            quote,
            aik_cert,
        })
    }

    /// The decoded token.
    pub fn token(&self) -> Result<ConfirmationToken, FlickerError> {
        ConfirmationToken::from_bytes(&self.token_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utp_tpm::pcr::PcrSelection;

    fn tx() -> Transaction {
        Transaction::new(42, "shop.example", 12_34, "EUR", "order 9")
    }

    #[test]
    fn transaction_roundtrip() {
        let t = tx();
        assert_eq!(Transaction::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn transaction_digest_is_field_sensitive() {
        let base = tx();
        let mut variants = vec![base.clone()];
        let mut v = base.clone();
        v.id = 43;
        variants.push(v);
        let mut v = base.clone();
        v.payee = "evil.example".into();
        variants.push(v);
        let mut v = base.clone();
        v.amount_cents = 999_999;
        variants.push(v);
        let mut v = base.clone();
        v.memo = "order 10".into();
        variants.push(v);
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(variants[i].digest(), variants[j].digest(), "{} vs {}", i, j);
            }
        }
    }

    #[test]
    fn transaction_encoding_is_unambiguous_across_fields() {
        // "ab" + "c" must encode differently from "a" + "bc".
        let t1 = Transaction::new(1, "ab", 0, "c", "");
        let t2 = Transaction::new(1, "a", 0, "bc", "");
        assert_ne!(t1.to_bytes(), t2.to_bytes());
        assert_ne!(t1.digest(), t2.digest());
    }

    #[test]
    fn display_amount_formats_cents() {
        assert_eq!(tx().display_amount(), "12.34 EUR");
        assert_eq!(
            Transaction::new(1, "p", 5, "USD", "").display_amount(),
            "0.05 USD"
        );
    }

    #[test]
    fn request_roundtrip() {
        let req = TransactionRequest {
            transaction: tx(),
            nonce: Sha1::digest(b"n"),
            mode: ConfirmMode::TypeCode,
        };
        assert_eq!(
            TransactionRequest::from_bytes(&req.to_bytes()).unwrap(),
            req
        );
    }

    #[test]
    fn request_rejects_bad_mode_and_truncation() {
        let req = TransactionRequest {
            transaction: tx(),
            nonce: Sha1Digest::zero(),
            mode: ConfirmMode::PressEnter,
        };
        let mut bytes = req.to_bytes();
        *bytes.last_mut().unwrap() = 9;
        assert!(TransactionRequest::from_bytes(&bytes).is_err());
        assert!(TransactionRequest::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn token_roundtrip_all_verdicts() {
        for verdict in [Verdict::Confirmed, Verdict::Rejected, Verdict::Timeout] {
            for mode in [ConfirmMode::PressEnter, ConfirmMode::TypeCode] {
                let token = ConfirmationToken {
                    tx_digest: Sha1::digest(b"t"),
                    nonce: Sha1::digest(b"n"),
                    mode,
                    verdict,
                    attempts: 2,
                };
                assert_eq!(
                    ConfirmationToken::from_bytes(&token.to_bytes()).unwrap(),
                    token
                );
            }
        }
    }

    #[test]
    fn token_rejects_garbage() {
        assert!(ConfirmationToken::from_bytes(&[]).is_err());
        let token = ConfirmationToken {
            tx_digest: Sha1Digest::zero(),
            nonce: Sha1Digest::zero(),
            mode: ConfirmMode::PressEnter,
            verdict: Verdict::Confirmed,
            attempts: 0,
        };
        let mut bytes = token.to_bytes();
        bytes.push(0); // trailing garbage
        assert!(ConfirmationToken::from_bytes(&bytes).is_err());
    }

    #[test]
    fn evidence_roundtrip() {
        let ev = Evidence {
            token_bytes: vec![1, 2, 3],
            quote: Quote {
                selection: PcrSelection::drtm_only(),
                pcr_values: vec![Sha1Digest::zero()],
                external_data: Sha1Digest::ones(),
                signature: vec![9; 64],
            },
            aik_cert: vec![4, 5],
        };
        assert_eq!(Evidence::from_bytes(&ev.to_bytes()).unwrap(), ev);
    }

    use utp_crypto::sha1::Sha1;
}
