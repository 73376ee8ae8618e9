//! Known-answer test: RSA key generation and PKCS#1 v1.5 are
//! deterministic for a fixed seed, so any change to the bignum
//! arithmetic underneath must leave every output byte unchanged. Each
//! pinned value is the SHA-256 of the concatenated outputs for one key
//! size.

use rand::rngs::StdRng;
use rand::SeedableRng;
use utp_crypto::rsa::RsaKeyPair;
use utp_crypto::sha256::Sha256;
use utp_crypto::CryptoError;

/// SHA-256 over, in order: the public key encoding, a SHA-1 and a
/// SHA-256 signature over a fixed message, and a PKCS#1 v1.5
/// ciphertext from a seeded RNG followed by its decryption.
fn transcript_digest(bits: usize, seed: u64) -> Result<String, CryptoError> {
    let kp = RsaKeyPair::generate(bits, seed);
    let msg = b"known-answer transcript";
    let mut transcript = kp.public().to_bytes();
    transcript.extend(kp.sign_pkcs1_sha1(msg)?);
    transcript.extend(kp.sign_pkcs1_sha256(msg)?);
    let mut rng = StdRng::seed_from_u64(seed);
    let ct = kp.public().encrypt_pkcs1(&mut rng, msg)?;
    let pt = kp.decrypt_pkcs1(&ct)?;
    assert_eq!(pt, msg, "decrypt round trip");
    transcript.extend(ct);
    transcript.extend(pt);
    Ok(Sha256::digest(&transcript)
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect())
}

#[test]
fn rsa_outputs_are_byte_identical_to_the_pinned_transcripts() {
    let pinned: [(usize, u64, &str); 3] = [
        (
            512,
            11,
            "8877632b302cc192731167e2561145823cbcebb95f03911c6797e428685b0d91",
        ),
        (
            1024,
            12,
            "38dea662225ff6903f496a63e14f6cff6a92562a70afa798be2e673c4a4b13e4",
        ),
        (
            2048,
            13,
            "f50a44384a0f580ab17d8efb9ffb6b01081a4b779e8b6f7f2766e73592e2a456",
        ),
    ];
    let got: Vec<String> = pinned
        .iter()
        .map(|&(bits, seed, _)| transcript_digest(bits, seed).unwrap())
        .collect();
    let want: Vec<&str> = pinned.iter().map(|&(_, _, want)| want).collect();
    assert_eq!(got, want, "an RSA transcript changed");
}
