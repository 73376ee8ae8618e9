//! The transaction-confirmation PAL — the code whose measurement the
//! service provider trusts.
//!
//! Everything in this module runs *inside* the DRTM session: OS suspended,
//! keyboard hardware-isolated, PCR 17 holding this PAL's measurement. It
//! renders the transaction, collects the human verdict, and emits a
//! [`ConfirmationToken`] which the runtime binds into PCR 17 before
//! quoting. Its size is the paper's TCB argument (experiment E7): a few
//! hundred lines versus millions in the OS + browser.
//!
//! The batch and amortized PALs run this file's dialogue too
//! (`confirm_dialogue`); only their input parsing and key handling are
//! their own.

use crate::protocol::{ConfirmMode, ConfirmationToken, Transaction, TransactionRequest, Verdict};
use std::time::Duration;
use utp_flicker::pal::{Pal, PalEnv, PalError, Termination};

/// Display rows used by the PAL.
const ROW_TITLE: usize = 0;
const ROW_PAYEE: usize = 2;
const ROW_AMOUNT: usize = 3;
const ROW_MEMO: usize = 4;
const ROW_PROMPT: usize = 6;
const ROW_PROMPT2: usize = 7;
const ROW_STATUS: usize = 9;

/// Marker the prompt line uses before the confirmation code; the human
/// (and only the human — malware is suspended) reads the code after it.
pub const CODE_MARKER: &str = "approve, type: ";

/// The confirmation PAL.
///
/// The PAL's *identity* is its measured image: [`ConfirmationPal::image`]
/// encodes the version and the behaviour-relevant configuration, so a PAL
/// with a different attempt limit is a different PAL to remote verifiers —
/// exactly as on real hardware, where config baked into the SLB changes
/// the measurement.
#[derive(Debug, Clone)]
pub struct ConfirmationPal {
    image: Vec<u8>,
    max_code_attempts: u32,
}

impl ConfirmationPal {
    /// The canonical v1 release (3 code attempts) whose measurement
    /// providers pin.
    pub fn v1() -> Self {
        Self::with_attempts(V1_CODE_ATTEMPTS)
    }

    /// A variant with a different attempt limit (a *different* PAL).
    pub fn with_attempts(max_code_attempts: u32) -> Self {
        let image = format!(
            "UTP-CONFIRMATION-PAL v1 (max_code_attempts={})",
            max_code_attempts
        )
        .into_bytes();
        ConfirmationPal {
            image,
            max_code_attempts,
        }
    }

    /// The measurement remote verifiers should pin for this PAL.
    pub fn measurement(&self) -> utp_crypto::sha1::Sha1Digest {
        utp_crypto::sha1::Sha1::digest(&self.image)
    }
}

/// Code-entry attempts of every v1 PAL build (base, batch, amortized).
pub(crate) const V1_CODE_ATTEMPTS: u32 = 3;

/// The dialogue every PAL variant runs: renders `tx` under `title`, then
/// returns the verdict and the code attempts used (0 for press-enter).
/// Rows are cleared before they are written, so the batch PAL can reuse
/// one screen.
pub(crate) fn confirm_dialogue(
    env: &mut PalEnv<'_, '_>,
    title: &str,
    tx: &Transaction,
    mode: ConfirmMode,
    max_code_attempts: u32,
) -> Result<(Verdict, u32), PalError> {
    show_row(env, ROW_TITLE, title)?;
    show_row(env, ROW_PAYEE, &format!("Pay to : {}", tx.payee))?;
    show_row(
        env,
        ROW_AMOUNT,
        &format!("Amount : {}", tx.display_amount()),
    )?;
    show_row(env, ROW_MEMO, &format!("Memo   : {}", tx.memo))?;
    env.clear_row(ROW_STATUS)?;
    match mode {
        ConfirmMode::PressEnter => run_press_enter(env),
        ConfirmMode::TypeCode => run_type_code(env, max_code_attempts),
    }
}

/// Replaces the contents of one display row.
fn show_row(env: &mut PalEnv<'_, '_>, row: usize, text: &str) -> Result<(), PalError> {
    env.clear_row(row)?;
    env.show(row, text)
}

/// Draws a fresh 6-digit code from TPM randomness.
fn fresh_code(env: &mut PalEnv<'_, '_>) -> Result<String, PalError> {
    let raw = env.get_random(4)?;
    let n = raw.iter().fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
    Ok(format!("{:06}", n % 1_000_000))
}

fn run_press_enter(env: &mut PalEnv<'_, '_>) -> Result<(Verdict, u32), PalError> {
    show_row(env, ROW_PROMPT, "Press ENTER to approve this transaction.")?;
    show_row(env, ROW_PROMPT2, "Press ESC to reject.")?;
    let result = env.prompt_line()?;
    let verdict = match result.termination {
        Termination::Enter => Verdict::Confirmed,
        Termination::Escape => Verdict::Rejected,
        Termination::Timeout => Verdict::Timeout,
    };
    Ok((verdict, 0))
}

fn run_type_code(
    env: &mut PalEnv<'_, '_>,
    max_code_attempts: u32,
) -> Result<(Verdict, u32), PalError> {
    let code = fresh_code(env)?;
    show_row(
        env,
        ROW_PROMPT,
        &format!("To {}{} then press ENTER.", CODE_MARKER, code),
    )?;
    show_row(env, ROW_PROMPT2, "Press ESC to reject.")?;
    for attempt in 1..=max_code_attempts {
        let result = env.prompt_line()?;
        match result.termination {
            Termination::Escape => return Ok((Verdict::Rejected, attempt)),
            Termination::Timeout => return Ok((Verdict::Timeout, attempt)),
            Termination::Enter => {
                if result.text == code {
                    return Ok((Verdict::Confirmed, attempt));
                }
                show_row(
                    env,
                    ROW_STATUS,
                    &format!(
                        "Code incorrect ({} of {} attempts used).",
                        attempt, max_code_attempts
                    ),
                )?;
            }
        }
    }
    Ok((Verdict::Rejected, max_code_attempts))
}

impl Pal for ConfirmationPal {
    fn image(&self) -> &[u8] {
        &self.image
    }

    fn invoke(&mut self, env: &mut PalEnv<'_, '_>, input: &[u8]) -> Result<Vec<u8>, PalError> {
        let req = TransactionRequest::from_bytes(input)
            .map_err(|e| PalError::Failed(format!("bad request: {}", e)))?;
        // Model the PAL's own compute (parse + render + hash): ~1 ms.
        env.compute(Duration::from_millis(1));
        let (verdict, attempts) = confirm_dialogue(
            env,
            "=== TRUSTED TRANSACTION CONFIRMATION ===",
            &req.transaction,
            req.mode,
            self.max_code_attempts,
        )?;
        let token = ConfirmationToken {
            tx_digest: req.transaction.digest(),
            nonce: req.nonce,
            mode: req.mode,
            verdict,
            attempts,
        };
        Ok(token.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CODE_LEN;
    use utp_crypto::sha1::Sha1;
    use utp_flicker::pal::{OperatorResponse, ScriptedOperator};
    use utp_flicker::runtime::run_pal;
    use utp_platform::keyboard::KeyEvent;
    use utp_platform::machine::{Machine, MachineConfig};

    fn request(mode: ConfirmMode) -> TransactionRequest {
        TransactionRequest {
            transaction: Transaction::new(7, "shop.example", 4_200, "EUR", "order 1"),
            nonce: Sha1::digest(b"nonce"),
            mode,
        }
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::fast_for_tests(51))
    }

    fn run(
        machine: &mut Machine,
        req: &TransactionRequest,
        op: &mut ScriptedOperator,
    ) -> ConfirmationToken {
        let mut pal = ConfirmationPal::v1();
        let report = run_pal(machine, &mut pal, &req.to_bytes(), op, None).unwrap();
        ConfirmationToken::from_bytes(&report.output).unwrap()
    }

    #[test]
    fn press_enter_confirms() {
        let mut m = machine();
        let req = request(ConfirmMode::PressEnter);
        let mut op = ScriptedOperator::pressing(KeyEvent::Enter);
        let token = run(&mut m, &req, &mut op);
        assert_eq!(token.verdict, Verdict::Confirmed);
        assert_eq!(token.tx_digest, req.transaction.digest());
        assert_eq!(token.nonce, req.nonce);
        // The operator saw the true transaction on the PAL's screen.
        let screen = &op.observed_screens[0];
        assert!(screen.iter().any(|r| r.contains("shop.example")));
        assert!(screen.iter().any(|r| r.contains("42.00 EUR")));
    }

    #[test]
    fn escape_rejects() {
        let mut m = machine();
        let req = request(ConfirmMode::PressEnter);
        let mut op = ScriptedOperator::pressing(KeyEvent::Escape);
        assert_eq!(run(&mut m, &req, &mut op).verdict, Verdict::Rejected);
    }

    #[test]
    fn silence_times_out() {
        let mut m = machine();
        let req = request(ConfirmMode::PressEnter);
        let mut op = ScriptedOperator::silent();
        assert_eq!(run(&mut m, &req, &mut op).verdict, Verdict::Timeout);
    }

    fn extract_code(screen: &[String]) -> String {
        let line = screen
            .iter()
            .find(|r| r.contains(CODE_MARKER))
            .expect("code line shown");
        let idx = line.find(CODE_MARKER).unwrap() + CODE_MARKER.len();
        line[idx..idx + CODE_LEN].to_string()
    }

    /// An operator that reads the code off the screen and types it.
    struct CodeReader {
        typo_first: bool,
    }
    impl utp_flicker::pal::Operator for CodeReader {
        fn respond(&mut self, screen: &[String]) -> OperatorResponse {
            let code = extract_code(screen);
            let mut text = code;
            if self.typo_first {
                self.typo_first = false;
                text = "000000".into();
            }
            let mut events: Vec<KeyEvent> = text.chars().map(KeyEvent::Char).collect();
            events.push(KeyEvent::Enter);
            OperatorResponse {
                events,
                elapsed: Duration::from_secs(3),
            }
        }
    }

    #[test]
    fn correct_code_confirms_on_first_attempt() {
        let mut m = machine();
        let req = request(ConfirmMode::TypeCode);
        let mut pal = ConfirmationPal::v1();
        let mut op = CodeReader { typo_first: false };
        let report = run_pal(&mut m, &mut pal, &req.to_bytes(), &mut op, None).unwrap();
        let token = ConfirmationToken::from_bytes(&report.output).unwrap();
        assert_eq!(token.verdict, Verdict::Confirmed);
        assert_eq!(token.attempts, 1);
        assert!(report.timings.human >= Duration::from_secs(3));
    }

    #[test]
    fn typo_then_correct_code_confirms_on_second_attempt() {
        let mut m = machine();
        let req = request(ConfirmMode::TypeCode);
        let mut pal = ConfirmationPal::v1();
        let mut op = CodeReader { typo_first: true };
        let report = run_pal(&mut m, &mut pal, &req.to_bytes(), &mut op, None).unwrap();
        let token = ConfirmationToken::from_bytes(&report.output).unwrap();
        assert_eq!(token.verdict, Verdict::Confirmed);
        assert_eq!(token.attempts, 2);
    }

    #[test]
    fn exhausted_attempts_reject() {
        let mut m = machine();
        let req = request(ConfirmMode::TypeCode);
        // Always types the wrong code.
        let responses: Vec<OperatorResponse> = (0..3)
            .map(|_| OperatorResponse {
                events: "999999"
                    .chars()
                    .map(KeyEvent::Char)
                    .chain(std::iter::once(KeyEvent::Enter))
                    .collect(),
                elapsed: Duration::ZERO,
            })
            .collect();
        let mut op = ScriptedOperator::with_script(responses);
        let token = run(&mut m, &req, &mut op);
        assert_eq!(token.verdict, Verdict::Rejected);
        assert_eq!(token.attempts, 3);
    }

    #[test]
    fn blind_guessing_cannot_reliably_confirm() {
        // The code has 10^6 possibilities; 3 blind attempts succeed with
        // probability 3e-6. Run a few dozen machines and expect zero hits.
        let mut confirmed = 0;
        for seed in 0..40 {
            let mut m = Machine::new(MachineConfig::fast_for_tests(seed));
            let req = request(ConfirmMode::TypeCode);
            let responses: Vec<OperatorResponse> = (0..3)
                .map(|i| OperatorResponse {
                    events: format!("{:06}", i * 111_111)
                        .chars()
                        .map(KeyEvent::Char)
                        .chain(std::iter::once(KeyEvent::Enter))
                        .collect(),
                    elapsed: Duration::ZERO,
                })
                .collect();
            let mut op = ScriptedOperator::with_script(responses);
            if run(&mut m, &req, &mut op).verdict == Verdict::Confirmed {
                confirmed += 1;
            }
        }
        assert_eq!(confirmed, 0);
    }

    #[test]
    fn codes_are_fresh_per_session() {
        let mut m = machine();
        let req = request(ConfirmMode::TypeCode);
        let mut pal = ConfirmationPal::v1();
        let mut op1 = ScriptedOperator::pressing(KeyEvent::Escape);
        run_pal(&mut m, &mut pal, &req.to_bytes(), &mut op1, None).unwrap();
        let mut op2 = ScriptedOperator::pressing(KeyEvent::Escape);
        run_pal(&mut m, &mut pal, &req.to_bytes(), &mut op2, None).unwrap();
        let c1 = extract_code(&op1.observed_screens[0]);
        let c2 = extract_code(&op2.observed_screens[0]);
        assert_ne!(c1, c2);
    }

    #[test]
    fn malformed_input_fails_without_output() {
        let mut m = machine();
        let mut pal = ConfirmationPal::v1();
        let mut op = ScriptedOperator::silent();
        let err = run_pal(&mut m, &mut pal, b"garbage", &mut op, None).unwrap_err();
        assert!(err.to_string().contains("bad request"));
    }

    #[test]
    fn variants_have_distinct_measurements() {
        assert_ne!(
            ConfirmationPal::v1().measurement(),
            ConfirmationPal::with_attempts(5).measurement()
        );
        // And the measurement matches what SKINIT will record.
        let pal = ConfirmationPal::v1();
        assert_eq!(pal.measurement(), Sha1::digest(pal.image()));
    }

    use std::time::Duration;
}
