//! The client-side orchestrator.
//!
//! The untrusted OS half of the client: receives a [`TransactionRequest`],
//! launches the confirmation PAL through the Flicker runtime with an
//! attestation spec, and packages the resulting token + quote + AIK
//! certificate as [`Evidence`]. Nothing here is trusted by the provider —
//! if malware tampers with any of it, verification fails closed.

use crate::ca::Enrollment;
use crate::error::UtpError;
use crate::pal::ConfirmationPal;
use crate::protocol::{Evidence, TransactionRequest};
use utp_flicker::pal::Operator;
use utp_flicker::runtime::{run_pal, AttestSpec, SessionReport};
use utp_platform::machine::Machine;
use utp_tpm::pcr::PcrSelection;
use utp_tpm::quote::Quote;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The PAL build this client ships.
    pub pal: ConfirmationPal,
}

impl ClientConfig {
    /// The canonical v1 PAL.
    pub fn fast_for_tests() -> Self {
        ClientConfig {
            pal: ConfirmationPal::v1(),
        }
    }
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self::fast_for_tests()
    }
}

/// The client orchestrator.
#[derive(Debug, Clone)]
pub struct Client {
    config: ClientConfig,
    enrollment: Enrollment,
}

impl Client {
    /// Creates a client from its PAL build and CA enrollment.
    pub fn new(config: ClientConfig, enrollment: Enrollment) -> Self {
        Client { config, enrollment }
    }

    /// The enrollment in use.
    pub fn enrollment(&self) -> &Enrollment {
        &self.enrollment
    }

    /// Runs the confirmation PAL for `request` and returns the evidence.
    ///
    /// # Errors
    ///
    /// Propagates launch/TPM/PAL failures as [`UtpError`].
    pub fn confirm(
        &mut self,
        machine: &mut Machine,
        request: &TransactionRequest,
        operator: &mut dyn Operator,
    ) -> Result<Evidence, UtpError> {
        Ok(self.confirm_with_report(machine, request, operator)?.0)
    }

    /// Like [`Client::confirm`] but also returns the session report with
    /// the per-phase timing breakdown (used by the latency experiments).
    pub fn confirm_with_report(
        &mut self,
        machine: &mut Machine,
        request: &TransactionRequest,
        operator: &mut dyn Operator,
    ) -> Result<(Evidence, SessionReport), UtpError> {
        let input = request.to_bytes();
        let mut pal = self.config.pal.clone();
        let report = run_pal(
            machine,
            &mut pal,
            &input,
            operator,
            Some(AttestSpec {
                aik_handle: self.enrollment.aik_handle,
                nonce: request.nonce,
                selection: PcrSelection::drtm_only(),
            }),
        )?;
        let evidence = Evidence {
            token_bytes: report.output.clone(),
            quote: attested_quote(&report)?.clone(),
            aik_cert: self.enrollment.certificate.to_bytes(),
        };
        Ok((evidence, report))
    }
}

/// The quote of a session run with an [`AttestSpec`], or a protocol error.
pub(crate) fn attested_quote(report: &SessionReport) -> Result<&Quote, UtpError> {
    report
        .quote
        .as_ref()
        .ok_or_else(|| UtpError::Protocol("attested session returned no quote".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::PrivacyCa;
    use crate::operator::{ConfirmingHuman, Intent};
    use crate::protocol::{ConfirmMode, Transaction, Verdict};
    use utp_platform::machine::{Machine, MachineConfig};

    fn setup() -> (PrivacyCa, Machine, Client) {
        let ca = PrivacyCa::new(512, 81);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(82));
        let enrollment = ca.enroll(&mut machine);
        let client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        (ca, machine, client)
    }

    fn request(tx: &Transaction) -> TransactionRequest {
        TransactionRequest {
            transaction: tx.clone(),
            nonce: utp_crypto::sha1::Sha1::digest(b"n"),
            mode: ConfirmMode::PressEnter,
        }
    }

    #[test]
    fn confirm_produces_well_formed_evidence() {
        let (_ca, mut machine, mut client) = setup();
        let tx = Transaction::new(1, "shop", 100, "EUR", "");
        let req = request(&tx);
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 83);
        let (evidence, report) = client
            .confirm_with_report(&mut machine, &req, &mut human)
            .unwrap();
        let token = evidence.token().unwrap();
        assert_eq!(token.verdict, Verdict::Confirmed);
        assert_eq!(token.tx_digest, tx.digest());
        assert_eq!(evidence.quote.external_data, req.nonce);
        assert_eq!(report.measurement, ConfirmationPal::v1().measurement());
        // Evidence survives its wire encoding.
        let parsed = Evidence::from_bytes(&evidence.to_bytes()).unwrap();
        assert_eq!(parsed, evidence);
    }

    #[test]
    fn report_contains_human_time() {
        let (_ca, mut machine, mut client) = setup();
        let tx = Transaction::new(2, "shop", 100, "EUR", "");
        let req = request(&tx);
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 84);
        let (_evidence, report) = client
            .confirm_with_report(&mut machine, &req, &mut human)
            .unwrap();
        assert!(report.timings.human > std::time::Duration::ZERO);
        assert!(report.timings.total() >= report.timings.human);
    }

    #[test]
    fn machine_is_usable_after_confirmation() {
        let (_ca, mut machine, mut client) = setup();
        let tx = Transaction::new(3, "shop", 100, "EUR", "");
        let req = request(&tx);
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 85);
        client.confirm(&mut machine, &req, &mut human).unwrap();
        assert!(!machine.in_secure_session());
        // A second confirmation on the same machine works.
        client.confirm(&mut machine, &req, &mut human).unwrap();
        assert_eq!(machine.skinit_count(), 2);
    }
}
