//! End-to-end orchestration of one transaction.
//!
//! Puts all the pieces on one timeline: order placement, challenge
//! delivery over the network model, the DRTM confirmation session, the
//! evidence upload, and server-side verification. The resulting
//! [`E2eReport`] is the row format of the end-to-end latency experiment
//! (E3).

use crate::provider::{Receipt, ServiceProvider};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_core::protocol::Evidence;
use utp_core::verifier::{VerifierConfig, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_flicker::pal::Operator;
use utp_flicker::runtime::PhaseTimings;
use utp_journal::{Journal, RecoveryReport};
use utp_netsim::{FullStackHook, HookOutcome, Link};
use utp_platform::machine::Machine;
use utp_trace::{keys, names, Value};

/// Approximate size of the initial order-intent message.
const ORDER_INTENT_LEN: usize = 256;

/// Emits one deterministic network-leg span on the caller's trace sink.
fn trace_leg(leg: &str, ts: Duration, dur: Duration, bytes: usize) {
    utp_trace::span(
        names::NET_DELIVER,
        ts,
        dur,
        &[
            (keys::LEG, Value::Str(leg.to_string())),
            (keys::BYTES, Value::U64(bytes as u64)),
        ],
    );
}

/// Timing and outcome of one end-to-end transaction.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// Settlement outcome.
    pub outcome: Result<Receipt, VerifyError>,
    /// The trusted-session phase breakdown.
    pub session: PhaseTimings,
    /// Time spent on the wire (all legs).
    pub network: Duration,
    /// Host-measured server verification CPU time.
    pub verify_cpu: Duration,
    /// Total virtual time from order click to settlement.
    pub total: Duration,
    /// Virtual device time the settlement journal consumed (zero when
    /// the provider runs without one).
    pub durability: Duration,
}

impl E2eReport {
    /// Total excluding human interaction — the protocol's intrinsic cost.
    pub fn machine_only(&self) -> Duration {
        self.total - self.session.human
    }
}

/// Journal device time consumed so far, `ZERO` without a journal.
fn journal_time(provider: &ServiceProvider) -> Duration {
    provider
        .journal()
        .map(|j| j.device_time())
        .unwrap_or(Duration::ZERO)
}

/// Folds journal device time spent since `before` into the virtual
/// clock — the disk is one more simulated device on the timeline.
fn fold_journal_time(
    machine: &mut Machine,
    provider: &ServiceProvider,
    before: Duration,
) -> Duration {
    let delta = journal_time(provider).saturating_sub(before);
    machine.advance(delta);
    delta
}

/// Restarts a provider from its journal after a crash, on the machine's
/// timeline: the recovery read cost advances the virtual clock and is
/// traced as a deterministic `journal.recover` span. The recovered
/// provider has the journal re-attached and its recovered nonces in its
/// settlement core; call [`ServiceProvider::attach_service`] afterwards
/// to settle on a worker pool again.
pub fn recover_provider(
    machine: &mut Machine,
    ca_key: RsaPublicKey,
    config: VerifierConfig,
    seed: u64,
    journal: Arc<Journal>,
) -> (ServiceProvider, RecoveryReport) {
    let t0 = machine.now();
    let device_before = journal.device_time();
    let (provider, report) = ServiceProvider::recover(ca_key, config, seed, journal);
    let cost = journal_time(&provider).saturating_sub(device_before);
    utp_trace::span(
        names::JOURNAL_RECOVER,
        t0,
        cost,
        &[
            (keys::RECORDS, Value::U64(report.records_applied)),
            (keys::BYTES, Value::U64(report.valid_log_bytes as u64)),
        ],
    );
    machine.advance(cost);
    (provider, report)
}

/// Runs one transaction end to end.
///
/// The order intent travels client→provider, the challenge comes back,
/// the client runs the confirmation PAL, the evidence travels up, and the
/// provider verifies (its real CPU time is measured on the host and folded
/// into the virtual timeline). If the provider has a
/// [`crate::service::VerifierService`] attached, evidence settles on its
/// workers; the measured CPU time then includes the queue round-trip. With a journal attached, WAL device time for the order and
/// settle records is folded into the timeline as well and reported as
/// [`E2eReport::durability`].
#[allow(clippy::too_many_arguments)]
pub fn run_transaction(
    machine: &mut Machine,
    client: &mut Client,
    provider: &mut ServiceProvider,
    link: &mut Link,
    account: &str,
    payee: &str,
    amount_cents: u64,
    memo: &str,
    operator: &mut dyn Operator,
) -> Result<E2eReport, utp_core::UtpError> {
    let t0 = machine.now();
    let mut network = Duration::ZERO;
    let mut durability = Duration::ZERO;

    // Order intent: client → provider.
    let d = link.one_way_delay(ORDER_INTENT_LEN);
    trace_leg("order", machine.now(), d, ORDER_INTENT_LEN);
    machine.advance(d);
    network += d;
    let j0 = journal_time(provider);
    let (order_id, request) =
        provider.place_order(account, payee, amount_cents, "EUR", memo, machine.now());
    durability += fold_journal_time(machine, provider, j0);

    // Challenge: provider → client.
    let request_bytes = request.to_bytes();
    let d = link.one_way_delay(request_bytes.len());
    trace_leg("challenge", machine.now(), d, request_bytes.len());
    machine.advance(d);
    network += d;

    // The trusted session.
    let t_session = machine.now();
    let (evidence, report) = client.confirm_with_report(machine, &request, operator)?;
    for (name, start, dur) in report.timings.spans(t_session) {
        utp_trace::span(name, start, dur, &[]);
    }

    // Evidence: client → provider.
    let evidence_len = evidence.to_bytes().len();
    let d = link.one_way_delay(evidence_len);
    trace_leg("evidence", machine.now(), d, evidence_len);
    machine.advance(d);
    network += d;

    // Server-side verification: real host CPU, measured at the metrics
    // boundary and folded into virtual time.
    let t_verify = machine.now();
    let j0 = journal_time(provider);
    let (outcome, verify_cpu) =
        crate::metrics::host_timed(|| provider.submit_evidence(order_id, &evidence, machine.now()));
    utp_trace::span_volatile(
        names::FLOW_VERIFY,
        t_verify,
        verify_cpu,
        &[(
            keys::VERIFY_HOST,
            Value::HostNs(verify_cpu.as_nanos() as u64),
        )],
    );
    machine.advance(verify_cpu);
    durability += fold_journal_time(machine, provider, j0);

    Ok(E2eReport {
        outcome,
        session: report.timings,
        network,
        verify_cpu,
        total: machine.now() - t0,
        durability,
    })
}

/// The account every sampled fleet client draws on, and the fixed order
/// it places (the fleet model varies load, not basket contents).
const FLEET_ACCOUNT: &str = "fleet";
const FLEET_PAYEE: &str = "fleet-shop";
const FLEET_AMOUNT_CENTS: u64 = 4_200;

/// A [`FullStackHook`] that runs sampled fleet transactions through the
/// real stack: one enrolled machine/client pair produces genuine DRTM
/// evidence, and a real (optionally journaled) [`ServiceProvider`]
/// settles it. `utp-netsim` decides *when* a sampled client submits and
/// whether the submission is a replay; this hook decides *what happens*,
/// so replay storms in the simulator exercise the provider's actual
/// nonce/settle machinery instead of a bookkeeping model.
///
/// Everything inside is seeded and the simulator calls the hook in
/// deterministic event order, so a fleet run with full-stack sampling is
/// still byte-reproducible.
pub struct FleetStackHook {
    machine: Machine,
    client: Client,
    provider: ServiceProvider,
    /// First-submission artifacts per fleet index: replays must resend
    /// the *same* evidence bytes, like a client retrying on timeout.
    orders: HashMap<u32, (u64, Evidence)>,
    seed: u64,
}

impl FleetStackHook {
    /// Builds the enrolled client and provider world from one seed.
    pub fn new(seed: u64) -> FleetStackHook {
        use utp_platform::machine::MachineConfig;
        let ca = PrivacyCa::new(512, seed);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), seed ^ 0x50524f56);
        provider.open_account(FLEET_ACCOUNT, i64::MAX / 2);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed ^ 0x4d414348));
        let enrollment = ca.enroll(&mut machine);
        let client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        FleetStackHook {
            machine,
            client,
            provider,
            orders: HashMap::new(),
            seed,
        }
    }

    /// Attaches a settlement journal, so sampled settles are WAL-durable
    /// and a crash/recovery can be checked against the fleet report.
    pub fn attach_journal(&mut self, journal: Arc<Journal>) {
        self.provider.attach_journal(journal);
    }

    /// The provider settling the sampled transactions (for post-run
    /// balance / audit assertions).
    pub fn provider(&self) -> &ServiceProvider {
        &self.provider
    }

    /// Number of distinct sampled orders placed so far.
    pub fn orders_placed(&self) -> usize {
        self.orders.len()
    }

    /// Cents a single settled order moves — callers can assert the
    /// account drained by exactly `settled × spend_per_order`, i.e. that
    /// replays never double-spent.
    pub fn spend_per_order() -> u64 {
        FLEET_AMOUNT_CENTS
    }

    /// Runs the full place-order → confirm → submit path once.
    fn first_submission(&mut self, fleet_index: u32) -> Result<Receipt, VerifyError> {
        let now = self.machine.now();
        let (order_id, request) = self.provider.place_order(
            FLEET_ACCOUNT,
            FLEET_PAYEE,
            FLEET_AMOUNT_CENTS,
            "EUR",
            "fleet",
            now,
        );
        let mut human = ConfirmingHuman::new(
            Intent {
                payee: FLEET_PAYEE.into(),
                amount: "42.00 EUR".into(),
                approve: true,
            },
            self.seed ^ u64::from(fleet_index),
        );
        let evidence = match self.client.confirm(&mut self.machine, &request, &mut human) {
            Ok(e) => e,
            Err(_) => return Err(VerifyError::MalformedEvidence),
        };
        let outcome = self
            .provider
            .submit_evidence(order_id, &evidence, self.machine.now());
        self.orders.insert(fleet_index, (order_id, evidence));
        outcome
    }
}

impl FullStackHook for FleetStackHook {
    fn submit(&mut self, fleet_index: u32, replay: bool, _at: Duration) -> HookOutcome {
        let outcome = if replay {
            match self.orders.get(&fleet_index) {
                // A true replay: identical evidence, same order id.
                Some((order_id, evidence)) => {
                    self.provider
                        .submit_evidence(*order_id, evidence, self.machine.now())
                }
                // The simulator saw a resend whose original was lost on
                // the wire before reaching us: it is a first submission
                // from the provider's point of view.
                None => self.first_submission(fleet_index),
            }
        } else {
            self.first_submission(fleet_index)
        };
        match outcome {
            Ok(_) => HookOutcome::Settled,
            Err(VerifyError::Replayed) => HookOutcome::Replayed,
            Err(_) => HookOutcome::Rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utp_netsim::LinkConfig;
    use utp_platform::machine::MachineConfig;
    use utp_tpm::VendorProfile;

    fn setup(machine_config: MachineConfig) -> (ServiceProvider, Machine, Client) {
        let ca = PrivacyCa::new(512, 121);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), 122);
        provider.store_mut().open_account("alice", 1_000_000);
        let mut machine = Machine::new(machine_config);
        let enrollment = ca.enroll(&mut machine);
        let client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        (provider, machine, client)
    }

    #[test]
    fn end_to_end_confirms_and_accounts_time() {
        let (mut provider, mut machine, mut client) = setup(MachineConfig::fast_for_tests(123));
        let mut link = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(40)), 1);
        // The human approves whatever they initiated: intent set after the
        // order is placed would be circular, so approve by payee+amount.
        let mut human = ConfirmingHuman::new(
            Intent {
                payee: "bookshop".into(),
                amount: "42.00 EUR".into(),
                approve: true,
            },
            124,
        );
        let report = run_transaction(
            &mut machine,
            &mut client,
            &mut provider,
            &mut link,
            "alice",
            "bookshop",
            4_200,
            "order",
            &mut human,
        )
        .unwrap();
        assert!(report.outcome.is_ok());
        // Three legs at >= 20 ms each.
        assert!(report.network >= Duration::from_millis(60));
        assert!(report.total >= report.network + report.session.total());
        assert!(report.machine_only() <= report.total);
    }

    #[test]
    fn end_to_end_confirms_through_attached_service() {
        let (mut provider, mut machine, mut client) = setup(MachineConfig::fast_for_tests(127));
        provider.attach_service(2);
        let mut link = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(40)), 3);
        let mut human = ConfirmingHuman::new(
            Intent {
                payee: "bookshop".into(),
                amount: "42.00 EUR".into(),
                approve: true,
            },
            128,
        );
        let report = run_transaction(
            &mut machine,
            &mut client,
            &mut provider,
            &mut link,
            "alice",
            "bookshop",
            4_200,
            "order",
            &mut human,
        )
        .unwrap();
        assert!(report.outcome.is_ok());
        let stats = provider.detach_service().unwrap();
        assert_eq!(stats.totals().accepted, 1);
    }

    #[test]
    fn transaction_traces_a_full_waterfall() {
        let recorder = utp_trace::Recorder::new();
        let (mut provider, mut machine, mut client) = setup(MachineConfig::fast_for_tests(129));
        let mut link = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(40)), 5);
        let mut human = ConfirmingHuman::new(
            Intent {
                payee: "bookshop".into(),
                amount: "42.00 EUR".into(),
                approve: true,
            },
            130,
        );
        {
            let _sink = recorder.install("txn/0");
            run_transaction(
                &mut machine,
                &mut client,
                &mut provider,
                &mut link,
                "alice",
                "bookshop",
                4_200,
                "order",
                &mut human,
            )
            .unwrap();
        }
        let recs = recorder.records();
        let count = |n: &str| recs.iter().filter(|r| r.name == n).count();
        assert_eq!(count(names::NET_DELIVER), 3, "three network legs");
        for phase in [
            names::SESSION_SUSPEND,
            names::SESSION_SKINIT,
            names::SESSION_PAL,
            names::SESSION_HUMAN,
            names::SESSION_ATTEST,
            names::SESSION_RESUME,
        ] {
            assert_eq!(count(phase), 1, "missing session phase {phase}");
        }
        assert_eq!(count(names::FLOW_VERIFY), 1);
        assert_eq!(count(names::AUDIT_DECISION), 1);
        // The verification span is host-timed, hence volatile-only.
        let canonical = recorder.export_jsonl(utp_trace::Export::Canonical);
        assert!(!canonical.contains("flow.verify"));
        assert!(canonical.contains("net.deliver"));
        assert!(canonical.contains("session.human"));
        // The waterfall renders every span of the transaction's track.
        let wf = utp_trace::report::waterfall(&recs, "txn/0");
        assert!(wf.contains("session.pal"), "{wf}");
        assert!(wf.contains("net.deliver"), "{wf}");
    }

    #[test]
    fn journaled_flow_recovers_after_crash_on_the_same_timeline() {
        let ca = PrivacyCa::new(512, 221);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), 222);
        let journal = Arc::new(Journal::new(utp_journal::JournalConfig::fast_for_tests()));
        provider.attach_journal(Arc::clone(&journal));
        provider.open_account("alice", 1_000_000);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(223));
        let enrollment = ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let mut link = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(40)), 7);
        let mut human = ConfirmingHuman::new(
            Intent {
                payee: "bookshop".into(),
                amount: "42.00 EUR".into(),
                approve: true,
            },
            224,
        );
        let report = run_transaction(
            &mut machine,
            &mut client,
            &mut provider,
            &mut link,
            "alice",
            "bookshop",
            4_200,
            "order",
            &mut human,
        )
        .unwrap();
        assert!(report.outcome.is_ok());
        assert!(
            report.durability > Duration::ZERO,
            "journal device time is on the timeline"
        );
        assert!(report.total >= report.network + report.session.total() + report.durability);

        // Power fails; the restart replays the journal on the same clock.
        drop(provider);
        journal.crash();
        let recorder = utp_trace::Recorder::new();
        let t_restart = machine.now();
        let (recovered, rec_report) = {
            let _sink = recorder.install("restart");
            recover_provider(
                &mut machine,
                ca.public_key().clone(),
                VerifierConfig::default(),
                225,
                Arc::clone(&journal),
            )
        };
        // open + order + settle, all durable before the crash.
        assert_eq!(rec_report.records_applied, 3);
        assert!(recovered.is_confirmed(0));
        assert_eq!(
            recovered.store().account("alice").unwrap().balance_cents,
            995_800
        );
        assert!(machine.now() > t_restart, "recovery reads cost device time");
        let recs = recorder.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, names::JOURNAL_RECOVER);
        assert!(!recs[0].volatile, "recovery span is deterministic");
        let canonical = recorder.export_jsonl(utp_trace::Export::Canonical);
        assert!(canonical.contains("journal.recover"), "{canonical}");
    }

    #[test]
    fn fleet_stack_hook_settles_once_and_catches_replays() {
        let mut hook = FleetStackHook::new(900);
        assert!(matches!(
            hook.submit(0, false, Duration::ZERO),
            HookOutcome::Settled
        ));
        // A resend of the same fleet client is a true replay: identical
        // evidence bytes, same order, caught by the settle table.
        assert!(matches!(
            hook.submit(0, true, Duration::from_millis(5)),
            HookOutcome::Replayed
        ));
        // A "replay" whose first copy died on the wire is a first
        // submission from the provider's point of view.
        assert!(matches!(
            hook.submit(1, true, Duration::from_millis(6)),
            HookOutcome::Settled
        ));
        assert_eq!(hook.orders_placed(), 2);
        let spent = (i64::MAX / 2)
            - hook
                .provider()
                .store()
                .account("fleet")
                .unwrap()
                .balance_cents;
        assert_eq!(
            spent,
            2 * FleetStackHook::spend_per_order() as i64,
            "two distinct orders settled exactly once each"
        );
    }

    #[test]
    fn lossy_fleet_with_sampled_full_stack_never_double_spends() {
        use utp_netsim::{ArrivalCurve, LinkProfile, Scenario, Topology};
        let scenario = || {
            let leaf = LinkProfile::clean(LinkConfig::broadband()).with_loss_ppm(150_000);
            let topo = Topology::star(40, leaf);
            let mut sc = Scenario::new(topo, ArrivalCurve::Steady, Duration::from_secs(1), 77);
            sc.provider.workers = 2;
            sc.retry.timeout = Duration::from_millis(250);
            sc.full_stack_every = 5;
            sc
        };
        let mut hook = FleetStackHook::new(78);
        let report = scenario().run_with(&mut hook);
        let fs = &report.full_stack;
        assert!(fs.settled > 0, "sampled clients must settle: {fs:?}");
        assert_eq!(fs.submitted, fs.settled + fs.replayed + fs.rejected);
        // The real provider's ledger moved once per settled order even
        // though the loss storm forced evidence replays.
        let spent = (i64::MAX / 2)
            - hook
                .provider()
                .store()
                .account("fleet")
                .unwrap()
                .balance_cents;
        assert_eq!(
            spent as u64,
            fs.settled * FleetStackHook::spend_per_order(),
            "replays must never double-spend"
        );
        // Same seeds, fresh hook: the full-stack leg is as reproducible
        // as the pure model.
        let mut hook2 = FleetStackHook::new(78);
        let again = scenario().run_with(&mut hook2);
        assert_eq!(report.digest(), again.digest());
    }

    #[test]
    fn end_to_end_with_realistic_hardware_is_seconds_scale() {
        let (mut provider, mut machine, mut client) =
            setup(MachineConfig::realistic(VendorProfile::Infineon, 125));
        let mut link = Link::new(LinkConfig::broadband(), 2);
        let mut human = ConfirmingHuman::new(
            Intent {
                payee: "bookshop".into(),
                amount: "42.00 EUR".into(),
                approve: true,
            },
            126,
        );
        let report = run_transaction(
            &mut machine,
            &mut client,
            &mut provider,
            &mut link,
            "alice",
            "bookshop",
            4_200,
            "order",
            &mut human,
        )
        .unwrap();
        assert!(report.outcome.is_ok());
        // Paper's practicality claim: total is seconds (human-dominated),
        // machine-only overhead is sub-second plus the quote.
        assert!(report.total >= Duration::from_secs(1));
        assert!(report.total <= Duration::from_secs(60));
        assert!(report.machine_only() >= Duration::from_millis(400));
        assert!(report.machine_only() <= Duration::from_secs(5));
    }
}
