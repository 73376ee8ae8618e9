//! Sharded verification service demo: a provider attaches a
//! `VerifierService`, a fleet of confirmations floods it, a replay is
//! caught by the sharded nonce ledger, and the per-shard counters plus
//! cert-cache hit rate are printed at shutdown.
//!
//! Run with: `cargo run --example sharded_service`

use utp::core::ca::PrivacyCa;
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::platform::machine::{Machine, MachineConfig};
use utp::server::provider::ServiceProvider;

fn main() {
    println!("== VerifierService: sharded settlement with backpressure ==\n");

    let ca = PrivacyCa::new(512, 41);
    let mut provider = ServiceProvider::new(ca.public_key().clone(), 42);
    provider.store_mut().open_account("alice", 1_000_000);
    provider.attach_service(4);
    println!(
        "service attached: 4 worker threads, {} nonce shards\n",
        provider.settlement().settler().shard_count()
    );

    let mut machine = Machine::new(MachineConfig::fast_for_tests(43));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);

    // A burst of orders, each confirmed on the trusted path and settled
    // through the service's bounded queue.
    let mut last_evidence = None;
    for i in 0..32u64 {
        let (order_id, request) =
            provider.place_order("alice", "bookshop", 100 + i, "EUR", "burst", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 100 + i);
        let evidence = client
            .confirm(&mut machine, &request, &mut human)
            .expect("confirmation succeeds");
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .expect("genuine evidence settles");
        last_evidence = Some(evidence);
    }
    let (pending, confirmed, rejected) = provider.store().status_counts();
    println!("burst settled: {confirmed} confirmed, {pending} pending, {rejected} rejected");

    // Malware replays the last evidence against a fresh order: the
    // settlement shard already consumed that nonce.
    let (order_id, _) = provider.place_order("alice", "bookshop", 1, "EUR", "!", machine.now());
    let err = provider
        .submit_evidence(order_id, &last_evidence.expect("burst ran"), machine.now())
        .expect_err("replay must be rejected");
    println!("replay against order {order_id}: rejected ({err})\n");

    let stats = provider.detach_service().expect("service was attached");
    println!("per-shard settlement counters:");
    println!("  shard  registered  accepted  rejected  replayed");
    for (i, shard) in stats.shards.iter().enumerate() {
        println!(
            "  {:>5}  {:>10}  {:>8}  {:>8}  {:>8}",
            i, shard.registered, shard.accepted, shard.rejected, shard.replayed
        );
    }
    let totals = stats.totals();
    println!(
        "  total  {:>10}  {:>8}  {:>8}  {:>8}",
        totals.registered, totals.accepted, totals.rejected, totals.replayed
    );
    println!(
        "\ncert cache: {} hits / {} misses (hit rate {:.2})",
        stats.cert_cache_hits,
        stats.cert_cache_misses,
        stats.cert_cache_hit_rate()
    );
    println!("\nOne client fleet, one certificate: every repeat submission skipped");
    println!("the AIK revalidation and paid only the quote's RSA verify.");
}
