//! E6 — CAPTCHA replacement comparison: human cost, human failure rate,
//! bot success and provider CPU per verified human action, for CAPTCHAs
//! versus the trusted path (the paper's headline application argument).
//!
//! Regenerate: `cargo run -p utp-bench --bin e6_captcha_compare`

use crate::table;
use std::time::Duration;
use utp_captcha::{BotSolver, CaptchaGenerator, Difficulty, HumanSolver};
use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_core::protocol::{ConfirmMode, Transaction};
use utp_core::verifier::Verifier;
use utp_platform::machine::{Machine, MachineConfig};
use utp_tpm::VendorProfile;

/// One mechanism's measured costs.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Mechanism label.
    pub mechanism: String,
    /// Human time per action, mean over samples.
    pub human_mean: Duration,
    /// Human time per action, 95th percentile.
    pub human_p95: Duration,
    /// Fraction of honest human attempts that fail.
    pub human_failure_rate: f64,
    /// Automated attack success rate (best available bot).
    pub bot_success_rate: f64,
    /// Host CPU the provider spends per verified action.
    pub server_cpu: Duration,
}

/// Mean (sum / n) and nearest-rank p95 (the sorted sample at index
/// `round((n - 1) * 0.95)`) of a non-empty sample set.
fn mean_and_p95(mut samples: Vec<Duration>) -> (Duration, Duration) {
    assert!(!samples.is_empty(), "samples > 0");
    samples.sort_unstable();
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    let p95 = samples[((samples.len() as f64 - 1.0) * 0.95).round() as usize];
    (mean, p95)
}

fn captcha_row(difficulty: Difficulty, label: &str, samples: usize) -> MechanismRow {
    let mut generator = CaptchaGenerator::new(21);
    let mut human = HumanSolver::new(22);
    let mut bot = BotSolver::ocr(23);
    let mut times = Vec::new();
    let mut failures = 0usize;
    let mut bot_successes = 0usize;
    for _ in 0..samples {
        let c = generator.generate(difficulty);
        let h = human.solve(&c);
        times.push(h.elapsed);
        if !h.success {
            failures += 1;
        }
        if bot.solve(&c).success {
            bot_successes += 1;
        }
    }
    let (human_mean, human_p95) = mean_and_p95(times);
    MechanismRow {
        mechanism: label.to_string(),
        human_mean,
        human_p95,
        human_failure_rate: failures as f64 / samples as f64,
        bot_success_rate: bot_successes as f64 / samples as f64,
        // Checking a CAPTCHA answer is a string compare: effectively free.
        server_cpu: Duration::from_micros(5),
    }
}

fn utp_row(mode: ConfirmMode, label: &str, samples: usize) -> MechanismRow {
    let ca = PrivacyCa::new(512, 31);
    let mut verifier = Verifier::new(ca.public_key().clone(), 32);
    let mut machine = Machine::new(MachineConfig::realistic(VendorProfile::Infineon, 33));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let mut times = Vec::new();
    let mut failures = 0usize;
    let mut verify_cpu = Duration::ZERO;
    for i in 0..samples {
        let tx = Transaction::new(i as u64, "shop.example", 1_000, "EUR", "x");
        let request = verifier.issue_request_with_mode(tx.clone(), mode, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 600 + i as u64);
        let (evidence, report) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .expect("session runs");
        times.push(report.timings.human);
        let wall = std::time::Instant::now();
        if verifier.verify(&evidence, machine.now()).is_err() {
            failures += 1;
        }
        verify_cpu += wall.elapsed();
    }
    let (human_mean, human_p95) = mean_and_p95(times);
    MechanismRow {
        mechanism: label.to_string(),
        human_mean,
        human_p95,
        human_failure_rate: failures as f64 / samples as f64,
        // E5 shows every automated attack fails against UTP.
        bot_success_rate: 0.0,
        server_cpu: verify_cpu / samples as u32,
    }
}

/// Runs the comparison.
pub fn run(samples: usize) -> Vec<MechanismRow> {
    vec![
        captcha_row(Difficulty::Easy, "captcha-easy", samples),
        captcha_row(Difficulty::Medium, "captcha-medium", samples),
        captcha_row(Difficulty::Hard, "captcha-hard", samples),
        utp_row(ConfirmMode::PressEnter, "utp-press-enter", samples.min(60)),
        utp_row(ConfirmMode::TypeCode, "utp-type-code", samples.min(60)),
    ]
}

/// Renders the E6 table.
pub fn render(rows: &[MechanismRow]) -> String {
    table::render(
        "E6 - CAPTCHA vs uni-directional trusted path, per verified human action",
        &[
            "mechanism",
            "human mean(ms)",
            "human p95(ms)",
            "human fail",
            "bot success",
            "server cpu(ms)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mechanism.clone(),
                    table::ms(r.human_mean),
                    table::ms(r.human_p95),
                    table::pct(r.human_failure_rate),
                    table::pct(r.bot_success_rate),
                    format!("{:.3}", r.server_cpu.as_secs_f64() * 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_p95_use_the_nearest_rank_rule() {
        let ms = Duration::from_millis;
        let (mean, p95) = mean_and_p95(vec![ms(100), ms(3), ms(1), ms(4), ms(2)]);
        assert_eq!(mean, ms(22));
        // round(4 * 0.95) = 4: the top sample of five.
        assert_eq!(p95, ms(100));
        let mut tail = vec![ms(10); 99];
        tail.push(ms(1000));
        // round(99 * 0.95) = 94: inside the body of 99 equal samples.
        assert_eq!(mean_and_p95(tail).1, ms(10));
    }

    #[test]
    fn utp_beats_captcha_on_every_security_axis() {
        let rows = run(200);
        let get = |m: &str| rows.iter().find(|r| r.mechanism == m).unwrap().clone();
        let captcha = get("captcha-medium");
        let utp_enter = get("utp-press-enter");
        let utp_code = get("utp-type-code");
        // Security: bots beat CAPTCHAs at some rate; never UTP.
        assert!(captcha.bot_success_rate > 0.0);
        assert_eq!(utp_enter.bot_success_rate, 0.0);
        // Usability: press-enter confirmation is faster than solving a
        // CAPTCHA; type-code is comparable.
        assert!(utp_enter.human_mean < captcha.human_mean);
        assert!(utp_code.human_mean < captcha.human_mean * 2);
        // Reliability: honest humans fail CAPTCHAs far more often.
        assert!(captcha.human_failure_rate > utp_enter.human_failure_rate);
    }
}
