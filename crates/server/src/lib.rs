//! The service-provider stack.
//!
//! Everything that runs on the provider's side of the uni-directional
//! trusted path:
//!
//! * [`store`] — accounts and order lifecycle;
//! * [`provider`] — the [`provider::ServiceProvider`] facade: place an
//!   order → get a [`utp_core::protocol::TransactionRequest`]; submit
//!   [`utp_core::protocol::Evidence`] → get a receipt or a typed
//!   rejection;
//! * [`service`] — the provider's [`service::Settlement`] (`utp-core`'s
//!   settlement core, nonce ledgers sharded by nonce hash, plus an LRU
//!   cache of validated AIK certificates and WAL-before-ack) and the
//!   [`service::VerifierService`] worker pool around it: threads
//!   behind a bounded submission queue with backpressure (the paper's
//!   scalability claim: quote verification is a cheap RSA verify, so
//!   one commodity server sustains thousands of confirmations per
//!   second);
//! * [`flow`] — end-to-end orchestration of one transaction across the
//!   network model (used by the latency experiments and examples);
//! * [`metrics`] — latency summaries (mean / percentiles) shared by the
//!   experiment harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod flow;
pub mod metrics;
pub mod provider;
pub mod service;
pub mod store;
