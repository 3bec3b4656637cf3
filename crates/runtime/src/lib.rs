//! **tradefl-runtime** — the zero-dependency substrate for the TradeFL
//! workspace.
//!
//! The reproduction validates the paper's claims (Eq. (9)–(11)
//! redistribution, Theorem 1's weighted potential, Algorithms 1–2)
//! purely through deterministic, seeded simulation. Nothing requires a
//! crates.io dependency, and the build environment has no registry
//! access, so everything the workspace used to pull from the registry
//! lives here instead, fully controlled and auditable:
//!
//! * [`rng`] — a seedable xoshiro256++ generator (SplitMix64 seeding)
//!   with the `rand`-style trait surface the workspace uses
//!   (`seed_from_u64`, `gen_range`, `gen_bool`, `shuffle`, Gaussian
//!   draws for data synthesis);
//! * [`sync`] — a std-backed, poison-transparent `Mutex` (replacing
//!   `parking_lot`) and the fixed-width fork-join [`sync::pool`]
//!   (replacing `crossbeam`'s fork/join);
//! * [`codec`] — a growable write buffer ([`codec::BytesMut`]) and a
//!   read cursor ([`codec::Buf`]) whose every read is fallible,
//!   replacing `bytes`; the ledger wire codec, block/state hashing and
//!   the engine checkpoint are written by hand on top of it;
//! * [`check`] — a seeded property-testing harness (the [`props!`]
//!   macro with generator methods on [`check::Gen`], fixed-seed
//!   replay via `TRADEFL_PROP_SEED`, and structural tape-based
//!   shrinking toward minimal counterexamples) replacing `proptest`;
//! * [`json`] — a depth-capped JSON reader with typed errors
//!   replacing `serde_json` for the workspace's schema validators
//!   (bench baselines, traces, lint reports);
//! * [`obs`] — zero-cost-when-disabled observability: logical-clock
//!   events, counters/gauges/histograms, and a deterministic JSONL
//!   exporter (replacing `tracing` + `metrics`), honoring the
//!   no-wallclock and bit-determinism contracts;
//! * [`sim`] — deterministic simulation primitives: simulated time, a
//!   totally ordered seeded event queue, bounded backpressure queues,
//!   stateless Poisson arrival streams, and seeded fault injection
//!   ([`sim::faults`]) — the substrate under the `tradefl-engine`
//!   executor and its DST harness.
//!
//! The workspace-level guard test `tests/no_external_deps.rs` asserts
//! that no manifest ever reintroduces a registry dependency.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod check;
pub mod codec;
pub mod json;
pub mod obs;
pub mod rng;
pub mod sim;
pub mod sync;
