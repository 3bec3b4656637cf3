//! **tradefl-engine** — the persistent market engine.
//!
//! The paper's prototype settles one trading session at a time; a real
//! deployment is a *service*: many concurrent market sessions, open-loop
//! transaction arrival, block production on a cadence, nodes that crash
//! and recover. This crate hosts exactly that on top of the existing
//! substrate, under the workspace determinism contract:
//!
//! * [`engine`] — a deterministic event-loop executor over simulated
//!   time ([`tradefl_runtime::sim`]): transaction admission with
//!   bounded-queue backpressure, proposer election over the live
//!   validator set, batching into blocks through the ledger's
//!   untrusted byte path
//!   ([`tradefl_ledger::network::Network::deliver_frame`]), seeded
//!   fault injection on every broadcast and a seeded
//!   Byzantine-proposer schedule ([`tradefl_runtime::sim::faults`]),
//!   gossip-only catch-up (crashed, lagging, or diverged replicas pull
//!   the ledger from their live peers — no trusted node), and
//!   checkpoint/restore of live sessions through the chain
//!   export/import codec.
//! * [`session`] — a market session as a deterministic settlement
//!   script: equilibrium solved up front (`tradefl-solver`), or taken
//!   from a caller that already solved the game, then the Fig. 3 call
//!   sequence (register → deposit → contribute → calculate → transfer →
//!   record) unrolled into an ordered transaction list with
//!   per-organization nonces. [`Engine::settle`] runs one such session
//!   on a single fault-free validator: it is the one Fig. 3 driver.
//! * [`dst`] — DST scenarios (fault + crash + Byzantine schedules)
//!   drawn from a shrinkable tape, so a failing schedule is minimized
//!   by [`tradefl_runtime::check::shrink`] and printed.
//!
//! Everything is a pure function of `(config, seed)`: the
//! deterministic-simulation-testing harness (`tests/sim_engine.rs`)
//! runs hundreds of seeded fault schedules and asserts that all
//! surviving nodes converge to bit-identical state roots and that
//! replaying a seed reproduces the identical observability event
//! stream.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod dst;
pub mod engine;
pub mod session;

pub use dst::{shrink_repair_schedule, Scenario, ShrinkOutcome};
pub use engine::{Engine, EngineConfig, EngineError, EngineReport};
pub use session::{SessionPlan, SessionSpec};
