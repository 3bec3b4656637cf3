//! The deterministic event-loop executor.
//!
//! One [`Engine`] hosts a set of validator replicas (a
//! [`tradefl_ledger::network::Network`]) plus any number of concurrent
//! market sessions ([`crate::session`]), and drives everything from a
//! single totally ordered event queue over simulated time:
//!
//! * **Arrival** — a session's next scripted transaction reaches the
//!   admission queue (bounded: a full queue defers the arrival, which
//!   retries at the session's next Poisson tick — backpressure).
//! * **Batch** — on a fixed cadence, a proposer is *elected* over the
//!   live validators (`live[term % live.len()]`, a pure function of
//!   the election term and the live set), catches up to its freshest
//!   peer by pull, executes the admission queue into a block, and the
//!   encoded frame is gossiped to every peer through seeded fault
//!   injection (drop/duplicate/delay/truncate/corrupt). A seeded
//!   [`ByzantinePlan`] may schedule the proposer to *lie*: it executes
//!   its honest block on a snapshot it then restores, the gossiped
//!   frame encodes a mutated copy, honest replicas refuse it on
//!   re-execution, and the election passes to the next term's proposer
//!   — the round's transactions are retained and re-mined honestly. The
//!   liar's own chain never moved, so it needs no repair.
//! * **Deliver** — a gossiped frame (possibly mutated) hits a replica's
//!   untrusted byte path
//!   ([`tradefl_ledger::network::Network::deliver_frame`]). Rejections
//!   are expected; a replica that fell behind or diverged repairs
//!   itself by peer-to-peer catch-up (below).
//! * **Crash / Restart** — a node dies (loses all in-memory state) and
//!   later reboots from genesis, recovering purely by pulling the
//!   ledger from its live peers — the recovery invariant the DST
//!   harness pins. Transactions that were mined only on a replica that
//!   then crashed are detected at the next batch tick (no surviving
//!   replica holds their receipts) and re-queued, each exactly once.
//!
//! ## Gossip-only catch-up: peers are the source of truth
//!
//! There is no trusted node. A replica that fell behind pulls each
//! missing height from the *freshest live peer*
//! ([`tradefl_ledger::network::Network::frame_at`]); every pulled frame
//! is routed through the same seeded fault plan as gossip and
//! re-validated by full re-execution on delivery, so a corrupt or
//! lying response is refused and the puller falls back to the next
//! peer. A replica whose tip diverged from the canonical chain (the
//! freshest live replica's, lowest index on ties) — it accepted a
//! corrupted frame that still applied — is healed: rebuilt from
//! genesis and re-pulled from its peers. A restarted replica recovers
//! the same way.
//!
//! The validators are the only nodes. [`Engine::checkpoint`]
//! serializes the canonical chain through
//! [`tradefl_ledger::codec::encode_chain`] (genesis alone when no
//! validator is alive), and [`Engine::restore`] replays it straight
//! into the validators' wire path, which re-executes every block; the
//! freshest live replica must replay all of it. With no validator
//! alive, the engine reports the genesis block every validator boots
//! with. Since every stochastic stream (arrivals, tiebreaks, fault and
//! Byzantine decisions) is a pure function of `(seed, counter)`,
//! [`Engine::restore`] resumes bit-identically.

use crate::session::{SessionPlan, SessionSpec};
use std::collections::BTreeSet;
use std::fmt;
use tradefl_core::accuracy::AccuracyModel;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::StrategyProfile;
use tradefl_ledger::attestation::Enclave;
use tradefl_ledger::chain::{Block, Blockchain};
use tradefl_ledger::codec::{
    bounded_count, decode_chain, decode_tx_bytes, encode_block_bytes, encode_chain,
    encode_tx_bytes, CodecError,
};
use tradefl_ledger::contract::Contract;
use tradefl_ledger::network::{FrameError, Network, NetworkError};
use tradefl_ledger::node::BlockApplyError;
use tradefl_ledger::settlement::{SettlementError, SettlementReport};
use tradefl_ledger::tradefl_contract::TradeFlContract;
use tradefl_ledger::tx::{ExecStatus, Transaction};
use tradefl_ledger::types::{Address, Hash256, Wei};
use tradefl_runtime::codec::{Buf, BytesMut};
use tradefl_runtime::obs;
use tradefl_runtime::sim::faults::{
    ByzantineConfig, ByzantinePlan, FaultConfig, FaultPlan, Tamper, TamperKind,
};
use tradefl_runtime::sim::{substream, Bounded, EventQueue, Poisson, SimTime};
use tradefl_runtime::sync::pool::Pool;

/// Substream labels (one user-facing seed fans out into decorrelated
/// streams for each randomness consumer).
const STREAM_QUEUE: u64 = 0xE0;
const STREAM_FAULTS: u64 = 0xE1;
const STREAM_BYZANTINE: u64 = 0xE2;
const STREAM_ARRIVALS: u64 = 0xA0;

/// Checkpoint format version. v2 replaced the v1 layout: the
/// round-robin cursor became the election term, the Byzantine decision
/// counter and the requeue/in-flight transaction sections were added,
/// and per-replica heights let restore rebuild each replica at its
/// exact checkpointed position instead of snapping everyone to one
/// tip. v3 switched every counter and length prefix from fixed
/// `u64_le` to LEB128 varints (the embedded chain rides the ledger
/// codec, itself varint since its v2).
const CHECKPOINT_VERSION: u8 = 3;

/// Smallest possible encoding of one pending-event queue entry:
/// time varint (1) + seq varint (1) + event tag (1). Bounds the
/// declared entry count in [`Engine::restore`] against the bytes
/// actually present.
const PENDING_ENTRY_MIN_BYTES: usize = 3;

/// Smallest possible encoding of one length-prefixed transaction in
/// the requeue/mined checkpoint sections: length varint (1) + at least
/// one transaction byte.
const TX_ENTRY_MIN_BYTES: usize = 2;

/// Everything the engine simulates, minus the seed.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of validator replicas (≥ 1).
    pub validators: usize,
    /// The market sessions to host concurrently (names must be unique).
    pub sessions: Vec<SessionSpec>,
    /// Ticks between block-production attempts.
    pub batch_interval: SimTime,
    /// Mean ticks between transaction arrivals per session (Poisson
    /// open-loop generator).
    pub mean_arrival_gap: f64,
    /// Admission queue capacity — arrivals beyond it are deferred
    /// (backpressure), retrying at the session's next arrival tick.
    pub admission_capacity: usize,
    /// Nominal run length in ticks: scales seeded fault schedules and
    /// the stall guard. The engine runs to completion regardless.
    pub horizon: SimTime,
    /// Fault injection applied to every gossiped frame, plus the
    /// kill-and-restart schedule.
    pub faults: FaultConfig,
    /// Byzantine-proposer schedule: with what probability an elected
    /// proposer gossips a tampered block instead of its honest one.
    pub byzantine: ByzantineConfig,
    /// Width of the pool the equilibrium solves are handed (results are
    /// bit-identical for any count, per the workspace determinism
    /// contract). No session the engine can settle uses it: DBR fans
    /// out only at 512 orgs or more (`POOLED_TRACE_MIN_ORGS` in
    /// `tradefl_solver::dbr`), and the chain settles at most 71.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            validators: 3,
            sessions: vec![SessionSpec { name: "market-0".into(), orgs: 3, seed: 0 }],
            batch_interval: 8,
            mean_arrival_gap: 3.0,
            admission_capacity: 16,
            horizon: 1 << 10,
            faults: FaultConfig::none(),
            byzantine: ByzantineConfig::none(),
            workers: 1,
        }
    }
}

/// Errors from engine construction, execution, or restore.
#[derive(Debug)]
pub enum EngineError {
    /// The configuration is unusable as given.
    Config(String),
    /// A session plan could not be built.
    Session {
        /// The offending session's name.
        session: String,
        /// What went wrong.
        reason: String,
    },
    /// Contract construction or deployment failed.
    Contract(String),
    /// A network operation failed.
    Network(NetworkError),
    /// Chain or checkpoint bytes failed to decode.
    Codec(CodecError),
    /// A checkpoint was malformed or inconsistent with the config.
    Checkpoint(String),
    /// The simulation exceeded its stall guard without completing.
    Stalled {
        /// Simulated time when the guard tripped.
        now: SimTime,
    },
    /// A settled session's script did not settle on-chain.
    Settlement(SettlementError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(why) => write!(f, "bad engine config: {why}"),
            EngineError::Session { session, reason } => {
                write!(f, "session '{session}': {reason}")
            }
            EngineError::Contract(why) => write!(f, "contract error: {why}"),
            EngineError::Network(e) => write!(f, "network error: {e}"),
            EngineError::Codec(e) => write!(f, "codec error: {e}"),
            EngineError::Checkpoint(why) => write!(f, "bad checkpoint: {why}"),
            EngineError::Stalled { now } => {
                write!(f, "simulation stalled at tick {now} without completing")
            }
            EngineError::Settlement(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<NetworkError> for EngineError {
    fn from(e: NetworkError) -> Self {
        EngineError::Network(e)
    }
}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

/// One simulated occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// Session `session`'s next scripted transaction arrives.
    Arrival {
        /// Session index.
        session: usize,
    },
    /// Block-production tick.
    Batch,
    /// A gossiped frame reaches replica `to`.
    Deliver {
        /// Receiving validator.
        to: usize,
        /// Frame bytes (possibly fault-mutated).
        frame: Vec<u8>,
    },
    /// Validator `node` dies.
    Crash {
        /// The node that dies.
        node: usize,
    },
    /// Validator `node` reboots (recovery pulls the ledger from live
    /// peers through the fault plan).
    Restart {
        /// The node that reboots.
        node: usize,
    },
}

impl Event {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Event::Arrival { session } => {
                buf.put_u8(0);
                buf.put_uvarint(*session as u64);
            }
            Event::Batch => buf.put_u8(1),
            Event::Deliver { to, frame } => {
                buf.put_u8(2);
                buf.put_uvarint(*to as u64);
                buf.put_varint_slice(frame);
            }
            Event::Crash { node } => {
                buf.put_u8(3);
                buf.put_uvarint(*node as u64);
            }
            Event::Restart { node } => {
                buf.put_u8(4);
                buf.put_uvarint(*node as u64);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, EngineError> {
        let short = |_| EngineError::Checkpoint("truncated event".into());
        match buf.try_get_u8().map_err(short)? {
            0 => Ok(Event::Arrival { session: buf.try_get_uvarint().map_err(short)? as usize }),
            1 => Ok(Event::Batch),
            2 => {
                let to = buf.try_get_uvarint().map_err(short)? as usize;
                // The declared frame length is checked against the
                // bytes actually remaining before the zero-copy slice.
                let frame = buf
                    .try_get_varint_slice(buf.remaining() as u64)
                    .map_err(short)?
                    .to_vec();
                Ok(Event::Deliver { to, frame })
            }
            3 => Ok(Event::Crash { node: buf.try_get_uvarint().map_err(short)? as usize }),
            4 => Ok(Event::Restart { node: buf.try_get_uvarint().map_err(short)? as usize }),
            tag => Err(EngineError::Checkpoint(format!("unknown event tag {tag}"))),
        }
    }
}

/// What a completed run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Block-production ticks that fired.
    pub batches: u64,
    /// Blocks actually mined (batches with transactions).
    pub blocks: u64,
    /// Arrivals deferred by a full admission queue.
    pub backpressure: u64,
    /// Genesis rebuilds forced by tip divergence or crash recovery.
    pub heals: u64,
    /// Rounds where the elected proposer gossiped a tampered block.
    pub byzantine_rounds: u64,
    /// Transactions re-queued because no surviving replica held their
    /// receipt after the round that mined them (a crashed proposer, or
    /// a replica healed off a diverged tip) — each re-mined without
    /// duplication.
    pub requeues: u64,
    /// Final chain height (canonical: the freshest surviving replica;
    /// genesis if nobody survived).
    pub final_height: usize,
    /// Final state root (canonical; all survivors match when
    /// `converged`).
    pub state_root: Hash256,
    /// Validators alive at the end of the run.
    pub survivors: Vec<usize>,
    /// Every validator died and no restart is pending: there is no
    /// state left to converge, so `converged` is explicitly false
    /// rather than vacuously true.
    pub no_survivors: bool,
    /// Whether every survivor holds the canonical tip hash and state
    /// root — the bit-identity claim the DST harness asserts. Requires
    /// at least one survivor: zero-survivor convergence is vacuous and
    /// reports false (see `no_survivors`).
    pub converged: bool,
    /// Sessions whose every scripted transaction succeeded on-chain.
    pub sessions_settled: usize,
    /// Total hosted sessions.
    pub sessions_total: usize,
    /// Simulated ticks the run took.
    pub ticks: SimTime,
}

impl EngineReport {
    /// Whether every session settled and the survivors converged.
    pub fn fully_settled(&self) -> bool {
        self.converged && self.sessions_settled == self.sessions_total
    }
}

/// The persistent market engine. See the module docs for the design.
#[derive(Debug)]
pub struct Engine {
    seed: u64,
    config: EngineConfig,
    plans: Vec<SessionPlan>,
    allocations: Vec<(Address, Wei)>,
    contracts: Vec<Address>,
    net: Network,
    queue: EventQueue<Event>,
    admission: Bounded<Transaction>,
    faults: FaultPlan,
    byzantine: ByzantinePlan,
    arrivals: Vec<Poisson>,
    alive: Vec<bool>,
    cursors: Vec<usize>,
    arrival_k: Vec<u64>,
    /// Election term: the next proposer is `live[term % live.len()]`
    /// over the ascending live validator set — a pure function of
    /// `(term, alive)`, so restarts can neither skip nor double-count
    /// anyone and checkpoint/restore replays elections exactly.
    term: u64,
    /// Transactions awaiting re-mining: a batch tick found them missing
    /// from the canonical chain (their round was lost with a crashed
    /// proposer, or with a replica healed off a diverged tip).
    requeue: Vec<Transaction>,
    /// Every transaction ever handed to an honest proposer, retained
    /// (they are the sessions' finite scripts) so that any round lost
    /// with its holder — even one committed many rounds ago whose sole
    /// replica crashed — can be detected by receipt absence on the
    /// canonical chain and re-mined.
    mined: MinedTxs,
    /// Restart events still pending in the queue — lets the engine
    /// detect a doomed network (everyone dead, nobody coming back).
    pending_restarts: usize,
    /// Whether a Batch event is in the queue — a crash that orphans
    /// mined transactions must be able to restart the batch cadence
    /// without double-scheduling it.
    batch_pending: bool,
    batches: u64,
    blocks: u64,
    backpressure: u64,
    heals: u64,
    byzantine_rounds: u64,
    requeues: u64,
}

impl Engine {
    /// Boots the engine: builds every session plan (solving its game to
    /// equilibrium), boots the validator network, deploys one contract
    /// per session on every validator, and schedules
    /// the initial arrival/batch/crash events.
    ///
    /// # Errors
    ///
    /// [`EngineError::Config`] for unusable configurations,
    /// [`EngineError::Session`] / [`EngineError::Contract`] /
    /// [`EngineError::Network`] for construction failures.
    pub fn new(config: EngineConfig, seed: u64) -> Result<Self, EngineError> {
        if config.validators == 0 {
            return Err(EngineError::Config("at least one validator".into()));
        }
        if config.sessions.is_empty() {
            return Err(EngineError::Config("at least one session".into()));
        }
        for (i, a) in config.sessions.iter().enumerate() {
            if config.sessions[..i].iter().any(|b| b.name == a.name) {
                return Err(EngineError::Config(format!(
                    "duplicate session name '{}'",
                    a.name
                )));
            }
        }

        let pool = Pool::new(config.workers.max(1));
        let mut plans = Vec::with_capacity(config.sessions.len());
        for spec in &config.sessions {
            plans.push(SessionPlan::build(spec.clone(), &pool)?);
        }
        Self::boot(config, plans, seed)
    }

    /// Settles a solved game the way the paper's organizations do
    /// (Fig. 3): one session, resolved with unprefixed
    /// [`Address::from_name`] accounts and, with an `enclave`,
    /// TEE-attested contribution reports, runs to completion on a
    /// single fault-free validator. Arrivals come about one per tick
    /// and the default cadence batches them, so a block carries several
    /// calls. Returns the finished engine (its chain is
    /// `network().validator(0).node`, its contract `contract(0)`) and
    /// the audit of the script's receipts against Eq. (10).
    ///
    /// # Errors
    ///
    /// [`EngineError::Contract`] when the contract refuses the market's
    /// parameters (e.g. two organizations with one name);
    /// [`EngineError::Settlement`] for the first scripted call that
    /// reverted.
    pub fn settle<A: AccuracyModel>(
        game: &CoopetitionGame<A>,
        profile: &StrategyProfile,
        enclave: Option<Enclave>,
    ) -> Result<(Self, SettlementReport), EngineError> {
        let spec = SessionSpec { name: "settlement".into(), orgs: game.market().len(), seed: 0 };
        let plan = SessionPlan::resolve(spec.clone(), game, profile, Address::from_name, enclave);
        let config = EngineConfig {
            validators: 1,
            sessions: vec![spec],
            mean_arrival_gap: 1.0,
            admission_capacity: plan.len(),
            ..EngineConfig::default()
        };
        let mut engine = Self::boot(config, vec![plan], 0)?;
        engine.run()?;
        let (plan, node) = (&engine.plans[0], &engine.net.validator(0).node);
        let script = plan.scripted_txs(engine.contracts[0]);
        let report = SettlementReport::from_receipts(node, &plan.addresses, script, game, profile)
            .map_err(EngineError::Settlement)?;
        Ok((engine, report))
    }

    /// The boot path behind [`Engine::new`] and [`Engine::settle`]:
    /// funds every plan's participants at genesis, boots the validator
    /// network, deploys one contract per plan on every validator, and
    /// schedules the initial arrival/batch/crash events.
    fn boot(config: EngineConfig, plans: Vec<SessionPlan>, seed: u64) -> Result<Self, EngineError> {
        let mut allocations: Vec<(Address, Wei)> = Vec::new();
        for plan in &plans {
            allocations.extend(plan.allocations.iter().copied());
        }

        let names: Vec<String> =
            (0..config.validators).map(|i| format!("validator-{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut net = Network::new(&name_refs, &allocations);

        let mut contracts = Vec::with_capacity(plans.len());
        for plan in &plans {
            let proto = TradeFlContract::new(plan.params.clone())
                .map_err(|e| EngineError::Contract(e.to_string()))?;
            contracts.push(net.deploy(Box::new(proto))?);
        }

        let mut queue = EventQueue::new(substream(seed, STREAM_QUEUE));
        let faults = FaultPlan::new(substream(seed, STREAM_FAULTS), config.faults.clone());
        let byzantine =
            ByzantinePlan::new(substream(seed, STREAM_BYZANTINE), config.byzantine.clone());
        let arrivals: Vec<Poisson> = (0..plans.len())
            .map(|s| Poisson::new(seed, STREAM_ARRIVALS + s as u64, config.mean_arrival_gap))
            .collect();

        for (s, p) in arrivals.iter().enumerate() {
            queue.push(p.gap(0), Event::Arrival { session: s });
        }
        queue.push(config.batch_interval.max(1), Event::Batch);
        let mut pending_restarts = 0;
        for crash in &faults.config().crashes {
            if crash.node < config.validators {
                queue.push(crash.at.max(1), Event::Crash { node: crash.node });
                if crash.restarts() {
                    queue.push(
                        crash.at.max(1).saturating_add(crash.down_for),
                        Event::Restart { node: crash.node },
                    );
                    pending_restarts += 1;
                }
            }
        }

        let n_sessions = plans.len();
        Ok(Self {
            seed,
            alive: vec![true; config.validators],
            cursors: vec![0; n_sessions],
            arrival_k: vec![0; n_sessions],
            admission: Bounded::new(config.admission_capacity),
            term: 0,
            requeue: Vec::new(),
            mined: MinedTxs::default(),
            pending_restarts,
            batch_pending: true,
            batches: 0,
            blocks: 0,
            backpressure: 0,
            heals: 0,
            byzantine_rounds: 0,
            requeues: 0,
            config,
            plans,
            allocations,
            contracts,
            net,
            queue,
            faults,
            byzantine,
            arrivals,
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The canonical chain height: the freshest live replica's, or 1
    /// (genesis) when nobody is alive.
    pub fn height(&self) -> usize {
        self.canonical().map_or(1, |c| self.height_of(c))
    }

    /// Read access to the validator network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The deployed contract address for session `s`.
    pub fn contract(&self, s: usize) -> Option<Address> {
        self.contracts.get(s).copied()
    }

    /// The election term: how many proposal attempts have been made.
    /// Checkpoint/restore must carry it exactly — the DST harness
    /// asserts a resumed run ends on the uninterrupted run's term.
    // lint:allow(unreferenced-pub-fn): test oracle: the checkpoint/restore test in crates/engine/tests/sim_engine.rs reads it
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The resolved plan for session `s` (the DST harness audits its
    /// scripted transactions against the canonical chain).
    pub fn session_plan(&self, s: usize) -> Option<&SessionPlan> {
        self.plans.get(s)
    }

    /// Fresh contract prototypes with their expected addresses — what a
    /// rebooting validator redeploys before replaying the ledger.
    fn prototypes(&self) -> Result<Vec<(Address, Box<dyn Contract>)>, EngineError> {
        let mut out: Vec<(Address, Box<dyn Contract>)> =
            Vec::with_capacity(self.plans.len());
        for (plan, &addr) in self.plans.iter().zip(&self.contracts) {
            let proto = TradeFlContract::new(plan.params.clone())
                .map_err(|e| EngineError::Contract(e.to_string()))?;
            out.push((addr, Box::new(proto)));
        }
        Ok(out)
    }

    /// Chain height of replica `i`.
    fn height_of(&self, i: usize) -> usize {
        self.net.validator(i).node.chain().height()
    }

    /// The genesis-only chain every validator boots with.
    fn genesis(&self) -> Blockchain {
        self.net.validator(0).node.chain().prefix(1)
    }

    /// The canonical replica: the freshest live validator, lowest
    /// index on ties. `None` when every validator is dead.
    fn canonical(&self) -> Option<usize> {
        (0..self.config.validators).filter(|&i| self.alive[i]).fold(None, |best, i| {
            match best {
                Some(b) if self.height_of(i) <= self.height_of(b) => Some(b),
                _ => Some(i),
            }
        })
    }

    /// Live peers of `i`, freshest first (stable sort: index order
    /// breaks ties deterministically).
    fn peers_by_freshness(&self, i: usize) -> Vec<usize> {
        let mut peers: Vec<usize> = (0..self.config.validators)
            .filter(|&j| j != i && self.alive[j])
            .collect();
        peers.sort_by_key(|&j| std::cmp::Reverse(self.height_of(j)));
        peers
    }

    /// Gossip-only catch-up: pulls each height replica `i` is missing
    /// from its live peers, freshest first. Mid-run (`through_faults`)
    /// every pulled frame is routed through the same seeded fault plan
    /// as gossip — a dropped response means the peer is unresponsive
    /// and the puller falls back to the next one, and a corrupt or
    /// lying response is refused by full re-execution on delivery (the
    /// pull never trusts the peer). A height nobody can serve right
    /// now is left for a later repair pass — partial progress is fine.
    fn pull_from_peers(&mut self, i: usize, through_faults: bool) -> Result<(), EngineError> {
        loop {
            let h = self.height_of(i);
            let peers = self.peers_by_freshness(i);
            let target = peers.first().map(|&p| self.height_of(p)).unwrap_or(0);
            if h >= target {
                return Ok(());
            }
            let mut applied = false;
            for &peer in &peers {
                let Some(frame) = self.net.frame_at(peer, h as u64) else { continue };
                let frame = if through_faults {
                    // Pulls are synchronous request/response: the first
                    // routed delivery is the reply (its delay does not
                    // reorder anything), none at all is a dropped reply.
                    match self.faults.route(&frame).into_iter().next() {
                        Some(d) => d.frame,
                        None => continue,
                    }
                } else {
                    frame
                };
                if self.net.deliver_frame(i, &frame).is_ok() {
                    applied = true;
                    break;
                }
                obs::counter_add("engine.pull_rejected", 1);
            }
            if !applied {
                return Ok(());
            }
        }
    }

    /// Whether replica `i`'s tip is off the canonical chain `c` — it
    /// accepted a block the network later abandoned, so pulls stall
    /// against it and only a genesis rebuild repairs it.
    fn diverged_from(&self, i: usize, c: usize) -> bool {
        let h = self.height_of(i);
        match self.net.validator(c).node.chain().blocks().get(h.saturating_sub(1)) {
            Some(b) => b.hash() != self.net.validator(i).node.chain().tip_hash(),
            None => false,
        }
    }

    /// Rebuilds validator `i` from genesis and re-pulls the ledger from
    /// its live peers — crash recovery and the repair path for a
    /// diverged tip.
    fn heal(&mut self, i: usize, through_faults: bool) -> Result<(), EngineError> {
        self.heals += 1;
        let protos = self.prototypes()?;
        self.net.restart_validator(i, &self.allocations, &protos)?;
        obs::counter_add("engine.heals", 1);
        self.pull_from_peers(i, through_faults)
    }

    /// Repairs replica `i` against its peers: pulls missing heights,
    /// then heals if the tip diverged from the canonical chain.
    fn sync_from_peers(&mut self, i: usize, through_faults: bool) -> Result<(), EngineError> {
        self.pull_from_peers(i, through_faults)?;
        let Some(c) = self.canonical() else { return Ok(()) };
        if c != i && self.diverged_from(i, c) {
            return self.heal(i, through_faults);
        }
        Ok(())
    }

    /// Every validator is dead and no restart is coming: remaining
    /// work can never be mined, so the run winds down instead of
    /// ticking forever into the stall guard.
    fn network_doomed(&self) -> bool {
        self.pending_restarts == 0 && self.alive.iter().all(|&a| !a)
    }

    /// Whether any mined transaction is absent from the canonical
    /// chain — its round was lost with its holder, and the next batch
    /// tick will re-queue it.
    fn tx_missing_from_canonical(&self) -> bool {
        match self.canonical() {
            Some(c) => {
                let node = &self.net.validator(c).node;
                self.mined.hashes.iter().any(|&h| node.receipt(h).is_none())
            }
            None => !self.mined.txs.is_empty(),
        }
    }

    /// Whether any session still has unmined (or lost-and-unrecovered)
    /// work.
    fn work_remaining(&self) -> bool {
        !self.admission.is_empty()
            || !self.requeue.is_empty()
            || self.cursors.iter().zip(&self.plans).any(|(&c, p)| c < p.len())
            || self.tx_missing_from_canonical()
    }

    fn on_arrival(&mut self, s: usize) {
        if self.cursors[s] >= self.plans[s].len() {
            return;
        }
        let Some(tx) = self.plans[s].tx_at(self.cursors[s], self.contracts[s]) else {
            return;
        };
        match self.admission.push(tx) {
            Ok(()) => self.cursors[s] += 1,
            Err(_) => {
                self.backpressure += 1;
                obs::counter_add("engine.backpressure", 1);
            }
        }
        self.arrival_k[s] += 1;
        // A doomed network (everyone dead, nobody coming back) can
        // never mine: stop generating arrivals so the run winds down.
        if self.cursors[s] < self.plans[s].len() && !self.network_doomed() {
            let gap = self.arrivals[s].gap(self.arrival_k[s]);
            self.queue.push_in(gap, Event::Arrival { session: s });
        }
    }

    /// The elected proposer for the current term: `live[term % len]`
    /// over the ascending live set. Unlike a blind round-robin cursor,
    /// crashed validators are never elected (no wasted rounds) and the
    /// rule replays exactly from `(term, alive)` after a restore.
    fn elect(&self) -> Option<usize> {
        let live: Vec<usize> =
            (0..self.config.validators).filter(|&i| self.alive[i]).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[(self.term % live.len() as u64) as usize])
    }

    /// Re-queues every mined transaction the canonical chain no longer
    /// holds a receipt for: its round was lost with its only holder (a
    /// crash, or a heal off a diverged tip). The receipt check is what
    /// makes re-mining exactly-once — a tx present on the canonical
    /// chain is never resubmitted, and a lost one is re-mined onto a
    /// chain that never had it.
    fn resolve_lost_txs(&mut self) {
        let Some(c) = self.canonical() else { return };
        let node = &self.net.validator(c).node;
        // Hashes of the txs already awaiting re-mining (a tick where
        // every proposer lied leaves the requeue populated), taken only
        // once some tx turns out lost.
        let mut queued: Option<BTreeSet<Hash256>> = None;
        for (tx, &h) in self.mined.txs.iter().zip(&self.mined.hashes) {
            if node.receipt(h).is_some() {
                continue;
            }
            let queued = queued
                .get_or_insert_with(|| self.requeue.iter().map(Transaction::hash).collect());
            if !queued.insert(h) {
                continue;
            }
            self.requeues += 1;
            obs::counter_add("engine.requeued", 1);
            self.requeue.push(tx.clone());
        }
    }

    /// Fans a frame out to every peer of `from` through fault routing.
    fn gossip(&mut self, from: usize, frame: &[u8]) {
        for peer in 0..self.config.validators {
            if peer == from {
                continue;
            }
            for d in self.faults.route(frame) {
                self.queue.push_in(d.delay, Event::Deliver { to: peer, frame: d.frame });
            }
        }
    }

    fn on_batch(&mut self) -> Result<(), EngineError> {
        self.batches += 1;
        self.batch_pending = false;
        self.resolve_lost_txs();
        let mut txs: Vec<Transaction> = std::mem::take(&mut self.requeue);
        while let Some(tx) = self.admission.pop() {
            txs.push(tx);
        }
        if !txs.is_empty() {
            // One election per attempt, at most one attempt per live
            // validator this tick: every lying proposer burns its term
            // and the next elected validator retries the same round.
            let live = self.alive.iter().filter(|&&a| a).count();
            for _ in 0..live {
                let Some(p) = self.elect() else { break };
                self.term += 1;
                self.sync_from_peers(p, true)?;
                if self.height_of(p) < self.canonical().map_or(0, |c| self.height_of(c)) {
                    // Catch-up stalled (every pull dropped): mining now
                    // would fork onto a stale parent. Pass the term on.
                    continue;
                }
                match self.byzantine.decide() {
                    Some(tamper) => {
                        // A scheduled lie: the proposer builds its
                        // honest block without appending it and gossips
                        // a mutated frame. Honest replicas refuse it on
                        // re-execution; the liar's own chain never
                        // moved, so nothing needs repair.
                        let frame = self.net.propose_with(
                            p,
                            txs.clone(),
                            Some(&|b: &mut Block| apply_tamper(b, tamper)),
                        )?;
                        self.byzantine_rounds += 1;
                        obs::event(
                            obs::Subsystem::Engine,
                            "byzantine",
                            &[
                                ("proposer", (p as u64).into()),
                                ("term", self.term.into()),
                            ],
                        );
                        obs::counter_add("engine.byzantine_rounds", 1);
                        self.gossip(p, &frame);
                    }
                    None => {
                        let frame = self.net.propose(p, txs.clone())?;
                        self.blocks += 1;
                        obs::event(
                            obs::Subsystem::Engine,
                            "batch",
                            &[
                                ("height", (self.height_of(p) as u64).into()),
                                ("proposer", (p as u64).into()),
                                ("txs", (txs.len() as u64).into()),
                            ],
                        );
                        self.gossip(p, &frame);
                        for tx in txs.drain(..) {
                            self.mined.insert(tx);
                        }
                        break;
                    }
                }
            }
            if !txs.is_empty() {
                // No honest eligible proposer this tick (all lied or
                // stalled, or nobody is alive): hold for the next one.
                self.requeue = txs;
            }
        }
        if self.work_remaining() && !self.network_doomed() {
            self.queue.push_in(self.config.batch_interval.max(1), Event::Batch);
            self.batch_pending = true;
        }
        Ok(())
    }

    fn on_deliver(&mut self, to: usize, frame: &[u8]) -> Result<(), EngineError> {
        if !self.alive[to] {
            obs::counter_add("engine.frames_to_dead", 1);
            return Ok(());
        }
        match self.net.deliver_frame(to, frame) {
            Ok(()) => Ok(()),
            Err(FrameError::Apply(BlockApplyError::WrongHeight { got, expected }))
                if got > expected =>
            {
                // The replica fell behind (dropped/reordered frames):
                // pull the gap from its live peers.
                self.sync_from_peers(to, true)
            }
            Err(FrameError::Apply(BlockApplyError::WrongHeight { .. })) => {
                // Stale duplicate of a height the replica already holds.
                obs::counter_add("engine.frames_stale", 1);
                Ok(())
            }
            Err(FrameError::Decode(_)) | Err(FrameError::Oversize { .. }) => {
                // Mutated junk; the content reaches the replica later by
                // peer catch-up.
                obs::counter_add("engine.frames_rejected", 1);
                Ok(())
            }
            Err(FrameError::Apply(_)) => {
                // Parent/root mismatch: a mutated frame, a lying
                // proposer's block, or a diverged tip — peer catch-up
                // repairs all three.
                obs::counter_add("engine.frames_rejected", 1);
                self.sync_from_peers(to, true)
            }
        }
    }

    fn on_crash(&mut self, node: usize) {
        if node < self.alive.len() && self.alive[node] {
            self.alive[node] = false;
            obs::event(obs::Subsystem::Engine, "crash", &[("node", (node as u64).into())]);
            // A crash at the tail of the run can orphan transactions
            // whose only copy died with this node, after the batch
            // cadence already wound down — restart it so the next tick
            // re-queues and re-mines them.
            if !self.batch_pending && self.work_remaining() && !self.network_doomed() {
                self.queue.push_in(self.config.batch_interval.max(1), Event::Batch);
                self.batch_pending = true;
            }
        }
    }

    fn on_restart(&mut self, node: usize) -> Result<(), EngineError> {
        self.pending_restarts = self.pending_restarts.saturating_sub(1);
        if node < self.alive.len() && !self.alive[node] {
            self.alive[node] = true;
            // Reboot from genesis; recovery pulls from live peers
            // through the fault plan, like any other catch-up.
            self.heal(node, true)?;
            obs::event(
                obs::Subsystem::Engine,
                "restart",
                &[
                    ("node", (node as u64).into()),
                    ("height", (self.net.validator(node).node.chain().height() as u64).into()),
                ],
            );
        }
        Ok(())
    }

    /// Processes a single event. `Ok(true)` while events remain.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn step(&mut self) -> Result<bool, EngineError> {
        let Some((_, event)) = self.queue.pop() else {
            return Ok(false);
        };
        let stall_bound = self.config.horizon.max(1 << 10).saturating_mul(256);
        if self.queue.now() > stall_bound {
            return Err(EngineError::Stalled { now: self.queue.now() });
        }
        match event {
            Event::Arrival { session } => self.on_arrival(session),
            Event::Batch => self.on_batch()?,
            Event::Deliver { to, frame } => self.on_deliver(to, &frame)?,
            Event::Crash { node } => self.on_crash(node),
            Event::Restart { node } => self.on_restart(node)?,
        }
        Ok(!self.queue.is_empty())
    }

    /// Runs the simulation to completion: drains the event queue, then
    /// brings every surviving replica up to the ledger and reports.
    ///
    /// # Errors
    ///
    /// [`EngineError::Stalled`] if the stall guard trips;
    /// [`EngineError::Network`] on consistency failures (bugs, not
    /// fault injection — injected faults surface as rejections and
    /// heals, never errors).
    pub fn run(&mut self) -> Result<EngineReport, EngineError> {
        while self.step()? {}
        self.report()
    }

    /// Final convergence check and summary (also valid mid-run, e.g.
    /// right after a checkpoint restore).
    ///
    /// # Errors
    ///
    /// Propagates sync failures.
    pub fn report(&mut self) -> Result<EngineReport, EngineError> {
        let survivors: Vec<usize> =
            (0..self.config.validators).filter(|&i| self.alive[i]).collect();
        // Final catch-up is part of reporting, not the network: the
        // run is over, so pulls are direct (still re-validated) rather
        // than routed through the fault plan.
        for &i in &survivors {
            self.sync_from_peers(i, false)?;
        }
        let no_survivors = survivors.is_empty();
        let (tip, root, final_height) = match self.canonical() {
            Some(c) => {
                let node = &self.net.validator(c).node;
                (node.chain().tip_hash(), node.state().root(), node.chain().height())
            }
            // Nobody survived: report the genesis every validator
            // boots with.
            None => {
                let genesis = self.genesis();
                let root = genesis.block(0).map_or(Hash256::ZERO, |b| b.header.state_root);
                (genesis.tip_hash(), root, genesis.height())
            }
        };
        let converged = !no_survivors
            && survivors.iter().all(|&i| {
                let node = &self.net.validator(i).node;
                node.chain().tip_hash() == tip && node.state().root() == root
            })
            && self.net.converged_among(&survivors);

        // Genesis holds no transactions, so with nobody alive no
        // receipt exists.
        let node = self.canonical().map(|c| &self.net.validator(c).node);
        let mut sessions_settled = 0;
        for (s, plan) in self.plans.iter().enumerate() {
            let all_ok = (0..plan.len()).all(|k| {
                plan.tx_at(k, self.contracts[s])
                    .and_then(|tx| node?.receipt(tx.hash()))
                    .is_some_and(|r| matches!(r.status, ExecStatus::Success))
            });
            if all_ok {
                sessions_settled += 1;
            }
        }

        Ok(EngineReport {
            batches: self.batches,
            blocks: self.blocks,
            backpressure: self.backpressure,
            heals: self.heals,
            byzantine_rounds: self.byzantine_rounds,
            requeues: self.requeues,
            final_height,
            state_root: root,
            survivors,
            no_survivors,
            converged,
            sessions_settled,
            sessions_total: self.plans.len(),
            ticks: self.queue.now(),
        })
    }

    /// Serializes the live engine: simulation counters, session
    /// cursors, admission/requeue/in-flight transactions, per-replica
    /// heights, pending events, and the canonical chain (the freshest
    /// live replica's — genesis alone if nobody is alive) through
    /// the chain export codec. Restoring with [`Engine::restore`]
    /// resumes bit-identically — every stochastic stream is a pure
    /// function of `(seed, counter)`, and all counters are here.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(4096);
        buf.put_u8(CHECKPOINT_VERSION);
        buf.put_uvarint(self.seed);
        buf.put_uvarint(self.queue.now());
        buf.put_uvarint(self.queue.next_seq());
        buf.put_uvarint(self.term);
        buf.put_uvarint(self.batches);
        buf.put_uvarint(self.blocks);
        buf.put_uvarint(self.backpressure);
        buf.put_uvarint(self.heals);
        buf.put_uvarint(self.byzantine_rounds);
        buf.put_uvarint(self.requeues);
        buf.put_uvarint(self.faults.decisions());
        buf.put_uvarint(self.byzantine.decisions());
        buf.put_uvarint(self.alive.len() as u64);
        for &a in &self.alive {
            buf.put_u8(a as u8);
        }
        // Per-replica chain heights: restore rebuilds each replica at
        // its exact position by replaying the canonical prefix.
        buf.put_uvarint(self.config.validators as u64);
        for i in 0..self.config.validators {
            buf.put_uvarint(self.height_of(i) as u64);
        }
        buf.put_uvarint(self.cursors.len() as u64);
        for &c in &self.cursors {
            buf.put_uvarint(c as u64);
        }
        buf.put_uvarint(self.arrival_k.len() as u64);
        for &k in &self.arrival_k {
            buf.put_uvarint(k);
        }
        buf.put_uvarint(self.admission.len() as u64);
        for tx in self.admission.iter() {
            buf.put_varint_slice(&encode_tx_bytes(tx));
        }
        for txs in [&self.requeue, &self.mined.txs] {
            buf.put_uvarint(txs.len() as u64);
            for tx in txs {
                buf.put_varint_slice(&encode_tx_bytes(tx));
            }
        }
        let pending = self.queue.pending();
        buf.put_uvarint(pending.len() as u64);
        for (time, _, seq, event) in pending {
            buf.put_uvarint(time);
            buf.put_uvarint(seq);
            event.encode(&mut buf);
        }
        let chain = match self.canonical() {
            Some(c) => encode_chain(self.net.validator(c).node.chain()),
            None => encode_chain(&self.genesis()),
        };
        buf.put_varint_slice(&chain);
        buf.to_vec()
    }

    /// Rebuilds a live engine from a checkpoint: boots fresh (same
    /// config and seed), imports the ledger through the chain codec,
    /// replays it into every replica up to its checkpointed height with
    /// full re-execution validation, and restores the simulation
    /// counters and pending events.
    ///
    /// # Errors
    ///
    /// [`EngineError::Checkpoint`] / [`EngineError::Codec`] on
    /// malformed bytes or config mismatch, and when the chain's height
    /// is not the largest declared height among live replicas (1 when
    /// none is live) — a shorter declaration would leave the chain's
    /// tail unvalidated.
    pub fn restore(
        config: EngineConfig,
        seed: u64,
        checkpoint: &[u8],
    ) -> Result<Self, EngineError> {
        let mut engine = Engine::new(config, seed)?;
        let buf = &mut &checkpoint[..];
        let short = |_| EngineError::Checkpoint("truncated checkpoint".into());

        let version = buf.try_get_u8().map_err(short)?;
        if version != CHECKPOINT_VERSION {
            return Err(EngineError::Checkpoint(format!(
                "unknown checkpoint version {version}"
            )));
        }
        let ck_seed = buf.try_get_uvarint().map_err(short)?;
        if ck_seed != seed {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint was taken under seed {ck_seed}, not {seed}"
            )));
        }
        let now = buf.try_get_uvarint().map_err(short)?;
        let next_seq = buf.try_get_uvarint().map_err(short)?;
        engine.term = buf.try_get_uvarint().map_err(short)?;
        engine.batches = buf.try_get_uvarint().map_err(short)?;
        engine.blocks = buf.try_get_uvarint().map_err(short)?;
        engine.backpressure = buf.try_get_uvarint().map_err(short)?;
        engine.heals = buf.try_get_uvarint().map_err(short)?;
        engine.byzantine_rounds = buf.try_get_uvarint().map_err(short)?;
        engine.requeues = buf.try_get_uvarint().map_err(short)?;
        let decisions = buf.try_get_uvarint().map_err(short)?;
        engine.faults.restore_decisions(decisions);
        let byz_decisions = buf.try_get_uvarint().map_err(short)?;
        engine.byzantine.restore_decisions(byz_decisions);

        let n_alive = buf.try_get_uvarint().map_err(short)? as usize;
        if n_alive != engine.alive.len() {
            return Err(EngineError::Checkpoint("validator count mismatch".into()));
        }
        for a in engine.alive.iter_mut() {
            *a = buf.try_get_u8().map_err(short)? != 0;
        }
        let n_heights = buf.try_get_uvarint().map_err(short)? as usize;
        if n_heights != engine.config.validators {
            return Err(EngineError::Checkpoint("validator count mismatch".into()));
        }
        let mut heights = Vec::with_capacity(engine.config.validators);
        for _ in 0..n_heights {
            heights.push(buf.try_get_uvarint().map_err(short)? as usize);
        }
        let n_cursors = buf.try_get_uvarint().map_err(short)? as usize;
        if n_cursors != engine.cursors.len() {
            return Err(EngineError::Checkpoint("session count mismatch".into()));
        }
        for c in engine.cursors.iter_mut() {
            *c = buf.try_get_uvarint().map_err(short)? as usize;
        }
        let n_k = buf.try_get_uvarint().map_err(short)? as usize;
        if n_k != engine.arrival_k.len() {
            return Err(EngineError::Checkpoint("session count mismatch".into()));
        }
        for k in engine.arrival_k.iter_mut() {
            *k = buf.try_get_uvarint().map_err(short)?;
        }

        let n_admission = buf.try_get_uvarint().map_err(short)? as usize;
        engine.admission = Bounded::new(engine.config.admission_capacity);
        for _ in 0..n_admission {
            let bytes =
                buf.try_get_varint_slice(buf.remaining() as u64).map_err(short)?;
            let tx = decode_tx_bytes(bytes)?;
            if engine.admission.push(tx).is_err() {
                return Err(EngineError::Checkpoint(
                    "admission queue exceeds configured capacity".into(),
                ));
            }
        }
        let mut sections = [Vec::new(), Vec::new()];
        for section in &mut sections {
            let n = bounded_count(
                buf.try_get_uvarint().map_err(short)? as usize,
                buf.remaining(),
                TX_ENTRY_MIN_BYTES,
            )?;
            for _ in 0..n {
                let bytes =
                    buf.try_get_varint_slice(buf.remaining() as u64).map_err(short)?;
                section.push(decode_tx_bytes(bytes)?);
            }
        }
        let [requeue, mined] = sections;
        engine.requeue = requeue;
        engine.mined = MinedTxs::rebuild(mined);

        // A forged checkpoint can declare any count; bound it by the
        // bytes actually present (each entry is ≥ time varint(1) + seq
        // varint(1) + event tag(1)) before the count sizes an
        // allocation.
        let n_pending = bounded_count(
            buf.try_get_uvarint().map_err(short)? as usize,
            buf.remaining(),
            PENDING_ENTRY_MIN_BYTES,
        )?;
        let mut entries = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let time = buf.try_get_uvarint().map_err(short)?;
            let seq = buf.try_get_uvarint().map_err(short)?;
            let event = Event::decode(buf)?;
            entries.push((time, seq, event));
        }
        // Recompute rather than trust: the doomed-network and
        // batch-cadence checks must agree with the events actually in
        // the queue.
        engine.pending_restarts =
            entries.iter().filter(|(_, _, e)| matches!(e, Event::Restart { .. })).count();
        engine.batch_pending =
            entries.iter().any(|(_, _, e)| matches!(e, Event::Batch));
        engine.queue =
            EventQueue::restore(substream(seed, STREAM_QUEUE), now, next_seq, entries);

        let chain_bytes =
            buf.try_get_varint_slice(buf.remaining() as u64).map_err(short)?.to_vec();
        if !buf.is_empty() {
            return Err(EngineError::Checkpoint("trailing bytes".into()));
        }
        // Import through the chain codec. Each replica re-executes its
        // prefix below, so the freshest live replica must reach the tip:
        // otherwise a forged checkpoint could smuggle in an unvalidated
        // tail.
        let chain = decode_chain(&chain_bytes)?;
        if chain.prefix(1) != engine.genesis() {
            return Err(EngineError::Checkpoint(
                "checkpoint genesis does not match this config".into(),
            ));
        }
        let freshest_live =
            heights.iter().zip(&engine.alive).filter(|(_, &a)| a).map(|(&h, _)| h).max();
        if chain.height() != freshest_live.unwrap_or(1) {
            return Err(EngineError::Checkpoint(format!(
                "chain height {} is not the freshest live replica's",
                chain.height()
            )));
        }
        let blocks = chain.blocks();
        // Rebuild every replica at its checkpointed height by replaying
        // the canonical prefix through its wire path. A dead replica's
        // height is capped by the canonical chain (its in-memory state
        // is wiped at restart anyway and it never serves pulls).
        for (i, &h) in heights.iter().enumerate() {
            let target = h.min(blocks.len());
            for block in &blocks[1..target.max(1)] {
                let frame = encode_block_bytes(block);
                if engine.net.deliver_frame(i, &frame).is_err() {
                    return Err(EngineError::Checkpoint(
                        "replica prefix replay failed validation".into(),
                    ));
                }
            }
        }
        Ok(engine)
    }
}

/// The engine's mined-transaction log with each tx hashed once, when
/// it is mined, so the per-batch receipt checks and the mining dedup
/// cost lookups, not re-hashes of the whole history. Only `txs` is
/// checkpointed; [`Engine::restore`] rebuilds the hashes from it.
#[derive(Debug, Default)]
struct MinedTxs {
    /// The transactions, in the order they were first mined.
    txs: Vec<Transaction>,
    /// `txs[k].hash()`, in `txs` order.
    hashes: Vec<Hash256>,
    /// The same hashes as a set: the mining dedup.
    set: BTreeSet<Hash256>,
}

impl MinedTxs {
    /// The log over a decoded checkpoint section. `txs` is kept as
    /// decoded, duplicates included, so re-checkpointing reproduces
    /// the section's bytes.
    fn rebuild(txs: Vec<Transaction>) -> Self {
        let hashes: Vec<Hash256> = txs.iter().map(Transaction::hash).collect();
        let set = hashes.iter().copied().collect();
        Self { txs, hashes, set }
    }

    /// Records `tx` as mined unless it already is (a re-mined requeue
    /// entry).
    fn insert(&mut self, tx: Transaction) {
        let h = tx.hash();
        if self.set.insert(h) {
            self.txs.push(tx);
            self.hashes.push(h);
        }
    }
}

/// Applies a scheduled lie to a block the proposer is about to gossip.
/// Every kind breaks a commitment the honest re-execution path checks
/// (state root, receipts root, or a receipt the receipts root commits
/// to), so honest replicas always refuse the frame.
fn apply_tamper(block: &mut Block, t: Tamper) {
    let pos = (t.salt % 32) as usize;
    let bite = ((t.salt >> 8) as u8) | 1;
    match t.kind {
        TamperKind::StateRoot => block.header.state_root.0[pos] ^= bite,
        TamperKind::ReceiptsRoot => block.header.receipts_root.0[pos] ^= bite,
        TamperKind::ReceiptGas => match block.receipts.first_mut() {
            Some(r) => r.gas_used ^= (t.salt & 0xFFFF) | 1,
            // An empty block carries no receipts to lie about; lie
            // about the post-state instead.
            None => block.header.state_root.0[pos] ^= bite,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_runtime::sim::faults::CrashPlan;

    fn tiny_config() -> EngineConfig {
        EngineConfig {
            validators: 3,
            sessions: vec![SessionSpec { name: "m0".into(), orgs: 3, seed: 1 }],
            batch_interval: 5,
            mean_arrival_gap: 2.0,
            admission_capacity: 8,
            horizon: 512,
            faults: FaultConfig::none(),
            byzantine: ByzantineConfig::none(),
            workers: 1,
        }
    }

    #[test]
    fn fault_free_run_settles_and_converges() {
        let mut engine = Engine::new(tiny_config(), 42).unwrap();
        let report = engine.run().unwrap();
        assert!(report.fully_settled(), "{report:?}");
        assert_eq!(report.survivors, vec![0, 1, 2]);
        assert!(report.blocks > 0);
        assert!(report.final_height > 1);
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let run = |seed| {
            let mut e = Engine::new(tiny_config(), seed).unwrap();
            e.run().unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same everything");
        let c = run(0xDEAD_BEEF);
        assert_ne!(
            (a.ticks, a.batches, a.blocks, a.backpressure),
            (c.ticks, c.batches, c.blocks, c.backpressure),
            "different seeds explore different schedules"
        );
    }

    #[test]
    fn two_sessions_share_one_chain() {
        let mut config = tiny_config();
        config.sessions.push(SessionSpec { name: "m1".into(), orgs: 2, seed: 9 });
        let mut engine = Engine::new(config, 3).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.sessions_total, 2);
        assert!(report.fully_settled(), "{report:?}");
    }

    #[test]
    fn tiny_admission_queues_defer_arrivals_but_still_settle() {
        let mut config = tiny_config();
        config.admission_capacity = 1;
        config.batch_interval = 20;
        let mut engine = Engine::new(config, 4).unwrap();
        let report = engine.run().unwrap();
        assert!(report.backpressure > 0, "capacity 1 must defer arrivals");
        assert!(report.fully_settled(), "{report:?}");
    }

    #[test]
    fn duplicate_session_names_are_rejected() {
        let mut config = tiny_config();
        config.sessions.push(config.sessions[0].clone());
        assert!(matches!(Engine::new(config, 0), Err(EngineError::Config(_))));
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let seed = 11;
        let mut uninterrupted = Engine::new(tiny_config(), seed).unwrap();
        let expected = uninterrupted.run().unwrap();

        let mut engine = Engine::new(tiny_config(), seed).unwrap();
        for _ in 0..40 {
            engine.step().unwrap();
        }
        let bytes = engine.checkpoint();
        let mut restored = Engine::restore(tiny_config(), seed, &bytes).unwrap();
        let resumed = restored.run().unwrap();
        assert_eq!(resumed.state_root, expected.state_root);
        assert_eq!(resumed.final_height, expected.final_height);
        assert_eq!(resumed.blocks, expected.blocks);
        assert!(resumed.fully_settled());
    }

    #[test]
    fn checkpoints_reject_wrong_seed_and_garbage() {
        let engine = Engine::new(tiny_config(), 5).unwrap();
        let bytes = engine.checkpoint();
        assert!(matches!(
            Engine::restore(tiny_config(), 6, &bytes),
            Err(EngineError::Checkpoint(_))
        ));
        assert!(Engine::restore(tiny_config(), 5, &bytes[..bytes.len() / 2]).is_err());
        assert!(Engine::restore(tiny_config(), 5, &[0xff; 40]).is_err());
    }

    /// Varint-era truncation regression: every sampled strict prefix
    /// of a checkpoint must fail restore — a continuation bit on the
    /// final available byte maps to Truncated, never a read past the
    /// end or a silent partial restore.
    #[test]
    fn checkpoint_truncations_are_rejected_at_every_sampled_prefix() {
        let mut engine = Engine::new(tiny_config(), 5).unwrap();
        for _ in 0..40 {
            engine.step().unwrap();
        }
        let bytes = engine.checkpoint();
        assert!(Engine::restore(tiny_config(), 5, &bytes).is_ok());
        for cut in (1..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            assert!(
                Engine::restore(tiny_config(), 5, &bytes[..cut]).is_err(),
                "prefix of {cut} bytes restored successfully"
            );
        }
    }

    /// Varint-era overflow regression: an unterminated varint (eleven
    /// continuation bytes) spliced over the pending-event count must be
    /// refused as malformed, not spun on or misread as a huge value.
    #[test]
    fn unterminated_varint_in_checkpoint_is_rejected() {
        let mut engine = Engine::new(tiny_config(), 5).unwrap();
        for _ in 0..40 {
            engine.step().unwrap();
        }
        let mut bytes = engine.checkpoint();
        let off = pending_count_offset(&bytes);
        bytes.splice(off..off, [0xFFu8; 11]);
        assert!(Engine::restore(tiny_config(), 5, &bytes).is_err());
    }

    /// Byte offset of the pending-event count inside a checkpoint,
    /// found by walking the same section order [`Engine::checkpoint`]
    /// writes (fixed counters, then the alive/cursors/arrival_k/
    /// admission variable sections).
    fn pending_count_offset(bytes: &[u8]) -> usize {
        let mut cur: &[u8] = bytes;
        cur.try_advance(1).unwrap(); // version byte
        for _ in 0..12 {
            cur.try_get_uvarint().unwrap(); // seed + eleven counters
        }
        let alive = cur.try_get_uvarint().unwrap() as usize;
        cur.try_advance(alive).unwrap(); // one u8 per live validator
        // Heights, cursors, and arrival_k are varint-count-prefixed
        // runs of varints.
        for _ in 0..3 {
            let n = cur.try_get_uvarint().unwrap();
            for _ in 0..n {
                cur.try_get_uvarint().unwrap();
            }
        }
        // Admission, requeue, and last-round transaction sections share
        // one varint-length-prefixed layout.
        for _ in 0..3 {
            let txs = cur.try_get_uvarint().unwrap();
            for _ in 0..txs {
                let len = cur.try_get_uvarint().unwrap() as usize;
                cur.try_advance(len).unwrap();
            }
        }
        bytes.len() - cur.remaining()
    }

    /// Byzantine oversize regression: a checkpoint whose pending-event
    /// count claims u64::MAX entries (far more than the bytes behind
    /// it) must be rejected up front by the `bounded_count` validation
    /// — not trusted into `Vec::with_capacity`, where the forged count
    /// becomes a forged-size allocation.
    #[test]
    fn forged_pending_count_is_rejected_before_allocating() {
        let mut engine = Engine::new(tiny_config(), 5).unwrap();
        for _ in 0..40 {
            engine.step().unwrap();
        }
        let mut bytes = engine.checkpoint();
        let off = pending_count_offset(&bytes);
        // Sanity: the walk landed on the real count (restore of the
        // unmodified bytes still works after a round-trip re-read).
        assert!(Engine::restore(tiny_config(), 5, &bytes).is_ok());
        // Splice out the honest count varint and forge u64::MAX in its
        // place (nine continuation bytes + terminator).
        let honest_len = {
            let mut cur: &[u8] = &bytes[off..];
            let before = cur.remaining();
            cur.try_get_uvarint().unwrap();
            before - cur.remaining()
        };
        let mut forged = [0xFFu8; 10];
        forged[9] = 0x01;
        bytes.splice(off..off + honest_len, forged);
        assert!(Engine::restore(tiny_config(), 5, &bytes).is_err());
    }

    /// Forged heights: a checkpoint declaring every replica one block
    /// short of its chain would leave the tip block unreplayed, hence
    /// unvalidated, so restore must refuse it.
    #[test]
    fn declared_heights_that_undercut_the_chain_are_rejected() {
        let mut engine = Engine::new(tiny_config(), 5).unwrap();
        for _ in 0..40 {
            engine.step().unwrap();
        }
        let height = engine.height();
        assert!(height > 1, "the chain must have grown past genesis");
        let mut bytes = engine.checkpoint();
        assert!(Engine::restore(tiny_config(), 5, &bytes).is_ok());
        // Walk to the per-replica heights: version byte, seed + eleven
        // counters, the alive flags, then the varint-counted heights.
        let mut cur: &[u8] = &bytes;
        cur.try_advance(1).unwrap();
        for _ in 0..12 {
            cur.try_get_uvarint().unwrap();
        }
        let alive = cur.try_get_uvarint().unwrap() as usize;
        cur.try_advance(alive).unwrap();
        let n = cur.try_get_uvarint().unwrap();
        let start = bytes.len() - cur.remaining();
        for _ in 0..n {
            cur.try_get_uvarint().unwrap();
        }
        let end = bytes.len() - cur.remaining();
        let mut forged = BytesMut::with_capacity(16);
        for _ in 0..n {
            forged.put_uvarint(height as u64 - 1);
        }
        bytes.splice(start..end, forged.to_vec());
        assert!(matches!(
            Engine::restore(tiny_config(), 5, &bytes),
            Err(EngineError::Checkpoint(_))
        ));
    }

    #[test]
    fn byzantine_proposers_are_outvoted_and_sessions_still_settle() {
        let mut config = tiny_config();
        config.byzantine = ByzantineConfig { tamper_p: 0.5 };
        let mut engine = Engine::new(config, 42).unwrap();
        let report = engine.run().unwrap();
        assert!(report.byzantine_rounds > 0, "tamper_p=0.5 must schedule lies: {report:?}");
        assert_eq!(report.heals, 0, "a liar keeps its chain, so nobody is rebuilt");
        assert!(report.fully_settled(), "{report:?}");
    }

    #[test]
    fn elections_skip_dead_validators_without_wasting_rounds() {
        let mut config = tiny_config();
        // Node 0 dies early and never comes back: the election must
        // route every term to the remaining two validators.
        config.faults.crashes =
            vec![CrashPlan { node: 0, at: 2, down_for: CrashPlan::NEVER_RESTARTS }];
        let mut engine = Engine::new(config, 42).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.survivors, vec![1, 2]);
        assert!(!report.no_survivors);
        assert!(report.fully_settled(), "{report:?}");
    }

    /// Satellite regression: every validator dies permanently. The run
    /// must wind down (no stall-guard trip), report `no_survivors`, and
    /// refuse to call the empty survivor set converged.
    #[test]
    fn killing_every_validator_reports_no_survivors_not_converged() {
        let mut config = tiny_config();
        config.faults.crashes = (0..3)
            .map(|node| CrashPlan { node, at: 6, down_for: CrashPlan::NEVER_RESTARTS })
            .collect();
        let mut engine = Engine::new(config, 42).unwrap();
        let report = engine.run().unwrap();
        assert!(report.no_survivors, "{report:?}");
        assert!(report.survivors.is_empty());
        assert!(!report.converged, "zero-survivor convergence must be vacuous-false");
        assert!(!report.fully_settled());
    }
}
