//! A multi-validator proof-of-authority network.
//!
//! The paper's prototype runs on an Ethereum *private chain* — in
//! practice a small set of known validators (the organizations
//! themselves) producing blocks. This module holds those replicas and
//! the one way a block reaches them. The caller elects a proposer (the
//! engine's term election), which mines a batch on its own chain with
//! [`Network::propose`] and gets the block back as a wire frame. Every
//! other replica sees the block only as those untrusted bytes, through
//! [`Network::deliver_frame`]: a size gate, a strict decoder built on
//! fallible reads, then full re-execution ([`Node::apply_block`]), so a
//! proposer that lies about execution results is refused. A replica
//! that fell behind pulls each missing height with
//! [`Network::frame_at`] through the same handler. Replicas that accept
//! the same frames hold identical state roots, which is what makes the
//! settlement *decentralized* rather than trusted-third-party.

use crate::chain::Block;
use crate::codec::{decode_block_bytes, encode_block_bytes, CodecError};
use crate::contract::Contract;
use crate::node::{BlockApplyError, Node};
use crate::tx::Transaction;
use crate::types::{Address, Wei};
use std::fmt;
use tradefl_runtime::obs;

/// One validator: an organization running a full replica.
pub struct Validator {
    /// Display name (e.g. the organization).
    pub name: String,
    /// The validator's full node.
    pub node: Node,
}

impl fmt::Debug for Validator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Validator")
            .field("name", &self.name)
            .field("height", &self.node.chain().height())
            .finish()
    }
}

/// Errors from network operation.
#[derive(Debug)]
pub enum NetworkError {
    /// The network has no validators.
    Empty,
    /// Replicas produced different addresses for the same deployment —
    /// the network is no longer replicated deterministically.
    DeployDiverged {
        /// Address the first replica produced.
        expected: Address,
        /// The diverging address.
        got: Address,
    },
    /// An internal consistency failure (a bug, not bad peer input).
    Internal(&'static str),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Empty => write!(f, "network has no validators"),
            NetworkError::DeployDiverged { expected, got } => {
                write!(f, "deployment diverged across replicas: {expected} vs {got}")
            }
            NetworkError::Internal(what) => write!(f, "internal network error: {what}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Why a wire frame from a peer was refused.
///
/// Frames arrive as raw bytes from an untrusted peer; all three stages
/// — the size gate, decoding, and re-execution — must reject bad input
/// with an error, never a panic.
#[derive(Debug, PartialEq)]
pub enum FrameError {
    /// The frame exceeds the receiver's configured
    /// [`WireLimits::max_frame_bytes`] — rejected before a single byte
    /// is decoded, so a byzantine peer cannot make the replica do work
    /// proportional to an absurd payload.
    Oversize {
        /// Bytes the peer sent.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// The frame did not decode as a block (truncated, bad tag,
    /// oversized length prefix, trailing bytes, ...).
    Decode(CodecError),
    /// The block decoded but failed validation on re-execution.
    Apply(BlockApplyError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { len, max } => {
                write!(f, "frame rejected at size gate: {len} bytes > limit {max}")
            }
            FrameError::Decode(e) => write!(f, "frame rejected at decode: {e}"),
            FrameError::Apply(e) => write!(f, "frame rejected at validation: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wire-path resource limits applied before any decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLimits {
    /// Maximum accepted frame size in bytes. Frames longer than this
    /// are refused by [`Network::deliver_frame`] with
    /// [`FrameError::Oversize`] before decoding begins.
    pub max_frame_bytes: usize,
}

impl WireLimits {
    /// Default limit: 1 MiB — generous for the settlement workload
    /// (blocks are a few KiB) while bounding byzantine payloads.
    pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;
}

impl Default for WireLimits {
    fn default() -> Self {
        Self { max_frame_bytes: Self::DEFAULT_MAX_FRAME_BYTES }
    }
}

/// The PoA network: replicas that take blocks only as wire frames.
///
/// # Examples
///
/// ```
/// use tradefl_ledger::network::Network;
/// use tradefl_ledger::tx::{Transaction, TxPayload};
/// use tradefl_ledger::types::{Address, Wei};
///
/// let alice = Address::from_name("alice");
/// let mut net = Network::new(&["v0", "v1", "v2"], &[(alice, Wei(1_000))]);
/// let tx = Transaction {
///     from: alice,
///     nonce: 0,
///     value: Wei(10),
///     gas_limit: 21_000,
///     payload: TxPayload::Transfer { to: Address::from_name("bob") },
/// };
/// // The caller elected validator 0; it mines and returns the frame...
/// let frame = net.propose(0, vec![tx]).expect("proposer in range");
/// // ...and every other replica re-executes the frame's bytes.
/// for peer in 1..net.len() {
///     net.deliver_frame(peer, &frame).expect("honest block applies");
/// }
/// assert!(net.converged());
/// ```
#[derive(Debug)]
pub struct Network {
    validators: Vec<Validator>,
    limits: WireLimits,
}

impl Network {
    /// Boots `names.len()` replicas with identical genesis allocations.
    pub fn new(names: &[&str], allocations: &[(Address, Wei)]) -> Self {
        Self::with_limits(names, allocations, WireLimits::default())
    }

    /// [`Network::new`] with explicit wire-path limits.
    pub fn with_limits(
        names: &[&str],
        allocations: &[(Address, Wei)],
        limits: WireLimits,
    ) -> Self {
        let validators = names
            .iter()
            .map(|&name| Validator { name: name.to_string(), node: Node::new(allocations) })
            .collect();
        Self { validators, limits }
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// Whether the network has no validators.
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// Read access to a validator.
    pub fn validator(&self, i: usize) -> &Validator {
        &self.validators[i]
    }

    /// Deploys the same contract on every replica; returns the (shared)
    /// address. Replicas stay identical because deployment is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Empty`] with no validators to deploy on;
    /// [`NetworkError::DeployDiverged`] if replicas disagree on the
    /// deployment address (replication is broken — deterministic
    /// deployment should make this impossible).
    pub fn deploy(&mut self, prototype: Box<dyn Contract>) -> Result<Address, NetworkError> {
        let mut addr = None;
        for v in &mut self.validators {
            let a = v.node.deploy(prototype.snapshot());
            match addr {
                None => addr = Some(a),
                Some(expected) if expected != a => {
                    return Err(NetworkError::DeployDiverged { expected, got: a });
                }
                Some(_) => {}
            }
        }
        addr.ok_or(NetworkError::Empty)
    }

    /// Serializes the block at `height` on validator `from`'s chain as
    /// a wire frame, or `None` if that replica has not reached it.
    /// This is the pull side of catch-up sync: a replica that fell
    /// behind (crash, dropped frames) requests each missing height from
    /// a live peer and feeds the frames through [`deliver_frame`].
    ///
    /// [`deliver_frame`]: Network::deliver_frame
    pub fn frame_at(&self, from: usize, height: u64) -> Option<Vec<u8>> {
        let block = self.validators.get(from)?.node.chain().blocks().get(height as usize)?;
        debug_assert_eq!(block.header.number, height);
        Some(encode_block_bytes(block))
    }

    /// Block production by a proposer the caller elected (the engine's
    /// term election): validator `proposer` executes exactly `txs` into
    /// a block on its *own* chain and returns the encoded frame.
    /// Nothing is broadcast — the caller owns delivery, so it can route
    /// the frame through fault injection, delays, or drops.
    ///
    /// Invalid submissions (bad nonce, overdraft) are dropped; an empty
    /// block is still produced.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Internal`] if `proposer` is out of range or
    /// mining produced no block.
    pub fn propose(
        &mut self,
        proposer: usize,
        txs: Vec<Transaction>,
    ) -> Result<Vec<u8>, NetworkError> {
        self.propose_with(proposer, txs, None)
    }

    /// [`Network::propose`] with an optional Byzantine mutation. With
    /// `tamper`, the proposer executes its honest block on a snapshot
    /// of its state, the contracts `txs` call and its clock, `tamper`
    /// mutates that block, and the returned frame encodes the lie. The
    /// snapshot is then restored, so the liar's chain, state and
    /// contracts end exactly as before the call: the liar stays on the
    /// chain the network keeps and can propose again at once. Honest
    /// replicas refuse the frame on re-execution.
    ///
    /// # Errors
    ///
    /// See [`Network::propose`].
    pub fn propose_with(
        &mut self,
        proposer: usize,
        txs: Vec<Transaction>,
        tamper: Option<&dyn Fn(&mut Block)>,
    ) -> Result<Vec<u8>, NetworkError> {
        let node = &mut self
            .validators
            .get_mut(proposer)
            .ok_or(NetworkError::Internal("proposer out of range"))?
            .node;
        for tx in txs {
            let _ = node.submit(tx);
        }
        match tamper {
            None => {
                node.mine();
                let mined = node
                    .chain()
                    .blocks()
                    .last()
                    .ok_or(NetworkError::Internal("proposer mined no block"))?;
                Ok(encode_block_bytes(mined))
            }
            Some(t) => {
                let mut lie = node.mine_detached();
                t(&mut lie);
                Ok(encode_block_bytes(&lie))
            }
        }
    }

    /// Crash-reboot for validator `i`: the replica loses all in-memory
    /// state and comes back as a freshly booted node — same genesis
    /// allocations, same deterministic contract deployments, chain at
    /// genesis. Recovery happens afterwards by replaying the ledger
    /// (pull each height via [`Network::frame_at`] through
    /// [`Network::deliver_frame`]); nothing is restored here.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Internal`] if `i` is out of range;
    /// [`NetworkError::DeployDiverged`] if redeployment does not land
    /// on the recorded addresses (determinism broken).
    pub fn restart_validator(
        &mut self,
        i: usize,
        allocations: &[(Address, Wei)],
        contracts: &[(Address, Box<dyn Contract>)],
    ) -> Result<(), NetworkError> {
        let v = self
            .validators
            .get_mut(i)
            .ok_or(NetworkError::Internal("validator out of range"))?;
        let mut node = Node::new(allocations);
        for (expected_addr, prototype) in contracts {
            let addr = node.deploy(prototype.snapshot());
            if addr != *expected_addr {
                return Err(NetworkError::DeployDiverged { expected: *expected_addr, got: addr });
            }
        }
        v.node = node;
        Ok(())
    }

    /// Delivers a raw wire frame — untrusted peer bytes — to validator
    /// `to`: the frame is decoded as a block and, if well-formed,
    /// validated by full re-execution exactly like [`Node::apply_block`].
    ///
    /// This is the network-facing message handler: a byzantine peer can
    /// send *anything* (truncated frames, oversized length prefixes,
    /// garbage tags), and every failure mode must surface as a
    /// [`FrameError`], never a panic or a state change.
    ///
    /// # Errors
    ///
    /// [`FrameError::Decode`] for malformed bytes, [`FrameError::Apply`]
    /// for a well-formed block that fails validation.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range (local misuse, not peer input).
    pub fn deliver_frame(&mut self, to: usize, frame: &[u8]) -> Result<(), FrameError> {
        let result = if frame.len() > self.limits.max_frame_bytes {
            Err(FrameError::Oversize { len: frame.len(), max: self.limits.max_frame_bytes })
        } else {
            match decode_block_bytes(frame) {
                Err(e) => Err(FrameError::Decode(e)),
                Ok(block) => self.validators[to]
                    .node
                    .apply_block(&block)
                    .map_err(FrameError::Apply),
            }
        };
        obs::counter_add(
            match result {
                Ok(()) => "ledger.frames_accepted",
                Err(FrameError::Oversize { .. }) => "ledger.frames_oversize",
                Err(FrameError::Decode(_)) => "ledger.frames_bad_encoding",
                Err(FrameError::Apply(_)) => "ledger.frames_bad_block",
            },
            1,
        );
        result
    }

    /// Whether every replica holds the same tip hash and state root.
    // lint:allow(unreferenced-pub-fn): test oracle: the ledger's network tests and its doc example assert convergence through it
    pub fn converged(&self) -> bool {
        let all: Vec<usize> = (0..self.validators.len()).collect();
        self.converged_among(&all)
    }

    /// [`Network::converged`] restricted to a subset of validators —
    /// the surviving nodes after fault injection killed some. Out-of-
    /// range indices are ignored.
    ///
    /// An empty subset (or one that is all out-of-range) returns
    /// `false`: convergence is a claim about at least one surviving
    /// replica holding the agreed state, and with zero survivors there
    /// is nobody left to hold it. Reporting a run where every validator
    /// died as "converged" was a real bug — vacuous truth is not
    /// consensus.
    pub fn converged_among(&self, subset: &[usize]) -> bool {
        let mut members = subset.iter().filter_map(|&i| self.validators.get(i));
        let Some(first) = members.next() else {
            return false;
        };
        let tip = first.node.chain().tip_hash();
        let root = first.node.state().root();
        members.all(|v| v.node.chain().tip_hash() == tip && v.node.state().root() == root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_header_bytes;
    use crate::tx::TxPayload;
    use crate::types::Hash256;

    fn transfer(from: &str, to: &str, nonce: u64, value: u128) -> Transaction {
        Transaction {
            from: Address::from_name(from),
            nonce,
            value: Wei(value),
            gas_limit: 21_000,
            payload: TxPayload::Transfer { to: Address::from_name(to) },
        }
    }

    fn boot(n: usize) -> Network {
        let names: Vec<String> = (0..n).map(|i| format!("validator-{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Network::new(
            &name_refs,
            &[
                (Address::from_name("alice"), Wei(1_000_000)),
                (Address::from_name("bob"), Wei(500_000)),
            ],
        )
    }

    /// Validator `proposer` mines `txs` (mutated in flight by `tamper`)
    /// and every other replica receives the frame; returns each peer's
    /// verdict in index order.
    fn broadcast(
        net: &mut Network,
        proposer: usize,
        txs: Vec<Transaction>,
        tamper: Option<&dyn Fn(&mut Block)>,
    ) -> Vec<(usize, Result<(), FrameError>)> {
        let frame = net.propose_with(proposer, txs, tamper).unwrap();
        (0..net.len())
            .filter(|&i| i != proposer)
            .map(|i| (i, net.deliver_frame(i, &frame)))
            .collect()
    }

    fn assert_all_accept(verdicts: &[(usize, Result<(), FrameError>)]) {
        for (i, verdict) in verdicts {
            assert!(verdict.is_ok(), "replica {i} refused: {verdict:?}");
        }
    }

    /// An honest one-transfer block from a lone proposer, as wire bytes.
    fn honest_frame() -> Vec<u8> {
        boot(1).propose(0, vec![transfer("alice", "bob", 0, 100)]).unwrap()
    }

    #[test]
    fn replicas_converge_over_many_rounds() {
        let mut net = boot(4);
        assert_eq!(net.len(), 4);
        for k in 0..6u64 {
            // The caller elects the proposer; here it rotates.
            let verdicts =
                broadcast(&mut net, k as usize % 4, vec![transfer("alice", "bob", k, 100)], None);
            assert_eq!(verdicts.len(), 3);
            assert_all_accept(&verdicts);
        }
        assert!(net.converged());
        let bob = Address::from_name("bob");
        let balance = net.validator(0).node.state().balance_of(bob);
        for i in 1..4 {
            assert_eq!(net.validator(i).node.state().balance_of(bob), balance);
        }
    }

    #[test]
    fn byzantine_proposer_is_rejected_by_all_replicas() {
        let mut net = boot(3);
        // The proposer claims a different state root (e.g. silently
        // crediting itself).
        let verdicts = broadcast(
            &mut net,
            0,
            vec![transfer("alice", "bob", 0, 100)],
            Some(&|block: &mut Block| {
                block.header.state_root = Hash256([0xde; 32]);
            }),
        );
        assert_eq!(verdicts.len(), 2);
        for (_, verdict) in &verdicts {
            assert!(matches!(
                verdict,
                Err(FrameError::Apply(
                    BlockApplyError::StateRootMismatch | BlockApplyError::ReceiptMismatch
                ))
            ));
        }
        assert!(net.converged(), "the liar kept the chain every replica holds");
    }

    #[test]
    fn corrupted_timestamp_is_refused_and_leaves_the_replica_unchanged() {
        // Nothing a block executes reads the clock, so a frame whose
        // only change is the header timestamp re-executes cleanly under
        // a different hash; the replica must refuse it rather than fork.
        let mut net = boot(2);
        let honest = net.propose(0, vec![transfer("alice", "bob", 0, 100)]).unwrap();
        let mut block = decode_block_bytes(&honest).unwrap();
        block.header.timestamp += 1;
        let corrupted = encode_block_bytes(&block);
        let (tip, root) = {
            let node = &net.validator(1).node;
            (node.chain().tip_hash(), node.state().root())
        };
        assert_eq!(
            net.deliver_frame(1, &corrupted),
            Err(FrameError::Apply(BlockApplyError::BadTimestamp {
                got: block.header.timestamp,
                expected: block.header.timestamp - 1,
            }))
        );
        assert_eq!(net.validator(1).node.chain().tip_hash(), tip);
        assert_eq!(net.validator(1).node.state().root(), root);
        // The refusal left a replica the honest frame still applies to.
        net.deliver_frame(1, &honest).unwrap();
        assert!(net.converged());
    }

    #[test]
    fn tampered_receipts_are_rejected() {
        let mut net = boot(3);
        let verdicts = broadcast(
            &mut net,
            0,
            vec![transfer("alice", "bob", 0, 100)],
            Some(&|block: &mut Block| {
                if let Some(r) = block.receipts.first_mut() {
                    r.gas_used += 1;
                }
            }),
        );
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts
            .iter()
            .all(|(_, v)| *v == Err(FrameError::Apply(BlockApplyError::ReceiptMismatch))));
    }

    #[test]
    fn tampered_receipts_root_is_rejected_without_panicking() {
        // A proposer lying in the *header* (rather than the receipts
        // themselves) used to trip an `expect` deep in `apply_block`;
        // it must now surface as a rejection on every honest replica.
        let mut net = boot(3);
        let verdicts = broadcast(
            &mut net,
            0,
            vec![transfer("alice", "bob", 0, 100)],
            Some(&|block: &mut Block| {
                block.header.receipts_root = Hash256([0xbe; 32]);
            }),
        );
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts
            .iter()
            .all(|(_, v)| *v == Err(FrameError::Apply(BlockApplyError::BadReceiptsRoot))));
    }

    #[test]
    fn byzantine_truncated_frames_error_instead_of_panicking() {
        // A byzantine peer sends every possible truncation of a valid
        // block frame. Each one must come back as a Decode error — the
        // pre-fix codec called panicking cursor reads here.
        let frame = honest_frame();
        let mut victim = boot(1);
        for cut in 0..frame.len() {
            match victim.deliver_frame(0, &frame[..cut]) {
                Err(FrameError::Decode(_)) => {}
                other => panic!("cut at {cut}: expected Decode error, got {other:?}"),
            }
        }
        // The victim's chain is untouched by the garbage.
        assert_eq!(victim.validator(0).node.chain().height(), 1);
    }

    #[test]
    fn byzantine_oversized_length_prefixes_error_instead_of_panicking() {
        let frame = honest_frame();

        // Stamp an absurd little-endian length over every u64-aligned
        // position in the frame: whichever field it lands on (tx count,
        // vec length, string length), the decoder must refuse the claim
        // rather than try to allocate or read past the end. Positions
        // that only hit fixed-width bytes (hashes) may still decode —
        // then the block goes through normal validation. Either way: a Result, never a panic, and
        // a rejected frame never moves the victim's chain.
        let mut decode_errors = 0usize;
        for pos in (0..frame.len().saturating_sub(8)).step_by(8) {
            let mut bad = frame.clone();
            bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let mut victim = boot(1);
            let before = victim.validator(0).node.chain().tip_hash();
            match victim.deliver_frame(0, &bad) {
                Err(e) => {
                    if matches!(e, FrameError::Decode(_)) {
                        decode_errors += 1;
                    }
                    assert_eq!(
                        victim.validator(0).node.chain().tip_hash(),
                        before,
                        "rejected frame must not change state (pos {pos})"
                    );
                }
                // Hit a free-choice field: still a valid block.
                Ok(()) => assert!(decode_block_bytes(&bad).is_ok()),
            }
        }
        // The length prefixes (tx count, receipt count, ...) are in
        // there somewhere: at least one position must have tripped the
        // decoder's length guard.
        assert!(decode_errors > 0, "no position exercised the length guard");
    }

    #[test]
    fn byzantine_unterminated_varints_error_instead_of_panicking() {
        // An unterminated varint — continuation bit set on ten-plus
        // consecutive bytes — spliced over the tx count must be
        // refused as malformed (LengthOverflow), never spun on,
        // misread, or allowed past the decoder.
        let good = honest_frame();
        let block = decode_block_bytes(&good).unwrap();
        let header_len = encode_header_bytes(&block.header).len();
        let mut bad = good.clone();
        bad.splice(header_len..header_len, [0xFFu8; 11]);
        let mut victim = boot(1);
        match victim.deliver_frame(0, &bad) {
            Err(FrameError::Decode(_)) => {}
            other => panic!("expected Decode error, got {other:?}"),
        }
        assert_eq!(victim.validator(0).node.chain().height(), 1);
    }

    #[test]
    fn byzantine_oversize_frames_are_refused_at_the_size_gate() {
        // A peer declares (and sends) a frame past the configured
        // limit: the receiver must refuse before decoding a single
        // byte, and its chain must not move.
        let names = ["v0"];
        let allocations = [(Address::from_name("alice"), Wei(1_000_000))];
        let mut victim =
            Network::with_limits(&names, &allocations, WireLimits { max_frame_bytes: 64 });
        let before = victim.validator(0).node.chain().tip_hash();
        let frame = vec![0u8; 65];
        match victim.deliver_frame(0, &frame) {
            Err(FrameError::Oversize { len: 65, max: 64 }) => {}
            other => panic!("expected Oversize, got {other:?}"),
        }
        assert_eq!(victim.validator(0).node.chain().tip_hash(), before);
    }

    #[test]
    fn size_gate_rejects_honest_blocks_past_the_limit_but_not_under_it() {
        // The gate is about *size*, not honesty: a perfectly valid
        // block bigger than the limit is refused, and the same block
        // passes once the limit accommodates it.
        let frame = honest_frame();

        let names = ["v0"];
        let allocations = [
            (Address::from_name("alice"), Wei(1_000_000)),
            (Address::from_name("bob"), Wei(500_000)),
        ];
        let mut strict = Network::with_limits(
            &names,
            &allocations,
            WireLimits { max_frame_bytes: frame.len() - 1 },
        );
        assert!(matches!(
            strict.deliver_frame(0, &frame),
            Err(FrameError::Oversize { .. })
        ));
        let mut lenient = Network::with_limits(
            &names,
            &allocations,
            WireLimits { max_frame_bytes: frame.len() },
        );
        lenient.deliver_frame(0, &frame).expect("within the limit, frame applies");
    }

    #[test]
    fn byzantine_declared_lengths_beyond_the_frame_are_refused_before_allocation() {
        use tradefl_runtime::codec::{Buf, BytesMut};

        // A frame whose tx-count field claims more elements than the
        // remaining bytes could possibly encode. The codec must reject
        // the *claim* (LengthOverflow), not run the element decoder
        // until it trips over the end.
        let good = honest_frame();
        // Re-splice the frame with a forged tx-count varint: header
        // bytes, the absurd count, then the original tx/receipt tail.
        let block = decode_block_bytes(&good).unwrap();
        let header_len = encode_header_bytes(&block.header).len();
        let mut tail: &[u8] = &good[header_len..];
        tail.try_get_uvarint().unwrap(); // skip the honest count
        // Claim a count that passes the absolute MAX_LEN cap but not
        // the bytes-remaining check: far more txs than the tail of the
        // frame could hold, yet small enough that only the new guard
        // can catch it.
        let absurd: u64 = 10_000;
        let mut forged = BytesMut::with_capacity(good.len() + 2);
        forged.put_slice(&good[..header_len]);
        forged.put_uvarint(absurd);
        forged.put_slice(tail);
        let frame = forged.into_vec();
        let mut victim = boot(1);
        match victim.deliver_frame(0, &frame) {
            Err(FrameError::Decode(CodecError::LengthOverflow(n))) => {
                assert_eq!(n, absurd as usize);
            }
            other => panic!("expected LengthOverflow({absurd}), got {other:?}"),
        }
        assert_eq!(victim.validator(0).node.chain().height(), 1);
    }

    #[test]
    fn propose_and_frame_at_feed_the_wire_path() {
        // propose() mines on the proposer only; peers converge by
        // explicit frame delivery — the engine's delivery model.
        let mut net = boot(3);
        let frame = net
            .propose(0, vec![transfer("alice", "bob", 0, 100)])
            .expect("proposer in range");
        assert!(!net.converged(), "nothing was broadcast yet");
        net.deliver_frame(1, &frame).unwrap();
        net.deliver_frame(2, &frame).unwrap();
        assert!(net.converged());
        // frame_at serves historical heights for pull sync.
        assert_eq!(net.frame_at(0, 1), Some(frame));
        assert!(net.frame_at(0, 2).is_none(), "height 2 not mined yet");
        assert!(net.propose(7, vec![]).is_err(), "out-of-range proposer");
    }

    /// Three replicas hosting one TradeFL session between `n` funded
    /// orgs; returns the network, the orgs and the contract address.
    fn session_network(n: usize) -> (Network, Vec<Address>, Address) {
        use crate::tradefl_contract::{SessionParams, TradeFlContract};
        use crate::types::Fixed;

        let orgs: Vec<Address> =
            (0..n).map(|i| Address::from_name(&format!("org-{i}"))).collect();
        let allocations: Vec<(Address, Wei)> =
            orgs.iter().map(|&a| (a, Wei(10_000_000))).collect();
        let mut net = Network::new(&["v0", "v1", "v2"], &allocations);
        let rho_ij = |i: usize, j: usize| if i == j { Fixed::ZERO } else { Fixed::from_f64(0.1) };
        let params = SessionParams {
            participants: orgs.clone(),
            gamma_per_gbit: Fixed::from_f64(5.12),
            lambda: Fixed::from_f64(3.0),
            rho: (0..n).map(|i| (0..n).map(|j| rho_ij(i, j)).collect()).collect(),
            s_gbits: vec![Fixed::from_f64(20.0); n],
            required_deposit: Wei(1_000_000),
            wei_per_payoff_unit: 1_000,
            attestation_key: None,
        };
        let contract = net.deploy(Box::new(TradeFlContract::new(params).unwrap())).unwrap();
        (net, orgs, contract)
    }

    /// A call to `function` on `contract` from `from`.
    fn call(
        contract: Address,
        from: Address,
        nonce: u64,
        function: &str,
        args: Vec<crate::tx::Value>,
        value: Wei,
    ) -> Transaction {
        Transaction {
            from,
            nonce,
            value,
            gas_limit: 10_000_000,
            payload: TxPayload::Call { contract, function: function.into(), args },
        }
    }

    #[test]
    fn propose_with_tamper_leaves_the_liar_unchanged_and_honest_replicas_refuse() {
        use crate::tx::Value;

        let (mut net, orgs, contract) = session_network(2);
        // Registering both orgs moves the contract out of phase 0.
        let registration = || {
            orgs.iter()
                .map(|&o| call(contract, o, 0, "register", vec![], Wei::ZERO))
                .collect::<Vec<_>>()
        };
        let phase = |net: &Network| {
            net.validator(0).node.call_view(contract, orgs[0], "phase", &[]).unwrap()
        };
        let tip = net.validator(0).node.chain().tip_hash();
        let root = net.validator(0).node.state().root();
        assert_eq!(phase(&net), vec![Value::U64(0)]);

        let frame = net
            .propose_with(
                0,
                registration(),
                Some(&|block: &mut Block| {
                    block.header.state_root = Hash256([0xAA; 32]);
                }),
            )
            .unwrap();
        // The frame encodes the lie; honest replicas reject it on
        // re-execution and their chains do not move.
        for i in [1, 2] {
            assert!(matches!(
                net.deliver_frame(i, &frame),
                Err(FrameError::Apply(
                    BlockApplyError::StateRootMismatch | BlockApplyError::ReceiptMismatch
                ))
            ));
            assert_eq!(net.validator(i).node.chain().height(), 1);
        }
        // The liar executed its honest block on a snapshot and put it
        // back: tip, state root and contract storage are untouched.
        let liar = &net.validator(0).node;
        assert_eq!(liar.chain().height(), 1);
        assert_eq!(liar.chain().tip_hash(), tip);
        assert_eq!(liar.state().root(), root);
        assert_eq!(phase(&net), vec![Value::U64(0)], "the liar's contract kept its storage");
        assert!(net.converged());

        // The same validator proposes honestly right away, on the chain
        // every peer holds, and every peer accepts.
        assert_all_accept(&broadcast(&mut net, 0, registration(), None));
        assert!(net.converged());
        assert_eq!(net.validator(0).node.chain().height(), 2);
        assert_eq!(phase(&net), vec![Value::U64(1)]);
    }

    #[test]
    fn restarted_validator_recovers_by_ledger_replay() {
        let mut net = boot(3);
        for k in 0..4u64 {
            let verdicts =
                broadcast(&mut net, k as usize % 3, vec![transfer("alice", "bob", k, 100)], None);
            assert_all_accept(&verdicts);
        }
        assert!(net.converged());
        let allocations = [
            (Address::from_name("alice"), Wei(1_000_000)),
            (Address::from_name("bob"), Wei(500_000)),
        ];
        // Validator 1 crashes and reboots from genesis...
        net.restart_validator(1, &allocations, &[]).unwrap();
        assert!(!net.converged(), "the rebooted replica lost everything");
        assert_eq!(net.validator(1).node.chain().height(), 1);
        // ...then replays the ledger from a live peer, height by height.
        let mut h = net.validator(1).node.chain().height() as u64;
        while let Some(frame) = net.frame_at(0, h) {
            net.deliver_frame(1, &frame).expect("replayed block must validate");
            h += 1;
        }
        assert!(net.converged(), "replay restores bit-identical state");
    }

    #[test]
    fn converged_among_ignores_dead_validators() {
        let mut net = boot(3);
        let frame = net.propose(0, vec![transfer("alice", "bob", 0, 50)]).unwrap();
        // Only validator 2 hears the block; validator 1 is "dead".
        net.deliver_frame(2, &frame).unwrap();
        assert!(!net.converged());
        assert!(net.converged_among(&[0, 2]));
        assert!(!net.converged_among(&[0, 1, 2]));
        assert!(net.converged_among(&[0, 99]), "out-of-range indices are ignored");
        assert!(net.converged_among(&[2, 99]), "a lone survivor agrees with itself");
    }

    /// Zero survivors must not read as consensus: `converged_among`
    /// with an empty subset (or only out-of-range indices) used to
    /// return `true`, so an engine run where every validator died
    /// reported `converged: true`.
    #[test]
    fn zero_survivors_are_not_converged() {
        let net = boot(3);
        assert!(!net.converged_among(&[]), "nobody left to hold the agreed state");
        assert!(!net.converged_among(&[99, 100]), "all-out-of-range is the same as empty");
    }

    #[test]
    fn byzantine_garbage_frames_error_instead_of_panicking() {
        let mut victim = boot(1);
        // Deterministic junk: an xorshift byte stream at several sizes.
        let mut s = 0x9e37_79b9_u32 | 1;
        for len in [0usize, 1, 7, 8, 33, 200, 4096] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    (s >> 24) as u8
                })
                .collect();
            assert!(
                matches!(victim.deliver_frame(0, &bytes), Err(FrameError::Decode(_))),
                "len {len}"
            );
        }
    }

    #[test]
    fn empty_rounds_keep_replicas_in_sync() {
        let mut net = boot(2);
        for k in 0..3 {
            assert_all_accept(&broadcast(&mut net, k % 2, vec![], None));
        }
        assert!(net.converged());
        assert_eq!(net.validator(0).node.chain().height(), 4); // genesis + 3
    }

    #[test]
    fn contract_execution_replicates() {
        use crate::types::Fixed;

        let (mut net, orgs, contract) = session_network(3);
        // Full settlement, one phase per block, proposers rotating.
        let call = |from, nonce, function: &str, args, value| {
            call(contract, from, nonce, function, args, value)
        };
        let phases = [
            orgs.iter().map(|&o| call(o, 0, "register", vec![], Wei::ZERO)).collect(),
            orgs.iter().map(|&o| call(o, 1, "depositSubmit", vec![], Wei(1_000_000))).collect(),
            orgs.iter()
                .enumerate()
                .map(|(k, &o)| {
                    call(
                        o,
                        2,
                        "contributionSubmit",
                        vec![
                            crate::tx::Value::Fixed(Fixed::from_f64(0.2 + 0.3 * k as f64)),
                            crate::tx::Value::Fixed(Fixed::from_f64(3.0)),
                        ],
                        Wei::ZERO,
                    )
                })
                .collect(),
            vec![
                call(orgs[0], 3, "payoffCalculate", vec![], Wei::ZERO),
                call(orgs[0], 4, "payoffTransfer", vec![], Wei::ZERO),
            ],
        ];
        for (k, txs) in phases.into_iter().enumerate() {
            let n_txs = txs.len();
            let proposer = k % net.len();
            assert_all_accept(&broadcast(&mut net, proposer, txs, None));
            let tip = net.validator(proposer).node.chain().blocks().last().unwrap();
            assert_eq!(tip.txs.len(), n_txs, "phase {k}: every call made the block");
        }
        assert!(net.converged(), "all replicas hold the settled state");
    }
}
