//! A single-node private chain: mempool, deterministic execution,
//! block production — the stand-in for the paper's Ethereum private
//! blockchain.

use crate::chain::{tx_leaves, Block, BlockHeader, Blockchain};
use crate::contract::{CallContext, Contract, ContractError, GasMeter};
use crate::merkle::MerkleTree;
use crate::state::{JournalMark, WorldState};
use crate::tx::{ExecStatus, Receipt, Transaction, TxPayload, Value};
use crate::types::{Address, Hash256, Wei};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tradefl_runtime::obs;

/// Errors surfaced when submitting transactions to the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The nonce does not match the sender's account nonce at
    /// execution time (stale or replayed transaction).
    BadNonce {
        /// Nonce carried by the transaction.
        got: u64,
        /// Nonce the account expects next.
        expected: u64,
    },
    /// Sender balance cannot cover the attached value.
    InsufficientFunds,
    /// Target of a contract call is not a deployed contract.
    NoSuchContract(Address),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::BadNonce { got, expected } => {
                write!(f, "bad nonce {got}, account expects {expected}")
            }
            NodeError::InsufficientFunds => write!(f, "insufficient funds for attached value"),
            NodeError::NoSuchContract(a) => write!(f, "no contract deployed at {a}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// Why a replica refused a proposed block (consensus validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockApplyError {
    /// Height does not extend this replica's chain.
    WrongHeight {
        /// Height carried by the block.
        got: u64,
        /// Height this replica expects next.
        expected: u64,
    },
    /// Parent hash does not match this replica's tip.
    WrongParent,
    /// The header timestamp is not the tick after this replica's
    /// clock (every honest block carries its sealer's clock + 1).
    BadTimestamp {
        /// Timestamp carried by the block.
        got: u64,
        /// Timestamp this replica expects next.
        expected: u64,
    },
    /// The transaction root does not match the block's transactions.
    BadTxRoot,
    /// Local re-execution produced different receipts than claimed.
    ReceiptMismatch,
    /// Local re-execution produced a different state root.
    StateRootMismatch,
    /// The receipts root claimed in the header does not match the
    /// block's own receipts (a malformed or lying proposer).
    BadReceiptsRoot,
}

impl fmt::Display for BlockApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockApplyError::WrongHeight { got, expected } => {
                write!(f, "block height {got}, replica expects {expected}")
            }
            BlockApplyError::WrongParent => write!(f, "parent hash does not match tip"),
            BlockApplyError::BadTimestamp { got, expected } => {
                write!(f, "block timestamp {got}, replica expects {expected}")
            }
            BlockApplyError::BadTxRoot => write!(f, "transaction root mismatch"),
            BlockApplyError::ReceiptMismatch => {
                write!(f, "re-execution produced different receipts")
            }
            BlockApplyError::StateRootMismatch => {
                write!(f, "re-execution produced a different state root")
            }
            BlockApplyError::BadReceiptsRoot => {
                write!(f, "header receipts root does not match the block's receipts")
            }
        }
    }
}

impl std::error::Error for BlockApplyError {}

/// What [`Node::snapshot`] captured for a later [`Node::restore`].
struct Snapshot {
    mark: JournalMark,
    contracts: Vec<(Address, Box<dyn Contract>)>,
    clock: u64,
}

/// The single-node chain.
pub struct Node {
    chain: Blockchain,
    state: WorldState,
    contracts: BTreeMap<Address, Box<dyn Contract>>,
    pending: Vec<Transaction>,
    clock: u64,
    deploy_counter: u64,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("height", &self.chain.height())
            .field("accounts", &self.state.len())
            .field("contracts", &self.contracts.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl Node {
    /// Boots a node with genesis allocations and mines the (empty)
    /// genesis block.
    pub fn new(allocations: &[(Address, Wei)]) -> Self {
        let mut node = Self {
            chain: Blockchain::new(),
            state: WorldState::with_allocations(allocations),
            contracts: BTreeMap::new(),
            pending: Vec::new(),
            clock: 0,
            deploy_counter: 0,
        };
        node.mine(); // genesis
        node
    }

    /// The chain (read-only).
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// Current world state (read-only).
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Deploys a contract, returning its address. Deployment is a
    /// node-level operation (the paper deploys via migration tooling,
    /// not an on-chain tx).
    pub fn deploy(&mut self, contract: Box<dyn Contract>) -> Address {
        self.deploy_counter += 1;
        let addr = Address::from_name(&format!(
            "contract/{}/{}",
            contract.name(),
            self.deploy_counter
        ));
        self.contracts.insert(addr, contract);
        addr
    }

    /// The nonce the next transaction from `addr` must carry: its
    /// confirmed nonce plus its transactions queued for the next block.
    pub fn next_nonce(&self, addr: Address) -> u64 {
        let queued = self.pending.iter().filter(|p| p.from == addr).count() as u64;
        self.state.nonce_of(addr) + queued
    }

    /// Queues a transaction; validation happens at mining time, but the
    /// obvious failures are rejected immediately.
    ///
    /// # Errors
    ///
    /// [`NodeError`] for stale nonces (relative to queued txs),
    /// unfunded value transfers, or calls to unknown contracts.
    pub fn submit(&mut self, tx: Transaction) -> Result<Hash256, NodeError> {
        if let TxPayload::Call { contract, .. } = &tx.payload {
            if !self.contracts.contains_key(contract) {
                return Err(NodeError::NoSuchContract(*contract));
            }
        }
        let expected = self.next_nonce(tx.from);
        if tx.nonce != expected {
            return Err(NodeError::BadNonce { got: tx.nonce, expected });
        }
        let hash = tx.hash();
        self.pending.push(tx);
        Ok(hash)
    }

    /// Executes all pending transactions and appends a block. Returns
    /// the new block's hash.
    pub fn mine(&mut self) -> Hash256 {
        let (block, leaves) = self.seal_pending();
        let hash = block.hash();
        let gas_used: u64 = block.receipts.iter().map(|r| r.gas_used).sum();
        let reverted =
            block.receipts.iter().filter(|r| r.status != ExecStatus::Success).count();
        obs::event(
            obs::Subsystem::Ledger,
            "block_mined",
            &[
                ("number", block.header.number.into()),
                ("txs", block.txs.len().into()),
                ("gas_used", gas_used.into()),
                ("receipts", block.receipts.len().into()),
                ("reverted", reverted.into()),
            ],
        );
        obs::counter_add("ledger.blocks_mined", 1);
        obs::counter_add("ledger.txs_executed", block.txs.len() as u64);
        obs::counter_add("ledger.gas_used", gas_used);
        // Not a peer-input path: `seal_pending` derived the header from
        // this node's own tip and freshly executed receipts, so every
        // push check holds by construction.
        // lint:allow(no-panic-in-lib): invariant: self-mined header derives from own tip
        self.chain.push_hashed(block, leaves).expect("node-produced blocks always extend the tip");
        self.state.commit();
        hash
    }

    /// The block [`Node::mine`] would append, sealed but not appended:
    /// the pending transactions run against a snapshot that is then
    /// restored, so the chain, the state, the contracts and the clock
    /// end exactly as before the call. Only the pending queue is
    /// consumed, as mining would consume it. This is how a Byzantine
    /// proposer builds the honest block it lies about without forking
    /// itself.
    pub(crate) fn mine_detached(&mut self) -> Block {
        let snapshot = self.snapshot(&self.pending);
        let (block, _) = self.seal_pending();
        self.restore(snapshot);
        block
    }

    /// The execution and sealing step behind [`Node::mine`] and
    /// [`Node::mine_detached`]: executes the pending transactions at the
    /// next clock tick and seals them into a block on the tip, without
    /// appending it. Returns the block and its tx hashes.
    fn seal_pending(&mut self) -> (Block, Vec<Hash256>) {
        self.clock += 1;
        let txs: Vec<Transaction> = std::mem::take(&mut self.pending);
        let leaves = tx_leaves(&txs);
        let receipts = self.execute_all(&txs, &leaves);
        let header = BlockHeader {
            number: self.chain.height() as u64,
            parent: self.chain.tip_hash(),
            timestamp: self.clock,
            tx_root: MerkleTree::build(&leaves).root(),
            receipts_root: Block::compute_receipts_root(&receipts),
            state_root: self.state.root(),
        };
        (Block { header, txs, receipts }, leaves)
    }

    /// Captures everything executing `txs` can change: the world state
    /// (as a journal mark, so snapshots nest), the clock, and the
    /// contracts `txs` call. A call reaches only its own contract and
    /// the world state, so no other contract needs a copy.
    fn snapshot(&self, txs: &[Transaction]) -> Snapshot {
        let called: BTreeSet<Address> = txs
            .iter()
            .filter_map(|tx| match &tx.payload {
                TxPayload::Call { contract, .. } => Some(*contract),
                TxPayload::Transfer { .. } => None,
            })
            .collect();
        Snapshot {
            mark: self.state.mark(),
            contracts: called
                .into_iter()
                .filter_map(|a| self.contracts.get(&a).map(|c| (a, c.snapshot())))
                .collect(),
            clock: self.clock,
        }
    }

    /// Puts back what [`Node::snapshot`] captured.
    fn restore(&mut self, snapshot: Snapshot) {
        self.state.revert_to(snapshot.mark);
        self.contracts.extend(snapshot.contracts);
        self.clock = snapshot.clock;
    }

    /// Receipt lookup across the whole chain.
    pub fn receipt(&self, tx_hash: Hash256) -> Option<&Receipt> {
        self.chain.receipt(tx_hash)
    }

    /// Applies a block produced by *another* node: re-executes its
    /// transactions locally and accepts the block only if the resulting
    /// receipts and state root match the proposer's claims. On any
    /// mismatch the local state is rolled back and the block rejected —
    /// this is the consensus-side validation of the multi-validator
    /// network ([`crate::network`]).
    ///
    /// # Errors
    ///
    /// [`BlockApplyError`] describing the first discrepancy; the node
    /// is left exactly as before the call.
    pub fn apply_block(&mut self, block: &Block) -> Result<(), BlockApplyError> {
        let expected_number = self.chain.height() as u64;
        if block.header.number != expected_number {
            return Err(BlockApplyError::WrongHeight {
                got: block.header.number,
                expected: expected_number,
            });
        }
        if block.header.parent != self.chain.tip_hash() {
            return Err(BlockApplyError::WrongParent);
        }
        let expected_timestamp = self.clock + 1;
        if block.header.timestamp != expected_timestamp {
            return Err(BlockApplyError::BadTimestamp {
                got: block.header.timestamp,
                expected: expected_timestamp,
            });
        }
        let leaves = tx_leaves(&block.txs);
        if block.header.tx_root != MerkleTree::build(&leaves).root() {
            return Err(BlockApplyError::BadTxRoot);
        }
        let snapshot = self.snapshot(&block.txs);
        self.clock = expected_timestamp;
        let receipts = self.execute_all(&block.txs, &leaves);
        let verdict = if receipts != block.receipts {
            Err(BlockApplyError::ReceiptMismatch)
        } else if self.state.root() != block.header.state_root {
            Err(BlockApplyError::StateRootMismatch)
        } else {
            // Peer input stays fallible to the end: height, parent and
            // tx root were pre-checked above and receipts re-executed,
            // so the only discrepancy `Blockchain::push` can still find
            // is a header receipts root that belies the block's own
            // receipts — a malformed proposer must be rejected, never
            // panic a replica.
            self.chain
                .push_hashed(block.clone(), leaves)
                .map_err(|_| BlockApplyError::BadReceiptsRoot)
        };
        match verdict {
            Ok(()) => self.state.commit(),
            Err(_) => self.restore(snapshot),
        }
        verdict
    }

    /// Read-only contract call: executes against a scratch copy of the
    /// state so nothing persists — the `eth_call` analogue.
    pub fn call_view(
        &self,
        contract_addr: Address,
        caller: Address,
        function: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError> {
        let contract = self
            .contracts
            .get(&contract_addr)
            .ok_or_else(|| ContractError::revert("no such contract"))?;
        let mut scratch_contract = contract.snapshot();
        let mut scratch_state = self.state.clone();
        let mut logs = Vec::new();
        let mut gas = GasMeter::new(u64::MAX);
        let mut ctx = CallContext::new(
            caller,
            Wei::ZERO,
            self.chain.height() as u64,
            contract_addr,
            &mut scratch_state,
            &mut logs,
            &mut gas,
        );
        scratch_contract.call(&mut ctx, function, args)
    }

    /// Executes `txs` in order; `leaves` are their hashes.
    fn execute_all(&mut self, txs: &[Transaction], leaves: &[Hash256]) -> Vec<Receipt> {
        txs.iter().zip(leaves).map(|(tx, &tx_hash)| self.execute(tx, tx_hash)).collect()
    }

    fn execute(&mut self, tx: &Transaction, tx_hash: Hash256) -> Receipt {
        let expected_nonce = self.state.nonce_of(tx.from);
        if tx.nonce != expected_nonce {
            return Receipt {
                tx_hash,
                status: ExecStatus::Reverted(format!(
                    "bad nonce {} (expected {expected_nonce})",
                    tx.nonce
                )),
                gas_used: 0,
                logs: vec![],
                return_data: vec![],
            };
        }
        // Nonce burns even on revert (Ethereum semantics): the revert
        // snapshot is taken after the bump.
        self.state.bump_nonce(tx.from);
        let snapshot = self.snapshot(std::slice::from_ref(tx));
        let result = match &tx.payload {
            TxPayload::Transfer { to } => {
                const TRANSFER_GAS: u64 = 21_000;
                if tx.gas_limit < TRANSFER_GAS {
                    Err((ContractError::OutOfGas, 0))
                } else {
                    match self.state.transfer(tx.from, *to, tx.value) {
                        Ok(()) => Ok((vec![], vec![], TRANSFER_GAS)),
                        Err(e) => {
                            Err((ContractError::revert(e.to_string()), TRANSFER_GAS))
                        }
                    }
                }
            }
            TxPayload::Call { contract, function, args } => {
                match self.contracts.get_mut(contract) {
                    None => Err((ContractError::revert("no such contract"), 0)),
                    Some(c) => {
                        // Attached value moves in before the call.
                        let funding = self.state.transfer(tx.from, *contract, tx.value);
                        match funding {
                            Err(e) => Err((ContractError::revert(e.to_string()), 0)),
                            Ok(()) => {
                                let mut logs = Vec::new();
                                let mut gas = GasMeter::new(tx.gas_limit);
                                let block_number = self.chain.height() as u64;
                                let mut ctx = CallContext::new(
                                    tx.from,
                                    tx.value,
                                    block_number,
                                    *contract,
                                    &mut self.state,
                                    &mut logs,
                                    &mut gas,
                                );
                                match c.call(&mut ctx, function, args) {
                                    Ok(ret) => Ok((ret, logs, gas.used())),
                                    Err(e) => Err((e, gas.used())),
                                }
                            }
                        }
                    }
                }
            }
        };
        match result {
            Ok((return_data, logs, gas_used)) => Receipt {
                tx_hash,
                status: ExecStatus::Success,
                gas_used,
                logs,
                return_data,
            },
            Err((e, gas_used)) => {
                self.restore(snapshot);
                Receipt {
                    tx_hash,
                    status: ExecStatus::Reverted(e.to_string()),
                    gas_used,
                    logs: vec![],
                    return_data: vec![],
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy counter contract for framework tests.
    #[derive(Debug, Clone)]
    struct Counter {
        count: u64,
    }

    impl Contract for Counter {
        fn call(
            &mut self,
            ctx: &mut CallContext<'_>,
            function: &str,
            args: &[Value],
        ) -> Result<Vec<Value>, ContractError> {
            ctx.charge_gas(1_000)?;
            match function {
                "increment" => {
                    self.count += 1;
                    ctx.emit("Incremented", vec![("count".into(), Value::U64(self.count))]);
                    Ok(vec![Value::U64(self.count)])
                }
                "get" => Ok(vec![Value::U64(self.count)]),
                "fail" => Err(ContractError::revert("always fails")),
                "burn" => {
                    ctx.charge_gas(u64::MAX)?;
                    Ok(vec![])
                }
                "set" => {
                    let v = args
                        .first()
                        .and_then(Value::as_u64)
                        .ok_or(ContractError::BadArgs("expected u64"))?;
                    self.count = v;
                    Ok(vec![])
                }
                other => Err(ContractError::UnknownFunction(other.into())),
            }
        }

        fn name(&self) -> &str {
            "counter"
        }

        fn snapshot(&self) -> Box<dyn Contract> {
            Box::new(self.clone())
        }
    }

    fn setup() -> (Node, Address, Address) {
        let alice = Address::from_name("alice");
        let mut node = Node::new(&[(alice, Wei(1_000_000))]);
        let counter = node.deploy(Box::new(Counter { count: 0 }));
        (node, alice, counter)
    }

    fn call_tx(from: Address, nonce: u64, contract: Address, function: &str) -> Transaction {
        Transaction {
            from,
            nonce,
            value: Wei::ZERO,
            gas_limit: 100_000,
            payload: TxPayload::Call {
                contract,
                function: function.into(),
                args: vec![],
            },
        }
    }

    #[test]
    fn transfer_moves_funds_and_produces_block() {
        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let mut node = Node::new(&[(alice, Wei(100))]);
        let h = node
            .submit(Transaction {
                from: alice,
                nonce: 0,
                value: Wei(30),
                gas_limit: 21_000,
                payload: TxPayload::Transfer { to: bob },
            })
            .unwrap();
        node.mine();
        assert_eq!(node.state().balance_of(bob), Wei(30));
        assert!(node.receipt(h).unwrap().status.is_success());
        assert_eq!(node.chain().height(), 2); // genesis + 1
        node.chain().verify().unwrap();
    }

    #[test]
    fn contract_call_executes_and_logs() {
        let (mut node, alice, counter) = setup();
        let h = node.submit(call_tx(alice, 0, counter, "increment")).unwrap();
        node.mine();
        let r = node.receipt(h).unwrap();
        assert!(r.status.is_success());
        assert_eq!(r.return_data, vec![Value::U64(1)]);
        assert_eq!(r.logs.len(), 1);
        assert!(r.gas_used >= 1_000);
    }

    #[test]
    fn revert_rolls_back_state_and_contract() {
        let (mut node, alice, counter) = setup();
        node.submit(call_tx(alice, 0, counter, "increment")).unwrap();
        // A failing call carrying value: the value must bounce back.
        let mut failing = call_tx(alice, 1, counter, "fail");
        failing.value = Wei(500);
        node.submit(failing).unwrap();
        node.mine();
        assert_eq!(node.state().balance_of(alice), Wei(1_000_000));
        assert_eq!(node.state().nonce_of(alice), 2, "the reverted call burned one nonce");
        let got = node.call_view(counter, alice, "get", &[]).unwrap();
        assert_eq!(got, vec![Value::U64(1)], "count survives only the successful call");
    }

    #[test]
    fn out_of_gas_reverts() {
        let (mut node, alice, counter) = setup();
        let h = node.submit(call_tx(alice, 0, counter, "burn")).unwrap();
        node.mine();
        let r = node.receipt(h).unwrap();
        assert!(matches!(&r.status, ExecStatus::Reverted(m) if m.contains("gas")));
    }

    #[test]
    fn nonce_rules_prevent_replay() {
        let (mut node, alice, counter) = setup();
        node.submit(call_tx(alice, 0, counter, "increment")).unwrap();
        // Same nonce again: rejected at submission.
        assert!(matches!(
            node.submit(call_tx(alice, 0, counter, "increment")),
            Err(NodeError::BadNonce { got: 0, expected: 1 })
        ));
        // Queued nonce accounting allows consecutive queuing.
        node.submit(call_tx(alice, 1, counter, "increment")).unwrap();
        node.mine();
        let got = node.call_view(counter, alice, "get", &[]).unwrap();
        assert_eq!(got, vec![Value::U64(2)]);
    }

    /// Two transfers from one sender before a mine: the second must
    /// take the nonce after the queued first one, not the confirmed
    /// nonce (which failed with `BadNonce { got: 0, expected: 1 }`).
    #[test]
    fn next_nonce_counts_queued_transactions() {
        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let mut node = Node::new(&[(alice, Wei(100))]);
        let transfer = |nonce, value| Transaction {
            from: alice,
            nonce,
            value: Wei(value),
            gas_limit: 21_000,
            payload: TxPayload::Transfer { to: bob },
        };
        assert_eq!(node.next_nonce(alice), 0);
        node.submit(transfer(node.next_nonce(alice), 1)).unwrap();
        assert_eq!(node.next_nonce(alice), 1, "the queued transfer counts");
        node.submit(transfer(node.next_nonce(alice), 2)).unwrap();
        assert_eq!(node.next_nonce(alice), 2);
        node.mine();
        assert_eq!(node.state().balance_of(bob), Wei(3));
        assert_eq!(node.state().nonce_of(alice), 2, "both settled in one block");
        assert_eq!(node.next_nonce(alice), 2);
    }

    #[test]
    fn view_calls_do_not_mutate() {
        let (node, alice, counter) = setup();
        let before = node.state().root();
        let _ = node.call_view(counter, alice, "increment", &[]).unwrap();
        assert_eq!(node.state().root(), before);
        let got = node.call_view(counter, alice, "get", &[]).unwrap();
        assert_eq!(got, vec![Value::U64(0)]);
    }

    #[test]
    fn unknown_contract_rejected_at_submit() {
        let (mut node, alice, _) = setup();
        let bogus = Address::from_name("bogus");
        assert!(matches!(
            node.submit(call_tx(alice, 0, bogus, "x")),
            Err(NodeError::NoSuchContract(_))
        ));
    }

    #[test]
    fn bad_args_revert() {
        let (mut node, alice, counter) = setup();
        let mut tx = call_tx(alice, 0, counter, "set");
        if let TxPayload::Call { args, .. } = &mut tx.payload {
            args.push(Value::Str("not a number".into()));
        }
        let h = node.submit(tx).unwrap();
        node.mine();
        assert!(matches!(&node.receipt(h).unwrap().status, ExecStatus::Reverted(_)));
    }

    /// Two identical nodes, each with a counter at `a` and one at `b`
    /// (the latter starting at 7).
    fn twin_nodes() -> (Node, Node, Address, Address, Address) {
        let (mut first, alice, a) = setup();
        let (mut second, _, a2) = setup();
        let b = first.deploy(Box::new(Counter { count: 7 }));
        let b2 = second.deploy(Box::new(Counter { count: 7 }));
        assert_eq!((a, b), (a2, b2), "deployment is deterministic");
        (first, second, alice, a, b)
    }

    fn count(node: &Node, counter: Address, caller: Address) -> Vec<Value> {
        node.call_view(counter, caller, "get", &[]).unwrap()
    }

    #[test]
    fn rejected_block_restores_the_called_contract_and_keeps_the_uncalled_one() {
        let (mut proposer, mut replica, alice, a, b) = twin_nodes();
        proposer.submit(call_tx(alice, 0, a, "increment")).unwrap();
        proposer.mine();
        let honest = proposer.chain().blocks().last().unwrap().clone();
        let mut lie = honest.clone();
        lie.header.state_root = Hash256([0xAB; 32]);

        let root = replica.state().root();
        assert_eq!(replica.apply_block(&lie), Err(BlockApplyError::StateRootMismatch));
        assert_eq!(count(&replica, a, alice), vec![Value::U64(0)], "a rolled back");
        assert_eq!(count(&replica, b, alice), vec![Value::U64(7)], "b untouched");
        assert_eq!(replica.state().root(), root);
        assert_eq!(replica.chain().height(), 1);

        // The rollback left a replica the honest block still applies to.
        replica.apply_block(&honest).unwrap();
        assert_eq!(count(&replica, a, alice), vec![Value::U64(1)]);
        assert_eq!(count(&replica, b, alice), vec![Value::U64(7)]);
        assert_eq!(replica.state().root(), proposer.state().root());
    }

    #[test]
    fn mine_detached_seals_what_mine_appends_and_changes_nothing() {
        let (mut detached, mut mined, alice, a, b) = twin_nodes();
        for node in [&mut detached, &mut mined] {
            node.submit(call_tx(alice, 0, a, "increment")).unwrap();
            node.submit(call_tx(alice, 1, b, "increment")).unwrap();
        }
        let tip = detached.chain().tip_hash();
        let root = detached.state().root();
        let block = detached.mine_detached();
        mined.mine();
        assert_eq!(Some(&block), mined.chain().blocks().last(), "the same sealed block");
        assert_eq!(detached.chain().tip_hash(), tip);
        assert_eq!(detached.state().root(), root);
        assert_eq!(count(&detached, a, alice), vec![Value::U64(0)]);
        assert_eq!(count(&detached, b, alice), vec![Value::U64(7)]);
        assert_eq!(detached.next_nonce(alice), 0, "the pending queue was consumed");
        // The clock was restored too: mining now seals the same block.
        detached.submit(call_tx(alice, 0, a, "increment")).unwrap();
        detached.submit(call_tx(alice, 1, b, "increment")).unwrap();
        detached.mine();
        assert_eq!(detached.chain().tip_hash(), mined.chain().tip_hash());
    }

    #[test]
    fn total_supply_is_conserved() {
        let (mut node, alice, counter) = setup();
        let supply = node.state().total_supply();
        let mut tx = call_tx(alice, 0, counter, "increment");
        tx.value = Wei(123);
        node.submit(tx).unwrap();
        node.mine();
        assert_eq!(node.state().total_supply(), supply);
    }
}
