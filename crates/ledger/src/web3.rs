//! A Web3-style client over the in-process node — the "data interaction
//! among organizations and the smart contract" layer of the prototype
//! (§VI: "Web3 API is utilized for data interaction … when calling
//! contract functions").
//!
//! Multiple organization handles share one node through
//! `Arc<Mutex<Node>>`; every handle can submit transactions, mine and
//! query receipts/logs.

use crate::contract::ContractError;
use crate::node::{Node, NodeError};
use crate::settlement::CALL_GAS;
use crate::tx::{Log, Receipt, Transaction, TxPayload, Value};
use crate::types::{Address, Hash256, Wei};
use tradefl_runtime::sync::Mutex;
use std::sync::Arc;

/// Shared connection to the private chain.
#[derive(Debug, Clone)]
pub struct Web3 {
    node: Arc<Mutex<Node>>,
}

impl Web3 {
    /// Wraps a node for shared access.
    pub fn new(node: Node) -> Self {
        Self { node: Arc::new(Mutex::new(node)) }
    }

    /// Clones the shared handle (same chain).
    pub fn handle(&self) -> Web3 {
        self.clone()
    }

    /// Runs a closure with exclusive node access (escape hatch for
    /// tests and tooling).
    pub fn with_node<R>(&self, f: impl FnOnce(&mut Node) -> R) -> R {
        f(&mut self.node.lock())
    }

    /// Current account balance.
    pub fn balance(&self, addr: Address) -> Wei {
        self.node.lock().state().balance_of(addr)
    }

    /// The nonce the next transaction from `addr` must carry: its
    /// confirmed nonce plus its transactions still queued for mining.
    pub fn nonce(&self, addr: Address) -> u64 {
        self.node.lock().next_nonce(addr)
    }

    /// Submits `payload` from `from` at its next nonce (counting its
    /// queued transactions).
    fn send_next(
        &self,
        from: Address,
        value: Wei,
        gas_limit: u64,
        payload: TxPayload,
    ) -> Result<Hash256, NodeError> {
        let mut node = self.node.lock();
        let nonce = node.next_nonce(from);
        node.submit(Transaction { from, nonce, value, gas_limit, payload })
    }

    /// Submits a contract call transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`NodeError`] submission failures.
    pub fn send_call(
        &self,
        from: Address,
        contract: Address,
        function: &str,
        args: Vec<Value>,
        value: Wei,
    ) -> Result<Hash256, NodeError> {
        let payload = TxPayload::Call { contract, function: function.into(), args };
        self.send_next(from, value, CALL_GAS, payload)
    }

    /// Submits a plain transfer.
    ///
    /// # Errors
    ///
    /// Propagates [`NodeError`] submission failures.
    pub fn send_transfer(
        &self,
        from: Address,
        to: Address,
        value: Wei,
    ) -> Result<Hash256, NodeError> {
        self.send_next(from, value, 21_000, TxPayload::Transfer { to })
    }

    /// Mines a block with everything pending; returns its hash.
    pub fn mine(&self) -> Hash256 {
        self.node.lock().mine()
    }

    /// Submits a call and immediately mines it, returning the receipt.
    ///
    /// # Errors
    ///
    /// [`NodeError`] if submission fails; the receipt itself may still
    /// be a revert — check [`Receipt::status`].
    pub fn call_and_mine(
        &self,
        from: Address,
        contract: Address,
        function: &str,
        args: Vec<Value>,
        value: Wei,
    ) -> Result<Receipt, NodeError> {
        let hash = self.send_call(from, contract, function, args, value)?;
        Ok(self.mine_receipt(hash))
    }

    /// Submits a fully formed transaction and immediately mines it,
    /// returning the receipt.
    ///
    /// # Errors
    ///
    /// [`NodeError`] if submission fails; the receipt itself may still
    /// be a revert — check [`Receipt::status`].
    pub fn send_and_mine(&self, tx: Transaction) -> Result<Receipt, NodeError> {
        let hash = self.node.lock().submit(tx)?;
        Ok(self.mine_receipt(hash))
    }

    /// Mines a block and returns the receipt of `hash`, which the
    /// caller has just submitted.
    fn mine_receipt(&self, hash: Hash256) -> Receipt {
        self.mine();
        self.receipt(hash)
            // lint:allow(no-panic-in-lib): the caller submitted this tx just before the mine
            .expect("just-mined transaction must have a receipt")
    }

    /// Receipt lookup.
    pub fn receipt(&self, tx_hash: Hash256) -> Option<Receipt> {
        self.node.lock().receipt(tx_hash).cloned()
    }

    /// Read-only contract call (`eth_call`).
    ///
    /// # Errors
    ///
    /// Propagates the contract's [`ContractError`].
    pub fn call_view(
        &self,
        contract: Address,
        caller: Address,
        function: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError> {
        self.node.lock().call_view(contract, caller, function, args)
    }

    /// All logs with the given event name, in chain order (arbitration
    /// queries).
    pub fn logs_by_event(&self, event: &str) -> Vec<Log> {
        self.node
            .lock()
            .chain()
            .logs_by_event(event)
            .cloned()
            .collect()
    }

    /// Chain height.
    pub fn height(&self) -> usize {
        self.node.lock().chain().height()
    }

    /// Verifies chain integrity end to end.
    ///
    /// # Errors
    ///
    /// The first [`crate::chain::ChainError`] found.
    pub fn verify_chain(&self) -> Result<(), crate::chain::ChainError> {
        self.node.lock().chain().verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handles_see_the_same_chain() {
        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let node = Node::new(&[(alice, Wei(100))]);
        let w1 = Web3::new(node);
        let w2 = w1.handle();
        w1.send_transfer(alice, bob, Wei(40)).unwrap();
        w2.mine();
        assert_eq!(w1.balance(bob), Wei(40));
        assert_eq!(w2.balance(bob), Wei(40));
        assert_eq!(w1.height(), w2.height());
        w1.verify_chain().unwrap();
    }

    #[test]
    fn nonce_tracks_confirmed_transactions() {
        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let w = Web3::new(Node::new(&[(alice, Wei(100))]));
        assert_eq!(w.nonce(alice), 0);
        w.send_transfer(alice, bob, Wei(1)).unwrap();
        w.mine();
        assert_eq!(w.nonce(alice), 1);
    }

    /// Two transfers from one sender before a mine: the second must
    /// take the nonce after the queued first one, not the confirmed
    /// nonce (which failed with `BadNonce { got: 0, expected: 1 }`).
    #[test]
    fn second_unmined_transaction_takes_the_next_nonce() {
        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let w = Web3::new(Node::new(&[(alice, Wei(100))]));
        w.send_transfer(alice, bob, Wei(1)).unwrap();
        assert_eq!(w.nonce(alice), 1, "the queued transfer counts");
        w.send_transfer(alice, bob, Wei(2)).unwrap();
        w.mine();
        assert_eq!(w.balance(bob), Wei(3));
        assert_eq!(w.nonce(alice), 2);
    }
}
