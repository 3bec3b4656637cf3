//! Hash-chained blocks: the immutability and traceability substrate
//! (§III-F — "smart contracts ensure credible incentives by recording
//! the results of the redistribution on blockchain").

use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::Sha256;
use crate::tx::{Log, Receipt, Transaction};
use crate::types::Hash256;
use tradefl_runtime::codec::BytesMut;
use std::fmt;

/// Block header.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHeader {
    /// Height (genesis = 0).
    pub number: u64,
    /// Hash of the parent block ([`Hash256::ZERO`] for genesis).
    pub parent: Hash256,
    /// Logical timestamp (deterministic counter, not wall clock).
    pub timestamp: u64,
    /// Digest of the block's transactions.
    pub tx_root: Hash256,
    /// Digest of the block's receipts (commits execution results).
    pub receipts_root: Hash256,
    /// State root after executing this block.
    pub state_root: Hash256,
}

/// A block: header + ordered transactions + their receipts.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions in execution order.
    pub txs: Vec<Transaction>,
    /// One receipt per transaction.
    pub receipts: Vec<Receipt>,
}

impl Block {
    /// Deterministic digest of the transaction list: the Merkle root
    /// over the transaction hashes, so that per-transaction inclusion
    /// proofs ([`Block::prove_tx`]) anchor directly in the header.
    pub fn compute_tx_root(txs: &[Transaction]) -> Hash256 {
        Self::merkle_tree(txs).root()
    }

    /// The Merkle tree over this transaction list.
    pub fn merkle_tree(txs: &[Transaction]) -> MerkleTree {
        let leaves: Vec<Hash256> = txs.iter().map(Transaction::hash).collect();
        MerkleTree::build(&leaves)
    }

    /// Inclusion proof for the `index`-th transaction, verifiable
    /// against `header.tx_root` with only the header in hand.
    pub fn prove_tx(&self, index: usize) -> Option<MerkleProof> {
        Self::merkle_tree(&self.txs).prove(index)
    }

    /// Deterministic digest of the receipt list (sequential SHA-256
    /// over per-receipt digests).
    pub fn compute_receipts_root(receipts: &[Receipt]) -> Hash256 {
        let mut h = Sha256::new();
        for r in receipts {
            h.update(&r.digest().0);
        }
        Hash256(h.finalize())
    }

    /// The block hash (over the header).
    pub fn hash(&self) -> Hash256 {
        let mut buf = BytesMut::with_capacity(144);
        buf.put_u64(self.header.number);
        buf.put_slice(&self.header.parent.0);
        buf.put_u64(self.header.timestamp);
        buf.put_slice(&self.header.tx_root.0);
        buf.put_slice(&self.header.receipts_root.0);
        buf.put_slice(&self.header.state_root.0);
        let mut h = Sha256::new();
        h.update(&buf);
        Hash256(h.finalize())
    }
}

/// Chain-validation failures (tamper evidence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A block's `parent` field does not match the previous block's
    /// hash.
    BrokenLink {
        /// Height of the offending block.
        number: u64,
    },
    /// A block's `tx_root` does not match its transactions.
    TxRootMismatch {
        /// Height of the offending block.
        number: u64,
    },
    /// A block's `receipts_root` does not match its receipts.
    ReceiptsRootMismatch {
        /// Height of the offending block.
        number: u64,
    },
    /// Heights are not consecutive from zero.
    BadNumbering {
        /// Height of the offending block.
        number: u64,
        /// Expected height at this position.
        expected: u64,
    },
    /// Receipt count differs from transaction count.
    ReceiptMismatch {
        /// Height of the offending block.
        number: u64,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BrokenLink { number } => {
                write!(f, "block {number} does not link to its parent hash")
            }
            ChainError::TxRootMismatch { number } => {
                write!(f, "block {number} transaction root mismatch")
            }
            ChainError::ReceiptsRootMismatch { number } => {
                write!(f, "block {number} receipts root mismatch")
            }
            ChainError::BadNumbering { number, expected } => {
                write!(f, "block numbered {number} where {expected} was expected")
            }
            ChainError::ReceiptMismatch { number } => {
                write!(f, "block {number} receipt count mismatch")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only chain of blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Blockchain {
    blocks: Vec<Block>,
}

impl Blockchain {
    /// An empty chain (the node appends the genesis block itself).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks.
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chain holds no blocks yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Hash of the latest block, or [`Hash256::ZERO`] when empty.
    pub fn tip_hash(&self) -> Hash256 {
        self.blocks.last().map_or(Hash256::ZERO, |b| b.hash())
    }

    /// The blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Block at `height`.
    pub fn block(&self, height: usize) -> Option<&Block> {
        self.blocks.get(height)
    }

    /// The first `len` blocks (the whole chain when `len` exceeds its
    /// height) — a valid chain, since every prefix of a linked chain is
    /// linked.
    pub fn prefix(&self, len: usize) -> Blockchain {
        Blockchain { blocks: self.blocks[..len.min(self.blocks.len())].to_vec() }
    }

    /// Appends a block after validating its linkage and roots.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] (and leaves the chain unchanged) if the
    /// block does not extend the tip correctly.
    pub fn push(&mut self, block: Block) -> Result<(), ChainError> {
        let expected_number = self.blocks.len() as u64;
        if block.header.number != expected_number {
            return Err(ChainError::BadNumbering {
                number: block.header.number,
                expected: expected_number,
            });
        }
        if block.header.parent != self.tip_hash() {
            return Err(ChainError::BrokenLink { number: block.header.number });
        }
        if block.header.tx_root != Block::compute_tx_root(&block.txs) {
            return Err(ChainError::TxRootMismatch { number: block.header.number });
        }
        if block.header.receipts_root != Block::compute_receipts_root(&block.receipts) {
            return Err(ChainError::ReceiptsRootMismatch { number: block.header.number });
        }
        if block.receipts.len() != block.txs.len() {
            return Err(ChainError::ReceiptMismatch { number: block.header.number });
        }
        self.blocks.push(block);
        Ok(())
    }

    /// Re-validates the entire chain; any in-place mutation of a block
    /// is detected here.
    ///
    /// # Errors
    ///
    /// The first [`ChainError`] encountered walking from genesis.
    pub fn verify(&self) -> Result<(), ChainError> {
        let mut parent = Hash256::ZERO;
        for (i, block) in self.blocks.iter().enumerate() {
            if block.header.number != i as u64 {
                return Err(ChainError::BadNumbering {
                    number: block.header.number,
                    expected: i as u64,
                });
            }
            if block.header.parent != parent {
                return Err(ChainError::BrokenLink { number: block.header.number });
            }
            if block.header.tx_root != Block::compute_tx_root(&block.txs) {
                return Err(ChainError::TxRootMismatch { number: block.header.number });
            }
            if block.header.receipts_root
                != Block::compute_receipts_root(&block.receipts)
            {
                return Err(ChainError::ReceiptsRootMismatch { number: block.header.number });
            }
            if block.receipts.len() != block.txs.len() {
                return Err(ChainError::ReceiptMismatch { number: block.header.number });
            }
            parent = block.hash();
        }
        Ok(())
    }

    /// Finds the receipt of a transaction anywhere in the chain.
    pub fn receipt(&self, tx_hash: Hash256) -> Option<&Receipt> {
        self.blocks
            .iter()
            .flat_map(|b| &b.receipts)
            .find(|r| r.tx_hash == tx_hash)
    }

    /// Produces a light-client inclusion proof for a transaction:
    /// `(block height, its header tx_root, the Merkle proof)`. An
    /// arbitrator holding only block headers can verify the disputed
    /// transaction was committed.
    pub fn prove_inclusion(&self, tx_hash: Hash256) -> Option<(u64, Hash256, MerkleProof)> {
        for block in &self.blocks {
            if let Some(idx) = block.txs.iter().position(|t| t.hash() == tx_hash) {
                let proof = block.prove_tx(idx)?;
                return Some((block.header.number, block.header.tx_root, proof));
            }
        }
        None
    }

    /// All logs whose event name matches, in chain order — the
    /// arbitration query of §III-F ("the recorded results can serve as
    /// a basis for arbitration").
    pub fn logs_by_event<'a>(&'a self, event: &'a str) -> impl Iterator<Item = &'a Log> + 'a {
        self.blocks
            .iter()
            .flat_map(|b| &b.receipts)
            .flat_map(|r| &r.logs)
            .filter(move |l| l.event == event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{ExecStatus, TxPayload};
    use crate::types::{Address, Wei};

    fn tx(nonce: u64) -> Transaction {
        Transaction {
            from: Address::from_name("a"),
            nonce,
            value: Wei(1),
            gas_limit: 21_000,
            payload: TxPayload::Transfer { to: Address::from_name("b") },
        }
    }

    fn receipt_for(t: &Transaction) -> Receipt {
        Receipt {
            tx_hash: t.hash(),
            status: ExecStatus::Success,
            gas_used: 21_000,
            logs: vec![],
            return_data: vec![],
        }
    }

    fn block(number: u64, parent: Hash256, txs: Vec<Transaction>) -> Block {
        let receipts: Vec<Receipt> = txs.iter().map(receipt_for).collect();
        let tx_root = Block::compute_tx_root(&txs);
        let receipts_root = Block::compute_receipts_root(&receipts);
        Block {
            header: BlockHeader {
                number,
                parent,
                timestamp: number,
                tx_root,
                receipts_root,
                state_root: Hash256::ZERO,
            },
            txs,
            receipts,
        }
    }

    #[test]
    fn push_and_verify_a_well_formed_chain() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let tip = chain.tip_hash();
        chain.push(block(1, tip, vec![tx(0)])).unwrap();
        let tip = chain.tip_hash();
        chain.push(block(2, tip, vec![tx(1), tx(2)])).unwrap();
        assert_eq!(chain.height(), 3);
        chain.verify().unwrap();
    }

    #[test]
    fn rejects_bad_parent_and_numbering() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let err = chain.push(block(1, Hash256::ZERO, vec![])).unwrap_err();
        assert!(matches!(err, ChainError::BrokenLink { number: 1 }));
        let err = chain.push(block(5, chain.tip_hash(), vec![])).unwrap_err();
        assert!(matches!(err, ChainError::BadNumbering { number: 5, expected: 1 }));
    }

    #[test]
    fn tampering_with_a_mined_tx_is_detected() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let tip = chain.tip_hash();
        chain.push(block(1, tip, vec![tx(0)])).unwrap();
        chain.verify().unwrap();
        // A malicious organization rewrites history: change the recorded
        // transfer amount in place.
        let mut tampered = chain.clone();
        tampered.blocks[1].txs[0].value = Wei(1_000_000);
        assert!(matches!(
            tampered.verify(),
            Err(ChainError::TxRootMismatch { number: 1 })
        ));
        // Rewriting the tx root too breaks the parent link of... nothing
        // here (tip block), so also tamper with an interior block.
        let tip = chain.tip_hash();
        chain.push(block(2, tip, vec![])).unwrap();
        let mut tampered = chain.clone();
        tampered.blocks[1].txs[0].value = Wei(9);
        tampered.blocks[1].header.tx_root = Block::compute_tx_root(&tampered.blocks[1].txs);
        assert!(matches!(
            tampered.verify(),
            Err(ChainError::BrokenLink { number: 2 })
        ));
    }

    #[test]
    fn receipt_lookup_and_event_query() {
        let mut chain = Blockchain::new();
        let t = tx(0);
        let h = t.hash();
        let mut b = block(0, Hash256::ZERO, vec![t]);
        b.receipts[0].logs.push(Log {
            contract: Address::ZERO,
            event: "PayoffTransferred".into(),
            fields: vec![],
        });
        // Receipts changed after assembly: recommit them to the header.
        b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
        chain.push(b).unwrap();
        assert!(chain.receipt(h).is_some());
        assert_eq!(chain.logs_by_event("PayoffTransferred").count(), 1);
        assert_eq!(chain.logs_by_event("Missing").count(), 0);
    }

    #[test]
    fn inclusion_proofs_verify_against_headers_only() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let tip = chain.tip_hash();
        let txs = vec![tx(0), tx(1), tx(2)];
        let wanted = txs[1].hash();
        chain.push(block(1, tip, txs)).unwrap();
        let (height, root, proof) = chain.prove_inclusion(wanted).unwrap();
        assert_eq!(height, 1);
        assert!(proof.verify(wanted, root), "proof must verify against the header root");
        // A different tx hash must not verify with this proof.
        assert!(!proof.verify(tx(7).hash(), root));
        // Unknown hashes yield no proof.
        assert!(chain.prove_inclusion(tx(9).hash()).is_none());
    }

    #[test]
    fn receipt_count_must_match() {
        let mut chain = Blockchain::new();
        let mut b = block(0, Hash256::ZERO, vec![tx(0)]);
        b.receipts.clear();
        b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
        assert!(matches!(chain.push(b), Err(ChainError::ReceiptMismatch { number: 0 })));
        // Without recommitting, the receipts-root check fires first.
        let mut b = block(0, Hash256::ZERO, vec![tx(0)]);
        b.receipts.clear();
        assert!(matches!(
            chain.push(b),
            Err(ChainError::ReceiptsRootMismatch { number: 0 })
        ));
    }
}
