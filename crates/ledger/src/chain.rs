//! Hash-chained blocks: the immutability and traceability substrate
//! (§III-F — "smart contracts ensure credible incentives by recording
//! the results of the redistribution on blockchain").

use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::Sha256;
use crate::tx::{Log, Receipt, Transaction};
use crate::types::Hash256;
use tradefl_runtime::codec::BytesMut;
use std::collections::BTreeMap;
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
    /// The Merkle tree over a transaction list. Its root is the
    /// header's `tx_root`, so per-transaction inclusion proofs
    /// ([`Block::prove_tx`]) anchor directly in the header.
    pub fn merkle_tree(txs: &[Transaction]) -> MerkleTree {
        MerkleTree::build(&tx_leaves(txs))
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
    /// Receipt count differs from transaction count, or receipt k does
    /// not name transaction k.
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
                write!(f, "block {number} receipts do not pair with its transactions")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only chain of blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Blockchain {
    blocks: Vec<Block>,
    /// Receipt index: tx hash → (block height, position in the block)
    /// of the tx's first occurrence. A pure function of `blocks`, kept
    /// current by [`Blockchain::push`] and [`Blockchain::prefix`], so a
    /// receipt or inclusion lookup costs O(log txs) instead of a scan
    /// of the whole history.
    index: BTreeMap<Hash256, (u32, u32)>,
}

/// Checks that `block` sits at height `number` after `parent` and that
/// its header commits its own body: the tx root commits the txs, the
/// receipts root the receipts, and receipt k names tx k. `leaves` are
/// the block's tx hashes in order (the tx-root leaves).
fn check_block(
    block: &Block,
    number: u64,
    parent: Hash256,
    leaves: &[Hash256],
) -> Result<(), ChainError> {
    let got = block.header.number;
    if got != number {
        return Err(ChainError::BadNumbering { number: got, expected: number });
    }
    if block.header.parent != parent {
        return Err(ChainError::BrokenLink { number: got });
    }
    if block.header.tx_root != MerkleTree::build(leaves).root() {
        return Err(ChainError::TxRootMismatch { number: got });
    }
    if block.header.receipts_root != Block::compute_receipts_root(&block.receipts) {
        return Err(ChainError::ReceiptsRootMismatch { number: got });
    }
    // Both roots can hold while receipts are swapped between txs: only
    // this pairing ties each receipt to the tx it claims to be for.
    if block.receipts.len() != leaves.len()
        || block.receipts.iter().zip(leaves).any(|(r, h)| r.tx_hash != *h)
    {
        return Err(ChainError::ReceiptMismatch { number: got });
    }
    Ok(())
}

/// The hashes of `txs` in order: the leaves of a block's tx root.
pub(crate) fn tx_leaves(txs: &[Transaction]) -> Vec<Hash256> {
    txs.iter().map(Transaction::hash).collect()
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
    /// linked. The index keeps exactly the entries below `len`: each
    /// entry is a first occurrence, so no later one is lost with it.
    pub fn prefix(&self, len: usize) -> Blockchain {
        let len = len.min(self.blocks.len());
        Blockchain {
            blocks: self.blocks[..len].to_vec(),
            index: self
                .index
                .iter()
                .filter(|(_, &(b, _))| (b as usize) < len)
                .map(|(&h, &at)| (h, at))
                .collect(),
        }
    }

    /// Appends a block after validating its linkage, its roots and its
    /// receipt-to-tx pairing, and indexes its receipts.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] (and leaves the chain unchanged) if the
    /// block does not extend the tip correctly.
    pub fn push(&mut self, block: Block) -> Result<(), ChainError> {
        let leaves = tx_leaves(&block.txs);
        self.push_hashed(block, leaves)
    }

    /// [`Blockchain::push`] for a caller that already hashed the block's
    /// txs, so the append path hashes each tx once. `leaves` must be
    /// those hashes, in order.
    pub(crate) fn push_hashed(
        &mut self,
        block: Block,
        leaves: Vec<Hash256>,
    ) -> Result<(), ChainError> {
        debug_assert_eq!(leaves.len(), block.txs.len(), "one leaf per tx");
        check_block(&block, self.blocks.len() as u64, self.tip_hash(), &leaves)?;
        // u32 keeps the index compact. Neither cast can truncate: every
        // block and tx is held in memory and encodes to several bytes,
        // so 2^32 of either cannot be resident.
        let height = self.blocks.len() as u32;
        for (pos, h) in leaves.into_iter().enumerate() {
            // First occurrence wins, as a scan from genesis would find.
            self.index.entry(h).or_insert((height, pos as u32));
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
            check_block(block, i as u64, parent, &tx_leaves(&block.txs))?;
            parent = block.hash();
        }
        Ok(())
    }

    /// The receipt of a transaction's first occurrence in the chain.
    pub fn receipt(&self, tx_hash: Hash256) -> Option<&Receipt> {
        let &(b, pos) = self.index.get(&tx_hash)?;
        self.blocks.get(b as usize)?.receipts.get(pos as usize)
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
    use crate::codec::{decode_chain, encode_chain};
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
        let tx_root = Block::merkle_tree(&txs).root();
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
        tampered.blocks[1].header.tx_root = Block::merkle_tree(&tampered.blocks[1].txs).root();
        // The receipt still names the original tx.
        assert!(matches!(
            tampered.verify(),
            Err(ChainError::ReceiptMismatch { number: 1 })
        ));
        // Rewriting the receipt and its root too leaves the block
        // self-consistent, but its hash no longer links block 2.
        tampered.blocks[1].receipts[0].tx_hash = tampered.blocks[1].txs[0].hash();
        tampered.blocks[1].header.receipts_root =
            Block::compute_receipts_root(&tampered.blocks[1].receipts);
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
        let block = &chain.blocks()[1];
        let root = block.header.tx_root;
        let proof = block.prove_tx(1).unwrap();
        assert!(proof.verify(wanted, root), "proof must verify against the header root");
        // A different tx hash must not verify with this proof.
        assert!(!proof.verify(tx(7).hash(), root));
        // An index past the block's txs yields no proof.
        assert!(block.prove_tx(3).is_none());
    }

    #[test]
    fn swapped_receipts_are_rejected_even_with_a_recomputed_root() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        let mut b = block(1, chain.tip_hash(), vec![tx(0), tx(1)]);
        b.receipts.swap(0, 1);
        // Both roots still hold: the receipts root commits the swapped
        // list, the tx root the untouched txs.
        b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
        assert!(matches!(
            chain.clone().push(b.clone()),
            Err(ChainError::ReceiptMismatch { number: 1 })
        ));
        // The same swap made in place on an accepted tip block.
        chain.push(block(1, chain.tip_hash(), vec![tx(0), tx(1)])).unwrap();
        chain.verify().unwrap();
        chain.blocks[1] = b;
        assert!(matches!(chain.verify(), Err(ChainError::ReceiptMismatch { number: 1 })));
    }

    /// The receipt a scan from genesis finds: the reference the index
    /// must agree with.
    fn scan_receipt(blocks: &[Block], h: Hash256) -> Option<&Receipt> {
        blocks.iter().flat_map(|b| &b.receipts).find(|r| r.tx_hash == h)
    }

    #[test]
    fn receipt_index_agrees_with_a_linear_scan_on_every_prefix() {
        let mut chain = Blockchain::new();
        chain.push(block(0, Hash256::ZERO, vec![])).unwrap();
        // tx(1) and tx(0) are each mined twice; the repeats carry a
        // distinguishable receipt so "first occurrence" is observable.
        let bodies = [vec![tx(0), tx(1)], vec![tx(2)], vec![tx(1), tx(3)], vec![tx(0)]];
        for (n, txs) in bodies.into_iter().enumerate() {
            let number = n as u64 + 1;
            let mut b = block(number, chain.tip_hash(), txs);
            if number > 2 {
                for r in &mut b.receipts {
                    r.gas_used = 30_000 + number;
                }
                b.header.receipts_root = Block::compute_receipts_root(&b.receipts);
            }
            chain.push(b).unwrap();
        }
        assert_eq!(chain.receipt(tx(1).hash()).unwrap().gas_used, 21_000);
        assert_eq!(chain.receipt(tx(3).hash()).unwrap().gas_used, 30_003);
        let hashes: Vec<Hash256> = (0..5).map(|n| tx(n).hash()).collect();
        let decoded = decode_chain(&encode_chain(&chain)).unwrap();
        assert_eq!(decoded, chain);
        for source in [&chain, &decoded] {
            for len in 0..=source.height() + 1 {
                let prefix = source.prefix(len);
                for &h in &hashes {
                    assert_eq!(
                        prefix.receipt(h),
                        scan_receipt(&chain.blocks()[..len.min(chain.height())], h),
                        "prefix {len}"
                    );
                }
            }
        }
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
