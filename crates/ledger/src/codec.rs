//! Deterministic binary codec for chain data.
//!
//! Lets a node export its chain as bytes (backup, cold storage, the
//! engine checkpoint) and re-import it with
//! full validation: the decoder is strict (no trailing bytes, length
//! caps) and the importer replays every block through
//! [`crate::node::Node::apply_block`], so a corrupted or forged export
//! cannot produce a diverging replica.
//!
//! Format (v2): LEB128 varints for counts, lengths, and ordinary
//! integer fields (nonces, gas, timestamps — values that are small in
//! practice shrink to one or two bytes on the wire); fixed-width
//! little-endian for 128-bit money/fixed-point values; raw 20/32-byte
//! arrays for addresses and hashes; one version byte up front. No
//! self-description — both ends run this code.

use crate::chain::{Block, BlockHeader, Blockchain};
use crate::tx::{ExecStatus, Log, Receipt, Transaction, TxPayload, Value};
use crate::types::{Address, Fixed, Hash256, Wei};
use tradefl_runtime::codec::{Buf, BytesMut, DecodeError};
use std::fmt;

/// Format version written at the head of every export. Version 2
/// switched counts, lengths, and ordinary integer fields from fixed
/// `u64_le` to LEB128 varints; version-1 exports are rejected rather
/// than silently misparsed.
pub const CODEC_VERSION: u8 = 2;

/// Hard cap on any length prefix (sanity bound against corrupt input).
const MAX_LEN: usize = 1 << 24;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The version byte is unknown.
    BadVersion(u8),
    /// Input ended before a field was complete.
    Truncated,
    /// A length prefix exceeded the sanity cap.
    LengthOverflow(usize),
    /// An enum tag byte was invalid.
    BadTag(u8),
    /// Bytes remained after the last expected field.
    TrailingBytes(usize),
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadVersion(v) => write!(f, "unknown codec version {v}"),
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds cap"),
            CodecError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => CodecError::Truncated,
            DecodeError::LengthOverflow(n) => {
                CodecError::LengthOverflow(usize::try_from(n).unwrap_or(usize::MAX))
            }
        }
    }
}

type Result<T> = std::result::Result<T, CodecError>;

/// Serializes a whole chain.
pub fn encode_chain(chain: &Blockchain) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_u8(CODEC_VERSION);
    buf.put_uvarint(chain.height() as u64);
    for block in chain.blocks() {
        encode_block(&mut buf, block);
    }
    buf.to_vec()
}

/// Deserializes a chain and verifies its internal linkage.
///
/// # Errors
///
/// [`CodecError`] on malformed input; chain-level validation failures
/// surface as [`CodecError::Truncated`]-class decode errors or through
/// the returned chain's own `verify()`.
pub fn decode_chain(mut input: &[u8]) -> Result<Blockchain> {
    let buf = &mut input;
    let version = get_u8(buf)?;
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let count = bounded_count(get_varint(buf)? as usize, buf.remaining(), BLOCK_MIN_BYTES)?;
    let mut chain = Blockchain::new();
    for _ in 0..count {
        let block = decode_block(buf)?;
        // Structural push-validation; a forged export fails here.
        chain
            .push(block)
            .map_err(|_| CodecError::BadTag(0xfe))?;
    }
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.len()));
    }
    Ok(chain)
}

// ---- per-type wire entry points ---------------------------------------
//
// Strict (`decode_all`-style) encode/decode pairs for every wire type,
// so peer-message handling and fuzz tests can exercise each decoder in
// isolation. Decoders accept arbitrary untrusted bytes and must return
// `Err` — never panic — on malformed input.

macro_rules! wire_entry_points {
    ($($(#[$meta:meta])* $enc:ident / $dec:ident => $ty:ty : $enc_inner:ident, $dec_inner:ident;)*) => {$(
        $(#[$meta])*
        #[doc = concat!("Encodes one [`", stringify!($ty), "`] as a standalone wire frame.")]
        pub fn $enc(v: &$ty) -> Vec<u8> {
            let mut buf = BytesMut::new();
            $enc_inner(&mut buf, v);
            buf.into_vec()
        }

        #[doc = concat!("Decodes one [`", stringify!($ty), "`] from a standalone wire")]
        #[doc = "frame, rejecting trailing bytes."]
        #[doc = ""]
        #[doc = "# Errors"]
        #[doc = ""]
        #[doc = "[`CodecError`] on truncated, malformed, or oversized input —"]
        #[doc = "untrusted peer bytes surface as `Err`, never a panic."]
        pub fn $dec(mut input: &[u8]) -> Result<$ty> {
            let buf = &mut input;
            let v = $dec_inner(buf)?;
            if !buf.is_empty() {
                return Err(CodecError::TrailingBytes(buf.len()));
            }
            Ok(v)
        }
    )*};
}

wire_entry_points! {
    encode_tx_bytes / decode_tx_bytes => Transaction : encode_tx, decode_tx;
    encode_receipt_bytes / decode_receipt_bytes => Receipt : encode_receipt, decode_receipt;
    encode_header_bytes / decode_header_bytes => BlockHeader : encode_header, decode_header;
    encode_block_bytes / decode_block_bytes => Block : encode_block, decode_block;
    encode_value_bytes / decode_value_bytes => Value : encode_value, decode_value;
}

fn encode_block(buf: &mut BytesMut, block: &Block) {
    encode_header(buf, &block.header);
    buf.put_uvarint(block.txs.len() as u64);
    for tx in &block.txs {
        encode_tx(buf, tx);
    }
    buf.put_uvarint(block.receipts.len() as u64);
    for r in &block.receipts {
        encode_receipt(buf, r);
    }
}

fn decode_block(buf: &mut &[u8]) -> Result<Block> {
    let header = decode_header(buf)?;
    let n_txs = bounded_count(get_varint(buf)? as usize, buf.remaining(), TX_MIN_BYTES)?;
    let mut txs = Vec::with_capacity(n_txs.min(1024));
    for _ in 0..n_txs {
        txs.push(decode_tx(buf)?);
    }
    let n_receipts =
        bounded_count(get_varint(buf)? as usize, buf.remaining(), RECEIPT_MIN_BYTES)?;
    let mut receipts = Vec::with_capacity(n_receipts.min(1024));
    for _ in 0..n_receipts {
        receipts.push(decode_receipt(buf)?);
    }
    Ok(Block { header, txs, receipts })
}

fn encode_header(buf: &mut BytesMut, h: &BlockHeader) {
    buf.put_uvarint(h.number);
    buf.put_slice(&h.parent.0);
    buf.put_uvarint(h.timestamp);
    buf.put_slice(&h.tx_root.0);
    buf.put_slice(&h.receipts_root.0);
    buf.put_slice(&h.state_root.0);
}

fn decode_header(buf: &mut &[u8]) -> Result<BlockHeader> {
    Ok(BlockHeader {
        number: get_varint(buf)?,
        parent: get_hash(buf)?,
        timestamp: get_varint(buf)?,
        tx_root: get_hash(buf)?,
        receipts_root: get_hash(buf)?,
        state_root: get_hash(buf)?,
    })
}

fn encode_tx(buf: &mut BytesMut, tx: &Transaction) {
    buf.put_slice(&tx.from.0);
    buf.put_uvarint(tx.nonce);
    buf.put_u128_le(tx.value.0);
    buf.put_uvarint(tx.gas_limit);
    match &tx.payload {
        TxPayload::Transfer { to } => {
            buf.put_u8(0);
            buf.put_slice(&to.0);
        }
        TxPayload::Call { contract, function, args } => {
            buf.put_u8(1);
            buf.put_slice(&contract.0);
            put_str(buf, function);
            buf.put_uvarint(args.len() as u64);
            for a in args {
                encode_value(buf, a);
            }
        }
    }
}

fn decode_tx(buf: &mut &[u8]) -> Result<Transaction> {
    let from = get_addr(buf)?;
    let nonce = get_varint(buf)?;
    let value = Wei(get_u128(buf)?);
    let gas_limit = get_varint(buf)?;
    let payload = match get_u8(buf)? {
        0 => TxPayload::Transfer { to: get_addr(buf)? },
        1 => {
            let contract = get_addr(buf)?;
            let function = get_str(buf)?;
            let n = bounded_count(get_varint(buf)? as usize, buf.remaining(), VALUE_MIN_BYTES)?;
            let mut args = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                args.push(decode_value(buf)?);
            }
            TxPayload::Call { contract, function, args }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(Transaction { from, nonce, value, gas_limit, payload })
}

fn encode_receipt(buf: &mut BytesMut, r: &Receipt) {
    buf.put_slice(&r.tx_hash.0);
    match &r.status {
        ExecStatus::Success => buf.put_u8(0),
        ExecStatus::Reverted(reason) => {
            buf.put_u8(1);
            put_str(buf, reason);
        }
    }
    buf.put_uvarint(r.gas_used);
    buf.put_uvarint(r.logs.len() as u64);
    for log in &r.logs {
        buf.put_slice(&log.contract.0);
        put_str(buf, &log.event);
        buf.put_uvarint(log.fields.len() as u64);
        for (k, v) in &log.fields {
            put_str(buf, k);
            encode_value(buf, v);
        }
    }
    buf.put_uvarint(r.return_data.len() as u64);
    for v in &r.return_data {
        encode_value(buf, v);
    }
}

fn decode_receipt(buf: &mut &[u8]) -> Result<Receipt> {
    let tx_hash = get_hash(buf)?;
    let status = match get_u8(buf)? {
        0 => ExecStatus::Success,
        1 => ExecStatus::Reverted(get_str(buf)?),
        t => return Err(CodecError::BadTag(t)),
    };
    let gas_used = get_varint(buf)?;
    let n_logs = bounded_count(get_varint(buf)? as usize, buf.remaining(), LOG_MIN_BYTES)?;
    let mut logs = Vec::with_capacity(n_logs.min(64));
    for _ in 0..n_logs {
        let contract = get_addr(buf)?;
        let event = get_str(buf)?;
        let n_fields =
            bounded_count(get_varint(buf)? as usize, buf.remaining(), FIELD_MIN_BYTES)?;
        let mut fields = Vec::with_capacity(n_fields.min(64));
        for _ in 0..n_fields {
            let k = get_str(buf)?;
            let v = decode_value(buf)?;
            fields.push((k, v));
        }
        logs.push(Log { contract, event, fields });
    }
    let n_ret = bounded_count(get_varint(buf)? as usize, buf.remaining(), VALUE_MIN_BYTES)?;
    let mut return_data = Vec::with_capacity(n_ret.min(64));
    for _ in 0..n_ret {
        return_data.push(decode_value(buf)?);
    }
    Ok(Receipt { tx_hash, status, gas_used, logs, return_data })
}

fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::U64(x) => {
            buf.put_u8(0);
            buf.put_uvarint(*x);
        }
        Value::I128(x) => {
            buf.put_u8(1);
            buf.put_i128_le(*x);
        }
        Value::Fixed(x) => {
            buf.put_u8(2);
            buf.put_i128_le(x.0);
        }
        Value::Addr(a) => {
            buf.put_u8(3);
            buf.put_slice(&a.0);
        }
        Value::Bytes(b) => {
            buf.put_u8(4);
            buf.put_varint_slice(b);
        }
        Value::Str(s) => {
            buf.put_u8(5);
            put_str(buf, s);
        }
    }
}

fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    Ok(match get_u8(buf)? {
        0 => Value::U64(get_varint(buf)?),
        1 => Value::I128(get_i128(buf)?),
        2 => Value::Fixed(Fixed(get_i128(buf)?)),
        3 => Value::Addr(get_addr(buf)?),
        4 => {
            // Zero-copy: the length-checked slice is borrowed straight
            // from the input and copied once into the owned value.
            Value::Bytes(buf.try_get_varint_slice(MAX_LEN as u64)?.to_vec())
        }
        5 => Value::Str(get_str(buf)?),
        t => return Err(CodecError::BadTag(t)),
    })
}

// ---- primitive helpers -------------------------------------------------

fn bounded_len(n: usize) -> Result<usize> {
    if n > MAX_LEN {
        Err(CodecError::LengthOverflow(n))
    } else {
        Ok(n)
    }
}

/// Sanity-checks a declared element count against the bytes actually
/// remaining: every element of the collection occupies at least
/// `min_elem` encoded bytes, so a count claiming more elements than
/// `remaining / min_elem` is provably a lie — rejected *before* any
/// allocation or element decode, not discovered element-by-element.
/// Public because every wire-facing decoder (the engine checkpoint
/// codec included) must route declared counts through it —
/// `tradefl-lint`'s `unbounded-wire-alloc` rule recognizes it as the
/// sanitizer.
pub fn bounded_count(n: usize, remaining: usize, min_elem: usize) -> Result<usize> {
    let n = bounded_len(n)?;
    if min_elem > 0 && n > remaining / min_elem {
        return Err(CodecError::LengthOverflow(n));
    }
    Ok(n)
}

// Conservative lower bounds on encoded element sizes (safe against
// under-claiming: each is at most the smallest legal encoding — a
// varint field counts as one byte).
/// from(20) + nonce varint(1) + value(16) + gas varint(1) + tag(1).
const TX_MIN_BYTES: usize = 39;
/// tx_hash(32) + status tag(1) + gas_used(1) + 3 count varints(3).
const RECEIPT_MIN_BYTES: usize = 37;
/// header(4 hashes = 128, number + timestamp varints = 2) + two count
/// varints(2).
const BLOCK_MIN_BYTES: usize = 132;
/// contract(20) + event length varint(1) + fields count varint(1).
const LOG_MIN_BYTES: usize = 22;
/// key length varint(1) + value tag(1).
const FIELD_MIN_BYTES: usize = 2;
/// A `Value` is at least its tag byte.
const VALUE_MIN_BYTES: usize = 1;

// All primitive reads go through the runtime's `Buf`, whose only reads
// are the fallible `try_*` family: a short frame is always an error.
fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    Ok(buf.try_get_u8()?)
}

/// Reads one LEB128 varint — the v2 wire form of every count, length,
/// and ordinary integer field. Truncation and overflow map to errors
/// via the runtime codec.
fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    Ok(buf.try_get_uvarint()?)
}

fn get_u128(buf: &mut &[u8]) -> Result<u128> {
    Ok(buf.try_get_u128_le()?)
}

fn get_i128(buf: &mut &[u8]) -> Result<i128> {
    Ok(buf.try_get_i128_le()?)
}

fn get_bytes(buf: &mut &[u8], n: usize) -> Result<Vec<u8>> {
    Ok(buf.try_take_slice(n)?.to_vec())
}

fn get_addr(buf: &mut &[u8]) -> Result<Address> {
    let b = get_bytes(buf, 20)?;
    let mut a = [0u8; 20];
    a.copy_from_slice(&b);
    Ok(Address(a))
}

fn get_hash(buf: &mut &[u8]) -> Result<Hash256> {
    let b = get_bytes(buf, 32)?;
    let mut h = [0u8; 32];
    h.copy_from_slice(&b);
    Ok(Hash256(h))
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_varint_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    // Zero-copy length-checked borrow; UTF-8 is validated on the slice
    // before the single copy into the owned `String`.
    let raw = buf.try_get_varint_slice(MAX_LEN as u64)?;
    std::str::from_utf8(raw).map(str::to_owned).map_err(|_| CodecError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::tx::TxPayload;

    fn busy_chain() -> Blockchain {
        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let mut node = Node::new(&[(alice, Wei(10_000))]);
        for k in 0..3u64 {
            node.submit(Transaction {
                from: alice,
                nonce: k,
                value: Wei(10 + k as u128),
                gas_limit: 21_000,
                payload: TxPayload::Transfer { to: bob },
            })
            .unwrap();
            node.mine();
        }
        node.chain().clone()
    }

    #[test]
    fn chain_roundtrips_exactly() {
        let chain = busy_chain();
        let bytes = encode_chain(&chain);
        let decoded = decode_chain(&bytes).unwrap();
        assert_eq!(decoded, chain);
        decoded.verify().unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let chain = busy_chain();
        let bytes = encode_chain(&chain);
        // Any strict prefix must fail to decode (no silent partial reads).
        for cut in [1usize, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_chain(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let chain = busy_chain();
        let mut bytes = encode_chain(&chain);
        bytes.push(0);
        assert!(matches!(decode_chain(&bytes), Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn bad_version_is_rejected() {
        let chain = busy_chain();
        let mut bytes = encode_chain(&chain);
        bytes[0] = 99;
        assert!(matches!(decode_chain(&bytes), Err(CodecError::BadVersion(99))));
    }

    #[test]
    fn bit_flips_in_payload_break_validation() {
        let chain = busy_chain();
        let bytes = encode_chain(&chain);
        // Flip one byte somewhere in the middle (a tx value byte): the
        // decode either fails structurally or the chain's linkage check
        // catches the altered content.
        let mut corrupted = bytes.clone();
        let mid = bytes.len() / 2;
        corrupted[mid] ^= 0x01;
        match decode_chain(&corrupted) {
            Err(_) => {}
            Ok(decoded) => {
                assert!(
                    decoded.verify().is_err() || decoded != chain,
                    "corruption must not produce the identical chain"
                );
            }
        }
    }

    #[test]
    fn values_of_every_variant_roundtrip() {
        let values = vec![
            Value::U64(7),
            Value::I128(-42),
            Value::Fixed(Fixed::from_f64(1.25)),
            Value::Addr(Address::from_name("x")),
            Value::Bytes(vec![1, 2, 3]),
            Value::Str("hello".into()),
        ];
        let mut buf = BytesMut::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let bytes = buf.to_vec();
        let mut slice = bytes.as_slice();
        for v in &values {
            assert_eq!(&decode_value(&mut slice).unwrap(), v);
        }
        assert!(slice.is_empty());
    }

    #[test]
    fn empty_chain_roundtrips() {
        let chain = Blockchain::new();
        let decoded = decode_chain(&encode_chain(&chain)).unwrap();
        assert_eq!(decoded, chain);
    }
}
