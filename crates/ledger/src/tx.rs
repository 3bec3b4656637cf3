//! Transactions, call arguments, receipts and event logs.

use crate::sha256::Sha256;
use crate::types::{Address, Fixed, Hash256, Wei};
use tradefl_runtime::codec::BytesMut;

/// A dynamically typed ABI value (the private chain's stand-in for
/// Ethereum ABI encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Signed 128-bit integer.
    I128(i128),
    /// Fixed-point number (settlement amounts, fractions).
    Fixed(Fixed),
    /// Account address.
    Addr(Address),
    /// Raw bytes (profile records, free-form payloads).
    Bytes(Vec<u8>),
    /// UTF-8 string (labels).
    Str(String),
}

impl Value {
    /// Extracts a [`Fixed`], if that is the variant.
    pub fn as_fixed(&self) -> Option<Fixed> {
        match self {
            Value::Fixed(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an [`Address`], if that is the variant.
    pub fn as_addr(&self) -> Option<Address> {
        match self {
            Value::Addr(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        match self {
            Value::U64(v) => {
                buf.put_u8(0);
                buf.put_u64(*v);
            }
            Value::I128(v) => {
                buf.put_u8(1);
                buf.put_i128(*v);
            }
            Value::Fixed(v) => {
                buf.put_u8(2);
                buf.put_i128(v.0);
            }
            Value::Addr(a) => {
                buf.put_u8(3);
                buf.put_slice(&a.0);
            }
            Value::Bytes(b) => {
                buf.put_u8(4);
                buf.put_u64(b.len() as u64);
                buf.put_slice(b);
            }
            Value::Str(s) => {
                buf.put_u8(5);
                buf.put_u64(s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// What a transaction does.
#[derive(Debug, Clone, PartialEq)]
pub enum TxPayload {
    /// Plain value transfer (the attached `value` moves from sender to
    /// `to`).
    Transfer {
        /// Recipient.
        to: Address,
    },
    /// Contract function call; the attached `value` is deposited into
    /// the contract account before execution.
    Call {
        /// Target contract address.
        contract: Address,
        /// ABI function name (e.g. `"depositSubmit"`).
        function: String,
        /// Encoded arguments.
        args: Vec<Value>,
    },
}

/// A signed-in-spirit transaction (the private chain trusts the `from`
/// field; signature verification is out of scope, as in the paper's
/// prototype).
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Sender address.
    pub from: Address,
    /// Sender's account nonce (replay protection).
    pub nonce: u64,
    /// Wei attached to the payload.
    pub value: Wei,
    /// Gas limit for execution.
    pub gas_limit: u64,
    /// The action.
    pub payload: TxPayload,
}

impl Transaction {
    /// Deterministic transaction hash over all fields.
    pub fn hash(&self) -> Hash256 {
        let mut buf = BytesMut::with_capacity(128);
        buf.put_slice(&self.from.0);
        buf.put_u64(self.nonce);
        buf.put_u128(self.value.0);
        buf.put_u64(self.gas_limit);
        match &self.payload {
            TxPayload::Transfer { to } => {
                buf.put_u8(0);
                buf.put_slice(&to.0);
            }
            TxPayload::Call { contract, function, args } => {
                buf.put_u8(1);
                buf.put_slice(&contract.0);
                buf.put_u64(function.len() as u64);
                buf.put_slice(function.as_bytes());
                buf.put_u64(args.len() as u64);
                for a in args {
                    a.encode(&mut buf);
                }
            }
        }
        let mut h = Sha256::new();
        h.update(&buf);
        Hash256(h.finalize())
    }
}

/// An event emitted by a contract during execution, persisted in the
/// block for traceability — the arbitration evidence of §III-F.
#[derive(Debug, Clone, PartialEq)]
pub struct Log {
    /// Emitting contract.
    pub contract: Address,
    /// Event name (e.g. `"PayoffTransferred"`).
    pub event: String,
    /// Structured fields.
    pub fields: Vec<(String, Value)>,
}

impl Log {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// Result of executing one transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecStatus {
    /// Execution succeeded and state changes were committed.
    Success,
    /// Execution reverted; state changes were rolled back. Carries the
    /// revert reason.
    Reverted(String),
}

impl ExecStatus {
    /// Whether the transaction succeeded.
    // lint:allow(unreferenced-pub-fn): the receipt predicate fourteen test asserts read
    pub fn is_success(&self) -> bool {
        matches!(self, ExecStatus::Success)
    }
}

/// Transaction receipt.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// Hash of the transaction this receipt belongs to.
    pub tx_hash: Hash256,
    /// Success or revert.
    pub status: ExecStatus,
    /// Gas consumed.
    pub gas_used: u64,
    /// Events emitted (empty if reverted).
    pub logs: Vec<Log>,
    /// Values returned by a contract call.
    pub return_data: Vec<Value>,
}

impl Receipt {
    /// Deterministic digest over all receipt content (commits execution
    /// results — status, gas, logs, return data — into the block
    /// header's `receipts_root`).
    pub fn digest(&self) -> Hash256 {
        let mut buf = BytesMut::with_capacity(128);
        buf.put_slice(&self.tx_hash.0);
        match &self.status {
            ExecStatus::Success => buf.put_u8(0),
            ExecStatus::Reverted(reason) => {
                buf.put_u8(1);
                buf.put_u64(reason.len() as u64);
                buf.put_slice(reason.as_bytes());
            }
        }
        buf.put_u64(self.gas_used);
        buf.put_u64(self.logs.len() as u64);
        for log in &self.logs {
            buf.put_slice(&log.contract.0);
            buf.put_u64(log.event.len() as u64);
            buf.put_slice(log.event.as_bytes());
            buf.put_u64(log.fields.len() as u64);
            for (k, v) in &log.fields {
                buf.put_u64(k.len() as u64);
                buf.put_slice(k.as_bytes());
                v.encode(&mut buf);
            }
        }
        buf.put_u64(self.return_data.len() as u64);
        for v in &self.return_data {
            v.encode(&mut buf);
        }
        let mut h = Sha256::new();
        h.update(&buf);
        Hash256(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> Transaction {
        Transaction {
            from: Address::from_name("alice"),
            nonce: 1,
            value: Wei(100),
            gas_limit: 50_000,
            payload: TxPayload::Call {
                contract: Address::from_name("contract"),
                function: "depositSubmit".into(),
                args: vec![Value::U64(7), Value::Fixed(Fixed::from_f64(0.5))],
            },
        }
    }

    #[test]
    fn hash_is_deterministic_and_field_sensitive() {
        let a = sample_tx();
        let b = sample_tx();
        assert_eq!(a.hash(), b.hash());
        let mut c = sample_tx();
        c.nonce = 2;
        assert_ne!(a.hash(), c.hash());
        let mut d = sample_tx();
        if let TxPayload::Call { args, .. } = &mut d.payload {
            args[0] = Value::U64(8);
        }
        assert_ne!(a.hash(), d.hash());
    }

    #[test]
    fn transfer_and_call_hash_differently() {
        let call = sample_tx();
        let transfer = Transaction {
            payload: TxPayload::Transfer { to: Address::from_name("bob") },
            ..sample_tx()
        };
        assert_ne!(call.hash(), transfer.hash());
    }

    #[test]
    fn value_accessors() {
        let a = Address::from_name("a");
        assert_eq!(Value::Addr(a).as_addr(), Some(a));
        assert_eq!(Value::Fixed(Fixed::ONE).as_fixed(), Some(Fixed::ONE));
    }

    #[test]
    fn log_field_lookup() {
        let log = Log {
            contract: Address::ZERO,
            event: "E".into(),
            fields: vec![("k".into(), Value::U64(1))],
        };
        assert_eq!(log.field("k"), Some(&Value::U64(1)));
        assert_eq!(log.field("missing"), None);
    }

    #[test]
    fn exec_status_success_flag() {
        assert!(ExecStatus::Success.is_success());
        assert!(!ExecStatus::Reverted("x".into()).is_success());
    }
}
