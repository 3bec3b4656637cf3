//! The smart-contract execution framework: the [`Contract`] trait, call
//! context, gas metering and errors.

use crate::state::WorldState;
use crate::tx::{Log, Value};
use crate::types::{Address, Wei};
use std::fmt;

/// Errors a contract call can raise; any error reverts the transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// Explicit revert with a reason string (like Solidity `require`).
    Revert(String),
    /// The gas limit was exhausted.
    OutOfGas,
    /// The function name is not part of the contract ABI.
    UnknownFunction(String),
    /// Arguments did not match the function signature.
    BadArgs(&'static str),
}

impl ContractError {
    /// Shorthand for a revert.
    pub fn revert(reason: impl Into<String>) -> Self {
        ContractError::Revert(reason.into())
    }
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::Revert(r) => write!(f, "reverted: {r}"),
            ContractError::OutOfGas => write!(f, "out of gas"),
            ContractError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            ContractError::BadArgs(what) => write!(f, "bad arguments: {what}"),
        }
    }
}

impl std::error::Error for ContractError {}

/// Gas meter for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GasMeter {
    limit: u64,
    used: u64,
}

impl GasMeter {
    /// Fresh meter with the transaction's gas limit.
    pub fn new(limit: u64) -> Self {
        Self { limit, used: 0 }
    }

    /// Charges `amount` gas.
    ///
    /// # Errors
    ///
    /// [`ContractError::OutOfGas`] once the limit is exceeded.
    pub fn charge(&mut self, amount: u64) -> Result<(), ContractError> {
        self.used = self.used.saturating_add(amount);
        if self.used > self.limit {
            Err(ContractError::OutOfGas)
        } else {
            Ok(())
        }
    }

    /// Gas consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The limit this meter enforces.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

/// Everything a contract sees during one call.
#[derive(Debug)]
pub struct CallContext<'a> {
    /// Transaction sender.
    pub caller: Address,
    /// Wei attached to this call (already credited to the contract
    /// account by the node).
    pub value: Wei,
    /// Height of the block being built.
    pub block_number: u64,
    /// The contract's own address.
    pub this: Address,
    state: &'a mut WorldState,
    logs: &'a mut Vec<Log>,
    gas: &'a mut GasMeter,
}

impl<'a> CallContext<'a> {
    /// Assembles a context (used by the node; tests may build one
    /// directly).
    pub fn new(
        caller: Address,
        value: Wei,
        block_number: u64,
        this: Address,
        state: &'a mut WorldState,
        logs: &'a mut Vec<Log>,
        gas: &'a mut GasMeter,
    ) -> Self {
        Self { caller, value, block_number, this, state, logs, gas }
    }

    /// Charges gas.
    ///
    /// # Errors
    ///
    /// [`ContractError::OutOfGas`] when the limit is exceeded.
    pub fn charge_gas(&mut self, amount: u64) -> Result<(), ContractError> {
        self.gas.charge(amount)
    }

    /// Sends `amount` from the contract's balance to `to`.
    ///
    /// # Errors
    ///
    /// Reverts if the contract balance cannot cover the transfer.
    pub fn pay_out(&mut self, to: Address, amount: Wei) -> Result<(), ContractError> {
        self.state
            .transfer(self.this, to, amount)
            .map_err(|e| ContractError::revert(e.to_string()))
    }

    /// Emits an event into the transaction's log (recorded on-chain).
    pub fn emit(&mut self, event: impl Into<String>, fields: Vec<(String, Value)>) {
        self.logs.push(Log { contract: self.this, event: event.into(), fields });
    }
}

/// A deployable contract. Implementations must also provide
/// [`Contract::snapshot`] so the node can roll back reverted calls.
pub trait Contract: fmt::Debug + Send {
    /// Dispatches an ABI call.
    ///
    /// # Errors
    ///
    /// Any [`ContractError`] reverts the transaction: the node restores
    /// the world state, the contract state and discards the logs.
    fn call(
        &mut self,
        ctx: &mut CallContext<'_>,
        function: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError>;

    /// Contract display name (diagnostics).
    fn name(&self) -> &str;

    /// Deep copy for revert rollback.
    fn snapshot(&self) -> Box<dyn Contract>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gas_meter_enforces_limit() {
        let mut m = GasMeter::new(100);
        m.charge(60).unwrap();
        m.charge(40).unwrap();
        assert_eq!(m.used(), 100);
        assert_eq!(m.charge(1), Err(ContractError::OutOfGas));
        assert_eq!(m.limit(), 100);
    }

    #[test]
    fn context_pay_out_moves_contract_funds() {
        let this = Address::from_name("contract");
        let bob = Address::from_name("bob");
        let mut state = WorldState::with_allocations(&[(this, Wei(50))]);
        let mut logs = Vec::new();
        let mut gas = GasMeter::new(1000);
        let mut ctx = CallContext::new(bob, Wei::ZERO, 1, this, &mut state, &mut logs, &mut gas);
        ctx.pay_out(bob, Wei(20)).unwrap();
        assert!(ctx.pay_out(bob, Wei(40)).is_err());
        assert_eq!(state.balance_of(bob), Wei(20));
        assert_eq!(state.balance_of(this), Wei(30));
    }

    #[test]
    fn emit_accumulates_logs() {
        let this = Address::from_name("c");
        let mut state = WorldState::new();
        let mut logs = Vec::new();
        let mut gas = GasMeter::new(1000);
        let mut ctx =
            CallContext::new(Address::ZERO, Wei::ZERO, 0, this, &mut state, &mut logs, &mut gas);
        ctx.emit("E", vec![("x".into(), Value::U64(1))]);
        drop(ctx);
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].contract, this);
    }

    #[test]
    fn error_messages() {
        assert!(ContractError::revert("nope").to_string().contains("nope"));
        assert!(ContractError::UnknownFunction("f".into()).to_string().contains("`f`"));
    }
}
