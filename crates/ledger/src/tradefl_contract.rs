//! The TradeFL settlement smart contract (§III-F, Table I, Fig. 3).
//!
//! The paper deploys a 41-line Solidity contract on an Ethereum private
//! chain whose job is to make the payoff redistribution `r_{i,j}`
//! *undeniable*: organizations escrow a deposit, report their optimal
//! contribution profile `{d_i*, f_i*}`, and the contract computes and
//! executes the redistribution automatically — no party can refuse to
//! pay after the fact, and every step is recorded for arbitration.
//!
//! ABI (Table I):
//!
//! | function               | description                        |
//! |------------------------|------------------------------------|
//! | `register()`           | join the trading session           |
//! | `depositSubmit()`      | issue bonds (escrow), payable      |
//! | `contributionSubmit(d, f_ghz)` | submit contribution profile |
//! | `payoffCalculate()`    | compute `r_{i,j}` / `R_i` on-chain |
//! | `payoffTransfer()`     | execute redistribution + refunds   |
//! | `profileRecord(i)`     | record/emit a contribution profile |
//!
//! All arithmetic is deterministic fixed-point ([`Fixed`], 10⁻⁹
//! resolution). Data volumes enter in **Gbit** units and frequencies in
//! **GHz** so every intermediate product stays far from the `i128`
//! range; `gamma_per_gbit = γ · 10⁹` compensates (see
//! `tradefl-ledger::settlement` for the off-chain conversion).
//! Pairwise terms are accumulated antisymmetrically (`r_{ij}` is added
//! to `i` and subtracted from `j`), so `Σ_i R_i = 0` holds *exactly* in
//! integer arithmetic — budget balance (Def. 5) is a contract invariant,
//! not a floating-point approximation.

use crate::contract::{CallContext, Contract, ContractError};
use crate::tx::Value;
use crate::types::{Address, Fixed, Wei};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Gas schedule (flat per function, linear parts charged separately).
mod gas {
    pub const REGISTER: u64 = 23_000;
    pub const DEPOSIT: u64 = 28_000;
    pub const CONTRIBUTION: u64 = 35_000;
    pub const CALCULATE_BASE: u64 = 30_000;
    pub const CALCULATE_PER_PAIR: u64 = 4_000;
    pub const TRANSFER_BASE: u64 = 25_000;
    pub const TRANSFER_PER_ORG: u64 = 9_000;
    pub const RECORD: u64 = 15_000;
    pub const VIEW: u64 = 2_000;
}

/// Immutable deployment parameters of one trading session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionParams {
    /// Participating organizations, in index order (the order fixes the
    /// meaning of `rho`).
    pub participants: Vec<Address>,
    /// Incentive intensity rescaled to Gbit units: `γ · 10⁹`.
    pub gamma_per_gbit: Fixed,
    /// Unit-uniformizing factor `λ` (also in Gbit/GHz units).
    pub lambda: Fixed,
    /// Symmetric competition matrix `ρ` (fixed-point).
    pub rho: Vec<Vec<Fixed>>,
    /// Each organization's dataset size `s_i` in Gbit.
    pub s_gbits: Vec<Fixed>,
    /// Required escrow per organization.
    pub required_deposit: Wei,
    /// Wei paid per unit of (fixed-point) payoff when settling.
    pub wei_per_payoff_unit: u128,
    /// Optional TEE verification key (footnote 6): when set,
    /// `contributionSubmit` requires a valid attestation MAC over the
    /// report and rejects unattested or tampered contributions.
    pub attestation_key: Option<[u8; 32]>,
}

impl SessionParams {
    /// Validates distinct participants, shapes and symmetry.
    ///
    /// # Errors
    ///
    /// [`ContractError::Revert`] describing the violated invariant.
    pub fn validate(&self) -> Result<(), ContractError> {
        let n = self.participants.len();
        if n == 0 {
            return Err(ContractError::revert("no participants"));
        }
        // A repeated address would own two slots but act through one
        // nonce sequence, so the session could never settle.
        let mut seen = BTreeSet::new();
        if !self.participants.iter().all(|p| seen.insert(*p)) {
            return Err(ContractError::revert("duplicate participant"));
        }
        if self.rho.len() != n || self.s_gbits.len() != n {
            return Err(ContractError::revert("parameter shape mismatch"));
        }
        for (i, row) in self.rho.iter().enumerate() {
            if row.len() != n {
                return Err(ContractError::revert("rho row shape mismatch"));
            }
            for (j, &v) in row.iter().enumerate() {
                if v.0 < 0 {
                    return Err(ContractError::revert("negative competition intensity"));
                }
                if i == j && v != Fixed::ZERO {
                    return Err(ContractError::revert("self competition"));
                }
                if v != self.rho[j][i] {
                    return Err(ContractError::revert("asymmetric competition matrix"));
                }
            }
        }
        if self.gamma_per_gbit.0 < 0 {
            return Err(ContractError::revert("negative gamma"));
        }
        Ok(())
    }
}

/// The session's lifecycle phase (Fig. 3's three steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Step 1a: organizations register.
    Registration,
    /// Step 1b: organizations escrow deposits.
    Deposit,
    /// Step 2: organizations submit `{d_i*, f_i*}`.
    Contribution,
    /// Step 3a: redistribution computed, awaiting transfer.
    Settlement,
    /// Step 3b: transfers executed, session closed.
    Closed,
}

/// One organization's submitted contribution profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// Data fraction `d_i` (fixed-point in `[0, 1]`).
    pub d: Fixed,
    /// Compute frequency `f_i` in GHz (fixed-point).
    pub f_ghz: Fixed,
}

/// The TradeFL settlement contract.
#[derive(Debug, Clone)]
pub struct TradeFlContract {
    /// Shared, not copied, by [`Contract::snapshot`]: the parameters
    /// never change after deployment, and ρ is `n²` entries.
    params: Arc<SessionParams>,
    phase: Phase,
    registered: BTreeMap<Address, bool>,
    deposits: BTreeMap<Address, Wei>,
    contributions: BTreeMap<Address, Contribution>,
    redistribution: BTreeMap<Address, Fixed>,
}

impl TradeFlContract {
    /// Instantiates a session.
    ///
    /// # Errors
    ///
    /// Propagates [`SessionParams::validate`] failures.
    pub fn new(params: SessionParams) -> Result<Self, ContractError> {
        params.validate()?;
        Ok(Self {
            params: Arc::new(params),
            phase: Phase::Registration,
            registered: BTreeMap::new(),
            deposits: BTreeMap::new(),
            contributions: BTreeMap::new(),
            redistribution: BTreeMap::new(),
        })
    }

    /// Current phase (off-chain convenience; on-chain callers use the
    /// `phase` view function).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The deployment parameters.
    pub fn params(&self) -> &SessionParams {
        &self.params
    }

    fn index_of(&self, addr: Address) -> Result<usize, ContractError> {
        self.params
            .participants
            .iter()
            .position(|&p| p == addr)
            .ok_or_else(|| ContractError::revert("caller is not a participant"))
    }

    /// Resource index `x_i = d_i s_i + λ f_i` in Gbit units.
    fn resource_index(&self, i: usize) -> Fixed {
        let addr = self.params.participants[i];
        let c = self.contributions[&addr];
        c.d.mul(self.params.s_gbits[i]) + self.params.lambda.mul(c.f_ghz)
    }

    fn register(&mut self, ctx: &mut CallContext<'_>) -> Result<Vec<Value>, ContractError> {
        ctx.charge_gas(gas::REGISTER)?;
        if self.phase != Phase::Registration {
            return Err(ContractError::revert("registration phase is over"));
        }
        let caller = ctx.caller;
        self.index_of(caller)?;
        if self.registered.insert(caller, true).is_some() {
            return Err(ContractError::revert("already registered"));
        }
        ctx.emit("Registered", vec![("org".into(), Value::Addr(caller))]);
        if self.registered.len() == self.params.participants.len() {
            self.phase = Phase::Deposit;
        }
        Ok(vec![])
    }

    fn deposit_submit(&mut self, ctx: &mut CallContext<'_>) -> Result<Vec<Value>, ContractError> {
        ctx.charge_gas(gas::DEPOSIT)?;
        if self.phase != Phase::Deposit {
            return Err(ContractError::revert("not in deposit phase"));
        }
        let caller = ctx.caller;
        self.index_of(caller)?;
        if self.deposits.contains_key(&caller) {
            return Err(ContractError::revert("deposit already submitted"));
        }
        if ctx.value < self.params.required_deposit {
            return Err(ContractError::revert(format!(
                "deposit {} below required bond {}",
                ctx.value, self.params.required_deposit
            )));
        }
        self.deposits.insert(caller, ctx.value);
        ctx.emit(
            "DepositSubmitted",
            vec![
                ("org".into(), Value::Addr(caller)),
                ("amount".into(), Value::I128(ctx.value.0 as i128)),
            ],
        );
        if self.deposits.len() == self.params.participants.len() {
            self.phase = Phase::Contribution;
        }
        Ok(vec![])
    }

    fn contribution_submit(
        &mut self,
        ctx: &mut CallContext<'_>,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError> {
        ctx.charge_gas(gas::CONTRIBUTION)?;
        if self.phase != Phase::Contribution {
            return Err(ContractError::revert("not in contribution phase"));
        }
        let caller = ctx.caller;
        self.index_of(caller)?;
        let d = args
            .first()
            .and_then(Value::as_fixed)
            .ok_or(ContractError::BadArgs("expected fixed d"))?;
        let f_ghz = args
            .get(1)
            .and_then(Value::as_fixed)
            .ok_or(ContractError::BadArgs("expected fixed f_ghz"))?;
        if d.0 < 0 || d > Fixed::ONE {
            return Err(ContractError::revert("d out of [0, 1]"));
        }
        if f_ghz.0 <= 0 {
            return Err(ContractError::revert("non-positive frequency"));
        }
        if let Some(key) = &self.params.attestation_key {
            let mac_bytes = match args.get(2) {
                Some(Value::Bytes(b)) if b.len() == 32 => b,
                _ => {
                    return Err(ContractError::revert(
                        "attested session: contribution requires a 32-byte attestation",
                    ))
                }
            };
            let mut mac = [0u8; 32];
            mac.copy_from_slice(mac_bytes);
            let attestation = crate::attestation::Attestation { mac };
            if !crate::attestation::verify(key, caller, d, f_ghz, &attestation) {
                return Err(ContractError::revert("attestation verification failed"));
            }
        }
        if self.contributions.insert(caller, Contribution { d, f_ghz }).is_some() {
            return Err(ContractError::revert("contribution already submitted"));
        }
        ctx.emit(
            "ContributionSubmitted",
            vec![
                ("org".into(), Value::Addr(caller)),
                ("d".into(), Value::Fixed(d)),
                ("f_ghz".into(), Value::Fixed(f_ghz)),
            ],
        );
        if self.contributions.len() == self.params.participants.len() {
            self.phase = Phase::Settlement;
        }
        Ok(vec![])
    }

    fn payoff_calculate(&mut self, ctx: &mut CallContext<'_>) -> Result<Vec<Value>, ContractError> {
        let n = self.params.participants.len();
        ctx.charge_gas(gas::CALCULATE_BASE + gas::CALCULATE_PER_PAIR * (n * (n - 1) / 2) as u64)?;
        if self.phase != Phase::Settlement {
            return Err(ContractError::revert("contributions incomplete"));
        }
        if !self.redistribution.is_empty() {
            return Err(ContractError::revert("payoff already calculated"));
        }
        let mut totals = vec![Fixed::ZERO; n];
        for i in 0..n {
            for j in (i + 1)..n {
                // r_{i,j} = γ' ρ_ij (x_i − x_j); accumulated
                // antisymmetrically so Σ_i R_i = 0 exactly.
                let r = self
                    .params
                    .gamma_per_gbit
                    .mul(self.params.rho[i][j])
                    .mul(self.resource_index(i) - self.resource_index(j));
                totals[i] = totals[i] + r;
                totals[j] = totals[j] - r;
            }
        }
        let check: Fixed = totals.iter().copied().sum();
        debug_assert_eq!(check, Fixed::ZERO, "antisymmetric accumulation must cancel");
        for (i, &addr) in self.params.participants.iter().enumerate() {
            self.redistribution.insert(addr, totals[i]);
            ctx.emit(
                "PayoffCalculated",
                vec![
                    ("org".into(), Value::Addr(addr)),
                    ("redistribution".into(), Value::Fixed(totals[i])),
                ],
            );
        }
        Ok(totals.into_iter().map(Value::Fixed).collect())
    }

    fn payoff_transfer(&mut self, ctx: &mut CallContext<'_>) -> Result<Vec<Value>, ContractError> {
        let n = self.params.participants.len();
        ctx.charge_gas(gas::TRANSFER_BASE + gas::TRANSFER_PER_ORG * n as u64)?;
        if self.phase != Phase::Settlement {
            return Err(ContractError::revert("not in settlement phase"));
        }
        if self.redistribution.is_empty() {
            return Err(ContractError::revert("payoff not yet calculated"));
        }
        // Refund_i = deposit_i + R_i · wei_per_unit (floor division keeps
        // Σ delta ≤ 0, so escrow always covers the payouts; the ≤ n wei
        // of rounding dust stays in the contract).
        let unit = self.params.wei_per_payoff_unit as i128;
        let mut refunds: Vec<(Address, Wei)> = Vec::with_capacity(n);
        for &addr in &self.params.participants {
            let deposit = self.deposits[&addr].0 as i128;
            let delta = (self.redistribution[&addr].0 * unit).div_euclid(Fixed::SCALE);
            let refund = deposit.checked_add(delta).ok_or_else(|| {
                ContractError::revert(format!("refund overflow for {addr}"))
            })?;
            if refund < 0 {
                return Err(ContractError::revert(format!(
                    "deposit of {addr} cannot cover its redistribution debt"
                )));
            }
            refunds.push((addr, Wei(refund as u128)));
        }
        for &(addr, amount) in &refunds {
            ctx.pay_out(addr, amount)?;
            ctx.emit(
                "PayoffTransferred",
                vec![
                    ("org".into(), Value::Addr(addr)),
                    ("refund".into(), Value::I128(amount.0 as i128)),
                ],
            );
        }
        self.phase = Phase::Closed;
        Ok(refunds.into_iter().map(|(_, w)| Value::I128(w.0 as i128)).collect())
    }

    fn profile_record(
        &mut self,
        ctx: &mut CallContext<'_>,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError> {
        ctx.charge_gas(gas::RECORD)?;
        let org = args
            .first()
            .and_then(Value::as_addr)
            .ok_or(ContractError::BadArgs("expected org address"))?;
        self.index_of(org)?;
        let c = self
            .contributions
            .get(&org)
            .ok_or_else(|| ContractError::revert("no contribution on record"))?;
        let r = self.redistribution.get(&org).copied().unwrap_or(Fixed::ZERO);
        ctx.emit(
            "ProfileRecorded",
            vec![
                ("org".into(), Value::Addr(org)),
                ("d".into(), Value::Fixed(c.d)),
                ("f_ghz".into(), Value::Fixed(c.f_ghz)),
                ("redistribution".into(), Value::Fixed(r)),
            ],
        );
        Ok(vec![Value::Fixed(c.d), Value::Fixed(c.f_ghz), Value::Fixed(r)])
    }

    fn view_phase(&self, ctx: &mut CallContext<'_>) -> Result<Vec<Value>, ContractError> {
        ctx.charge_gas(gas::VIEW)?;
        let code = match self.phase {
            Phase::Registration => 0,
            Phase::Deposit => 1,
            Phase::Contribution => 2,
            Phase::Settlement => 3,
            Phase::Closed => 4,
        };
        Ok(vec![Value::U64(code)])
    }

    fn view_redistribution(
        &self,
        ctx: &mut CallContext<'_>,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError> {
        ctx.charge_gas(gas::VIEW)?;
        let org = args
            .first()
            .and_then(Value::as_addr)
            .ok_or(ContractError::BadArgs("expected org address"))?;
        let r = self
            .redistribution
            .get(&org)
            .copied()
            .ok_or_else(|| ContractError::revert("no redistribution on record"))?;
        Ok(vec![Value::Fixed(r)])
    }
}

impl Contract for TradeFlContract {
    fn call(
        &mut self,
        ctx: &mut CallContext<'_>,
        function: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ContractError> {
        match function {
            "register" => self.register(ctx),
            "depositSubmit" => self.deposit_submit(ctx),
            "contributionSubmit" => self.contribution_submit(ctx, args),
            "payoffCalculate" => self.payoff_calculate(ctx),
            "payoffTransfer" => self.payoff_transfer(ctx),
            "profileRecord" => self.profile_record(ctx, args),
            "phase" => self.view_phase(ctx),
            "redistributionOf" => self.view_redistribution(ctx, args),
            other => Err(ContractError::UnknownFunction(other.into())),
        }
    }

    fn name(&self) -> &str {
        "tradefl"
    }

    fn snapshot(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::GasMeter;
    use crate::state::WorldState;
    use crate::tx::Log;

    fn params(n: usize) -> SessionParams {
        let participants: Vec<Address> =
            (0..n).map(|i| Address::from_name(&format!("org-{i}"))).collect();
        let rho = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { Fixed::ZERO } else { Fixed::from_f64(0.1) })
                    .collect()
            })
            .collect();
        SessionParams {
            participants,
            gamma_per_gbit: Fixed::from_f64(5.12),
            lambda: Fixed::from_f64(3.0),
            rho,
            s_gbits: (0..n).map(|i| Fixed::from_f64(20.0 + i as f64)).collect(),
            required_deposit: Wei(1_000_000),
            wei_per_payoff_unit: 1_000,
            attestation_key: None,
        }
    }

    /// Drives a raw call against a standalone contract + state.
    fn call(
        c: &mut TradeFlContract,
        state: &mut WorldState,
        caller: Address,
        value: Wei,
        function: &str,
        args: &[Value],
    ) -> Result<(Vec<Value>, Vec<Log>), ContractError> {
        let this = Address::from_name("tradefl-contract");
        if value > Wei::ZERO {
            state.transfer(caller, this, value).map_err(|e| ContractError::revert(e.to_string()))?;
        }
        let mut logs = Vec::new();
        let mut gas = GasMeter::new(10_000_000);
        let mut ctx = CallContext::new(caller, value, 1, this, state, &mut logs, &mut gas);
        let ret = c.call(&mut ctx, function, args)?;
        Ok((ret, logs))
    }

    fn funded_state(n: usize) -> WorldState {
        let allocs: Vec<(Address, Wei)> = (0..n)
            .map(|i| (Address::from_name(&format!("org-{i}")), Wei(10_000_000)))
            .collect();
        WorldState::with_allocations(&allocs)
    }

    fn run_to_settlement(
        c: &mut TradeFlContract,
        state: &mut WorldState,
        n: usize,
        ds: &[f64],
    ) {
        for i in 0..n {
            let a = Address::from_name(&format!("org-{i}"));
            call(c, state, a, Wei::ZERO, "register", &[]).unwrap();
        }
        for i in 0..n {
            let a = Address::from_name(&format!("org-{i}"));
            call(c, state, a, Wei(1_000_000), "depositSubmit", &[]).unwrap();
        }
        for i in 0..n {
            let a = Address::from_name(&format!("org-{i}"));
            call(
                c,
                state,
                a,
                Wei::ZERO,
                "contributionSubmit",
                &[
                    Value::Fixed(Fixed::from_f64(ds[i])),
                    Value::Fixed(Fixed::from_f64(3.0)),
                ],
            )
            .unwrap();
        }
        assert_eq!(c.phase(), Phase::Settlement);
    }

    #[test]
    fn full_lifecycle_reaches_closed_and_conserves_wei() {
        let n = 3;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        let supply = state.total_supply();
        run_to_settlement(&mut c, &mut state, n, &[0.9, 0.5, 0.1]);
        call(&mut c, &mut state, Address::from_name("org-0"), Wei::ZERO, "payoffCalculate", &[])
            .unwrap();
        call(&mut c, &mut state, Address::from_name("org-0"), Wei::ZERO, "payoffTransfer", &[])
            .unwrap();
        assert_eq!(c.phase(), Phase::Closed);
        assert_eq!(state.total_supply(), supply, "settlement only moves wei around");
        // The largest contributor must end up wealthier than the smallest.
        let b0 = state.balance_of(Address::from_name("org-0"));
        let b2 = state.balance_of(Address::from_name("org-2"));
        assert!(b0 > b2, "org-0 contributed most: {b0:?} vs {b2:?}");
    }

    #[test]
    fn redistribution_is_exactly_budget_balanced() {
        let n = 4;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        run_to_settlement(&mut c, &mut state, n, &[0.8, 0.6, 0.3, 0.05]);
        let (ret, _) =
            call(&mut c, &mut state, Address::from_name("org-1"), Wei::ZERO, "payoffCalculate", &[])
                .unwrap();
        let total: i128 = ret
            .iter()
            .map(|v| v.as_fixed().unwrap().0)
            .sum();
        assert_eq!(total, 0, "Σ R_i must cancel exactly in integer arithmetic");
    }

    #[test]
    fn phase_machine_rejects_out_of_order_calls() {
        let n = 2;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        let a0 = Address::from_name("org-0");
        // Deposit before registration closes.
        assert!(call(&mut c, &mut state, a0, Wei(1_000_000), "depositSubmit", &[]).is_err());
        // Contribution before deposits.
        call(&mut c, &mut state, a0, Wei::ZERO, "register", &[]).unwrap();
        assert!(call(
            &mut c,
            &mut state,
            a0,
            Wei::ZERO,
            "contributionSubmit",
            &[Value::Fixed(Fixed::from_f64(0.5)), Value::Fixed(Fixed::ONE)]
        )
        .is_err());
        // Calculate before contributions.
        assert!(call(&mut c, &mut state, a0, Wei::ZERO, "payoffCalculate", &[]).is_err());
        // Transfer before calculate.
        assert!(call(&mut c, &mut state, a0, Wei::ZERO, "payoffTransfer", &[]).is_err());
    }

    #[test]
    fn double_submission_and_outsiders_are_rejected() {
        let n = 2;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        let a0 = Address::from_name("org-0");
        let a1 = Address::from_name("org-1");
        let outsider = Address::from_name("mallory");
        state.credit(outsider, Wei(10_000_000));
        assert!(call(&mut c, &mut state, outsider, Wei::ZERO, "register", &[]).is_err());
        call(&mut c, &mut state, a0, Wei::ZERO, "register", &[]).unwrap();
        assert!(call(&mut c, &mut state, a0, Wei::ZERO, "register", &[]).is_err());
        call(&mut c, &mut state, a1, Wei::ZERO, "register", &[]).unwrap();
        call(&mut c, &mut state, a0, Wei(1_000_000), "depositSubmit", &[]).unwrap();
        assert!(
            call(&mut c, &mut state, a0, Wei(1_000_000), "depositSubmit", &[]).is_err(),
            "double deposit"
        );
        // Underfunded deposit.
        assert!(call(&mut c, &mut state, a1, Wei(10), "depositSubmit", &[]).is_err());
    }

    #[test]
    fn invalid_contributions_are_rejected() {
        let n = 2;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        for i in 0..n {
            let a = Address::from_name(&format!("org-{i}"));
            call(&mut c, &mut state, a, Wei::ZERO, "register", &[]).unwrap();
        }
        for i in 0..n {
            let a = Address::from_name(&format!("org-{i}"));
            call(&mut c, &mut state, a, Wei(1_000_000), "depositSubmit", &[]).unwrap();
        }
        let a0 = Address::from_name("org-0");
        // d > 1
        assert!(call(
            &mut c,
            &mut state,
            a0,
            Wei::ZERO,
            "contributionSubmit",
            &[Value::Fixed(Fixed::from_f64(1.5)), Value::Fixed(Fixed::ONE)]
        )
        .is_err());
        // f <= 0
        assert!(call(
            &mut c,
            &mut state,
            a0,
            Wei::ZERO,
            "contributionSubmit",
            &[Value::Fixed(Fixed::from_f64(0.5)), Value::Fixed(Fixed::ZERO)]
        )
        .is_err());
        // wrong arg types
        assert!(call(&mut c, &mut state, a0, Wei::ZERO, "contributionSubmit", &[Value::U64(1)])
            .is_err());
    }

    #[test]
    fn profile_record_emits_arbitration_evidence() {
        let n = 2;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        run_to_settlement(&mut c, &mut state, n, &[0.7, 0.2]);
        let a0 = Address::from_name("org-0");
        call(&mut c, &mut state, a0, Wei::ZERO, "payoffCalculate", &[]).unwrap();
        let (ret, logs) =
            call(&mut c, &mut state, a0, Wei::ZERO, "profileRecord", &[Value::Addr(a0)]).unwrap();
        assert_eq!(ret.len(), 3);
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].event, "ProfileRecorded");
        assert_eq!(logs[0].field("d"), Some(&Value::Fixed(Fixed::from_f64(0.7))));
    }

    #[test]
    fn top_contributor_receives_positive_redistribution() {
        let n = 3;
        let mut c = TradeFlContract::new(params(n)).unwrap();
        let mut state = funded_state(n);
        run_to_settlement(&mut c, &mut state, n, &[1.0, 0.5, 0.01]);
        let a0 = Address::from_name("org-0");
        call(&mut c, &mut state, a0, Wei::ZERO, "payoffCalculate", &[]).unwrap();
        let (r0, _) =
            call(&mut c, &mut state, a0, Wei::ZERO, "redistributionOf", &[Value::Addr(a0)])
                .unwrap();
        let a2 = Address::from_name("org-2");
        let (r2, _) =
            call(&mut c, &mut state, a2, Wei::ZERO, "redistributionOf", &[Value::Addr(a2)])
                .unwrap();
        assert!(r0[0].as_fixed().unwrap().0 > 0);
        assert!(r2[0].as_fixed().unwrap().0 < 0);
    }

    #[test]
    fn params_validation_catches_bad_matrices() {
        let mut p = params(2);
        p.rho[0][1] = Fixed::from_f64(0.3); // breaks symmetry
        assert!(TradeFlContract::new(p).is_err());
        let mut p = params(2);
        p.rho[1][1] = Fixed::from_f64(0.2); // self competition
        assert!(TradeFlContract::new(p).is_err());
        let mut p = params(2);
        p.s_gbits.pop();
        assert!(TradeFlContract::new(p).is_err());
        let mut p = params(3);
        p.participants[1] = p.participants[0];
        assert!(matches!(
            TradeFlContract::new(p),
            Err(ContractError::Revert(m)) if m.contains("duplicate participant")
        ));
    }
}
