//! World state: account balances and nonces with a deterministic root.

use crate::sha256::Sha256;
use crate::types::{Address, Hash256, Wei};
use tradefl_runtime::codec::BytesMut;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// An externally owned or contract account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Account {
    /// Current balance.
    pub balance: Wei,
    /// Transactions sent so far (replay protection).
    pub nonce: u64,
}

/// Errors from balance manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Debit exceeding the account balance.
    InsufficientBalance {
        /// Account being debited.
        account: Address,
        /// Balance available.
        available: Wei,
        /// Amount requested.
        requested: Wei,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance { account, available, requested } => write!(
                f,
                "account {account} holds {available} but {requested} was requested"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// The full account state. A `BTreeMap` keeps iteration (and therefore
/// the state root) deterministic.
///
/// Every write goes through an undo journal, so the node can mark a
/// point, revert to it later, and commit once nothing can be undone
/// any more. Marks nest: the journal is a stack, and reverting to an outer
/// mark undoes everything the inner ones recorded. Reverting costs what
/// was written since the mark, not the size of the state.
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
    /// Each account's value before a write, `None` if the write
    /// created it; oldest first.
    journal: Vec<(Address, Option<Account>)>,
}

/// Two states are equal when they hold the same accounts; what their
/// journals could still undo does not matter.
impl PartialEq for WorldState {
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts
    }
}

/// A point in the [`WorldState`] journal to revert to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalMark(usize);

impl WorldState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// State pre-funded with the given allocations (genesis).
    pub fn with_allocations(allocs: &[(Address, Wei)]) -> Self {
        let mut s = Self::new();
        for &(addr, amount) in allocs {
            s.accounts.entry(addr).or_default().balance = amount;
        }
        s
    }

    /// Balance of `addr` (zero for unknown accounts).
    pub fn balance_of(&self, addr: Address) -> Wei {
        self.accounts.get(&addr).map_or(Wei::ZERO, |a| a.balance)
    }

    /// Nonce of `addr` (zero for unknown accounts).
    pub fn nonce_of(&self, addr: Address) -> u64 {
        self.accounts.get(&addr).map_or(0, |a| a.nonce)
    }

    /// The account at `addr` for writing, created if needed, with its
    /// prior value recorded in the journal.
    fn touch(&mut self, addr: Address) -> &mut Account {
        match self.accounts.entry(addr) {
            Entry::Occupied(slot) => {
                self.journal.push((addr, Some(*slot.get())));
                slot.into_mut()
            }
            Entry::Vacant(slot) => {
                self.journal.push((addr, None));
                slot.insert(Account::default())
            }
        }
    }

    /// The current end of the journal.
    pub(crate) fn mark(&self) -> JournalMark {
        JournalMark(self.journal.len())
    }

    /// Undoes every write since `mark`, newest first. Marks taken after
    /// `mark` are void afterwards.
    pub(crate) fn revert_to(&mut self, mark: JournalMark) {
        for (addr, prior) in self.journal.drain(mark.0..).rev() {
            match prior {
                Some(acct) => self.accounts.insert(addr, acct),
                None => self.accounts.remove(&addr),
            };
        }
    }

    /// Forgets the journal: the writes so far can no longer be undone,
    /// and every mark is void.
    pub(crate) fn commit(&mut self) {
        self.journal.clear();
    }

    /// Credits `amount` to `addr`, creating the account if needed.
    pub fn credit(&mut self, addr: Address, amount: Wei) {
        let acct = self.touch(addr);
        // lint:allow(no-panic-in-lib): total supply is conserved by debit-before-credit, so overflow is a broken-ledger invariant; abort beats silent wrap
        acct.balance = acct.balance.checked_add(amount).expect("balance overflow on credit");
    }

    /// Debits `amount` from `addr`.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if the account cannot cover
    /// the amount; the state is unchanged in that case.
    pub fn debit(&mut self, addr: Address, amount: Wei) -> Result<(), StateError> {
        let available = self.balance_of(addr);
        let rest = available.checked_sub(amount).ok_or(StateError::InsufficientBalance {
            account: addr,
            available,
            requested: amount,
        })?;
        self.touch(addr).balance = rest;
        Ok(())
    }

    /// Moves `amount` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if `from` cannot cover it.
    pub fn transfer(&mut self, from: Address, to: Address, amount: Wei) -> Result<(), StateError> {
        self.debit(from, amount)?;
        self.credit(to, amount);
        Ok(())
    }

    /// Increments `addr`'s nonce. Saturating: a u64 nonce cannot
    /// legitimately reach the cap (10¹⁹ transactions from one account),
    /// and saturation keeps the replay guard sound — the nonce check
    /// rejects reuse rather than wrapping back to accept old txs.
    pub fn bump_nonce(&mut self, addr: Address) {
        let acct = self.touch(addr);
        acct.nonce = acct.nonce.saturating_add(1);
    }

    /// Number of accounts ever touched.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether no account exists.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Total wei across all accounts (conservation checks).
    // lint:allow(unreferenced-pub-fn): test oracle: wei is conserved, which the settlement tests assert
    pub fn total_supply(&self) -> Wei {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Deterministic digest of the entire state (the block header's
    /// `state_root`).
    pub fn root(&self) -> Hash256 {
        let mut buf = BytesMut::with_capacity(self.accounts.len() * 56);
        for (addr, acct) in &self.accounts {
            buf.put_slice(&addr.0);
            buf.put_u128(acct.balance.0);
            buf.put_u64(acct.nonce);
        }
        let mut h = Sha256::new();
        h.update(&buf);
        Hash256(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tradefl_runtime::check::CaseResult;
    use tradefl_runtime::{prop_assert_eq, props};

    fn addr(n: &str) -> Address {
        Address::from_name(n)
    }

    #[test]
    fn credit_debit_and_transfer() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(100));
        s.transfer(addr("a"), addr("b"), Wei(40)).unwrap();
        assert_eq!(s.balance_of(addr("a")), Wei(60));
        assert_eq!(s.balance_of(addr("b")), Wei(40));
        assert_eq!(s.total_supply(), Wei(100));
    }

    #[test]
    fn debit_fails_without_funds_and_preserves_state() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(10));
        let before = s.clone();
        let err = s.debit(addr("a"), Wei(11)).unwrap_err();
        assert!(matches!(err, StateError::InsufficientBalance { .. }));
        assert_eq!(s, before);
    }

    #[test]
    fn failed_debit_of_an_absent_account_does_not_create_it() {
        let mut s = WorldState::with_allocations(&[(addr("a"), Wei(10))]);
        let (len, root) = (s.len(), s.root());
        let err = s.debit(addr("ghost"), Wei(1)).unwrap_err();
        assert!(matches!(err, StateError::InsufficientBalance { available: Wei::ZERO, .. }));
        assert_eq!(s.len(), len);
        assert_eq!(s.root(), root);
    }

    /// Everything a revert must restore: the accounts (what `==`
    /// compares), their count, the root and the supply.
    fn same_as(s: &WorldState, want: &WorldState) -> CaseResult {
        prop_assert_eq!(s, want);
        prop_assert_eq!(s.len(), want.len());
        prop_assert_eq!(s.root(), want.root());
        prop_assert_eq!(s.total_supply(), want.total_supply());
        Ok(())
    }

    props! {
        /// Journal reverts give what the clone-and-restore they replace
        /// gave. Each block marks, then interleaves writes with nested
        /// marks (a tx's inside its block's, deeper ones inside that)
        /// and reverts to any of them; it ends rejected (reverted to
        /// its mark) or committed. Every revert is checked against a
        /// clone taken when its mark was made.
        fn journal_reverts_match_clone_and_restore(g) {
            let pool: Vec<Address> = (0..5).map(|i| addr(&format!("acct-{i}"))).collect();
            let mut s = WorldState::with_allocations(&[(pool[0], Wei(1_000)), (pool[1], Wei(50))]);
            for _ in 0..g.usize(1..6) {
                let mut marks = vec![(s.mark(), s.clone())];
                for _ in 0..g.usize(0..40) {
                    let a = pool[g.usize(0..pool.len())];
                    let b = pool[g.usize(0..pool.len())];
                    let amount = Wei(u128::from(g.u64(0..300)));
                    match g.usize(0..6) {
                        0 => s.credit(a, amount),
                        1 => drop(s.debit(a, amount)),
                        2 => drop(s.transfer(a, b, amount)),
                        3 => s.bump_nonce(a),
                        4 => marks.push((s.mark(), s.clone())),
                        _ if marks.len() > 1 => {
                            // Marks made after the chosen one die with it.
                            marks.truncate(g.usize(1..marks.len()) + 1);
                            let (mark, want) = marks.pop().expect("truncated to at least 2");
                            s.revert_to(mark);
                            same_as(&s, &want)?;
                        }
                        _ => {}
                    }
                }
                let (mark, want) = marks.swap_remove(0);
                if g.bool(0.5) {
                    s.revert_to(mark);
                    same_as(&s, &want)?;
                } else {
                    s.commit();
                    prop_assert_eq!(s.mark(), JournalMark(0));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "balance overflow on credit")]
    fn credit_overflow_aborts_instead_of_wrapping() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(u128::MAX));
        s.credit(addr("a"), Wei(1));
    }

    #[test]
    fn nonce_saturates_at_the_cap_keeping_replay_protection() {
        let mut s = WorldState::new();
        s.credit(addr("a"), Wei(1));
        // Force the account to the cap, then bump: the nonce must stay
        // pinned (rejecting stale txs) rather than wrap to zero (which
        // would re-accept the account's entire history).
        s.accounts.get_mut(&addr("a")).unwrap().nonce = u64::MAX;
        s.bump_nonce(addr("a"));
        assert_eq!(s.nonce_of(addr("a")), u64::MAX);
    }

    #[test]
    fn root_changes_with_any_mutation() {
        let mut s = WorldState::with_allocations(&[(addr("a"), Wei(5))]);
        let r0 = s.root();
        s.credit(addr("a"), Wei(1));
        let r1 = s.root();
        assert_ne!(r0, r1);
        s.bump_nonce(addr("a"));
        assert_ne!(r1, s.root());
    }

    #[test]
    fn root_is_order_independent() {
        let mut s1 = WorldState::new();
        s1.credit(addr("a"), Wei(1));
        s1.credit(addr("b"), Wei(2));
        let mut s2 = WorldState::new();
        s2.credit(addr("b"), Wei(2));
        s2.credit(addr("a"), Wei(1));
        assert_eq!(s1.root(), s2.root());
    }

    #[test]
    fn genesis_allocations() {
        let s = WorldState::with_allocations(&[(addr("x"), Wei(7)), (addr("y"), Wei(9))]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.balance_of(addr("x")), Wei(7));
        assert_eq!(s.nonce_of(addr("x")), 0);
    }
}
