//! Property-based tests for the ledger substrate: on-chain/off-chain
//! settlement agreement, exact budget balance in fixed point, hashing
//! robustness, and tamper detection.
//!
//! Runs on the in-tree `tradefl_runtime::check` harness with pinned
//! seeds; failures print a `TRADEFL_PROP_SEED` replay line.

use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::{Strategy, StrategyProfile};
use tradefl_ledger::settlement::SettlementSession;
use tradefl_ledger::sha256;
use tradefl_ledger::types::Fixed;
use tradefl_runtime::check::Gen;
use tradefl_runtime::{prop_assert, prop_assert_eq, props};

fn any_game(g: &mut Gen) -> CoopetitionGame<SqrtAccuracy> {
    let seed = g.u64(0..200);
    let n = g.usize(2..6);
    let mu = g.f64(0.01..0.2);
    let market = MarketConfig::table_ii()
        .with_orgs(n)
        .with_rho_mean(mu)
        .build(seed)
        .unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

fn profile_for(game: &CoopetitionGame<SqrtAccuracy>, ts: &[f64]) -> StrategyProfile {
    (0..game.market().len())
        .map(|i| {
            let level = game.market().org(i).compute_level_count() - 1;
            let (lo, hi) = game.market().feasible_range(i, level).unwrap();
            let t = ts[i % ts.len()];
            Strategy::new(lo + t * (hi - lo), level)
        })
        .collect()
}

props! {
    #![cases = 12]

    /// The on-chain redistribution matches Eq. (10) for random markets
    /// and contribution profiles, and the chain verifies afterwards.
    fn settlement_matches_offchain(g) {
        let game = any_game(g);
        let ts = g.vec(6..=6usize, |g| g.f64(0.0..=1.0));
        let profile = profile_for(&game, &ts);
        let mut session = SettlementSession::deploy(&game).unwrap();
        let report = session.settle(&game, &profile).unwrap();
        prop_assert!(report.consistent(1e-3), "max error {}", report.max_abs_error);
        // Exact integer budget balance on-chain.
        let sum_fixed: i128 = report
            .onchain_redistribution
            .iter()
            .map(|&r| Fixed::from_f64(r).0)
            .sum();
        prop_assert!(sum_fixed.abs() <= report.addresses.len() as i128);
        session.node().chain().verify().unwrap();
    }

    /// SHA-256 streaming invariance: feeding `update` the input cut at
    /// any number of random points produces the one-shot digest.
    fn sha256_chunking_invariance(g) {
        let data = g.vec(0..300usize, |g| g.any_u8());
        let mut cuts = g.vec(0..8usize, |g| g.usize(0..300).min(data.len()));
        cuts.push(data.len());
        cuts.sort_unstable();
        let mut h = sha256::Sha256::new();
        let mut from = 0;
        for cut in cuts {
            h.update(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(h.finalize(), sha256::digest(&data));
    }

    /// Fixed-point round trips stay within quantization error.
    fn fixed_point_roundtrip(g) {
        let v = g.f64(-1e15..1e15);
        let f = Fixed::from_f64(v);
        prop_assert!((f.to_f64() - v).abs() <= 0.5 / Fixed::SCALE as f64 * v.abs().max(1.0) + 1e-9);
    }

    /// Chain export/import round-trips for chains of random transfers,
    /// and decoding any strict prefix fails.
    fn codec_roundtrip_random_chains(g) {
        use tradefl_ledger::codec::{decode_chain, encode_chain};
        use tradefl_ledger::node::Node;
        use tradefl_ledger::tx::{Transaction, TxPayload};
        use tradefl_ledger::types::{Address, Wei};

        let amounts = g.vec(1..8usize, |g| g.u64(1..1000) as u128);
        let cut_fraction = g.f64(0.05..0.95);

        let alice = Address::from_name("alice");
        let bob = Address::from_name("bob");
        let mut node = Node::new(&[(alice, Wei(1_000_000))]);
        for (k, &v) in amounts.iter().enumerate() {
            node.submit(Transaction {
                from: alice,
                nonce: k as u64,
                value: Wei(v),
                gas_limit: 21_000,
                payload: TxPayload::Transfer { to: bob },
            })
            .unwrap();
            node.mine();
        }
        let chain = node.chain().clone();
        let bytes = encode_chain(&chain);
        let decoded = decode_chain(&bytes).unwrap();
        prop_assert_eq!(&decoded, &chain);
        decoded.verify().unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assert!(decode_chain(&bytes[..cut.min(bytes.len() - 1)]).is_err());
    }
}

// ---- wire-decoder fuzzing ----------------------------------------------
//
// The decoders sit on the untrusted side of the network boundary: a
// byzantine peer controls every byte they see. Two contracts, fuzzed
// below on the pinned-seed harness:
//
//  1. *No panic*: arbitrary bytes fed to every wire decoder (and to the
//     `runtime::codec` primitives underneath) return `Err`, never
//     panic, never read out of bounds.
//  2. *Round-trip identity*: every well-formed value survives
//     encode → decode unchanged.

mod wire_gen {
    use tradefl_ledger::chain::{Block, BlockHeader};
    use tradefl_ledger::tx::{ExecStatus, Log, Receipt, Transaction, TxPayload, Value};
    use tradefl_ledger::types::{Address, Fixed, Hash256, Wei};
    use tradefl_runtime::check::Gen;

    pub fn any_addr(g: &mut Gen) -> Address {
        let mut a = [0u8; 20];
        for b in &mut a {
            *b = g.any_u8();
        }
        Address(a)
    }

    pub fn any_hash(g: &mut Gen) -> Hash256 {
        let mut h = [0u8; 32];
        for b in &mut h {
            *b = g.any_u8();
        }
        Hash256(h)
    }

    pub fn any_string(g: &mut Gen) -> String {
        // Printable ASCII keeps the generator simple; UTF-8 handling is
        // covered by the runtime codec's own tests.
        let bytes = g.vec(0..12usize, |g| b' ' + g.any_u8() % 95);
        String::from_utf8(bytes).unwrap()
    }

    pub fn any_i128(g: &mut Gen) -> i128 {
        ((g.any_u64() as u128) << 64 | g.any_u64() as u128) as i128
    }

    pub fn any_value(g: &mut Gen) -> Value {
        match g.usize(0..6) {
            0 => Value::U64(g.any_u64()),
            1 => Value::I128(any_i128(g)),
            2 => Value::Fixed(Fixed(any_i128(g))),
            3 => Value::Addr(any_addr(g)),
            4 => Value::Bytes(g.vec(0..20usize, |g| g.any_u8())),
            _ => Value::Str(any_string(g)),
        }
    }

    pub fn any_tx(g: &mut Gen) -> Transaction {
        let payload = if g.bool(0.5) {
            TxPayload::Transfer { to: any_addr(g) }
        } else {
            TxPayload::Call {
                contract: any_addr(g),
                function: any_string(g),
                args: g.vec(0..4usize, any_value),
            }
        };
        Transaction {
            from: any_addr(g),
            nonce: g.any_u64(),
            value: Wei(g.any_u64() as u128),
            gas_limit: g.any_u64(),
            payload,
        }
    }

    pub fn any_receipt(g: &mut Gen) -> Receipt {
        Receipt {
            tx_hash: any_hash(g),
            status: if g.bool(0.5) {
                ExecStatus::Success
            } else {
                ExecStatus::Reverted(any_string(g))
            },
            gas_used: g.any_u64(),
            logs: g.vec(0..3usize, |g| Log {
                contract: any_addr(g),
                event: any_string(g),
                fields: g.vec(0..3usize, |g| (any_string(g), any_value(g))),
            }),
            return_data: g.vec(0..3usize, any_value),
        }
    }

    pub fn any_header(g: &mut Gen) -> BlockHeader {
        BlockHeader {
            number: g.any_u64(),
            parent: any_hash(g),
            timestamp: g.any_u64(),
            tx_root: any_hash(g),
            receipts_root: any_hash(g),
            state_root: any_hash(g),
        }
    }

    pub fn any_block(g: &mut Gen) -> Block {
        Block {
            header: any_header(g),
            txs: g.vec(0..3usize, any_tx),
            receipts: g.vec(0..3usize, any_receipt),
        }
    }
}

props! {
    #![cases = 64]

    /// Contract 1: arbitrary bytes into every ledger wire decoder
    /// return `Err` or a value — never a panic. (Any panic aborts the
    /// whole test, so simply invoking the decoders is the assertion.)
    fn wire_decoders_never_panic_on_arbitrary_bytes(g) {
        use tradefl_ledger::codec::{
            decode_block_bytes, decode_chain, decode_header_bytes,
            decode_receipt_bytes, decode_tx_bytes, decode_value_bytes,
        };
        let bytes = g.vec(0..600usize, |g| g.any_u8());
        let _ = decode_value_bytes(&bytes);
        let _ = decode_tx_bytes(&bytes);
        let _ = decode_receipt_bytes(&bytes);
        let _ = decode_header_bytes(&bytes);
        let _ = decode_block_bytes(&bytes);
        let _ = decode_chain(&bytes);
    }

    /// Contract 2: encode → decode is the identity on every wire type.
    fn wire_roundtrip_is_identity(g) {
        use tradefl_ledger::codec::{
            decode_block_bytes, decode_header_bytes, decode_receipt_bytes,
            decode_tx_bytes, decode_value_bytes, encode_block_bytes,
            encode_header_bytes, encode_receipt_bytes, encode_tx_bytes,
            encode_value_bytes,
        };
        use wire_gen::*;

        let v = any_value(g);
        prop_assert_eq!(decode_value_bytes(&encode_value_bytes(&v)).unwrap(), v);
        let tx = any_tx(g);
        prop_assert_eq!(decode_tx_bytes(&encode_tx_bytes(&tx)).unwrap(), tx);
        let r = any_receipt(g);
        prop_assert_eq!(decode_receipt_bytes(&encode_receipt_bytes(&r)).unwrap(), r);
        let h = any_header(g);
        prop_assert_eq!(decode_header_bytes(&encode_header_bytes(&h)).unwrap(), h);
        let b = any_block(g);
        prop_assert_eq!(decode_block_bytes(&encode_block_bytes(&b)).unwrap(), b);
    }

    /// Appending trailing garbage to a valid frame must flip the strict
    /// decoders to `Err(TrailingBytes)` — a frame is exactly one value.
    fn wire_decoders_reject_trailing_garbage(g) {
        use tradefl_ledger::codec::{decode_tx_bytes, encode_tx_bytes, CodecError};
        use wire_gen::*;

        let mut bytes = encode_tx_bytes(&any_tx(g));
        let extra = g.usize(1..9);
        bytes.extend((0..extra).map(|_| g.any_u8()));
        prop_assert!(matches!(
            decode_tx_bytes(&bytes),
            Err(CodecError::TrailingBytes(n)) if n == extra
        ));
    }

    /// Random transfer batches between funded accounts, some with bad
    /// nonces or overdrafts, mined by a rotating proposer and delivered
    /// as frames to every other replica: every replica ends each round
    /// on the proposer's tip hash and state root, and the proposer's
    /// block holds exactly the transfers with a valid nonce, in batch
    /// order. An overdraft still burns its nonce, so it is in the block
    /// with a reverted receipt; an off-chain balance model predicts
    /// which receipts revert.
    fn proposed_frames_replicate_exactly_the_valid_transfers(g) {
        use tradefl_ledger::network::Network;
        use tradefl_ledger::tx::{Transaction, TxPayload};
        use tradefl_ledger::types::{Address, Wei};

        let accounts: Vec<Address> =
            (0..4).map(|i| Address::from_name(&format!("acct-{i}"))).collect();
        let mut balance: Vec<u128> = accounts.iter().map(|_| u128::from(g.u64(0..5_000))).collect();
        let mut nonce = vec![0u64; accounts.len()];
        let allocations: Vec<(Address, Wei)> =
            accounts.iter().zip(&balance).map(|(&a, &w)| (a, Wei(w))).collect();
        let validators = g.usize(2..5);
        let names: Vec<String> = (0..validators).map(|i| format!("v{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut net = Network::new(&name_refs, &allocations);

        let first = g.usize(0..validators);
        for round in 0..g.usize(1..6) {
            let proposer = (first + round) % validators;
            let mut batch = Vec::new();
            // The txs the model accepts, each with whether it succeeds.
            let mut valid = Vec::new();
            for _ in 0..g.usize(0..8) {
                let (from, to) = (g.usize(0..accounts.len()), g.usize(0..accounts.len()));
                let tx_nonce = if g.bool(0.2) {
                    nonce[from] + g.u64(1..3)
                } else {
                    nonce[from]
                };
                let value = u128::from(g.u64(0..3_000));
                let tx = Transaction {
                    from: accounts[from],
                    nonce: tx_nonce,
                    value: Wei(value),
                    gas_limit: 21_000,
                    payload: TxPayload::Transfer { to: accounts[to] },
                };
                if tx_nonce == nonce[from] {
                    nonce[from] += 1;
                    let funded = balance[from] >= value;
                    if funded {
                        balance[from] -= value;
                        balance[to] += value;
                    }
                    valid.push((tx.clone(), funded));
                }
                batch.push(tx);
            }

            let frame = net.propose(proposer, batch).unwrap();
            for peer in (0..validators).filter(|&i| i != proposer) {
                let verdict = net.deliver_frame(peer, &frame);
                prop_assert!(verdict.is_ok(), "replica {peer} refused: {verdict:?}");
            }
            let lead = &net.validator(proposer).node;
            for i in 0..validators {
                let node = &net.validator(i).node;
                prop_assert_eq!(node.chain().tip_hash(), lead.chain().tip_hash());
                prop_assert_eq!(node.state().root(), lead.state().root());
            }
            let block = lead.chain().blocks().last().unwrap();
            let mined: Vec<&Transaction> = block.txs.iter().collect();
            let expected: Vec<&Transaction> = valid.iter().map(|(tx, _)| tx).collect();
            prop_assert_eq!(mined, expected);
            for (receipt, (_, funded)) in block.receipts.iter().zip(&valid) {
                prop_assert_eq!(receipt.status.is_success(), *funded);
            }
        }
        for (a, &want) in accounts.iter().zip(&balance) {
            prop_assert_eq!(net.validator(0).node.state().balance_of(*a), Wei(want));
        }
    }
}

// ---- contract-ABI fuzzing through actual calls -------------------------
//
// The wire fuzz above stops at the decoders; the ABI dispatch behind
// them is its own untrusted boundary — any account can send any
// function name with any argument vector to a deployed contract. Fuzz
// that boundary *through real transactions*: deploy the settlement
// contract on a node, submit adversarial calls, mine, and require that
// every outcome is a receipt (Success or Reverted) or a mempool
// rejection — never a panic, and never a chain that fails verification.

mod abi_gen {
    use tradefl_ledger::node::Node;
    use tradefl_ledger::tradefl_contract::{SessionParams, TradeFlContract};
    use tradefl_ledger::types::{Address, Fixed, Wei};

    /// Every function name the contract dispatches, plus `"__missing"`
    /// to exercise the unknown-selector path.
    pub const ABI_FUNCTIONS: &[&str] = &[
        "register",
        "depositSubmit",
        "contributionSubmit",
        "payoffCalculate",
        "payoffTransfer",
        "profileRecord",
        "phase",
        "redistributionOf",
        "__missing",
    ];

    pub const DEPOSIT: u128 = 1_000_000;

    /// A fresh single node with a 3-org settlement contract deployed.
    pub fn session_node() -> (Node, Address, Vec<Address>) {
        let orgs: Vec<Address> =
            (0..3).map(|i| Address::from_name(&format!("org-{i}"))).collect();
        let allocations: Vec<(Address, Wei)> =
            orgs.iter().map(|&a| (a, Wei(10_000_000))).collect();
        let mut node = Node::new(&allocations);
        let params = SessionParams {
            participants: orgs.clone(),
            gamma_per_gbit: Fixed::from_f64(5.12),
            lambda: Fixed::from_f64(3.0),
            rho: vec![
                vec![Fixed::ZERO, Fixed::from_f64(0.1), Fixed::from_f64(0.1)],
                vec![Fixed::from_f64(0.1), Fixed::ZERO, Fixed::from_f64(0.1)],
                vec![Fixed::from_f64(0.1), Fixed::from_f64(0.1), Fixed::ZERO],
            ],
            s_gbits: vec![Fixed::from_f64(20.0); 3],
            required_deposit: Wei(DEPOSIT),
            wei_per_payoff_unit: 1_000,
            attestation_key: None,
        };
        let contract = node.deploy(Box::new(TradeFlContract::new(params).unwrap()));
        (node, contract, orgs)
    }
}

props! {
    #![cases = 48]

    /// Arbitrary `(function, args, value)` call transactions against a
    /// deployed contract always terminate in a receipt or a mempool
    /// rejection — never a panic — and the chain still verifies.
    fn abi_dispatch_never_panics_on_arbitrary_calls(g) {
        use abi_gen::*;
        use tradefl_ledger::tx::{Transaction, TxPayload};
        use tradefl_ledger::types::Wei;
        use wire_gen::any_value;

        let (mut node, contract, orgs) = session_node();
        let mut nonces = vec![0u64; orgs.len()];
        let calls = g.usize(1..8);
        for _ in 0..calls {
            let who = g.usize(0..orgs.len());
            let function = ABI_FUNCTIONS[g.usize(0..ABI_FUNCTIONS.len())];
            let args = g.vec(0..5usize, any_value);
            // Sometimes attach the exact deposit, sometimes junk wei.
            let value = match g.usize(0..3) {
                0 => Wei::ZERO,
                1 => Wei(DEPOSIT),
                _ => Wei(g.u64(0..2_000_000) as u128),
            };
            let tx = Transaction {
                from: orgs[who],
                nonce: nonces[who],
                value,
                gas_limit: 10_000_000,
                payload: TxPayload::Call {
                    contract,
                    function: function.into(),
                    args,
                },
            };
            let hash = tx.hash();
            if node.submit(tx).is_ok() {
                nonces[who] += 1;
                node.mine();
                prop_assert!(node.receipt(hash).is_some(), "mined tx must have a receipt");
            }
        }
        node.chain().verify().unwrap();
    }

    /// The read-only view path upholds the same contract: any function
    /// name and argument vector returns a `Result`, never panics, and
    /// never mutates state.
    fn abi_views_never_panic_and_never_mutate(g) {
        use abi_gen::*;
        use wire_gen::{any_addr, any_value};

        let (node, contract, orgs) = session_node();
        let root_before = node.state().root();
        for _ in 0..g.usize(1..10) {
            let caller = if g.bool(0.7) { orgs[g.usize(0..orgs.len())] } else { any_addr(g) };
            let function = ABI_FUNCTIONS[g.usize(0..ABI_FUNCTIONS.len())];
            let args = g.vec(0..5usize, any_value);
            let _ = node.call_view(contract, caller, function, &args);
        }
        prop_assert_eq!(node.state().root(), root_before);
    }

    /// Every malformed `contributionSubmit` argument vector — wrong
    /// arity or wrong types — reverts instead of panicking or being
    /// silently accepted, even when the session is in exactly the phase
    /// that accepts contributions.
    fn malformed_contribution_vectors_always_revert(g) {
        use abi_gen::*;
        use tradefl_ledger::tx::{ExecStatus, Transaction, TxPayload, Value};
        use tradefl_ledger::types::Wei;
        use wire_gen::any_value;

        let (mut node, contract, orgs) = session_node();
        // Drive the session to the Contribution phase legitimately.
        let call = |from, nonce, function: &str, args, value| Transaction {
            from,
            nonce,
            value,
            gas_limit: 10_000_000,
            payload: TxPayload::Call { contract, function: function.into(), args },
        };
        for &o in &orgs {
            node.submit(call(o, 0, "register", vec![], Wei::ZERO)).unwrap();
        }
        node.mine();
        for &o in &orgs {
            node.submit(call(o, 1, "depositSubmit", vec![], Wei(DEPOSIT))).unwrap();
        }
        node.mine();
        let phase = node.call_view(contract, orgs[0], "phase", &[]).unwrap();
        prop_assert_eq!(&phase, &vec![Value::U64(2)]);

        // A malformed vector: either wrong arity, or a well-arity
        // vector whose first slot is forced to a non-Fixed type.
        let mut args = g.vec(0..5usize, any_value);
        let shape_ok = matches!(
            args.as_slice(),
            [Value::Fixed(_), Value::Fixed(_)] | [Value::Fixed(_), Value::Fixed(_), Value::Bytes(_)]
        );
        if shape_ok || matches!(args.first(), Some(Value::Fixed(_))) {
            // Guarantee malformation without disturbing the rest.
            match args.first_mut() {
                Some(first) => *first = Value::Str("not-a-fixed".into()),
                None => {}
            }
        }
        let tx = call(orgs[0], 2, "contributionSubmit", args, Wei::ZERO);
        let hash = tx.hash();
        node.submit(tx).unwrap();
        node.mine();
        let receipt = node.receipt(hash).expect("mined tx has a receipt");
        prop_assert!(
            matches!(receipt.status, ExecStatus::Reverted(_)),
            "malformed vector must revert, got {:?}",
            receipt.status
        );
        // And a well-formed contribution still goes through afterwards.
        let good = call(
            orgs[0],
            3,
            "contributionSubmit",
            vec![
                Value::Fixed(tradefl_ledger::types::Fixed::from_f64(0.4)),
                Value::Fixed(tradefl_ledger::types::Fixed::from_f64(3.0)),
            ],
            Wei::ZERO,
        );
        let good_hash = good.hash();
        node.submit(good).unwrap();
        node.mine();
        prop_assert!(matches!(
            node.receipt(good_hash).unwrap().status,
            ExecStatus::Success
        ));
    }
}
