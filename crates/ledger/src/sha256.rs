//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! The ledger only needs a deterministic, collision-resistant digest for
//! block hashing and transaction ids; implementing the standard here
//! keeps the workspace free of external crypto crates (DESIGN.md §6).
//!
//! Verified against the NIST test vectors and a golden over every
//! message length from 0 to 300 bytes in the unit tests.

/// Output size in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use tradefl_ledger::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     tradefl_ledger::sha256::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take]
                .copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_padding();
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bit_len.to_be_bytes());
        self.buffer[56..64].copy_from_slice(&tail);
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self) {
        // Append 0x80 then zero-fill; if fewer than 8 bytes remain for
        // the length, compress and start a fresh block.
        self.buffer[self.buffer_len] = 0x80;
        for b in &mut self.buffer[self.buffer_len + 1..] {
            *b = 0;
        }
        if self.buffer_len >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        }
        self.buffer_len = 0;
    }

    /// One FIPS 180-4 compression. The message schedule rolls through
    /// 16 words (`w[i & 15]` holds `W_i`), and the rounds run eight at a
    /// time: instead of shifting the eight working variables every
    /// round, each round writes two of them and the next round names
    /// them one place further on, so after eight rounds every name is
    /// back where it started.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        macro_rules! round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr) => {
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add($g ^ ($e & ($f ^ $g)))
                    .wrapping_add(K[$i & 63])
                    .wrapping_add(w[$i & 15]);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) | ($c & ($a | $b)));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            };
        }
        macro_rules! eight_rounds {
            ($base:expr) => {
                round!(a b c d e f g h, $base);
                round!(h a b c d e f g, $base + 1);
                round!(g h a b c d e f, $base + 2);
                round!(f g h a b c d e, $base + 3);
                round!(e f g h a b c d, $base + 4);
                round!(d e f g h a b c, $base + 5);
                round!(c d e f g h a b, $base + 6);
                round!(b c d e f g h a, $base + 7);
            };
        }
        eight_rounds!(0);
        eight_rounds!(8);
        for base in (16..64).step_by(8) {
            for i in base..base + 8 {
                let w15 = w[(i + 1) & 15];
                let w2 = w[(i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i & 15] = w[i & 15]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(s1);
            }
            eight_rounds!(base);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot convenience digest.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Lowercase hex rendering of a digest (or any byte slice).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        // lint:allow(no-panic-in-lib): fmt::Write into a String is infallible
        write!(s, "{b:02x}").expect("writing to a String cannot fail");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            to_hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            to_hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            to_hex(&digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_for_every_split() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let whole = digest(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 199, 200] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn every_length_to_300_matches_the_golden() {
        // Covers each padding case and block boundary (55/56, 63/64,
        // 119/120, ...) the NIST vectors skip. The message of length
        // `len` is a byte pattern that also depends on `len`; the
        // per-length digests are folded into one digest so a single
        // golden pins them all.
        let mut fold = Sha256::new();
        for len in 0..=300 {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + len * 7 + 1) as u8).collect();
            fold.update(&digest(&data));
        }
        assert_eq!(
            to_hex(&fold.finalize()),
            "97fe2ac4e1d34d63ec538aec177c8f73ad2d9ba10a377f807e5197252abed9b8"
        );
    }

    #[test]
    fn hex_renders_leading_zeros() {
        assert_eq!(to_hex(&[0x00, 0x0f, 0xf0]), "000ff0");
    }
}
