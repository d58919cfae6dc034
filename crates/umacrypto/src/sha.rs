//! SHA-256 implemented from the FIPS 180-4 specification.
//!
//! Hashing is not a negligible share of protocol cost. Every token the AM
//! mints or checks is an HMAC over its payload, every Host decision keys
//! its cache on the bearer token's digest, and every sieve probe hashes
//! the access tuple into a fingerprint. A sampling profile of the loopback
//! benchmark (seed 7, 15 s, 2-core Xeon with SHA extensions) with only
//! the scalar compression function put `Sha256::compress` at 10.1% of all
//! CPU samples on `warm_read`, mostly under sieve fingerprinting, and at
//! ≈10% of `cold_flow` with `update`/`finalize`, where `hmac_sha256` was
//! 5.2% inclusive. On that box the SHA-NI path below hashes
//! `crypto/sha256/64` (two blocks) in ≈125 ns; the scalar-only hasher
//! took ≈1.1 µs.
//!
//! # Backends
//!
//! The compression function has two implementations. On x86_64 CPUs with
//! the SHA extensions it runs on the `sha256rnds2`/`sha256msg1`/
//! `sha256msg2` instructions; every other CPU, and every other target,
//! runs the portable scalar rounds. The choice is made at run time from
//! the CPU's feature flags and nothing else; [`backend`] reports it. Both
//! produce identical digests.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// An incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use ucam_crypto::sha::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), ucam_crypto::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Fill a partially full buffer first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // Process full blocks directly from the input.
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        // Buffer the remainder.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length. `buf_len`
        // is below 64 here; from 56 on the length spills into a second
        // block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&self.buf));

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Example
///
/// ```
/// let d = ucam_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Names the compression backend this process runs on: `"x86-sha-ni"`
/// on an x86_64 CPU with the SHA extensions, `"scalar"` everywhere else.
///
/// # Example
///
/// ```
/// let b = ucam_crypto::sha::backend();
/// assert!(b == "x86-sha-ni" || b == "scalar");
/// ```
#[must_use]
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        return "x86-sha-ni";
    }
    "scalar"
}

/// Runs the compression function over `blocks` on the fastest backend
/// this CPU supports.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(test)]
    if test_hooks::count_and_force_scalar(blocks.len()) {
        compress_scalar(state, blocks);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if sha_ni::try_compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable compression function, straight from FIPS 180-4 §6.2.2.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (SHA-NI).
///
/// This is the crate's only `unsafe`: calling a `#[target_feature]`
/// function is unsafe because running it on a CPU without those features
/// is undefined behaviour. `try_compress` makes that one call, right
/// after runtime detection has confirmed the features; the function
/// itself uses only value-based intrinsics, no raw-pointer loads or
/// stores.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_setr_epi32, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    use super::K;

    /// True when this CPU has every feature [`compress`] is compiled for.
    /// The standard library caches the CPUID probe, so this is a load and
    /// a bit test after the first call.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` into `state` on SHA-NI and returns true, or
    /// returns false without touching `state` when this CPU lacks it.
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `compress` is safe Rust apart from its target features,
        // and `detected()` has just confirmed that this CPU supports every
        // one of them (sha, sse2, ssse3, sse4.1).
        unsafe { compress(state, blocks) };
        true
    }

    /// Four rounds per step, 16 steps per block. The instructions keep the
    /// working variables as two vectors, `abef` and `cdgh` (named high
    /// lane to low lane), and take the message words with the round
    /// constants already added.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte-reverses each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let load = |bytes: &[u8; 16]| {
            let v = u128::from_le_bytes(*bytes);
            _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), bswap)
        };
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (quads, _) = block.as_chunks::<16>();
            // w0..w3 hold message words 4i..4i+16 at step i.
            let [mut w0, mut w1, mut w2, mut w3]: [__m128i; 4] =
                std::array::from_fn(|i| load(&quads[i]));
            for (i, k) in K.as_chunks::<4>().0.iter().enumerate() {
                let wk = _mm_add_epi32(
                    w0,
                    _mm_setr_epi32(k[0] as i32, k[1] as i32, k[2] as i32, k[3] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                // Message schedule: words 4i+16..4i+20 from the last 16.
                let next = if i < 12 {
                    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                    _mm_sha256msg2_epu32(t, w3)
                } else {
                    w0
                };
                (w0, w1, w2, w3) = (w1, w2, w3, next);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|w| w as u32);
    }
}

/// Per-thread hooks the crate's tests use to pin both backends and count
/// compressions.
#[cfg(test)]
pub(crate) mod test_hooks {
    use std::cell::Cell;

    thread_local! {
        static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
        static FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
    }

    /// Counts `blocks` compressions; true when this thread is pinned to
    /// the scalar backend.
    pub(super) fn count_and_force_scalar(blocks: usize) -> bool {
        COMPRESSIONS.with(|c| c.set(c.get() + blocks as u64));
        FORCE_SCALAR.with(Cell::get)
    }

    /// Compressions this thread has run so far.
    pub(crate) fn compressions() -> u64 {
        COMPRESSIONS.with(Cell::get)
    }

    /// Runs `check` once pinned to the scalar backend and once more on
    /// the detected one when that is not scalar.
    pub(crate) fn on_each_backend(mut check: impl FnMut()) {
        FORCE_SCALAR.with(|f| f.set(true));
        check();
        FORCE_SCALAR.with(|f| f.set(false));
        if super::backend() != "scalar" {
            check();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_hooks::{compressions, on_each_backend};
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP known answers, on both backends.
    #[test]
    fn empty_vector() {
        on_each_backend(|| {
            assert_eq!(
                hex(&sha256(b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
            );
        });
    }

    #[test]
    fn abc_vector() {
        on_each_backend(|| {
            assert_eq!(
                hex(&sha256(b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
        });
    }

    #[test]
    fn two_block_vector() {
        on_each_backend(|| {
            assert_eq!(
                hex(&sha256(
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
            );
        });
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        on_each_backend(|| {
            assert_eq!(
                hex(&sha256(&data)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        });
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        on_each_backend(|| {
            for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 999] {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), sha256(&data), "split at {split}");
            }
        });
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of length 55, 56, 57, 63, 64, 65 exercise the padding edge
        // cases (56 is the point where the length no longer fits the block).
        on_each_backend(|| {
            for len in [55usize, 56, 57, 63, 64, 65] {
                let data = vec![0x5au8; len];
                let mut h = Sha256::new();
                for b in &data {
                    h.update(std::slice::from_ref(b));
                }
                assert_eq!(h.finalize(), sha256(&data), "len {len}");
            }
        });
    }

    #[test]
    fn digest_costs_one_compression_per_padded_block() {
        for len in [0usize, 55, 56, 64, 119, 120, 1000] {
            let before = compressions();
            let _ = sha256(&vec![0u8; len]);
            assert_eq!(
                compressions() - before,
                (len as u64 + 9).div_ceil(64),
                "len {len}"
            );
        }
    }

    /// A detection bug must not silently fall back to scalar on a CPU
    /// that has the SHA extensions.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn backend_is_sha_ni_when_cpuinfo_lists_it() {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let has_sha_ni = cpuinfo
            .lines()
            .filter(|l| l.starts_with("flags"))
            .any(|l| l.split_whitespace().any(|flag| flag == "sha_ni"));
        if has_sha_ni {
            assert_eq!(backend(), "x86-sha-ni");
        }
    }

    proptest! {
        /// The SHA-NI and scalar compression functions agree on arbitrary
        /// chaining states and blocks, one block and several at a time.
        #[test]
        fn sha_ni_matches_scalar(
            words in proptest::collection::vec(any::<u32>(), 8),
            bytes in proptest::collection::vec(any::<u8>(), 64..=256),
        ) {
            #[cfg(target_arch = "x86_64")]
            {
                let state: [u32; 8] = words.try_into().unwrap();
                let (blocks, _) = bytes.as_chunks::<64>();
                let mut scalar = state;
                compress_scalar(&mut scalar, blocks);
                let mut sha_ni = state;
                prop_assume!(sha_ni::try_compress(&mut sha_ni, blocks));
                prop_assert_eq!(sha_ni, scalar);
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = (words, bytes);
        }
    }
}
