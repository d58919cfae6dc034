//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).

use crate::sha::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its pads absorbed once.
///
/// HMAC hashes the block `key ^ ipad` ahead of the message and the block
/// `key ^ opad` ahead of the inner digest. Both depend on the key alone,
/// so this type keeps the two SHA-256 states that follow them and every
/// [`HmacKey::mac`] starts from those, saving two compressions per MAC.
/// An m-byte message then costs ⌈(m+9)/64⌉ + 1 compressions.
///
/// The prepared states stand in for the key: [`Debug`](std::fmt::Debug)
/// redacts them.
///
/// # Example
///
/// ```
/// use ucam_crypto::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ^ ipad`.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ^ opad`.
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key`. Keys longer than the 64-byte block size are hashed
    /// first, exactly as the RFC prescribes.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are as good as the key: never print them.
        f.debug_struct("HmacKey")
            .field("midstates", &"<redacted>")
            .finish()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// This prepares the key on every call; a caller that MACs many messages
/// under one key should hold an [`HmacKey`] instead.
///
/// # Example
///
/// ```
/// let mac = ucam_crypto::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(mac.len(), 32);
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha::test_hooks::{compressions, on_each_backend};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks one RFC 4231 case on both compression backends.
    fn rfc4231(key: &[u8], data: &[u8], expected: &str) {
        on_each_backend(|| assert_eq!(hex(&hmac_sha256(key, data)), expected));
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        rfc4231(
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case2() {
        rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case3() {
        rfc4231(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25u8).collect();
        rfc4231(
            &key,
            &[0xcdu8; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        rfc4231(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        rfc4231(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn different_keys_different_macs() {
        let m = b"message";
        assert_ne!(hmac_sha256(b"k1", m), hmac_sha256(b"k2", m));
    }

    #[test]
    fn different_messages_different_macs() {
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn exact_block_size_key() {
        let key = [0x42u8; 64];
        // Must not panic and must be deterministic.
        assert_eq!(hmac_sha256(&key, b"x"), hmac_sha256(&key, b"x"));
    }

    /// A prepared key costs the inner hash's message blocks plus one outer
    /// block: the two pad blocks were absorbed in `HmacKey::new`.
    #[test]
    fn prepared_mac_costs_message_blocks_plus_one() {
        let key = HmacKey::new(b"counting-key");
        for m in [0usize, 1, 54, 55, 56, 64, 119, 120, 256, 1000] {
            let msg = vec![0x5au8; m];
            let before = compressions();
            let _ = key.mac(&msg);
            let expected = (m as u64 + 9).div_ceil(64) + 1;
            assert_eq!(compressions() - before, expected, "m = {m}");
        }
    }

    /// Push bodies are signed under the delegation's host token, a sealed
    /// token of about 145 bytes. Preparing it costs ⌈(145+9)/64⌉ = 3
    /// compressions to hash the over-long key plus 2 for the pads; a
    /// delegation that holds an `HmacKey` pays that once, where the
    /// one-shot `hmac_sha256` pays it on every push MAC.
    #[test]
    fn held_host_token_key_saves_five_compressions_per_mac() {
        let host_token = [b'h'; 145];
        let body = [0x5au8; 300];
        let before = compressions();
        let key = HmacKey::new(&host_token);
        assert_eq!(compressions() - before, 5);

        let before = compressions();
        let held = key.mac(&body);
        let held_cost = compressions() - before;
        let before = compressions();
        let one_shot = hmac_sha256(&host_token, &body);
        let one_shot_cost = compressions() - before;
        assert_eq!(held, one_shot);
        assert_eq!(one_shot_cost - held_cost, 5);
    }

    #[test]
    fn debug_redacts_midstates() {
        let key = HmacKey::new(b"supersecret");
        assert_eq!(format!("{key:?}"), r#"HmacKey { midstates: "<redacted>" }"#);
    }
}
