//! A minimal URL type sufficient for the simulated Web environment.
//!
//! Every simulated application is addressed by an *authority* (host name,
//! e.g. `webpics.example`); resources live under paths; protocol steps pass
//! parameters in the query string (e.g. the AM location a User supplies when
//! delegating access control, §V.B.1).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// The scheme of every constructed URL, shared rather than allocated.
const HTTPS: &str = "https";

/// A parsed URL: `scheme://authority/path?query`.
///
/// Query keys are kept sorted (BTreeMap) so formatting is deterministic —
/// important for reproducible protocol traces.
///
/// # Example
///
/// ```
/// use ucam_webenv::Url;
///
/// let url: Url = "https://am.example/authorize?realm=photos".parse()?;
/// assert_eq!(url.authority(), "am.example");
/// assert_eq!(url.path(), "/authorize");
/// assert_eq!(url.query("realm"), Some("photos"));
/// # Ok::<(), ucam_webenv::ParseUrlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    scheme: Cow<'static, str>,
    authority: String,
    path: String,
    query: BTreeMap<String, String>,
}

impl Url {
    /// Builds a URL from an authority and an absolute path.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not start with `/`.
    #[must_use]
    pub fn new(authority: &str, path: &str) -> Self {
        assert!(path.starts_with('/'), "path must be absolute: {path}");
        Url {
            scheme: Cow::Borrowed(HTTPS),
            authority: authority.to_owned(),
            path: path.to_owned(),
            query: BTreeMap::new(),
        }
    }

    /// Returns the scheme (always `https` for constructed URLs).
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Returns the authority (host name) component.
    #[must_use]
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// Returns the absolute path component.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Returns the path split into non-empty segments.
    ///
    /// # Example
    ///
    /// ```
    /// let url = ucam_webenv::Url::new("h.example", "/a/b/c");
    /// assert_eq!(url.segments(), vec!["a", "b", "c"]);
    /// ```
    #[must_use]
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Looks up a query parameter.
    #[must_use]
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Returns all query parameters.
    #[must_use]
    pub fn query_pairs(&self) -> &BTreeMap<String, String> {
        &self.query
    }

    /// Returns a copy of this URL with the query parameter set.
    #[must_use]
    pub fn with_query(mut self, key: &str, value: &str) -> Self {
        self.query.insert(key.to_owned(), value.to_owned());
        self
    }

    /// Returns a copy of this URL with a different path.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not start with `/`.
    #[must_use]
    pub fn with_path(mut self, path: &str) -> Self {
        assert!(path.starts_with('/'), "path must be absolute: {path}");
        self.path = path.to_owned();
        self
    }

    /// Returns the origin-form request target for an HTTP/1.1 request
    /// line: the path plus the percent-encoded query string.
    ///
    /// # Example
    ///
    /// ```
    /// let url = ucam_webenv::Url::new("h.example", "/r").with_query("k", "a b");
    /// assert_eq!(url.path_and_query(), "/r?k=a%20b");
    /// ```
    #[must_use]
    pub fn path_and_query(&self) -> String {
        let mut out = String::with_capacity(self.path.len() + self.query_len());
        out.push_str(&self.path);
        self.write_query(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Formats the URL into a `String` sized exactly for it, so the
    /// buffer never grows while it is written.
    pub(crate) fn to_sized_string(&self) -> String {
        let len = self.scheme.len() + 3 + self.authority.len() + self.path.len() + self.query_len();
        let mut out = String::with_capacity(len);
        write!(out, "{self}").expect("writing to a String cannot fail");
        out
    }

    /// Sets a query parameter from an already-owned pair.
    pub(crate) fn insert_query(&mut self, key: String, value: String) {
        self.query.insert(key, value);
    }

    /// Encoded length of the query string, `?` and `&` separators included.
    fn query_len(&self) -> usize {
        self.query
            .iter()
            .map(|(k, v)| 2 + encoded_len(k) + encoded_len(v))
            .sum()
    }

    /// Writes `?k=v&k=v…` percent-encoded; nothing for an empty query.
    fn write_query(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let mut sep = '?';
        for (k, v) in &self.query {
            write!(out, "{sep}{}={}", Encoded(k), Encoded(v))?;
            sep = '&';
        }
        Ok(())
    }
}

/// Upper-case hex digits of the percent escapes.
pub(crate) const HEX_DIGITS: &[u8; 16] = b"0123456789ABCDEF";

/// Whether a byte passes through percent-encoding unescaped (the RFC 3986
/// unreserved set). Everything else — space, `&`, `=`, `%`, `?`, `#`, `/`
/// and every non-ASCII byte — becomes `%XX`. Shared with the HTTP/1.1
/// codec, which uses the same escaping for form pairs on the wire.
pub(crate) fn is_unreserved(b: u8) -> bool {
    matches!(b, b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~')
}

/// Length of `s` once percent-encoded.
pub(crate) fn encoded_len(s: &str) -> usize {
    s.bytes()
        .map(|b| if is_unreserved(b) { 1 } else { 3 })
        .sum()
}

/// Displays a query component percent-encoded, without allocating.
struct Encoded<'a>(&'a str);

impl fmt::Display for Encoded<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Encoded output is ASCII; stage it in a stack buffer and hand the
        // formatter whole chunks rather than one call per byte.
        let mut buf = [0u8; 96];
        let mut n = 0;
        for b in self.0.bytes() {
            if n + 3 > buf.len() {
                f.write_str(ascii(&buf[..n]))?;
                n = 0;
            }
            if is_unreserved(b) {
                buf[n] = b;
                n += 1;
            } else {
                buf[n..n + 3].copy_from_slice(&[
                    b'%',
                    HEX_DIGITS[usize::from(b >> 4)],
                    HEX_DIGITS[usize::from(b & 0x0f)],
                ]);
                n += 3;
            }
        }
        f.write_str(ascii(&buf[..n]))
    }
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("percent-encoded output is ASCII")
}

/// The value of one ASCII hex digit. Unlike `u8::from_str_radix`, a sign
/// is not a digit, so `%+F` is not an escape.
pub(crate) fn hex_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Decodes percent-encoding; an escape is `%` plus exactly two ASCII hex
/// digits, and anything else is passed through literally. Bytes that do
/// not form UTF-8 decode to U+FFFD.
pub(crate) fn decode_component(s: &str) -> String {
    if !s.contains('%') {
        return s.to_owned();
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(hi), Some(lo)) = (
                bytes.get(i + 1).copied().and_then(hex_value),
                bytes.get(i + 2).copied().and_then(hex_value),
            ) {
                out.push(hi << 4 | lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.authority, self.path)?;
        self.write_query(f)
    }
}

/// An error produced when parsing a malformed URL string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseUrlError {
    /// The input lacks the `scheme://` separator.
    MissingScheme,
    /// The authority component is empty.
    EmptyAuthority,
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUrlError::MissingScheme => write!(f, "url is missing a scheme"),
            ParseUrlError::EmptyAuthority => write!(f, "url authority is empty"),
        }
    }
}

impl std::error::Error for ParseUrlError {}

impl FromStr for Url {
    type Err = ParseUrlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme, rest) = s.split_once("://").ok_or(ParseUrlError::MissingScheme)?;
        let (authority_path, query_str) = match rest.split_once('?') {
            Some((a, q)) => (a, Some(q)),
            None => (rest, None),
        };
        let (authority, path) = match authority_path.find('/') {
            Some(slash) => (&authority_path[..slash], &authority_path[slash..]),
            None => (authority_path, "/"),
        };
        if authority.is_empty() {
            return Err(ParseUrlError::EmptyAuthority);
        }
        let mut query = BTreeMap::new();
        if let Some(qs) = query_str {
            for pair in qs.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(decode_component(k), decode_component(v));
            }
        }
        Ok(Url {
            scheme: if scheme == HTTPS {
                Cow::Borrowed(HTTPS)
            } else {
                Cow::Owned(scheme.to_owned())
            },
            authority: authority.to_owned(),
            path: path.to_owned(),
            query,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_basic() {
        let u: Url = "https://webpics.example/albums/1".parse().unwrap();
        assert_eq!(u.scheme(), "https");
        assert_eq!(u.authority(), "webpics.example");
        assert_eq!(u.path(), "/albums/1");
        assert!(u.query_pairs().is_empty());
    }

    #[test]
    fn parse_no_path() {
        let u: Url = "https://am.example".parse().unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn parse_query() {
        let u: Url = "https://am.example/a?x=1&y=two".parse().unwrap();
        assert_eq!(u.query("x"), Some("1"));
        assert_eq!(u.query("y"), Some("two"));
        assert_eq!(u.query("z"), None);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "no-scheme".parse::<Url>(),
            Err(ParseUrlError::MissingScheme)
        );
        assert_eq!(
            "https:///path".parse::<Url>(),
            Err(ParseUrlError::EmptyAuthority)
        );
    }

    #[test]
    fn display_roundtrip() {
        let u = Url::new("h.example", "/r/1")
            .with_query("realm", "my photos")
            .with_query("tok", "a=b&c");
        let s = u.to_string();
        let back: Url = s.parse().unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn segments() {
        let u = Url::new("h.example", "/a//b/");
        assert_eq!(u.segments(), vec!["a", "b"]);
    }

    #[test]
    fn with_path_replaces() {
        let u = Url::new("h.example", "/a")
            .with_path("/b")
            .with_query("k", "v");
        assert_eq!(u.path(), "/b");
        assert_eq!(u.to_string(), "https://h.example/b?k=v");
    }

    #[test]
    #[should_panic(expected = "path must be absolute")]
    fn relative_path_panics() {
        let _ = Url::new("h.example", "relative");
    }

    #[test]
    fn percent_encoding_special_chars() {
        let u = Url::new("h.example", "/p").with_query("q", "a&b=c?d#e f");
        let s = u.to_string();
        assert!(!s.contains(' '));
        let back: Url = s.parse().unwrap();
        assert_eq!(back.query("q"), Some("a&b=c?d#e f"));
    }

    #[test]
    fn malformed_percent_escapes_pass_through() {
        assert_eq!(decode_component("%41%2f%2F"), "A//");
        for literal in ["%+F", "%-1", "% 1", "%G1", "%4", "%", "100%"] {
            assert_eq!(decode_component(literal), literal);
        }
        // An escape that decodes to invalid UTF-8 becomes U+FFFD.
        assert_eq!(decode_component("a%FFb"), "a\u{fffd}b");
    }

    /// The decoder as it was before escapes required two hex digits: the
    /// oracle of `decode_matches_the_radix_decoder`.
    fn decode_with_from_str_radix(s: &str) -> String {
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                if let Some(hex) = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    out.push(hex);
                    i += 3;
                    continue;
                }
            }
            out.push(bytes[i]);
            i += 1;
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    proptest! {
        /// The same output as the `from_str_radix` decoder on escape-heavy
        /// input, escapes of invalid UTF-8 included, except where that
        /// decoder took a `+` for a hex digit.
        #[test]
        fn decode_matches_the_radix_decoder(s in "[%%%%+a-fA-F0-9éG/ ]{0,24}") {
            if !s.contains("%+") {
                prop_assert_eq!(decode_component(&s), decode_with_from_str_radix(&s));
            }
        }

        #[test]
        fn encode_then_decode_roundtrips(s in "[\\PC&&[^\\u{0}]]{0,32}") {
            let encoded = Encoded(&s).to_string();
            prop_assert_eq!(encoded.len(), encoded_len(&s));
            prop_assert!(encoded.bytes().all(|b| is_unreserved(b) || b == b'%'));
            prop_assert_eq!(decode_component(&encoded), s);
        }

        #[test]
        fn query_roundtrip(
            key in "[a-zA-Z0-9 &=%?#/_.:-]{1,20}",
            val in "[a-zA-Z0-9 &=%?#/_.:-]{0,30}",
        ) {
            let u = Url::new("h.example", "/p").with_query(&key, &val);
            let back: Url = u.to_string().parse().unwrap();
            prop_assert_eq!(back.query(&key), Some(val.as_str()));
        }
    }
}
