//! Binary wire encoding.
//!
//! A small, explicit, length-checked codec that appends to a `Vec<u8>` and
//! reads from a `&[u8]` cursor. Every type that crosses the wire implements
//! [`WireEncode`]/[`WireDecode`].
//! Integers are big-endian; strings are UTF-8 with a u32 length prefix;
//! vectors carry a u32 count; options a presence byte. Decoding is total:
//! malformed input yields a [`CodecError`], never a panic.

/// Encoding target alias.
pub type Writer = Vec<u8>;

/// Decode failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the type requires.
    UnexpectedEof,
    /// Unknown enum tag.
    InvalidTag {
        /// Type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A declared length exceeds the sanity limit.
    LengthOverflow {
        /// Declared element count or byte length.
        declared: u64,
    },
    /// String bytes were not valid UTF-8.
    InvalidUtf8,
    /// Well-formed bytes holding a value no encoder produces.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::InvalidTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::LengthOverflow { declared } => {
                write!(f, "declared length {declared} exceeds limit")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum element count accepted for any collection (DoS guard).
pub const MAX_ELEMENTS: u64 = 1 << 20;

/// Serialise into a byte buffer.
pub trait WireEncode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Writer);
}

/// Deserialise from a byte buffer.
pub trait WireDecode: Sized {
    /// Reads one value, advancing `buf`.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

macro_rules! impl_int {
    ($($ty:ty),*) => {$(
        impl WireEncode for $ty {
            fn encode(&self, buf: &mut Writer) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl WireDecode for $ty {
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                let (head, rest) = buf.split_first_chunk().ok_or(CodecError::UnexpectedEof)?;
                *buf = rest;
                Ok(<$ty>::from_be_bytes(*head))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64);

impl WireEncode for bool {
    fn encode(&self, buf: &mut Writer) {
        buf.push(*self as u8);
    }
}

impl WireDecode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }
}

impl WireEncode for str {
    fn encode(&self, buf: &mut Writer) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl WireEncode for String {
    fn encode(&self, buf: &mut Writer) {
        self.as_str().encode(buf);
    }
}

impl WireDecode for String {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as u64;
        if len > MAX_ELEMENTS {
            return Err(CodecError::LengthOverflow { declared: len });
        }
        let (head, rest) = buf
            .split_at_checked(len as usize)
            .ok_or(CodecError::UnexpectedEof)?;
        let s = std::str::from_utf8(head)
            .map_err(|_| CodecError::InvalidUtf8)?
            .to_string();
        *buf = rest;
        Ok(s)
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut Writer) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        decode_seq(buf, MAX_ELEMENTS as usize, T::decode)
    }
}

/// Decodes a `Vec` encoding (u32 count, then the items) of at most `max`
/// items, each read by `item`.
pub(crate) fn decode_seq<T>(
    buf: &mut &[u8],
    max: usize,
    mut item: impl FnMut(&mut &[u8]) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let len = u32::decode(buf)? as usize;
    if len > max {
        return Err(CodecError::LengthOverflow {
            declared: len as u64,
        });
    }
    let mut out = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        out.push(item(buf)?);
    }
    Ok(out)
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut Writer) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(CodecError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }
}

/// Encodes a value to a fresh buffer.
pub fn to_bytes<T: WireEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value, requiring the buffer to be fully consumed.
pub fn from_bytes<T: WireDecode>(mut buf: &[u8]) -> Result<T, CodecError> {
    let value = T::decode(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::Invalid("trailing bytes: framing mismatch"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn string_and_collections() {
        roundtrip(String::new());
        roundtrip("hello — unicode ✓".to_string());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some("x".to_string()));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![Some(1u8), None]);
    }

    #[test]
    fn big_endian_layout_matches_wire_format() {
        assert_eq!(to_bytes(&0xABCDu16), [0xAB, 0xCD]);
        assert_eq!(to_bytes(&0xDEAD_BEEFu32), [0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(
            to_bytes(&0x0123_4567_89AB_CDEFu64),
            [0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF]
        );
        assert_eq!(to_bytes(&true), [1]);
        assert_eq!(to_bytes(&false), [0]);
        assert_eq!(to_bytes("xy"), [0, 0, 0, 2, b'x', b'y']);
        assert_eq!(to_bytes(&Some(7u16)), [1, 0, 7]);
        assert_eq!(to_bytes(&Option::<u16>::None), [0]);
    }

    #[test]
    fn eof_is_detected_everywhere() {
        assert_eq!(from_bytes::<u32>(&[1, 2]), Err(CodecError::UnexpectedEof));
        // String longer than remaining bytes.
        let mut buf = Vec::new();
        10u32.encode(&mut buf);
        buf.extend_from_slice(b"abc");
        assert_eq!(from_bytes::<String>(&buf), Err(CodecError::UnexpectedEof));
        // Vec with a count but no elements.
        let bytes = to_bytes(&3u32);
        assert_eq!(
            from_bytes::<Vec<u16>>(&bytes),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(CodecError::InvalidTag {
                what: "bool",
                tag: 7
            })
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[9]),
            Err(CodecError::InvalidTag {
                what: "Option",
                tag: 9
            })
        ));
    }

    #[test]
    fn length_overflow_guard() {
        let bytes = to_bytes(&u32::MAX);
        assert!(matches!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u8);
        bytes.push(0);
        assert!(from_bytes::<u8>(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(from_bytes::<String>(&buf), Err(CodecError::InvalidUtf8));
    }
}
