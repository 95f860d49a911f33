//! Small byte-oriented reader/writer helpers used by every codec in this
//! crate.
//!
//! The helpers keep bounds checking and error reporting in one place so the
//! individual frame codecs stay readable.

use rt_types::{RtError, RtResult};

/// Sequential big-endian writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Create a writer that appends to an existing buffer, preserving its
    /// contents and capacity.  The `encode_into` codec entry points build on
    /// it: each header's owned `encode` is its `encode_into` over an empty
    /// vector, and `RtDataFrame::encode_payload_into` appends the IPv4 and
    /// UDP headers to one buffer without an intermediate allocation.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `count` zero bytes (padding).
    pub fn put_zeros(&mut self, count: usize) {
        self.buf.resize(self.buf.len() + count, 0);
    }

    /// Finish writing and return the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential big-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// A short label naming the frame being decoded, used in error messages.
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Create a reader over `buf`; `context` names the frame type for error
    /// messages.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> RtResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(RtError::FrameDecode(format!(
                "{}: need {} byte(s) at offset {}, only {} remaining",
                self.context,
                n,
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> RtResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn get_u16(&mut self) -> RtResult<u16> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    /// Read a big-endian `u32`.
    pub fn get_u32(&mut self) -> RtResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read exactly `N` bytes into an array.
    pub fn get_array<const N: usize>(&mut self) -> RtResult<[u8; N]> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// Read all remaining bytes.
    pub fn get_rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Error unless exactly `n` bytes remain.
    pub fn expect_remaining(&self, n: usize) -> RtResult<()> {
        if self.remaining() != n {
            return Err(RtError::FrameDecode(format!(
                "{}: expected {} trailing byte(s), found {}",
                self.context,
                n,
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// RFC 1071 internet checksum over `data` (used by the IPv4 and UDP codecs).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdead_beef);
        w.put_slice(&[9, 9, 9]);
        w.put_zeros(2);
        let buf = w.into_vec();
        assert_eq!(buf.len(), 1 + 2 + 4 + 3 + 2);

        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_array::<3>().unwrap(), [9, 9, 9]);
        assert_eq!(r.get_rest(), &[0, 0]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn from_vec_appends_and_keeps_capacity() {
        let mut base = Vec::with_capacity(64);
        base.extend_from_slice(&[1, 2]);
        let ptr = base.as_ptr();
        let mut w = ByteWriter::from_vec(base);
        w.put_u16(0x0304);
        let out = w.into_vec();
        assert_eq!(out, [1, 2, 3, 4]);
        assert!(out.capacity() >= 64);
        // Small writes into pre-allocated capacity must not reallocate.
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn reader_out_of_bounds_is_an_error() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf, "short");
        assert!(r.get_u32().is_err());
        // The failed read must not advance the cursor past the end.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u16().unwrap(), 0x0102);
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn reader_expect_remaining() {
        let buf = [0u8; 4];
        let mut r = ByteReader::new(&buf, "pad");
        r.get_u16().unwrap();
        assert!(r.expect_remaining(2).is_ok());
        assert!(r.expect_remaining(3).is_err());
    }

    #[test]
    fn get_array_reads_exact() {
        let buf = [5u8, 6, 7, 8];
        let mut r = ByteReader::new(&buf, "arr");
        let a: [u8; 4] = r.get_array().unwrap();
        assert_eq!(a, [5, 6, 7, 8]);
        let mut r2 = ByteReader::new(&buf[..3], "arr");
        assert!(r2.get_array::<4>().is_err());
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = internet_checksum(&data);
        assert_eq!(sum, !0xddf2);
    }

    #[test]
    fn checksum_odd_length_and_validation() {
        let data = [0x01, 0x02, 0x03];
        let c = internet_checksum(&data);
        // Appending the checksum and re-summing must yield 0 (all-ones sum).
        let mut with = data.to_vec();
        with.push(0); // pad to even before inserting checksum at the end
        with.extend_from_slice(&c.to_be_bytes());
        // Validation property: checksum over data including its own checksum
        // field equals zero when the field was computed over zeroes.
        let mut check_input = data.to_vec();
        check_input.push(0);
        check_input.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&check_input), 0);
    }
}
