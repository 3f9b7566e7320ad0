//! Bounds-checked little-endian byte reader and writer shared by the
//! codecs. Everything is explicit-width LE, matching the krum-wire
//! conventions, and every read validates against the remaining bytes
//! before touching them — a corrupt payload is a [`CodecError`], never a
//! panic or an unbounded allocation.

use crate::CodecError;

/// Little-endian byte writer.
pub(crate) struct Writer {
    out: Vec<u8>,
}

impl Writer {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            out: Vec::with_capacity(capacity),
        }
    }

    pub fn put_u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Bounds-checked little-endian byte reader.
pub(crate) struct Reader<'b> {
    bytes: &'b [u8],
    offset: usize,
}

impl<'b> Reader<'b> {
    pub fn new(bytes: &'b [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    fn take(&mut self, len: usize) -> Result<&'b [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated {
                needed: len - self.remaining(),
                offset: self.offset,
            });
        }
        let slice = &self.bytes[self.offset..self.offset + len];
        self.offset += len;
        Ok(slice)
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    /// Reads a `len`-byte field and returns it together with every byte
    /// after it, so a caller may load whole words that run past the
    /// field's end.
    pub fn raw_ahead(&mut self, len: usize) -> Result<&'b [u8], CodecError> {
        let start = self.offset;
        self.take(len)?;
        Ok(&self.bytes[start..])
    }

    /// Rejects trailing bytes — a canonical payload is consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() > 0 {
            return Err(CodecError::malformed(format!(
                "{} trailing byte(s) after the payload content",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// The number of bytes `count` packed `bits`-wide values occupy.
pub(crate) fn packed_len(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}
