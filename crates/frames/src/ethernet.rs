//! Ethernet II framing.
//!
//! The RT layer sits *above* unmodified Ethernet (that is the whole point of
//! the paper), so this module implements ordinary Ethernet II frames:
//! destination MAC, source MAC, EtherType, payload, and size accounting for
//! minimum-size padding and wire overhead (preamble + inter-frame gap).  The
//! FCS is accounted for in the length maths but not computed — the simulator
//! never corrupts frames, and computing a CRC-32 would only add noise to the
//! benchmarks.

use rt_types::{
    constants::{
        ETH_FCS_BYTES, ETH_HEADER_BYTES, ETH_MIN_PAYLOAD_BYTES, ETH_MTU_BYTES,
        ETH_WIRE_OVERHEAD_BYTES,
    },
    MacAddr, RtError, RtResult,
};

use crate::wire::{ByteReader, ByteWriter};

/// An Ethernet II frame: header plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// MAC client data (not yet padded to the 46-byte minimum).
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Build a frame, rejecting payloads that exceed the Ethernet MTU.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: u16, payload: Vec<u8>) -> RtResult<Self> {
        Self::check_payload_len(payload.len())?;
        Ok(EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        })
    }

    /// The check of [`EthernetFrame::new`] alone, for a caller that decides
    /// whether a payload of `len` bytes fits before building it.
    pub fn check_payload_len(len: usize) -> RtResult<()> {
        if len > ETH_MTU_BYTES {
            return Err(RtError::FrameEncode(format!(
                "payload of {len} bytes exceeds the {ETH_MTU_BYTES} byte Ethernet MTU"
            )));
        }
        Ok(())
    }

    /// Size of the MAC frame on the medium: header + padded payload + FCS.
    pub fn frame_bytes(&self) -> usize {
        let payload = self.payload.len().max(ETH_MIN_PAYLOAD_BYTES);
        ETH_HEADER_BYTES + payload + ETH_FCS_BYTES
    }

    /// Total wire occupancy including preamble/SFD and inter-frame gap; this
    /// is the quantity that converts to transmission time on a link.
    pub fn wire_bytes(&self) -> usize {
        self.frame_bytes() + ETH_WIRE_OVERHEAD_BYTES
    }

    /// Serialise header + payload (+ zero padding up to the minimum payload
    /// size).  The 4-byte FCS is emitted as zeroes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_bytes());
        self.encode_into(&mut out);
        out
    }

    /// Append the serialised frame to `out` (same bytes as [`encode`],
    /// without allocating when `out` has capacity).
    ///
    /// [`encode`]: EthernetFrame::encode
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::from_vec(std::mem::take(out));
        w.put_slice(&self.dst.octets());
        w.put_slice(&self.src.octets());
        w.put_u16(self.ethertype);
        w.put_slice(&self.payload);
        if self.payload.len() < ETH_MIN_PAYLOAD_BYTES {
            w.put_zeros(ETH_MIN_PAYLOAD_BYTES - self.payload.len());
        }
        w.put_zeros(ETH_FCS_BYTES);
        *out = w.into_vec();
    }

    /// Parse a frame from its serialised form (as produced by [`encode`]).
    ///
    /// Padding cannot be distinguished from payload at this layer, so the
    /// payload returned may include trailing padding zeroes; upper-layer
    /// codecs (IPv4 total-length, RT control frame fixed sizes) trim it.
    ///
    /// [`encode`]: EthernetFrame::encode
    pub fn decode(bytes: &[u8]) -> RtResult<Self> {
        let mut r = ByteReader::new(bytes, "EthernetFrame");
        let dst = MacAddr::new(r.get_array::<6>()?);
        let src = MacAddr::new(r.get_array::<6>()?);
        let ethertype = r.get_u16()?;
        let rest = r.get_rest();
        if rest.len() < ETH_FCS_BYTES {
            return Err(RtError::FrameDecode(
                "EthernetFrame: truncated before FCS".into(),
            ));
        }
        let payload = rest[..rest.len() - ETH_FCS_BYTES].to_vec();
        if payload.len() > ETH_MTU_BYTES {
            return Err(RtError::FrameDecode(format!(
                "EthernetFrame: payload of {} bytes exceeds MTU",
                payload.len()
            )));
        }
        Ok(EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_types::constants::{ETHERTYPE_IPV4, MAX_FRAME_BYTES, MIN_FRAME_BYTES};

    fn addrs() -> (MacAddr, MacAddr) {
        (
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            MacAddr::new([2, 0, 0, 0, 0, 2]),
        )
    }

    #[test]
    fn short_payload_is_padded_to_minimum() {
        let (dst, src) = addrs();
        let f = EthernetFrame::new(dst, src, ETHERTYPE_IPV4, vec![1, 2, 3]).unwrap();
        assert_eq!(f.frame_bytes(), MIN_FRAME_BYTES);
        assert_eq!(f.encode().len(), MIN_FRAME_BYTES);
        assert_eq!(f.wire_bytes(), MIN_FRAME_BYTES + 20);
    }

    #[test]
    fn full_payload_reaches_max_frame() {
        let (dst, src) = addrs();
        let f = EthernetFrame::new(dst, src, ETHERTYPE_IPV4, vec![0xaa; 1500]).unwrap();
        assert_eq!(f.frame_bytes(), MAX_FRAME_BYTES);
        assert_eq!(f.wire_bytes(), MAX_FRAME_BYTES + 20);
    }

    #[test]
    fn oversized_payload_rejected() {
        let (dst, src) = addrs();
        assert!(EthernetFrame::new(dst, src, ETHERTYPE_IPV4, vec![0; 1501]).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let (dst, src) = addrs();
        let payload: Vec<u8> = (0..200u16).map(|v| (v & 0xff) as u8).collect();
        let f = EthernetFrame::new(dst, src, 0x88B5, payload.clone()).unwrap();
        let bytes = f.encode();
        let g = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(g.dst, dst);
        assert_eq!(g.src, src);
        assert_eq!(g.ethertype, 0x88B5);
        assert_eq!(g.payload, payload);
    }

    #[test]
    fn round_trip_short_payload_keeps_padding() {
        let (dst, src) = addrs();
        let f = EthernetFrame::new(dst, src, ETHERTYPE_IPV4, vec![7, 8]).unwrap();
        let g = EthernetFrame::decode(&f.encode()).unwrap();
        // Padding is indistinguishable at this layer; payload grows to the
        // minimum payload size.
        assert_eq!(g.payload.len(), 46);
        assert_eq!(&g.payload[..2], &[7, 8]);
        assert!(g.payload[2..].iter().all(|&b| b == 0));
    }

    #[test]
    fn decode_rejects_truncated_frames() {
        assert!(EthernetFrame::decode(&[0u8; 10]).is_err());
        assert!(EthernetFrame::decode(&[0u8; 17]).is_err());
    }

    #[test]
    fn encode_into_matches_owned_encode() {
        let (dst, src) = addrs();
        for payload_len in [0usize, 3, 46, 200, 1500] {
            let payload: Vec<u8> = (0..payload_len).map(|v| (v & 0xff) as u8).collect();
            let f = EthernetFrame::new(dst, src, ETHERTYPE_IPV4, payload).unwrap();
            let mut out = Vec::new();
            f.encode_into(&mut out);
            assert_eq!(out, f.encode());
        }
    }
}
