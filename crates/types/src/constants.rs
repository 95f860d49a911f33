//! Ethernet framing constants and paper-specific protocol constants.

/// Minimum Ethernet MAC frame size (header + payload + FCS) in bytes.
pub const MIN_FRAME_BYTES: usize = 64;

/// Maximum standard Ethernet MAC frame size (header + 1500 B payload + FCS)
/// in bytes.
pub const MAX_FRAME_BYTES: usize = 1518;

/// Ethernet MAC header size: destination (6) + source (6) + EtherType (2).
pub const ETH_HEADER_BYTES: usize = 14;

/// Frame check sequence (CRC-32) size in bytes.
pub const ETH_FCS_BYTES: usize = 4;

/// Maximum MAC payload (MTU) in bytes.
pub const ETH_MTU_BYTES: usize = 1500;

/// Minimum MAC payload in bytes (frames shorter than this are padded).
pub const ETH_MIN_PAYLOAD_BYTES: usize = MIN_FRAME_BYTES - ETH_HEADER_BYTES - ETH_FCS_BYTES;

/// Preamble (7) + start-of-frame delimiter (1) in bytes.
pub const ETH_PREAMBLE_BYTES: usize = 8;

/// Inter-frame gap expressed in byte times (96 bit times).
pub const ETH_IFG_BYTES: usize = 12;

/// Per-frame wire overhead beyond the MAC frame itself (preamble + IFG).
pub const ETH_WIRE_OVERHEAD_BYTES: usize = ETH_PREAMBLE_BYTES + ETH_IFG_BYTES;

/// Total wire occupancy of a maximum-sized frame: this defines the paper's
/// time-slot length.
pub const MAX_FRAME_WIRE_BYTES: usize = MAX_FRAME_BYTES + ETH_WIRE_OVERHEAD_BYTES;

/// IPv4 header length without options, in bytes.
pub const IPV4_HEADER_BYTES: usize = 20;

/// UDP header length in bytes.
pub const UDP_HEADER_BYTES: usize = 8;

/// Maximum UDP payload that fits in a single maximum-sized Ethernet frame.
pub const MAX_UDP_PAYLOAD_BYTES: usize = ETH_MTU_BYTES - IPV4_HEADER_BYTES - UDP_HEADER_BYTES;

/// EtherType for IPv4, used by RT data traffic (which is UDP/IP underneath).
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// EtherType chosen for the RT-layer control frames (RequestFrame /
/// ResponseFrame).  The paper does not prescribe one; an experimental value
/// from the locally administered range is used.
pub const ETHERTYPE_RT_CONTROL: u16 = 0x88B5;

/// The Type-of-Service value that marks a datagram as real-time (§18.2.2:
/// "The Type of Service (ToS) field is always set to value 255").
pub const RT_TOS_VALUE: u8 = 255;

/// Wire size in bytes of the RequestFrame payload (Figure 18.3):
/// type(1) + request id(1) + channel id(2) + src MAC(6) + dst MAC(6)
/// + src IP(4) + dst IP(4) + period(4) + capacity(4) + deadline(4).
pub const REQUEST_FRAME_PAYLOAD_BYTES: usize = 36;

/// Wire size in bytes of the ResponseFrame payload (Figure 18.4).
pub const RESPONSE_FRAME_PAYLOAD_BYTES: usize = 11;

/// Frame-type discriminator carried in the first payload byte of RT control
/// frames: connection request ("Connect packet" in Figure 18.3).
pub const RT_FRAME_TYPE_CONNECT: u8 = 0x01;

/// Frame-type discriminator: connection response ("Response packet" in
/// Figure 18.4).
pub const RT_FRAME_TYPE_RESPONSE: u8 = 0x02;

/// Frame-type discriminator: channel tear-down request (an extension beyond
/// the paper, needed for dynamic channel removal).
pub const RT_FRAME_TYPE_TEARDOWN: u8 = 0x03;

/// Frame-type discriminator: switch-to-switch reservation traffic of the
/// distributed control plane (probe / reserve / rollback / confirm /
/// release), an extension beyond the paper's centralised management.
pub const RT_FRAME_TYPE_RESERVATION: u8 = 0x04;

/// Buffer size of the small arena class: covers every RT control frame
/// (request / response / teardown / reservation with a short value list)
/// plus the 14-byte Ethernet header.
pub const ARENA_SMALL_BYTES: usize = 128;

/// Buffer size of the medium arena class: typical RT data frames with
/// sensor-sized payloads.
pub const ARENA_MEDIUM_BYTES: usize = 512;

/// Buffer size of the large arena class: a full-MTU Ethernet frame stored
/// unpadded (header + 1500-byte payload).
pub const ARENA_MTU_BYTES: usize = ETH_HEADER_BYTES + ETH_MTU_BYTES;

/// Buffers per slab chunk in the frame arena.  Each size class grows its
/// backing storage one contiguous chunk at a time, so a workload that keeps
/// N frames in flight costs N/256 heap allocations, not N, and neighbouring
/// buffers share cache lines and pages.
pub const ARENA_CHUNK_SLOTS: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn frame_size_relations() {
        assert!(MIN_FRAME_BYTES < MAX_FRAME_BYTES);
        assert_eq!(
            ETH_HEADER_BYTES + ETH_MTU_BYTES + ETH_FCS_BYTES,
            MAX_FRAME_BYTES
        );
        assert_eq!(ETH_MIN_PAYLOAD_BYTES, 46);
        assert_eq!(MAX_FRAME_WIRE_BYTES, 1538);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn udp_payload_fits_mtu() {
        assert_eq!(MAX_UDP_PAYLOAD_BYTES, 1472);
        assert!(MAX_UDP_PAYLOAD_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES <= ETH_MTU_BYTES);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn arena_classes_are_ordered_and_cover_the_mtu() {
        assert!(ARENA_SMALL_BYTES < ARENA_MEDIUM_BYTES);
        assert!(ARENA_MEDIUM_BYTES < ARENA_MTU_BYTES);
        assert_eq!(ARENA_MTU_BYTES, 1514);
    }

    #[test]
    fn rt_frame_types_are_distinct() {
        assert_ne!(RT_FRAME_TYPE_CONNECT, RT_FRAME_TYPE_RESPONSE);
        assert_ne!(RT_FRAME_TYPE_CONNECT, RT_FRAME_TYPE_TEARDOWN);
        assert_ne!(RT_FRAME_TYPE_RESPONSE, RT_FRAME_TYPE_TEARDOWN);
    }
}
