//! Light-weight handshake frame formats (§3.5).
//!
//! n+ sends no standalone RTS/CTS frames. Instead it splits each packet's
//! header from its body: the **data header** doubles as a light-weight RTS
//! and the **ACK header** doubles as a light-weight CTS. Beyond standard
//! 802.11 fields, the ACK header carries the chosen bitrate and the
//! receiver's (differentially compressed) alignment space; the data header
//! may list multiple receivers with per-receiver stream counts (Fig. 4's
//! one-AP-to-two-clients case).
//!
//! The simulation charges airtime from `encoded_len` and never
//! materializes the bytes: each header is explicit little-endian fields
//! followed by a CRC-32, and `encoded_len` is that layout's arithmetic,
//! pinned by test against a serializer of the layout.

/// A node address (the simulation uses small integers; 802.11 would use
/// 48-bit MACs — the field is 16 bits here which the sim never exhausts).
pub(crate) type Addr = u16;

/// One receiver entry in a data header: destination and how many spatial
/// streams it will be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// nplus:allow(VIS001): the element type of the public field `DataHeader::receivers`
pub struct ReceiverEntry {
    /// Destination address.
    pub dst: Addr,
    /// Number of spatial streams destined to `dst`.
    pub n_streams: u8,
}

/// The data header — n+'s light-weight RTS.
///
/// Contains everything an overhearing contender needs: who is
/// transmitting (and, via the PHY preamble, the channels from every
/// transmit antenna), how many degrees of freedom the transmission uses,
/// and when it ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataHeader {
    /// Transmitter address.
    pub src: Addr,
    /// Receivers and their stream counts (usually one entry; several for
    /// the multi-receiver AP case of Fig. 4).
    pub receivers: Vec<ReceiverEntry>,
    /// Number of antennas the transmitter uses for this transmission.
    pub n_antennas: u8,
    /// Body duration in OFDM symbols (together with the bitrate this
    /// yields the end time all joiners must respect).
    pub duration_symbols: u16,
    /// Sequence number of the (first) MPDU in the body.
    pub seq: u16,
}

/// The ACK header — n+'s light-weight CTS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckHeader {
    /// Receiver (the node sending this CTS).
    pub src: Addr,
    /// The transmitter being answered.
    pub dst: Addr,
    /// Chosen rate index into the PHY rate table, one per spatial stream
    /// destined to this receiver (§3.4: receiver-side per-packet ESNR
    /// selection picks a rate per stream).
    pub rate_indices: Vec<u8>,
    /// Differentially compressed alignment space (opaque to the MAC;
    /// encoded/decoded by the core crate's handshake codec). Empty when
    /// the receiver has no spare dimensions to advertise.
    pub alignment_blob: Vec<u8>,
}

impl DataHeader {
    /// Serialized length in bytes of a data header with `n_receivers`
    /// entries, CRC included — pure arithmetic for air-time accounting,
    /// so hot paths never materialize the byte vector.
    pub const fn encoded_len(n_receivers: usize) -> usize {
        // type(1) + src(2) + antennas(1) + duration(2) + seq(2)
        // + count(1) + 3 per receiver + CRC-32(4).
        13 + 3 * n_receivers
    }
}

impl AckHeader {
    /// Serialized length in bytes of an ACK header carrying `n_rates`
    /// rate indices and an `blob_len`-byte alignment blob, CRC included —
    /// pure arithmetic like [`DataHeader::encoded_len`].
    pub const fn encoded_len(n_rates: usize, blob_len: usize) -> usize {
        // type(1) + src(2) + dst(2) + n_rates(1) + rates + blob_len(2)
        // + blob + CRC-32(4).
        12 + n_rates + blob_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The byte layout `encoded_len` counts, kept here as its reference.
    // The CRC-32 trailer's value does not affect the length.
    impl DataHeader {
        fn to_bytes(&self) -> Vec<u8> {
            let mut b = vec![0xD1];
            b.extend_from_slice(&self.src.to_le_bytes());
            b.push(self.n_antennas);
            b.extend_from_slice(&self.duration_symbols.to_le_bytes());
            b.extend_from_slice(&self.seq.to_le_bytes());
            b.push(self.receivers.len() as u8);
            for r in &self.receivers {
                b.extend_from_slice(&r.dst.to_le_bytes());
                b.push(r.n_streams);
            }
            b.extend_from_slice(&[0; 4]);
            b
        }
    }

    impl AckHeader {
        fn to_bytes(&self) -> Vec<u8> {
            let mut b = vec![0xA1];
            b.extend_from_slice(&self.src.to_le_bytes());
            b.extend_from_slice(&self.dst.to_le_bytes());
            b.push(self.rate_indices.len() as u8);
            b.extend_from_slice(&self.rate_indices);
            b.extend_from_slice(&(self.alignment_blob.len() as u16).to_le_bytes());
            b.extend_from_slice(&self.alignment_blob);
            b.extend_from_slice(&[0; 4]);
            b
        }
    }

    #[test]
    fn single_receiver_header_is_compact() {
        // 9 fixed + 3 receiver + 4 CRC = 16 bytes: a handful of OFDM
        // symbols at the base rate.
        assert_eq!(DataHeader::encoded_len(1), 16);
    }

    #[test]
    fn encoded_len_matches_serialization() {
        for n_rx in 1..4usize {
            let h = DataHeader {
                src: 1,
                receivers: (0..n_rx)
                    .map(|i| ReceiverEntry {
                        dst: i as Addr,
                        n_streams: 1,
                    })
                    .collect(),
                n_antennas: 2,
                duration_symbols: 77,
                seq: 5,
            };
            assert_eq!(h.to_bytes().len(), DataHeader::encoded_len(n_rx));
        }
        for (n_rates, blob) in [(1usize, 0usize), (2, 62), (3, 100)] {
            let h = AckHeader {
                src: 3,
                dst: 7,
                rate_indices: vec![4; n_rates],
                alignment_blob: vec![0xAB; blob],
            };
            assert_eq!(h.to_bytes().len(), AckHeader::encoded_len(n_rates, blob));
        }
    }
}
