//! Light-weight handshake codec: differential alignment-space compression
//! (paper §3.5).
//!
//! The ACK header (n+'s light-weight CTS) must broadcast the receiver's
//! unwanted space `U` for **each** of the 802.11's OFDM subcarriers so
//! that joiners can align into it. Sent raw this would dwarf the header;
//! the paper leverages that channels vary slowly across subcarriers and
//! sends `U` of the first subcarrier plus per-subcarrier differences
//! `U_i − U_{i−1}`, compressing the whole space into about three OFDM
//! symbols.
//!
//! Two codecs share the wire format (dispatched by a header flag):
//!
//! * the **CP¹ codec** for the dominant advertisement — a 1-dimensional
//!   unwanted space at a 2-antenna receiver is a point on the complex
//!   projective line, i.e. two real angles; nibble-sized angle
//!   differences plus an escape bitmask reach the paper's "about three
//!   OFDM symbols";
//! * the **generic codec** for higher-order spaces, with two details that
//!   make differencing effective: the encoder *phase-aligns* each
//!   subcarrier's basis against the previous one (a subspace has no
//!   unique basis — without alignment the differences would reflect
//!   arbitrary basis rotation, not channel variation), and each
//!   subcarrier picks the cheapest of three escape levels (4-bit, 8-bit,
//!   16-bit fixed point per real component).
//!
//! Quantization error in either codec sits near −35 dB in subspace
//! (projector) distance — far below the 25–27 dB hardware cancellation
//! depth it needs to support.

use nplus_linalg::{c64, CVector, Subspace};

/// Quantization scale: components live in [−1, 1] (orthonormal bases),
/// mapped to i16 full-scale.
const FULL_SCALE: f64 = 32767.0;
/// Differences are coded at 1/256 resolution.
const DIFF_STEP: f64 = 1.0 / 256.0;

/// Escape levels per subcarrier.
const LEVEL_DIFF4: u8 = 0;
const LEVEL_DIFF8: u8 = 1;
const LEVEL_FULL: u8 = 2;

/// Errors from decoding an alignment blob.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the error type of the public `decode_alignment_space`
pub enum CodecError {
    /// The blob is truncated or structurally invalid.
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed alignment blob")
    }
}

impl std::error::Error for CodecError {}

fn phase_align(basis: &[CVector], reference: &[CVector]) -> Vec<CVector> {
    basis
        .iter()
        .zip(reference)
        .map(|(b, r)| {
            let ip = b.dot(r);
            if ip.abs() > 1e-12 {
                // Rotate so <b', r> is real-positive: minimizes |b' − r|.
                b.scale(ip.conj().scale(1.0 / ip.abs()))
            } else {
                b.clone()
            }
        })
        .collect()
}

fn components(basis: &[CVector]) -> Vec<f64> {
    let mut out = Vec::new();
    for v in basis {
        for z in v.iter() {
            out.push(z.re);
            out.push(z.im);
        }
    }
    out
}

fn from_components(vals: &[f64], n_antennas: usize, dim: usize) -> Vec<CVector> {
    let mut basis = Vec::with_capacity(dim);
    let mut it = vals.iter();
    for _ in 0..dim {
        let mut v = CVector::zeros(n_antennas);
        for a in 0..n_antennas {
            let re = *it.next().unwrap();
            let im = *it.next().unwrap();
            v[a] = c64(re, im);
        }
        basis.push(v);
    }
    basis
}

/// Encodes the per-subcarrier unwanted spaces into a compact blob.
///
/// `spaces` holds one subspace per *occupied* subcarrier (52 entries in
/// transmit order), all with the same ambient dimension and the same
/// subspace dimension (the receiver's spare-DoF count). A zero-dimension
/// space encodes to a minimal blob.
pub fn encode_alignment_space(spaces: &[Subspace]) -> Vec<u8> {
    assert!(!spaces.is_empty(), "no subspaces to encode");
    let n_ant = spaces[0].ambient_dim();
    let dim = spaces[0].dim();
    for s in spaces {
        assert_eq!(s.ambient_dim(), n_ant, "inconsistent ambient dims");
        assert_eq!(s.dim(), dim, "inconsistent subspace dims");
    }
    // The dominant advertisement in heterogeneous LANs is a 1-dimensional
    // unwanted space at a 2-antenna receiver. That subspace is a point on
    // the complex projective line — two real angles — for which the
    // dedicated codec below is ~4x more compact than the generic one.
    // This is what gets the alignment space down to the paper's "about
    // three OFDM symbols".
    if n_ant == 2 && dim == 1 {
        return encode_cp1(spaces);
    }
    let mut out = Vec::new();
    out.push(((n_ant as u8) << 4) | dim as u8);
    out.push(spaces.len() as u8);
    if dim == 0 {
        return out;
    }

    // First subcarrier: full 16-bit components.
    let mut prev: Vec<CVector> = spaces[0].basis().to_vec();
    for c in components(&prev) {
        let q = (c * FULL_SCALE).round().clamp(-32768.0, 32767.0) as i16;
        out.extend_from_slice(&q.to_le_bytes());
    }

    // Subsequent subcarriers: best escape level.
    for s in &spaces[1..] {
        let aligned = phase_align(s.basis(), &prev);
        let cur = components(&aligned);
        let ref_c = components(&prev);
        let diffs: Vec<f64> = cur.iter().zip(&ref_c).map(|(a, b)| a - b).collect();
        let max_diff = diffs.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        let steps: Vec<i32> = diffs
            .iter()
            .map(|d| (d / DIFF_STEP).round() as i32)
            .collect();
        if max_diff <= 7.0 * DIFF_STEP {
            out.push(LEVEL_DIFF4);
            // Pack two 4-bit signed values per byte.
            for pair in steps.chunks(2) {
                let lo = (pair[0].clamp(-8, 7) & 0xF) as u8;
                let hi = (pair.get(1).copied().unwrap_or(0).clamp(-8, 7) & 0xF) as u8;
                out.push(lo | (hi << 4));
            }
        } else if max_diff <= 127.0 * DIFF_STEP {
            out.push(LEVEL_DIFF8);
            for &s in &steps {
                out.push((s.clamp(-128, 127) as i8) as u8);
            }
        } else {
            out.push(LEVEL_FULL);
            for c in &cur {
                let q = (c * FULL_SCALE).round().clamp(-32768.0, 32767.0) as i16;
                out.extend_from_slice(&q.to_le_bytes());
            }
        }
        // The decoder reconstructs from quantized values; mirror that here
        // so differences never accumulate error.
        let quantized = reconstruct_quantized(&cur, &ref_c, max_diff);
        prev = from_components(&quantized, n_ant, dim);
    }
    out
}

fn reconstruct_quantized(cur: &[f64], prev: &[f64], max_diff: f64) -> Vec<f64> {
    if max_diff <= 127.0 * DIFF_STEP {
        cur.iter()
            .zip(prev)
            .map(|(c, p)| {
                let step = ((c - p) / DIFF_STEP).round();
                let clamped = if max_diff <= 7.0 * DIFF_STEP {
                    step.clamp(-8.0, 7.0)
                } else {
                    step.clamp(-128.0, 127.0)
                };
                p + clamped * DIFF_STEP
            })
            .collect()
    } else {
        cur.iter()
            .map(|c| (c * FULL_SCALE).round().clamp(-32768.0, 32767.0) / FULL_SCALE)
            .collect()
    }
}

/// CP¹ codec: a 1-dimensional subspace of C² is `span{(cos θ, sin θ e^{iφ})}`
/// with θ ∈ [0, π/2] and φ ∈ [0, 2π). Eight bits per angle at full
/// resolution; smooth channels need only a signed nibble pair per
/// subsequent subcarrier, with a bitmask marking full-resolution escapes.
fn angles_of(space: &Subspace) -> (f64, f64) {
    let v = &space.basis()[0];
    let a = v[0];
    let b = v[1];
    let theta = b.abs().atan2(a.abs());
    let phi = if a.abs() > 1e-12 {
        (b * a.conj()).arg()
    } else {
        0.0
    };
    let phi = if phi < 0.0 {
        phi + 2.0 * std::f64::consts::PI
    } else {
        phi
    };
    (theta, phi)
}

fn space_of_angles(theta: f64, phi: f64) -> Subspace {
    let v = CVector::from_vec(vec![
        c64(theta.cos(), 0.0),
        nplus_linalg::Complex64::from_polar(theta.sin(), phi),
    ]);
    Subspace::span(2, &[v])
}

const CP1_FLAG: u8 = 0x80;

fn quantize_cp1(theta: f64, phi: f64) -> (u8, u8) {
    let qt = (theta / std::f64::consts::FRAC_PI_2 * 255.0)
        .round()
        .clamp(0.0, 255.0) as u8;
    let qp = ((phi / (2.0 * std::f64::consts::PI) * 256.0).round() as i64).rem_euclid(256) as u8;
    (qt, qp)
}

fn encode_cp1(spaces: &[Subspace]) -> Vec<u8> {
    let n_sc = spaces.len();
    assert!(n_sc <= 127, "CP1 codec supports up to 127 subcarriers");
    let mut out = Vec::with_capacity(4 + 2 * n_sc);
    out.push(0x21); // n_ant = 2, dim = 1
    out.push(CP1_FLAG | n_sc as u8);
    let (mut pt, mut pp) = quantize_cp1(angles_of(&spaces[0]).0, angles_of(&spaces[0]).1);
    out.push(pt);
    out.push(pp);
    // Escape bitmask for subcarriers 1..n_sc.
    let mask_pos = out.len();
    out.extend(std::iter::repeat_n(0u8, (n_sc - 1).div_ceil(8)));
    for (i, s) in spaces[1..].iter().enumerate() {
        let (theta, phi) = angles_of(s);
        let (qt, qp) = quantize_cp1(theta, phi);
        // Differences in full-resolution units; φ wraps circularly.
        let dt = qt as i32 - pt as i32;
        let dp = ((qp as i32 - pp as i32 + 384) % 256) - 128;
        // Nibbles carry diff/2, covering ±14 units.
        let (nt, np) = (
            (dt as f64 / 2.0).round() as i32,
            (dp as f64 / 2.0).round() as i32,
        );
        if nt.abs() <= 7 && np.abs() <= 7 {
            out.push(((nt & 0xF) as u8) | (((np & 0xF) as u8) << 4));
            pt = (pt as i32 + 2 * nt).clamp(0, 255) as u8;
            pp = ((pp as i32 + 2 * np).rem_euclid(256)) as u8;
        } else {
            out[mask_pos + i / 8] |= 1 << (i % 8);
            out.push(qt);
            out.push(qp);
            pt = qt;
            pp = qp;
        }
    }
    out
}

fn decode_cp1(blob: &[u8]) -> Result<Vec<Subspace>, CodecError> {
    if blob.len() < 4 {
        return Err(CodecError::Malformed);
    }
    let n_sc = (blob[1] & 0x7F) as usize;
    if n_sc == 0 {
        return Err(CodecError::Malformed);
    }
    let mut pt = blob[2];
    let mut pp = blob[3];
    let mask_len = (n_sc - 1).div_ceil(8);
    if blob.len() < 4 + mask_len {
        return Err(CodecError::Malformed);
    }
    let mask = &blob[4..4 + mask_len];
    let mut pos = 4 + mask_len;
    let to_space = |qt: u8, qp: u8| {
        let theta = qt as f64 / 255.0 * std::f64::consts::FRAC_PI_2;
        let phi = qp as f64 / 256.0 * 2.0 * std::f64::consts::PI;
        space_of_angles(theta, phi)
    };
    let mut spaces = Vec::with_capacity(n_sc);
    spaces.push(to_space(pt, pp));
    for i in 0..n_sc - 1 {
        let full = mask[i / 8] & (1 << (i % 8)) != 0;
        if full {
            if pos + 2 > blob.len() {
                return Err(CodecError::Malformed);
            }
            pt = blob[pos];
            pp = blob[pos + 1];
            pos += 2;
        } else {
            if pos >= blob.len() {
                return Err(CodecError::Malformed);
            }
            let byte = blob[pos];
            pos += 1;
            let nt = (((byte & 0xF) << 4) as i8) >> 4;
            let np = ((byte & 0xF0) as i8) >> 4;
            pt = (pt as i32 + 2 * nt as i32).clamp(0, 255) as u8;
            pp = ((pp as i32 + 2 * np as i32).rem_euclid(256)) as u8;
        }
        spaces.push(to_space(pt, pp));
    }
    if pos != blob.len() {
        return Err(CodecError::Malformed);
    }
    Ok(spaces)
}

/// Decodes an alignment blob back to per-subcarrier subspaces.
pub fn decode_alignment_space(blob: &[u8]) -> Result<Vec<Subspace>, CodecError> {
    if blob.len() < 2 {
        return Err(CodecError::Malformed);
    }
    if blob[0] == 0x21 && blob[1] & CP1_FLAG != 0 {
        return decode_cp1(blob);
    }
    let n_ant = (blob[0] >> 4) as usize;
    let dim = (blob[0] & 0xF) as usize;
    let n_sc = blob[1] as usize;
    if n_ant == 0 || n_sc == 0 || dim > n_ant {
        return Err(CodecError::Malformed);
    }
    if dim == 0 {
        return Ok(vec![Subspace::zero(n_ant); n_sc]);
    }
    let n_comp = dim * n_ant * 2;
    let mut pos = 2usize;
    let read_full = |pos: &mut usize| -> Result<Vec<f64>, CodecError> {
        if *pos + 2 * n_comp > blob.len() {
            return Err(CodecError::Malformed);
        }
        let mut vals = Vec::with_capacity(n_comp);
        for _ in 0..n_comp {
            let q = i16::from_le_bytes([blob[*pos], blob[*pos + 1]]);
            vals.push(q as f64 / FULL_SCALE);
            *pos += 2;
        }
        Ok(vals)
    };

    let mut spaces = Vec::with_capacity(n_sc);
    let mut prev = read_full(&mut pos)?;
    spaces.push(make_space(&prev, n_ant, dim));

    for _ in 1..n_sc {
        if pos >= blob.len() {
            return Err(CodecError::Malformed);
        }
        let level = blob[pos];
        pos += 1;
        let cur: Vec<f64> = match level {
            LEVEL_DIFF4 => {
                let n_bytes = n_comp.div_ceil(2);
                if pos + n_bytes > blob.len() {
                    return Err(CodecError::Malformed);
                }
                let mut steps = Vec::with_capacity(n_comp);
                for i in 0..n_comp {
                    let byte = blob[pos + i / 2];
                    let nib = if i % 2 == 0 { byte & 0xF } else { byte >> 4 };
                    // Sign-extend the 4-bit value.
                    let signed = ((nib << 4) as i8) >> 4;
                    steps.push(signed as f64);
                }
                pos += n_bytes;
                prev.iter()
                    .zip(&steps)
                    .map(|(p, s)| p + s * DIFF_STEP)
                    .collect()
            }
            LEVEL_DIFF8 => {
                if pos + n_comp > blob.len() {
                    return Err(CodecError::Malformed);
                }
                let vals = prev
                    .iter()
                    .enumerate()
                    .map(|(i, p)| p + (blob[pos + i] as i8) as f64 * DIFF_STEP)
                    .collect();
                pos += n_comp;
                vals
            }
            LEVEL_FULL => read_full(&mut pos)?,
            _ => return Err(CodecError::Malformed),
        };
        spaces.push(make_space(&cur, n_ant, dim));
        prev = cur;
    }
    Ok(spaces)
}

fn make_space(vals: &[f64], n_ant: usize, dim: usize) -> Subspace {
    let basis = from_components(vals, n_ant, dim);
    // Quantization slightly de-orthonormalizes the basis; span() cleans
    // it back up.
    Subspace::span(n_ant, &basis)
}

/// The worst-case subspace mismatch between two per-subcarrier space
/// lists: `max_k sin θ_max(U_k, V_k)` measured via projector distance.
pub fn max_space_error(a: &[Subspace], b: &[Subspace]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let (p, q) = (x.projector(), y.projector());
            assert_eq!(p.shape(), q.shape(), "max_space_error: ambient mismatch");
            let mut d = p.clone();
            for i in 0..p.rows() {
                for j in 0..p.cols() {
                    d.set(i, j, p.get(i, j) - q.get(i, j));
                }
            }
            d.frobenius_norm()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::Complex64;
    use nplus_phy::rates::RATE_TABLE;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Smoothly varying spaces, as real channels produce.
    fn smooth_spaces(n_sc: usize, n_ant: usize, rng: &mut StdRng) -> Vec<Subspace> {
        // A slowly rotating direction vector.
        let base: Vec<Complex64> = (0..n_ant)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let drift: Vec<Complex64> = (0..n_ant)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(0.02))
            .collect();
        (0..n_sc)
            .map(|k| {
                let v: CVector = base
                    .iter()
                    .zip(&drift)
                    .map(|(b, d)| *b + d.scale(k as f64))
                    .collect();
                Subspace::span(n_ant, &[v])
            })
            .collect()
    }

    #[test]
    fn round_trip_smooth_spaces() {
        let mut rng = StdRng::seed_from_u64(1);
        let spaces = smooth_spaces(52, 2, &mut rng);
        let blob = encode_alignment_space(&spaces);
        let decoded = decode_alignment_space(&blob).unwrap();
        assert_eq!(decoded.len(), 52);
        let err = max_space_error(&spaces, &decoded);
        assert!(err < 0.06, "subspace error {err}");
    }

    #[test]
    fn smooth_spaces_compress_well() {
        // The §3.5 claim: differential coding gets the alignment space
        // down to a few OFDM symbols.
        let mut rng = StdRng::seed_from_u64(2);
        let spaces = smooth_spaces(52, 2, &mut rng);
        let blob = encode_alignment_space(&spaces);
        // Raw encoding would be 52 subcarriers × 4 components × 2 bytes
        // = 416 bytes; differential must do much better.
        assert!(
            blob.len() < 170,
            "blob {} bytes — differential coding ineffective",
            blob.len()
        );
        let syms = (blob.len() * 8).div_ceil(RATE_TABLE[7].data_bits_per_symbol());
        assert!(
            syms <= 7,
            "{syms} OFDM symbols — paper reports ~3 at comparable rates"
        );
    }

    #[test]
    fn rough_spaces_fall_back_to_full() {
        // Independent random spaces per subcarrier can't be differenced;
        // the escape level must keep the round trip correct anyway.
        let mut rng = StdRng::seed_from_u64(3);
        let spaces: Vec<Subspace> = (0..52)
            .map(|_| {
                let v: CVector = (0..2)
                    .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                    .collect();
                Subspace::span(2, &[v])
            })
            .collect();
        let blob = encode_alignment_space(&spaces);
        let decoded = decode_alignment_space(&blob).unwrap();
        let err = max_space_error(&spaces, &decoded);
        // 8-bit angular quantization bounds the projector error around
        // 0.03 — a subspace mismatch near -35 dB, far below the
        // hardware's 25-27 dB cancellation depth.
        assert!(err < 0.04, "subspace error {err}");
    }

    #[test]
    fn zero_dimension_space() {
        let spaces = vec![Subspace::zero(3); 52];
        let blob = encode_alignment_space(&spaces);
        assert_eq!(blob.len(), 2, "zero-dim blob should be header only");
        let decoded = decode_alignment_space(&blob).unwrap();
        assert_eq!(decoded.len(), 52);
        assert!(decoded.iter().all(|s| s.is_zero()));
    }

    #[test]
    fn three_antenna_two_dim_spaces() {
        let mut rng = StdRng::seed_from_u64(4);
        // Two smoothly varying directions.
        let a = smooth_spaces(52, 3, &mut rng);
        let b = smooth_spaces(52, 3, &mut rng);
        let spaces: Vec<Subspace> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| {
                let mut basis = x.basis().to_vec();
                basis.extend(y.basis().to_vec());
                Subspace::span(3, &basis)
            })
            .collect();
        // Guard: all spaces must have dim 2 for the codec.
        if spaces.iter().any(|s| s.dim() != 2) {
            return; // degenerate draw; skip
        }
        let blob = encode_alignment_space(&spaces);
        let decoded = decode_alignment_space(&blob).unwrap();
        let err = max_space_error(&spaces, &decoded);
        assert!(err < 0.08, "subspace error {err}");
    }

    #[test]
    fn malformed_blobs_rejected() {
        assert!(matches!(
            decode_alignment_space(&[]),
            Err(CodecError::Malformed)
        ));
        assert!(matches!(
            decode_alignment_space(&[0x21]),
            Err(CodecError::Malformed)
        ));
        // Truncated first subcarrier.
        assert!(matches!(
            decode_alignment_space(&[0x21, 52, 1, 2, 3]),
            Err(CodecError::Malformed)
        ));
        // Bad escape level on the generic (3-antenna) path.
        let mut rng = StdRng::seed_from_u64(5);
        let spaces = smooth_spaces(3, 3, &mut rng);
        let mut blob = encode_alignment_space(&spaces);
        // Find the first level byte (after header + full first SC) and
        // corrupt it.
        let level_pos = 2 + 6 * 2; // header + 6 components × 2 bytes
        blob[level_pos] = 9;
        assert!(matches!(
            decode_alignment_space(&blob),
            Err(CodecError::Malformed)
        ));
        // Truncated CP¹ blob.
        let spaces2 = smooth_spaces(8, 2, &mut rng);
        let blob2 = encode_alignment_space(&spaces2);
        assert!(matches!(
            decode_alignment_space(&blob2[..blob2.len() - 1]),
            Err(CodecError::Malformed)
        ));
    }

    #[test]
    fn phase_ambiguity_does_not_bloat_encoding() {
        // The same physical subspace with wildly rotated bases must still
        // compress — the encoder's phase alignment handles it.
        let mut rng = StdRng::seed_from_u64(6);
        let spaces = smooth_spaces(52, 2, &mut rng);
        let rotated: Vec<Subspace> = spaces
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let basis: Vec<CVector> = s
                    .basis()
                    .iter()
                    .map(|v| v.scale(Complex64::cis(2.399 * k as f64)))
                    .collect();
                Subspace::span(2, &basis)
            })
            .collect();
        let plain = encode_alignment_space(&spaces).len();
        let rot = encode_alignment_space(&rotated).len();
        assert!(
            rot <= plain + 16,
            "rotation bloated encoding: {rot} vs {plain}"
        );
    }

    #[test]
    fn expected_subcarrier_count() {
        // The blob carries one space per occupied subcarrier.
        let n_sc = nplus_phy::params::occupied_subcarrier_indices().len();
        assert_eq!(n_sc, 52);
        let blob = encode_alignment_space(&vec![Subspace::zero(2); n_sc]);
        assert_eq!(decode_alignment_space(&blob).unwrap().len(), n_sc);
    }
}
