//! The n+ precoder: joining ongoing transmissions without interfering
//! (paper §3.3, Claims 3.1–3.5, Eq. 7).
//!
//! A transmitter that wants to join computes, per OFDM subcarrier, one
//! pre-coding vector per stream such that:
//!
//! * at every receiver whose wanted streams fill its whole receive space
//!   (`n = N`) the signal is **nulled** (Eq. 5);
//! * at every receiver with spare dimensions the signal is **aligned**
//!   into its unwanted space (Eq. 6) — it lands on top of interference
//!   the receiver already projects away;
//! * when the transmitter serves several receivers at once (Fig. 4), each
//!   stream is additionally aligned into the unwanted space of the
//!   transmitter's *other* receivers (Claim 3.5).
//!
//! Nulling is the `U = {0}` special case of alignment (the complement of
//! an empty unwanted space is everything, so the constraint rows are all
//! of `H`), which keeps the implementation unified.

use nplus_linalg::{
    mul_into, null_space_into, CMatrix, CVector, NullspaceWorkspace, Subspace, SubspaceWorkspace,
    VecPool,
};

/// A receiver of an *ongoing* transmission that must be protected.
#[derive(Debug, Clone)]
pub struct ProtectedReceiver {
    /// The forward channel from the joining transmitter to this receiver
    /// (`N × M`), as the transmitter believes it (reciprocity + hardware
    /// error applied by the caller).
    pub channel: CMatrix,
    /// The receiver's unwanted space `U` (ambient `N`): the directions it
    /// already discards. The zero subspace means every dimension is
    /// wanted, i.e. the transmitter must null (Claim 3.1).
    pub unwanted: Subspace,
}

impl ProtectedReceiver {
    /// A receiver with no spare dimensions — pure nulling target.
    pub fn nulling(channel: CMatrix) -> Self {
        let n = channel.rows();
        ProtectedReceiver {
            channel,
            unwanted: Subspace::zero(n),
        }
    }

    /// A receiver with an advertised unwanted space — alignment target.
    pub fn aligning(channel: CMatrix, unwanted: Subspace) -> Self {
        assert_eq!(
            unwanted.ambient_dim(),
            channel.rows(),
            "unwanted space ambient must equal receiver antennas"
        );
        ProtectedReceiver { channel, unwanted }
    }
}

/// One of the joining transmitter's *own* receivers and the streams
/// destined to it.
#[derive(Debug, Clone)]
pub struct OwnReceiver {
    /// Forward channel to this receiver (`N × M`).
    pub channel: CMatrix,
    /// Streams destined to this receiver.
    pub n_streams: usize,
    /// The receiver's unwanted space, used to protect it from the
    /// transmitter's streams destined to *other* receivers.
    pub unwanted: Subspace,
}

/// Errors from precoding computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrecoderError {
    /// The constraint set leaves no usable degrees of freedom
    /// (`K >= M`): the transmitter cannot join.
    NoDegreesOfFreedom,
    /// A receiver was asked for more streams than the null space allows.
    TooManyStreams {
        /// Streams requested.
        requested: usize,
        /// Streams available.
        available: usize,
    },
}

impl std::fmt::Display for PrecoderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecoderError::NoDegreesOfFreedom => {
                write!(f, "no degrees of freedom left for joining")
            }
            PrecoderError::TooManyStreams {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} streams but only {available} fit the constraints"
            ),
        }
    }
}

impl std::error::Error for PrecoderError {}

/// The computed pre-coding for one subcarrier: `precoders[i]` is the
/// `M`-vector for stream `i`, streams ordered receiver-by-receiver in the
/// order given to [`compute_precoders`].
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `compute_precoders`
pub struct Precoding {
    /// One unit-norm pre-coding vector per stream (scaled so total
    /// transmit power across streams is 1).
    pub vectors: Vec<CVector>,
    /// Which own-receiver each stream belongs to.
    pub stream_owner: Vec<usize>,
}

/// Computes pre-coding vectors per Claim 3.5 / Eq. 7 for one subcarrier.
///
/// `m_antennas` is the joining transmitter's antenna count; `protected`
/// are the receivers of ongoing transmissions; `own` are the joiner's
/// receivers with their stream counts. Returns an error if the constraint
/// set leaves fewer dimensions than requested. Allocating wrapper over
/// [`compute_precoders_into`].
pub fn compute_precoders(
    m_antennas: usize,
    protected: &[ProtectedReceiver],
    own: &[OwnReceiver],
) -> Result<Precoding, PrecoderError> {
    let protected_views: Vec<ProtectedReceiverSoARef> = protected
        .iter()
        .map(|p| ProtectedReceiverSoARef {
            channel: &p.channel,
            unwanted: &p.unwanted,
        })
        .collect();
    let own_views: Vec<OwnReceiverSoARef> = own
        .iter()
        .map(|r| OwnReceiverSoARef {
            channel: &r.channel,
            n_streams: r.n_streams,
            unwanted: &r.unwanted,
        })
        .collect();
    let mut ws = PrecoderWorkspace::default();
    compute_precoders_into(m_antennas, &protected_views, &own_views, &mut ws)?;
    let stream_owner = own
        .iter()
        .enumerate()
        .flat_map(|(r_idx, r)| std::iter::repeat_n(r_idx, r.n_streams))
        .collect();
    Ok(Precoding {
        vectors: ws.out.as_slice().to_vec(),
        stream_owner,
    })
}

/// Borrowed view of a protected receiver: the engine's channel comes
/// straight from the cache's tables, the unwanted space from its pooled
/// round state.
#[derive(Debug, Clone, Copy)]
pub struct ProtectedReceiverSoARef<'a> {
    /// The believed forward channel (`N × M`).
    pub channel: &'a CMatrix,
    /// The receiver's unwanted space `U` (ambient `N`).
    pub unwanted: &'a Subspace,
}

impl ProtectedReceiverSoARef<'_> {
    /// The number of independent linear constraints this receiver imposes
    /// (its wanted-stream count `n = N − dim U`).
    pub(crate) fn n_constraints(&self) -> usize {
        self.channel.rows() - self.unwanted.dim()
    }
}

/// Borrowed view of an own receiver (see [`ProtectedReceiverSoARef`]).
#[derive(Debug, Clone, Copy)]
pub struct OwnReceiverSoARef<'a> {
    /// Forward channel to this receiver (`N × M`).
    ///
    /// The kernel reads its values only to align this receiver against
    /// the joiner's *other* own receivers (Claim 3.5). With one own
    /// receiver only its shape is read (its column count must equal the
    /// transmit antennas), so a caller may pass a shape-only view: the
    /// engine hands a zeroed matrix instead of a believed draw.
    pub channel: &'a CMatrix,
    /// Streams destined to this receiver.
    pub n_streams: usize,
    /// The receiver's unwanted space.
    pub unwanted: &'a Subspace,
}

/// Reusable buffers for [`compute_precoders_into`] — one per engine,
/// holding the high-water allocations of every per-subcarrier precoder
/// solve of a run.
#[derive(Debug, Clone, Default)]
pub struct PrecoderWorkspace {
    shared: CMatrix,
    rows: CMatrix,
    cons: CMatrix,
    rowop: CMatrix,
    uperp: Subspace,
    sub_ws: SubspaceWorkspace,
    ns_ws: NullspaceWorkspace,
    basis: Vec<CVector>,
    /// The per-stream pre-coding vectors after a successful call, streams
    /// ordered receiver-by-receiver exactly like [`Precoding::vectors`].
    pub out: VecPool<CVector>,
}

/// The constraint rows `U^⊥ H` of Eq. 6 into a pooled buffer — or `H`
/// itself for nulling (Eq. 5), since `U^⊥ = I` when `U` is empty.
fn constraint_rows_into(
    channel: &CMatrix,
    unwanted: &Subspace,
    out: &mut CMatrix,
    uperp: &mut Subspace,
    sub_ws: &mut SubspaceWorkspace,
    rowop: &mut CMatrix,
) {
    if unwanted.is_zero() {
        out.assign_from(channel);
    } else {
        unwanted.complement_into(uperp, sub_ws);
        uperp.row_operator_into(rowop);
        mul_into(rowop, channel, out);
    }
}

/// Pooled form of [`compute_precoders`]: the constraint
/// assembly, null-space solve and power normalization, with every
/// intermediate written into reusable `ws` buffers and the vectors left
/// in `ws.out`. (`stream_owner` bookkeeping is omitted — the engine's hot
/// path tracks ownership through its allocation list.)
///
/// # Errors
/// [`PrecoderError::NoDegreesOfFreedom`] when the protected receivers'
/// constraints use up all `m_antennas` dimensions, and
/// [`PrecoderError::TooManyStreams`] when an own receiver asks for more
/// streams than its null space holds.
pub fn compute_precoders_into(
    m_antennas: usize,
    protected: &[ProtectedReceiverSoARef],
    own: &[OwnReceiverSoARef],
    ws: &mut PrecoderWorkspace,
) -> Result<(), PrecoderError> {
    compute_precoders_into_with(
        m_antennas,
        protected.len(),
        |i| protected[i],
        own.len(),
        |i| own[i],
        ws,
    )
}

/// Accessor-closure form of [`compute_precoders_into`]: the caller hands
/// index→view closures instead of slices, so the engine can feed its
/// flat pooled storage (believed channels in `[receiver × bin]` arrays,
/// unwanted spaces in pooled round state) without materializing a
/// `Vec` of views per solve. Views are fetched by ascending index exactly
/// as the slice form iterates, so results are the same bit for bit. This
/// is the one implementation of Claim 3.5.
///
/// # Errors
/// As [`compute_precoders_into`].
pub(crate) fn compute_precoders_into_with<'a>(
    m_antennas: usize,
    n_protected: usize,
    protected: impl Fn(usize) -> ProtectedReceiverSoARef<'a>,
    n_own: usize,
    own: impl Fn(usize) -> OwnReceiverSoARef<'a>,
    ws: &mut PrecoderWorkspace,
) -> Result<(), PrecoderError> {
    ws.out.clear();
    // Shared constraints: every ongoing receiver constrains every stream.
    ws.shared.reset(0, m_antennas);
    let mut k = 0usize;
    for p_idx in 0..n_protected {
        let p = protected(p_idx);
        assert_eq!(
            p.channel.cols(),
            m_antennas,
            "protected channel columns must equal tx antennas"
        );
        constraint_rows_into(
            p.channel,
            p.unwanted,
            &mut ws.cons,
            &mut ws.uperp,
            &mut ws.sub_ws,
            &mut ws.rowop,
        );
        ws.shared.append_rows(&ws.cons);
        k += p.n_constraints();
    }
    if k >= m_antennas {
        return Err(PrecoderError::NoDegreesOfFreedom);
    }

    for r_idx in 0..n_own {
        let r = own(r_idx);
        if r.n_streams == 0 {
            continue;
        }
        assert_eq!(
            r.channel.cols(),
            m_antennas,
            "own channel columns must equal tx antennas"
        );
        // Per-stream constraints: the shared rows plus alignment into the
        // unwanted space of every *other* own receiver (Claim 3.5's lower
        // block).
        ws.rows.assign_from(&ws.shared);
        for o_idx in 0..n_own {
            if o_idx == r_idx {
                continue;
            }
            let other = own(o_idx);
            constraint_rows_into(
                other.channel,
                other.unwanted,
                &mut ws.cons,
                &mut ws.uperp,
                &mut ws.sub_ws,
                &mut ws.rowop,
            );
            ws.rows.append_rows(&ws.cons);
        }
        let available = null_space_into(&ws.rows, &mut ws.ns_ws, &mut ws.basis);
        if available < r.n_streams {
            return Err(PrecoderError::TooManyStreams {
                requested: r.n_streams,
                available,
            });
        }
        for i in 0..r.n_streams {
            ws.out.push_slot().copy_from(&ws.basis[i]);
        }
    }

    // Power normalization: unit total transmit power split evenly across
    // streams (each basis vector is already unit-norm).
    if !ws.out.is_empty() {
        let scale = 1.0 / (ws.out.len() as f64).sqrt();
        for v in ws.out.as_mut_slice() {
            v.scale_re_in_place(scale);
        }
    }
    Ok(())
}

/// Residual interference power (linear, relative to a unit-power stream)
/// that the pre-coding vector `v` leaks into the *wanted* space of a
/// protected receiver whose true channel is `h_true`. This is the
/// verification metric for the paper's Fig. 11: with perfect channel
/// knowledge it is ~0; with hardware error it sits ~25 dB down.
pub fn residual_interference(h_true: &CMatrix, unwanted: &Subspace, v: &CVector) -> f64 {
    let arriving = h_true.mul_vec(v);
    if unwanted.is_zero() {
        arriving.norm_sqr()
    } else {
        // Only the component outside the unwanted space harms the receiver.
        unwanted.reject(&arriving).norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::{c64, Complex64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_channel(rows: usize, cols: usize, rng: &mut StdRng) -> CMatrix {
        let data: Vec<Complex64> = (0..rows * cols)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        CMatrix::from_vec(rows, cols, data)
    }

    const NULL_TOL: f64 = 1e-10;

    /// Paper Fig. 2: a 2-antenna tx nulls at the single-antenna rx1 and
    /// still delivers one stream to its own rx2.
    #[test]
    fn fig2_two_antenna_join() {
        let mut rng = StdRng::seed_from_u64(1);
        let h_to_rx1 = random_channel(1, 2, &mut rng); // 1×2
        let h_to_rx2 = random_channel(2, 2, &mut rng); // 2×2
        let p = compute_precoders(
            2,
            &[ProtectedReceiver::nulling(h_to_rx1.clone())],
            &[OwnReceiver {
                channel: h_to_rx2.clone(),
                n_streams: 1,
                unwanted: Subspace::zero(2),
            }],
        )
        .unwrap();
        assert_eq!(p.vectors.len(), 1);
        // Perfect null at rx1.
        let leak = residual_interference(&h_to_rx1, &Subspace::zero(1), &p.vectors[0]);
        assert!(leak < NULL_TOL, "leak {leak}");
        // Non-zero delivery at rx2.
        let delivered = h_to_rx2.mul_vec(&p.vectors[0]).norm_sqr();
        assert!(delivered > 1e-3, "delivered {delivered}");
    }

    /// Paper §2's impossibility result: a 3-antenna tx cannot null at
    /// three receive antennas (Eqs. 2a–2c) — but *can* join by aligning
    /// at the 2-antenna receiver (Eq. 4) and nulling only at rx1.
    #[test]
    fn fig3_alignment_rescues_third_pair() {
        let mut rng = StdRng::seed_from_u64(2);
        let h_to_rx1 = random_channel(1, 3, &mut rng);
        let h_to_rx2 = random_channel(2, 3, &mut rng);
        let h_to_rx3 = random_channel(3, 3, &mut rng);

        // Nulling-only at both receivers: 1 + 2 = 3 constraints on 3
        // antennas -> no DoF.
        let err = compute_precoders(
            3,
            &[
                ProtectedReceiver::nulling(h_to_rx1.clone()),
                ProtectedReceiver::nulling(h_to_rx2.clone()),
            ],
            &[OwnReceiver {
                channel: h_to_rx3.clone(),
                n_streams: 1,
                unwanted: Subspace::zero(3),
            }],
        );
        assert_eq!(err.unwrap_err(), PrecoderError::NoDegreesOfFreedom);

        // With alignment at rx2 (its unwanted space = the direction tx1's
        // interference arrives from), the join succeeds.
        let h_tx1_at_rx2 = random_channel(2, 1, &mut rng); // tx1 -> rx2
        let unwanted_rx2 = Subspace::span(2, &[h_tx1_at_rx2.col(0)]);
        let p = compute_precoders(
            3,
            &[
                ProtectedReceiver::nulling(h_to_rx1.clone()),
                ProtectedReceiver::aligning(h_to_rx2.clone(), unwanted_rx2.clone()),
            ],
            &[OwnReceiver {
                channel: h_to_rx3.clone(),
                n_streams: 1,
                unwanted: Subspace::zero(3),
            }],
        )
        .unwrap();
        assert_eq!(p.vectors.len(), 1);
        let v = &p.vectors[0];
        // Null at rx1.
        assert!(h_to_rx1.mul_vec(v).norm_sqr() < NULL_TOL);
        // At rx2 the arriving signal lies inside the unwanted space:
        // aligned with tx1's interference (Eq. 4).
        let arriving = h_to_rx2.mul_vec(v);
        assert!(
            unwanted_rx2.contains(&arriving, 1e-8),
            "arrival not aligned: {arriving:?}"
        );
        // Residual in the wanted space is zero.
        assert!(residual_interference(&h_to_rx2, &unwanted_rx2, v) < NULL_TOL);
        // Still delivers to rx3.
        assert!(h_to_rx3.mul_vec(v).norm_sqr() > 1e-3);
    }

    /// Claim 3.2: m = M − K over a sweep of antenna/stream counts.
    #[test]
    fn claim_3_2_stream_budget() {
        let mut rng = StdRng::seed_from_u64(3);
        for m_ant in 1..=4usize {
            for k in 0..=m_ant {
                // Build k constraints from single-antenna nulling targets.
                let protected: Vec<ProtectedReceiver> = (0..k)
                    .map(|_| ProtectedReceiver::nulling(random_channel(1, m_ant, &mut rng)))
                    .collect();
                let want = m_ant - k;
                let result = compute_precoders(
                    m_ant,
                    &protected,
                    &[OwnReceiver {
                        channel: random_channel(m_ant, m_ant, &mut rng),
                        n_streams: want,
                        unwanted: Subspace::zero(m_ant),
                    }],
                );
                if want == 0 {
                    assert!(matches!(result, Err(PrecoderError::NoDegreesOfFreedom)));
                } else {
                    let p = result.unwrap();
                    assert_eq!(p.vectors.len(), want, "M={m_ant} K={k}");
                    // Asking for one more must fail.
                    let too_many = compute_precoders(
                        m_ant,
                        &protected,
                        &[OwnReceiver {
                            channel: random_channel(m_ant, m_ant, &mut rng),
                            n_streams: want + 1,
                            unwanted: Subspace::zero(m_ant),
                        }],
                    );
                    assert!(too_many.is_err());
                }
            }
        }
    }

    /// Fig. 4 / Claim 3.5: a 3-antenna AP serves two 2-antenna clients one
    /// stream each while protecting a 2-antenna AP receiving from a
    /// single-antenna client.
    #[test]
    fn fig4_multi_receiver_downlink() {
        let mut rng = StdRng::seed_from_u64(4);
        // Ongoing: c1 (1 ant) -> AP1 (2 ant). AP1's unwanted space is
        // whatever is orthogonal to c1's arrival direction.
        let h_c1_ap1 = random_channel(2, 1, &mut rng);
        let wanted_dir = h_c1_ap1.col(0);
        let unwanted_ap1 = Subspace::span(2, std::slice::from_ref(&wanted_dir)).complement();
        // Joining AP2 (3 ant) channels.
        let h_ap2_ap1 = random_channel(2, 3, &mut rng);
        let h_ap2_c2 = random_channel(2, 3, &mut rng);
        let h_ap2_c3 = random_channel(2, 3, &mut rng);
        // Clients' unwanted spaces: the direction c1's interference
        // arrives from at each client.
        let h_c1_c2 = random_channel(2, 1, &mut rng);
        let h_c1_c3 = random_channel(2, 1, &mut rng);
        let u_c2 = Subspace::span(2, &[h_c1_c2.col(0)]);
        let u_c3 = Subspace::span(2, &[h_c1_c3.col(0)]);

        let p = compute_precoders(
            3,
            &[ProtectedReceiver::aligning(
                h_ap2_ap1.clone(),
                unwanted_ap1.clone(),
            )],
            &[
                OwnReceiver {
                    channel: h_ap2_c2.clone(),
                    n_streams: 1,
                    unwanted: u_c2.clone(),
                },
                OwnReceiver {
                    channel: h_ap2_c3.clone(),
                    n_streams: 1,
                    unwanted: u_c3.clone(),
                },
            ],
        )
        .unwrap();
        assert_eq!(p.vectors.len(), 2);
        assert_eq!(p.stream_owner, vec![0, 1]);
        let (v2, v3) = (&p.vectors[0], &p.vectors[1]);

        // Both streams leave AP1's wanted direction untouched.
        for v in [v2, v3] {
            let res = residual_interference(&h_ap2_ap1, &unwanted_ap1, v);
            assert!(res < NULL_TOL, "AP1 residual {res}");
        }
        // c2's stream lands in c3's unwanted space and vice versa.
        assert!(u_c3.contains(&h_ap2_c3.mul_vec(v2), 1e-8));
        assert!(u_c2.contains(&h_ap2_c2.mul_vec(v3), 1e-8));
        // Each client still hears its own stream outside its unwanted
        // space (decodable).
        let c2_signal = u_c2.reject(&h_ap2_c2.mul_vec(v2)).norm_sqr();
        let c3_signal = u_c3.reject(&h_ap2_c3.mul_vec(v3)).norm_sqr();
        assert!(c2_signal > 1e-4, "c2 signal {c2_signal}");
        assert!(c3_signal > 1e-4, "c3 signal {c3_signal}");
    }

    /// First winner with zero ongoing streams: precoder degenerates to an
    /// orthonormal basis (free spatial multiplexing).
    #[test]
    fn no_constraints_full_multiplexing() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = random_channel(3, 3, &mut rng);
        let p = compute_precoders(
            3,
            &[],
            &[OwnReceiver {
                channel: h,
                n_streams: 3,
                unwanted: Subspace::zero(3),
            }],
        )
        .unwrap();
        assert_eq!(p.vectors.len(), 3);
        // Total power across streams is 1.
        let total: f64 = p.vectors.iter().map(|v| v.norm_sqr()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// The [`OwnReceiverSoARef::channel`] contract: a lone own
    /// receiver's channel values are never read, so a zero channel of
    /// the same shape gives the same precoders bit for bit, under both
    /// nulling and aligning protected receivers. With two own receivers
    /// each one's channel aligns the other's streams, and it matters.
    #[test]
    fn lone_own_receiver_channel_is_shape_only() {
        let mut rng = StdRng::seed_from_u64(7);
        let h_prot = random_channel(2, 3, &mut rng);
        let aligning = Subspace::span(2, &[random_channel(2, 1, &mut rng).col(0)]);
        let nulling = Subspace::zero(2);
        let h_own = random_channel(2, 3, &mut rng);
        let h_other = random_channel(2, 3, &mut rng);
        let zero = CMatrix::zeros(2, 3);
        let u_own = Subspace::span(2, &[random_channel(2, 1, &mut rng).col(0)]);
        let u_other = Subspace::span(2, &[random_channel(2, 1, &mut rng).col(0)]);
        let bits = |ws: &PrecoderWorkspace| -> Vec<u64> {
            ws.out
                .iter()
                .flat_map(|v| v.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
                .collect()
        };
        let solve = |unwanted: &Subspace, own: &[OwnReceiverSoARef]| {
            let mut ws = PrecoderWorkspace::default();
            let protected = [ProtectedReceiverSoARef {
                channel: &h_prot,
                unwanted,
            }];
            compute_precoders_into(3, &protected, own, &mut ws).unwrap();
            bits(&ws)
        };
        let own = |channel| OwnReceiverSoARef {
            channel,
            n_streams: 1,
            unwanted: &u_own,
        };
        let other = OwnReceiverSoARef {
            channel: &h_other,
            n_streams: 1,
            unwanted: &u_other,
        };
        for unwanted in [&nulling, &aligning] {
            let drawn = solve(unwanted, &[own(&h_own)]);
            assert!(!drawn.is_empty());
            assert_eq!(drawn, solve(unwanted, &[own(&zero)]));
        }
        // Two own receivers, each aligning the other's stream into a
        // 1-dimensional unwanted space: one constraint row apiece.
        assert_ne!(
            solve(&aligning, &[own(&h_own), other]),
            solve(&aligning, &[own(&zero), other])
        );
    }

    /// Residual metric is monotone in channel-knowledge error.
    #[test]
    fn residual_grows_with_channel_error() {
        let mut rng = StdRng::seed_from_u64(6);
        let h_true = random_channel(1, 2, &mut rng);
        let own = random_channel(2, 2, &mut rng);
        let mut last_resid = -1.0;
        for err in [0.0, 0.01, 0.05, 0.2] {
            // The transmitter precodes against a perturbed belief.
            let mut h_believed = h_true.clone();
            h_believed.set(0, 0, h_believed.get(0, 0) + c64(err, -err));
            let p = compute_precoders(
                2,
                &[ProtectedReceiver::nulling(h_believed)],
                &[OwnReceiver {
                    channel: own.clone(),
                    n_streams: 1,
                    unwanted: Subspace::zero(2),
                }],
            )
            .unwrap();
            let resid = residual_interference(&h_true, &Subspace::zero(1), &p.vectors[0]);
            assert!(resid >= last_resid - 1e-12, "residual not monotone");
            last_resid = resid;
        }
        assert!(last_resid > 1e-4, "large error should leak measurably");
    }
}
