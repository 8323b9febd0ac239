//! Per-operation cost rows: each kernel timed in calibrated batches at
//! the 1–4-antenna shapes the testbed produces, reported as a median
//! over samples with quartiles and count. Inputs come from the workload
//! seed, so a run is reproducible in what it times.

use crate::layers::secs;
use crate::report::Report;
use crate::stats::median;
use nplus::link::{select_stream_rate, zf_sinr_slices_into, ZfWorkspace};
use nplus::precoder::{
    compute_precoders_into, OwnReceiverSoARef, PrecoderWorkspace, ProtectedReceiverSoARef,
};
use nplus::SweepStats;
use nplus_channel::fading::DelayProfile;
use nplus_channel::freq_table::FreqResponseTable;
use nplus_channel::mimo::MimoLink;
use nplus_codec::json;
use nplus_linalg::{
    null_space_into, pinv_into, CMatrixSoA, CVector, NullspaceWorkspace, PinvWorkspace, Subspace,
};
use nplus_mac::backoff::resolve_contention_in;
use nplus_phy::esnr::effective_snr;
use nplus_phy::params::occupied_subcarrier_indices;
use nplus_phy::Modulation;
use nplus_server::protocol::{parse_request, read_frame, sweep_response, write_frame, Request};
use nplus_server::ResultCache;
use nplus_testkit::fixtures::{random_matrix, random_vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Samples per row.
const SAMPLES: usize = 21;
/// Target duration of one sample (one calibrated batch), seconds.
const SAMPLE_S: f64 = 5e-4;

/// Times `op` in batches sized so one batch takes about [`SAMPLE_S`];
/// returns the per-call time of each batch, in `scale` units per second
/// (1e9 for ns, 1e6 for µs).
fn time_per_call(scale: f64, mut op: impl FnMut()) -> Vec<f64> {
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        if secs(t) >= SAMPLE_S || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            secs(t) * scale / batch as f64
        })
        .collect()
}

fn soa(rows: usize, cols: usize, rng: &mut StdRng) -> CMatrixSoA {
    CMatrixSoA::from_aos(&random_matrix(rows, cols, rng))
}

/// Kernel rows of the linalg, precoder, link, phy, mac and channel layers.
pub fn kernel_rows(seed: u64, r: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);

    for n in 1..=4 {
        let a = soa(n, n, &mut rng);
        let mut ws = PinvWorkspace::default();
        r.check(pinv_into(&a, &mut ws).is_ok(), || {
            format!("pinv of a random {n}x{n} matrix failed")
        });
        let ns = time_per_call(1e9, || {
            let _ = black_box(pinv_into(black_box(&a), &mut ws));
        });
        r.median(&format!("linalg.pinv_ns.{n}x{n}"), &ns, "ns");
    }

    for (rows, cols) in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)] {
        let a = soa(rows, cols, &mut rng);
        let mut ws = NullspaceWorkspace::default();
        let mut basis = Vec::new();
        let dim = null_space_into(&a, &mut ws, &mut basis);
        r.check(dim == cols - rows, || {
            format!("null space of a random {rows}x{cols} matrix has dimension {dim}")
        });
        let ns = time_per_call(1e9, || {
            black_box(null_space_into(black_box(&a), &mut ws, &mut basis));
        });
        r.median(&format!("linalg.null_space_ns.{rows}x{cols}"), &ns, "ns");
    }

    let a = soa(4, 4, &mut rng);
    let x = random_vector(4, &mut rng);
    let mut out = CVector::zeros(4);
    let ns = time_per_call(1e9, || {
        black_box(&a).mul_vec_into(black_box(&x), &mut out);
        black_box(&out);
    });
    r.median("linalg.matvec_ns.4x4", &ns, "ns");

    precoder_rows(&mut rng, r);

    for k in 1..=4 {
        let wanted = vec![random_vector(k, &mut rng)];
        let known: Vec<CVector> = (1..k).map(|_| random_vector(k, &mut rng)).collect();
        let residual = vec![random_vector(k, &mut rng).scale_re(0.05)];
        let mut ws = ZfWorkspace::default();
        let mut out = Vec::new();
        zf_sinr_slices_into(&wanted, &known, &residual, 0.01, &mut ws, &mut out);
        r.check(out.len() == 1 && out[0] > 0.0, || {
            format!("zf SINR at k={k} came out {out:?}")
        });
        let ns = time_per_call(1e9, || {
            zf_sinr_slices_into(
                black_box(&wanted),
                &known,
                &residual,
                0.01,
                &mut ws,
                &mut out,
            );
            black_box(&out);
        });
        r.median(&format!("core.link.zf_sinr_ns.{k}"), &ns, "ns");
    }

    // A mid-range SINR track over the occupied subcarriers (5–25 dB).
    let n_occ = occupied_subcarrier_indices().len();
    let track: Vec<f64> = (0..n_occ)
        .map(|_| 10f64.powf(rng.gen_range(5.0..25.0) / 10.0))
        .collect();
    r.check(select_stream_rate(&track).is_some(), || {
        "no rate sustains a 5-25 dB SINR track".to_string()
    });
    let ns = time_per_call(1e9, || {
        black_box(select_stream_rate(black_box(&track)));
    });
    r.median("core.link.select_rate_ns", &ns, "ns");
    let ns = time_per_call(1e9, || {
        black_box(effective_snr(Modulation::Qam16, black_box(&track)));
    });
    r.median("phy.esnr_ns", &ns, "ns");

    for n in [2usize, 4, 8] {
        let cws = vec![15u32; n];
        let mut draws = Vec::new();
        let ns = time_per_call(1e9, || {
            black_box(resolve_contention_in(black_box(&cws), &mut rng, &mut draws));
        });
        r.median(&format!("mac.contention_ns.{n}"), &ns, "ns");
    }

    let bins = occupied_subcarrier_indices();
    for n in [1usize, 2, 4] {
        let link = MimoLink::sample(n, n, 1.0, &DelayProfile::nlos(), &mut rng);
        let ns = time_per_call(1e9, || {
            black_box(FreqResponseTable::new(black_box(&link), &bins, 64));
        });
        r.median(&format!("channel.freq_table_ns.{n}x{n}"), &ns, "ns");
    }
}

/// `compute_precoders_into` at `<constraints>x<tx antennas>` shapes
/// (nulling receivers only, one own receiver taking every free stream)
/// plus the Fig. 3 join: a 3-antenna joiner nulling at a 1-antenna
/// receiver and aligning at a 2-antenna one.
fn precoder_rows(rng: &mut StdRng, r: &mut Report) {
    let mut ws = PrecoderWorkspace::default();
    for (k, m) in [(1usize, 2usize), (2, 3), (3, 4)] {
        let protected_ch = soa(k, m, rng);
        let own_ch = soa(m - k, m, rng);
        let (zero_p, zero_o) = (Subspace::zero(k), Subspace::zero(m - k));
        let protected = [ProtectedReceiverSoARef {
            channel: &protected_ch,
            unwanted: &zero_p,
        }];
        let own = [OwnReceiverSoARef {
            channel: &own_ch,
            n_streams: m - k,
            unwanted: &zero_o,
        }];
        let ok = compute_precoders_into(m, &protected, &own, &mut ws).is_ok();
        r.check(ok && ws.out.len() == m - k, || {
            format!("precoder at {k}x{m} failed")
        });
        let ns = time_per_call(1e9, || {
            let _ = black_box(compute_precoders_into(
                m,
                black_box(&protected),
                &own,
                &mut ws,
            ));
        });
        r.median(&format!("core.precoder.compute_ns.{k}x{m}"), &ns, "ns");
    }
    let (h1, h2, h3) = (soa(1, 3, rng), soa(2, 3, rng), soa(3, 3, rng));
    let (zero1, zero3) = (Subspace::zero(1), Subspace::zero(3));
    let u2 = Subspace::span(2, &[random_vector(2, rng)]);
    let protected = [
        ProtectedReceiverSoARef {
            channel: &h1,
            unwanted: &zero1,
        },
        ProtectedReceiverSoARef {
            channel: &h2,
            unwanted: &u2,
        },
    ];
    let own = [OwnReceiverSoARef {
        channel: &h3,
        n_streams: 1,
        unwanted: &zero3,
    }];
    let ok = compute_precoders_into(3, &protected, &own, &mut ws).is_ok();
    r.check(ok, || "Fig. 3 join precoder failed".to_string());
    let ns = time_per_call(1e9, || {
        let _ = black_box(compute_precoders_into(
            3,
            black_box(&protected),
            &own,
            &mut ws,
        ));
    });
    r.median("core.precoder.compute_ns.fig3", &ns, "ns");
}

/// Serving-path rows for one spec and its statistics: JSON parse and
/// write of the response document, request parsing, canonicalization,
/// a cache hit, response encoding, and the whole request cycle done in
/// memory (client frame → server parse/lookup/encode → client parse).
/// Returns the in-memory cycle's median, µs.
pub fn serving_rows(request: &str, stats: &[SweepStats], r: &mut Report) -> f64 {
    let Ok(Request::Sweep(req)) = parse_request(request.as_bytes()) else {
        r.check(false, || format!("request does not parse: {request}"));
        return 0.0;
    };
    let Ok(canon) = req.to_canonical() else {
        r.check(false, || {
            format!("request does not canonicalize: {request}")
        });
        return 0.0;
    };
    let key = canon.key();
    let key_hex = canon.key_hex();
    let response = sweep_response(&key_hex, true, 0, stats).to_string_compact();
    r.check(
        json::parse(&response).map(|d| d.to_string_compact()) == Ok(response.clone()),
        || "response JSON does not survive a parse/write round trip".to_string(),
    );

    let us = time_per_call(1e6, || {
        black_box(json::parse(black_box(&response)).ok());
    });
    r.median("codec.json_parse_us", &us, "us");
    let doc = sweep_response(&key_hex, true, 0, stats);
    let us = time_per_call(1e6, || {
        black_box(black_box(&doc).to_string_compact());
    });
    r.median("codec.json_write_us", &us, "us");

    let us = time_per_call(1e6, || {
        black_box(parse_request(black_box(request.as_bytes())).ok());
    });
    r.median("server.protocol.parse_us", &us, "us");
    let us = time_per_call(1e6, || {
        black_box(black_box(&req).to_canonical().map(|c| c.key()).ok());
    });
    r.median("server.protocol.canonical_us", &us, "us");

    let cache = ResultCache::new();
    let stored = stats.to_vec();
    let _ = cache.get_or_compute(key, || Ok::<_, ()>(stored));
    let us = time_per_call(1e6, || {
        black_box(cache.get_or_compute(black_box(key), || Err(())).ok());
    });
    r.median("server.cache.lookup_us", &us, "us");

    let mut wire = Vec::with_capacity(response.len() + 4);
    let us = time_per_call(1e6, || {
        wire.clear();
        let body = sweep_response(&key_hex, true, 0, black_box(stats)).to_string_compact();
        let _ = write_frame(&mut wire, body.as_bytes());
        black_box(&wire);
    });
    r.median("server.protocol.response_us", &us, "us");

    let mut up = Vec::with_capacity(request.len() + 4);
    let mut down = Vec::with_capacity(response.len() + 4);
    let us = time_per_call(1e6, || {
        up.clear();
        down.clear();
        let _ = write_frame(&mut up, black_box(request.as_bytes()));
        let payload = read_frame(&mut Cursor::new(&up))
            .ok()
            .flatten()
            .unwrap_or_default();
        if let Ok(Request::Sweep(req)) = parse_request(&payload) {
            if let Ok(canon) = req.to_canonical() {
                if let Ok((stats, hit)) = cache.get_or_compute(canon.key(), || Err(())) {
                    let body = sweep_response(&canon.key_hex(), hit, 0, &stats);
                    let _ = write_frame(&mut down, body.to_string_compact().as_bytes());
                }
            }
        }
        let payload = read_frame(&mut Cursor::new(&down))
            .ok()
            .flatten()
            .unwrap_or_default();
        black_box(json::parse(&String::from_utf8_lossy(&payload)).ok());
    });
    r.median("server.client.inmem_us", &us, "us");
    r.check(down.get(4..) == Some(response.as_bytes()), || {
        "the in-memory request cycle did not produce the cached response".to_string()
    });
    median(&us).unwrap_or(0.0)
}
