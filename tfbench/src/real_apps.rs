//! `real-apps`: real-mode distributed CG, FFT and tiled matmul on host
//! threads, each checked against an independent reference.

use std::sync::Arc;
use std::time::Instant;

use tfhpc_apps::cg::{gather_solution, run_cg_with_store, CgConfig, CgReduction};
use tfhpc_apps::fft::{populate_signal, run_fft_with_store, FftConfig};
use tfhpc_apps::matmul::{run_matmul, verify_small, MatmulConfig};
use tfhpc_core::{Resources, TileStore};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{tegner_k80, Platform};
use tfhpc_tensor::{fft, Complex64};

use crate::measure::Samples;
use crate::report::Report;
use crate::spans::Tracer;

/// CG iterations: enough to reach ‖x − 1‖∞ ≤ 1e-12 at n = 1024, well
/// before the residual underflows (see the notes on the 0/0 defect).
pub const CG_ITERS: usize = 35;
const CG_TOL: f64 = 1e-12;
/// CG solves per round: a solve costs a seventh of an FFT, so a round
/// takes several to give `cg_solve_s` more samples in the same time.
const CG_PER_ROUND: usize = 4;
/// FFT agreement with the serial transform, relative to its peak.
const FFT_TOL: f64 = 1e-9;
/// Matmul agreement with the direct product (f32 tiles).
const MATMUL_TOL: f64 = 1e-3;

pub struct RealApps {
    plat: Platform,
    cg: CgConfig,
    store: Arc<TileStore>,
    x_bits: Vec<u64>,
    fft: FftConfig,
    fft_ref: Vec<Complex64>,
    mm: MatmulConfig,
    cg_s: Samples,
    iter_s: Samples,
    fft_s: Samples,
    mm_s: Samples,
}

fn cg_config() -> CgConfig {
    CgConfig {
        n: 1024,
        workers: 2,
        iterations: CG_ITERS,
        protocol: Protocol::Grpc,
        simulated: false,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    }
}

/// `Ok` when the solution is all ones within [`CG_TOL`], the residual
/// is finite and (when `want_bits` is given) the bits match it.
fn check_cg(
    store: &TileStore,
    cfg: &CgConfig,
    rs: f64,
    want_bits: Option<&[u64]>,
) -> Result<Vec<u64>, String> {
    let x = gather_solution(store, cfg).map_err(|e| format!("gather: {e:?}"))?;
    let x = x.as_f64().map_err(|e| format!("solution dtype: {e:?}"))?;
    if !rs.is_finite() {
        return Err(format!("residual is not finite: {rs}"));
    }
    let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
    if x.iter().any(|v| !v.is_finite()) || err > CG_TOL {
        return Err(format!("‖x − 1‖∞ = {err:e} exceeds {CG_TOL:e}"));
    }
    let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
    if want_bits.is_some_and(|w| w != bits.as_slice()) {
        return Err("solution bits differ from the first solve".into());
    }
    Ok(bits)
}

impl RealApps {
    /// Generate the CG problem through the first `run_cg_with_store`
    /// call (its store is reused by every later solve) and compute the
    /// serial FFT reference.
    pub fn setup(tr: &Tracer, rep: &mut Report) -> RealApps {
        let plat = tegner_k80();
        let cg = cg_config();
        let (first, store) = tr
            .span("apps", "apps.cg.first_solve", || {
                run_cg_with_store(&plat, &cg, None)
            })
            .expect("first CG solve");
        let mut x_bits = Vec::new();
        rep.check(
            "real-apps CG first solve",
            check_cg(&store, &cg, first.rs_final, None).map(|b| x_bits = b),
        );
        let fft = FftConfig {
            log2_n: 20,
            tiles: 16,
            workers: 2,
            protocol: Protocol::Grpc,
            simulated: false,
            merge_cost_factor: 1.0,
        };
        let fft_ref = tr.span("tensor", "tensor.fft_reference", || {
            let scratch = Resources::new().create_store("fft-reference");
            let mut signal = populate_signal(&scratch, &fft, 0xF0).expect("real-mode signal");
            fft::fft_inplace(&mut signal);
            signal
        });
        let mm = MatmulConfig {
            n: 1024,
            tile: 256,
            workers: 2,
            reducers: 2,
            protocol: Protocol::Grpc,
            simulated: false,
            prefetch: 2,
        };
        RealApps {
            plat,
            cg,
            store,
            x_bits,
            fft,
            fft_ref,
            mm,
            cg_s: Samples::default(),
            iter_s: Samples::default(),
            fft_s: Samples::default(),
            mm_s: Samples::default(),
        }
    }

    /// [`CG_PER_ROUND`] CG solves, one FFT and one matmul solve, each
    /// timed and checked.
    pub fn round(&mut self, tr: &Tracer, rep: &mut Report) {
        tr.span("bench", "real-apps.round", || {
            (0..CG_PER_ROUND).for_each(|_| self.cg_solve(tr, rep));
            self.fft_solve(tr, rep);
            self.matmul_solve(tr, rep);
        });
    }

    fn cg_solve(&mut self, tr: &Tracer, rep: &mut Report) {
        let t = Instant::now();
        let out = tr.span("apps", "apps.cg.solve", || {
            run_cg_with_store(&self.plat, &self.cg, Some(Arc::clone(&self.store)))
        });
        let host = t.elapsed().as_secs_f64();
        let outcome = match out {
            Ok((r, _)) => {
                self.cg_s.push(host);
                self.iter_s
                    .push(r.elapsed_s / r.iterations_run.max(1) as f64);
                tr.span("bench", "bench.check_cg", || {
                    check_cg(&self.store, &self.cg, r.rs_final, Some(&self.x_bits)).map(|_| ())
                })
            }
            Err(e) => Err(format!("{e:?}")),
        };
        rep.check("real-apps CG solve", outcome);
    }

    fn fft_solve(&mut self, tr: &Tracer, rep: &mut Report) {
        let t = Instant::now();
        let out = tr.span("apps", "apps.fft.solve", || {
            run_fft_with_store(&self.plat, &self.fft)
        });
        let host = t.elapsed().as_secs_f64();
        let outcome = match out {
            Ok((_, store)) => {
                self.fft_s.push(host);
                tr.span("bench", "bench.check_fft", || {
                    let got = store.get(&[-1]).map_err(|e| format!("spectrum: {e:?}"))?;
                    let got = got
                        .as_c128()
                        .map_err(|e| format!("spectrum dtype: {e:?}"))?;
                    if got.len() != self.fft_ref.len() {
                        return Err(format!("spectrum length {}", got.len()));
                    }
                    let peak = self
                        .fft_ref
                        .iter()
                        .map(|c| c.norm_sqr().sqrt())
                        .fold(0.0, f64::max);
                    let diff = got
                        .iter()
                        .zip(&self.fft_ref)
                        .map(|(a, b)| (*a - *b).norm_sqr().sqrt())
                        .fold(0.0, f64::max);
                    if diff.is_nan() || diff > FFT_TOL * peak {
                        return Err(format!("max deviation {diff:e} vs peak {peak:e}"));
                    }
                    Ok(())
                })
            }
            Err(e) => Err(format!("{e:?}")),
        };
        rep.check("real-apps FFT solve", outcome);
    }

    fn matmul_solve(&mut self, tr: &Tracer, rep: &mut Report) {
        let t = Instant::now();
        let out = tr.span("apps", "apps.matmul.solve", || {
            run_matmul(&self.plat, &self.mm)
        });
        let host = t.elapsed().as_secs_f64();
        let outcome = out
            .map(|_| self.mm_s.push(host))
            .map_err(|e| format!("{e:?}"));
        rep.check("real-apps matmul solve", outcome);
    }

    /// The matmul's numbers: the same configuration run through
    /// `verify_small`, which compares every output tile with a direct
    /// `tfhpc_tensor` product of its input tiles.
    pub fn verify_matmul(&self, tr: &Tracer, rep: &mut Report) {
        let out = tr.span("apps", "apps.matmul.verify", || {
            verify_small(self.mm.n, self.mm.tile, self.mm.workers)
        });
        let outcome = match out {
            Ok(err) if err <= MATMUL_TOL => Ok(()),
            Ok(err) => Err(format!("max deviation {err:e} exceeds {MATMUL_TOL:e}")),
            Err(e) => Err(format!("{e:?}")),
        };
        rep.check("real-apps matmul vs direct product", outcome);
    }

    /// Median CG solve, the workload's primary operation.
    pub fn primary(&self) -> &Samples {
        &self.cg_s
    }

    pub fn report(&self, rep: &mut Report) {
        rep.host("cg_solve_s", &self.cg_s, 1.0, "s");
        rep.host("fft_solve_s", &self.fft_s, 1.0, "s");
        rep.host("matmul_solve_s", &self.mm_s, 1.0, "s");
        rep.host("apps.cg.iter_us", &self.iter_s, 1e6, "us");
    }
}
