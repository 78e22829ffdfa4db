//! `sim-cg`: the paper's Fig. 10 Kebnekaise K80 CG sweep (N = 32768,
//! RDMA, queue-pair reducer) at 2/4/8/16 simulated GPUs. Kernels are
//! synthetic, so host time is DES scheduling plus dispatch; the
//! virtual-time outputs are exact and checked bit for bit against the
//! values recorded in `expected.json`.

use std::time::Instant;

use tfhpc_apps::cg::{run_cg, CgConfig, CgReduction};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::{kebnekaise_k80, Platform};

use crate::measure::Samples;
use crate::report::Report;
use crate::spans::Tracer;

pub const GPUS: [usize; 4] = [2, 4, 8, 16];
/// Iterations per solve: far fewer than the paper's 500 so that one
/// sweep costs a few host seconds.
pub const ITERS: usize = 10;

/// Recorded virtual outputs of one sweep point, as f64 bit patterns.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PointBits {
    pub gflops: u64,
    pub elapsed_s: u64,
}

pub struct SimCg {
    plat: Platform,
    expected: Vec<PointBits>,
    sweeps: Samples,
    points: Vec<Samples>,
    gflops: Vec<f64>,
}

fn config(workers: usize) -> CgConfig {
    CgConfig {
        n: 32768,
        workers,
        iterations: ITERS,
        protocol: Protocol::Rdma,
        simulated: true,
        checkpoint_every: None,
        resume: false,
        reduction: CgReduction::QueuePair,
    }
}

impl SimCg {
    /// Build the platform and warm up with one 2-GPU solve.
    pub fn setup(tr: &Tracer, expected: Vec<PointBits>) -> SimCg {
        let plat = kebnekaise_k80();
        tr.span("apps", "apps.cg.sim_warmup", || {
            run_cg(&plat, &config(GPUS[0]))
        })
        .expect("warm-up solve");
        SimCg {
            plat,
            expected,
            sweeps: Samples::default(),
            points: vec![Samples::default(); GPUS.len()],
            gflops: vec![f64::NAN; GPUS.len()],
        }
    }

    /// One full 2/4/8/16 sweep; each point is checked against its
    /// recorded virtual outputs.
    pub fn sweep(&mut self, tr: &Tracer, rep: &mut Report) {
        let t_sweep = Instant::now();
        tr.span("bench", "sim-cg.sweep", || {
            for (i, &g) in GPUS.iter().enumerate() {
                let t = Instant::now();
                let out = tr.span("apps", &format!("apps.cg.sim_g{g}"), || {
                    run_cg(&self.plat, &config(g))
                });
                self.points[i].push(t.elapsed().as_secs_f64());
                let outcome = match out {
                    Ok(r) => {
                        let got = PointBits {
                            gflops: r.gflops.to_bits(),
                            elapsed_s: r.elapsed_s.to_bits(),
                        };
                        self.gflops[i] = r.gflops;
                        match self.expected.get(i) {
                            Some(want) if *want == got => Ok(()),
                            _ => Err(format!(
                                "{g} GPUs: gflops {} (bits {:#018x}), elapsed {} s (bits {:#018x}) differ from expected.json",
                                r.gflops, got.gflops, r.elapsed_s, got.elapsed_s
                            )),
                        }
                    }
                    Err(e) => Err(format!("{e:?}")),
                };
                rep.check(&format!("sim-cg {g}-GPU point"), outcome);
            }
        });
        self.sweeps.push(t_sweep.elapsed().as_secs_f64());
    }

    /// Median host seconds of one sweep, the workload's primary operation.
    pub fn primary(&self) -> &Samples {
        &self.sweeps
    }

    pub fn report(&self, rep: &mut Report) {
        rep.host("sim_host_s", &self.sweeps, 1.0, "s");
        let last = GPUS.len() - 1;
        rep.value(
            "virtual_gflops",
            self.gflops[last],
            "Gflop/s",
            "virtual, exact, 16 GPUs",
        );
        rep.value(
            "virtual_scaling_eff",
            self.gflops[last] / (8.0 * self.gflops[0]),
            "ratio",
            "virtual, exact, Gflop/s(16) / (8 x Gflop/s(2))",
        );
        for (i, g) in GPUS.iter().enumerate() {
            rep.host(&format!("sim.point_host_s.g{g}"), &self.points[i], 1.0, "s");
        }
    }
}
