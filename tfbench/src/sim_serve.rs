//! `sim-serve`: `tfhpc_serve::run_load` with a three-tenant mix in the
//! DES. `interactive` is open-loop matmul/FFT, `batch-cg` is 8
//! closed-loop CG clients and `besteffort` is open-loop STREAM under a
//! tight quota. All traffic comes from the workload seed.

use std::time::Instant;

use tfhpc_apps::{RequestKind, RequestSpec};
use tfhpc_serve::{run_load, Arrival, LoadReport, ServeConfig, TenantQuota, TenantSpec};

use crate::measure::Samples;
use crate::report::Report;
use crate::spans::Tracer;

/// Interactive arrival rate of the base run, and the first ladder rung.
pub const BASE_HZ: f64 = 2000.0;
/// Virtual seconds of traffic in a base-rate run.
const BASE_SPAN_S: f64 = 0.25;
/// Virtual seconds of interactive traffic on each ladder rung: long
/// enough that a rung's p99, and so the rate found, varies little from
/// seed to seed.
const LADDER_SPAN_S: f64 = 0.1;
/// Geometric bisection steps between the last passing and the first
/// failing doubling rung.
const BISECT_STEPS: usize = 4;
/// Highest doubling rung (2000 Hz × 2^8 = 512 kHz): a rung's host cost
/// grows with its rate, so the climb stops here even if it passes.
const MAX_DOUBLINGS: i32 = 8;
/// Interactive latency limit on the p99.
pub const P99_LIMIT_S: f64 = 0.005;
/// Besteffort's open-loop rate: low enough that its tight quota is
/// never exceeded, so no request of the base run is refused.
const BESTEFFORT_HZ: f64 = 100.0;
/// Base-rate runs whose interactive p99s `serve_p99_s` averages: a
/// fixed count, so that the virtual metric depends on the seed alone.
pub const P99_RUNS: usize = 8;
/// Batch-cg jobs per virtual second of span (8 clients share them).
const BATCH_CG_PER_S: f64 = 1280.0;

fn tenants(interactive_hz: f64, span_s: f64) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive".into(),
            arrival: Arrival::Open {
                rate_hz: interactive_hz,
            },
            jobs: (interactive_hz * span_s).round() as usize,
            mix: vec![
                RequestSpec::new(RequestKind::Matmul, 32),
                RequestSpec::new(RequestKind::Fft, 64),
            ],
            quota: None,
        },
        TenantSpec {
            name: "batch-cg".into(),
            arrival: Arrival::Closed {
                clients: 8,
                think_s: 0.001,
            },
            jobs: (BATCH_CG_PER_S * span_s).round() as usize,
            mix: vec![RequestSpec::new(RequestKind::Cg, 48)],
            quota: None,
        },
        TenantSpec {
            name: "besteffort".into(),
            arrival: Arrival::Open {
                rate_hz: BESTEFFORT_HZ,
            },
            jobs: (BESTEFFORT_HZ * span_s).round().max(1.0) as usize,
            mix: vec![RequestSpec::new(RequestKind::Stream, 256)],
            quota: Some(TenantQuota {
                max_in_flight: 4,
                max_queue_depth: 4,
                node_budget: 4,
                priority: -1,
            }),
        },
    ]
}

/// splitmix64 step: derives the per-run load seeds from the workload seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether 99% of interactive requests finished within the limit, a
/// refused or shed request counting as missing it. Interactive
/// in-flight work is capped by its quota, so a growing backlog shows
/// as refusals here.
fn meets_slo(r: &LoadReport) -> bool {
    let Some(i) = r.tenants.iter().find(|t| t.tenant == "interactive") else {
        return false;
    };
    let rank = (0.99 * i.submitted as f64).ceil();
    let c = i.completed as f64;
    (rank <= (0.99 * c).ceil() && i.p99_s <= P99_LIMIT_S)
        || (rank <= (0.999 * c).ceil() && i.p999_s <= P99_LIMIT_S)
}

pub struct SimServe {
    cfg: ServeConfig,
    seed: u64,
    base_runs: u64,
    ladders: u64,
    first: Option<(u64, String)>,
    us_per_job: Samples,
    p99: Samples,
    max_rate: Samples,
    mean_batch: Samples,
    hit_ratio: Samples,
    rejected: u64,
    shed: u64,
}

impl SimServe {
    /// Server configuration plus one short warm-up load run.
    pub fn setup(tr: &Tracer, seed: u64) -> SimServe {
        let cfg = ServeConfig::default();
        tr.span("serve", "serve.run_load.warmup", || {
            run_load(&cfg, &tenants(BASE_HZ, 0.02), mix(seed, u64::MAX))
        })
        .expect("warm-up load run");
        SimServe {
            cfg,
            seed,
            base_runs: 0,
            ladders: 0,
            first: None,
            us_per_job: Samples::default(),
            p99: Samples::default(),
            max_rate: Samples::default(),
            mean_batch: Samples::default(),
            hit_ratio: Samples::default(),
            rejected: 0,
            shed: 0,
        }
    }

    /// One base-rate run on a fresh load seed. Every submitted request
    /// is an attempted operation; refused, shed and unfinished ones
    /// count as failed.
    pub fn base_run(&mut self, tr: &Tracer, rep: &mut Report) {
        let seed = mix(self.seed, self.base_runs);
        self.base_runs += 1;
        let t = Instant::now();
        let out = tr.span("serve", "serve.run_load.base", || {
            run_load(&self.cfg, &tenants(BASE_HZ, BASE_SPAN_S), seed)
        });
        let host = t.elapsed().as_secs_f64();
        let r = match out {
            Ok(r) => r,
            Err(e) => {
                rep.check("sim-serve base run", Err(format!("{e:?}")));
                return;
            }
        };
        self.us_per_job.push(host * 1e6 / r.completed.max(1) as f64);
        if let Some(i) = r.tenants.iter().find(|t| t.tenant == "interactive") {
            if self.p99.len() < P99_RUNS {
                self.p99.push(i.p99_s);
            }
        }
        self.mean_batch.push(r.mean_batch);
        let pc = &r.plan_cache;
        self.hit_ratio
            .push(pc.hits as f64 / (pc.hits + pc.misses).max(1) as f64);
        self.rejected += r.rejected;
        self.shed += r.shed;
        rep.attempted += r.submitted;
        rep.failed += r.submitted.saturating_sub(r.completed);
        for t in &r.tenants {
            if t.completed < t.submitted {
                rep.lines.push(format!(
                    "FAILED sim-serve {}: {} of {} requests not served ({} refused, {} shed)",
                    t.tenant,
                    t.submitted - t.completed,
                    t.submitted,
                    t.rejected,
                    t.shed
                ));
            }
        }
        rep.check(
            "sim-serve admission: only besteffort is ever refused",
            match r
                .tenants
                .iter()
                .find(|t| t.rejected > 0 && t.tenant != "besteffort")
            {
                Some(t) => Err(format!("{} had {} requests refused", t.tenant, t.rejected)),
                None => Ok(()),
            },
        );
        if self.first.is_none() {
            self.first = Some((seed, r.to_json()));
        }
    }

    /// Climb the doubling ladder from [`BASE_HZ`] until a rung misses
    /// the SLO, then bisect; records the highest passing rate.
    pub fn ladder(&mut self, tr: &Tracer, rep: &mut Report) {
        let seed = mix(self.seed ^ 0x001A_DDE4, self.ladders);
        self.ladders += 1;
        let cfg = &self.cfg;
        let probe = |rate: f64, rep: &mut Report| -> bool {
            let out = tr.span("serve", &format!("serve.run_load.rung_{rate:.0}hz"), || {
                run_load(cfg, &tenants(rate, LADDER_SPAN_S), seed)
            });
            // A rung that errs counts as failed and ends the climb.
            let ok = rep.check(
                "sim-serve ladder rung",
                out.as_ref().map(|_| ()).map_err(|e| format!("{e:?}")),
            );
            ok && out.is_ok_and(|r| meets_slo(&r))
        };
        let (mut lo, mut hi) = (0.0, BASE_HZ);
        tr.span("bench", "sim-serve.ladder", || {
            while hi <= BASE_HZ * 2f64.powi(MAX_DOUBLINGS) && probe(hi, rep) {
                lo = hi;
                hi *= 2.0;
            }
            if lo > 0.0 && lo < BASE_HZ * 2f64.powi(MAX_DOUBLINGS) {
                for _ in 0..BISECT_STEPS {
                    let mid = (lo * hi).sqrt();
                    if probe(mid, rep) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        });
        self.max_rate.push(lo);
    }

    /// Same-seed determinism: rerun the first base seed and compare
    /// the report JSON byte for byte.
    pub fn check_determinism(&self, tr: &Tracer, rep: &mut Report) {
        let Some((seed, want)) = &self.first else {
            return;
        };
        let out = tr.span("serve", "serve.run_load.replay", || {
            run_load(&self.cfg, &tenants(BASE_HZ, BASE_SPAN_S), *seed)
        });
        rep.check(
            "sim-serve same-seed LoadReport JSON is byte-identical",
            match out {
                Ok(r) if r.to_json() == *want => Ok(()),
                Ok(_) => Err("report JSON differs".into()),
                Err(e) => Err(format!("{e:?}")),
            },
        );
    }

    /// Median host µs per job at the base rate, the primary operation.
    pub fn primary(&self) -> &Samples {
        &self.us_per_job
    }

    pub fn report(&self, rep: &mut Report) {
        // The mean, not the median: each run's p99 is an order
        // statistic on a coarse grid, so a median of a few runs would
        // often repeat exactly across seeds.
        rep.value(
            "serve_p99_s",
            self.p99.mean(),
            "s",
            &format!(
                "virtual, mean of the interactive p99 over the first {} base-rate runs",
                self.p99.len()
            ),
        );
        rep.value(
            "serve_max_rate_hz",
            self.max_rate.median(),
            "jobs/s",
            &format!(
                "virtual, {} ladder(s): the highest rate meeting p99 <= {P99_LIMIT_S} s",
                self.max_rate.len()
            ),
        );
        rep.host("serve_host_us_per_job", &self.us_per_job, 1.0, "us");
        rep.value(
            "serve.mean_batch",
            self.mean_batch.median(),
            "jobs",
            "median over base-rate runs",
        );
        rep.value(
            "serve.rejected",
            self.rejected as f64,
            "count",
            "summed over base-rate runs",
        );
        rep.value(
            "serve.shed",
            self.shed as f64,
            "count",
            "summed over base-rate runs",
        );
        rep.value(
            "core.plan_cache_hit_ratio",
            self.hit_ratio.median(),
            "ratio",
            "LoadReport.plan_cache, median over base-rate runs",
        );
    }
}
