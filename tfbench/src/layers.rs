//! Per-layer probes for the traced run: each times calls into one
//! layer's public functions from the benchmark's own code.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tfhpc_core::{DeviceCtx, FifoQueue, Graph, Resources, Session, SessionOptions};
use tfhpc_dist::{launch, worker_all_reduce, JobSpec, LaunchConfig, ReduceOp, Reducer, TaskKey};
use tfhpc_serve::{AdmissionController, TenantQuota};
use tfhpc_sim::net::Protocol;
use tfhpc_sim::platform::tegner_k80;
use tfhpc_sim::Sim;
use tfhpc_tensor::{fft, matmul, ops, rng, Complex64, DType, Shape, Tensor};

use crate::measure::{alloc_count, Samples};
use crate::report::Report;
use crate::spans::Tracer;

/// Per-call seconds of `f`, timed in `reps` batches of `batch` calls.
fn per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> Samples {
    f();
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        s.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    s
}

fn f64_tensor(shape: &[usize], seed: u64) -> Tensor {
    rng::random_uniform(DType::F64, shape.to_vec(), seed).expect("random tensor")
}

pub fn tensor(tr: &Tracer, rep: &mut Report) {
    // CG worker's row block: 512 x 1024 f64 times the full p vector.
    let a = f64_tensor(&[512, 1024], 1);
    let p = f64_tensor(&[1024], 2);
    let s = tr.span("tensor", "tensor.matvec", || {
        per_call(15, 20, || {
            std::hint::black_box(matmul::matvec(&a, &p).expect("matvec"));
        })
    });
    let bytes = (512 * 1024 * 8) as f64;
    rep.value(
        "tensor.matvec_gbps",
        bytes / s.median() / 1e9,
        "GB/s",
        &s.describe(1e6, "us"),
    );

    // One FFT tile of the real-apps FFT at 2^16 points.
    let n = 1usize << 16;
    let src: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let mut buf = src.clone();
    let mut s = Samples::default();
    tr.span("tensor", "tensor.fft", || {
        for _ in 0..60 {
            buf.copy_from_slice(&src);
            let t = Instant::now();
            fft::fft_inplace(&mut buf);
            s.push(t.elapsed().as_secs_f64());
        }
    });
    let flops = 5.0 * n as f64 * 16.0;
    rep.value(
        "tensor.fft_gflops",
        flops / s.median() / 1e9,
        "Gflop/s",
        &s.describe(1e6, "us"),
    );

    // One 256 x 256 f32 tile product, as in the real-apps matmul.
    let ta = rng::random_uniform(DType::F32, [256, 256], 3).expect("tile");
    let tb = rng::random_uniform(DType::F32, [256, 256], 4).expect("tile");
    let s = tr.span("tensor", "tensor.matmul", || {
        per_call(15, 4, || {
            std::hint::black_box(matmul::matmul(&ta, &tb).expect("matmul"));
        })
    });
    let flops = 2.0 * 256f64.powi(3);
    rep.value(
        "tensor.matmul_gflops",
        flops / s.median() / 1e9,
        "Gflop/s",
        &s.describe(1e6, "us"),
    );

    let t = Instant::now();
    tr.span("tensor", "tensor.random_spd", || {
        std::hint::black_box(rng::random_spd(1024, 0xC6, 1024.0));
    });
    rep.value(
        "tensor.spd_gen_s",
        t.elapsed().as_secs_f64(),
        "s",
        "one rng::random_spd(1024) call",
    );
}

/// One CG iteration on a worker's 512-row block, as a graph fed and
/// fetched each step: q = A p, alpha = rs / (p_w . q), x += alpha p_w,
/// r -= alpha q, rr = r . r.
fn cg_worker_graph() -> (
    Session,
    Vec<tfhpc_core::NodeId>,
    Vec<(tfhpc_core::NodeId, Tensor)>,
) {
    let mut g = Graph::new();
    let a = g.constant(f64_tensor(&[512, 1024], 1));
    let p = g.placeholder(DType::F64, Some(Shape::vector(1024)));
    let pw = g.placeholder(DType::F64, Some(Shape::vector(512)));
    let x = g.placeholder(DType::F64, Some(Shape::vector(512)));
    let r = g.placeholder(DType::F64, Some(Shape::vector(512)));
    let rs = g.placeholder(DType::F64, None);
    let q = g.matvec(a, p);
    let pq = g.dot(pw, q);
    let alpha = g.div(rs, pq);
    let xa = g.mul_scalar(pw, alpha);
    let x1 = g.add(x, xa);
    let qa = g.mul_scalar(q, alpha);
    let r1 = g.sub(r, qa);
    let rr = g.dot(r1, r1);
    let feeds = vec![
        (p, f64_tensor(&[1024], 2)),
        (pw, f64_tensor(&[512], 3)),
        (x, f64_tensor(&[512], 4)),
        (r, f64_tensor(&[512], 5)),
        (rs, Tensor::scalar_f64(1.5)),
    ];
    let sess = Session::with_options(
        Arc::new(g),
        Resources::new(),
        DeviceCtx::real(0),
        // One executor thread and one kernel worker, so that the step
        // compares with the kernel floor run the same way.
        SessionOptions {
            inter_op_threads: 1,
            intra_op_threads: 1,
            step_replay: true,
            ..SessionOptions::default()
        },
    );
    (sess, vec![x1, r1, rr], feeds)
}

pub fn core(tr: &Tracer, rep: &mut Report) {
    let (sess, fetches, feeds) = cg_worker_graph();
    let step = || {
        std::hint::black_box(sess.run(&fetches, &feeds).expect("step"));
    };
    let s = tr.span("core", "core.session_run", || per_call(15, 50, step));
    let allocs0 = alloc_count();
    let steps = 200;
    tr.span("core", "core.session_run_allocs", || {
        (0..steps).for_each(|_| step())
    });
    let allocs = (alloc_count() - allocs0) as f64 / steps as f64;

    // Kernel floor: the same kernels called directly, on one worker.
    let a = f64_tensor(&[512, 1024], 1);
    let [p, pw, x, r] = [(1024, 2), (512, 3), (512, 4), (512, 5)].map(|(n, s)| f64_tensor(&[n], s));
    let floor = tr.span("tensor", "tensor.cg_step_kernels", || {
        tfhpc_parallel::with_worker_limit(1, || {
            per_call(15, 50, || {
                let q = matmul::matvec(&a, &p).expect("matvec");
                let pq = ops::dot(&pw, &q)
                    .expect("dot")
                    .scalar_value_f64()
                    .expect("scalar");
                let alpha = 1.5 / pq;
                let x1 = ops::axpy(alpha, &pw, &x).expect("axpy");
                let r1 = ops::axpy(-alpha, &q, &r).expect("axpy");
                let rr = ops::dot(&r1, &r1).expect("dot");
                std::hint::black_box((x1, rr));
            })
        })
    });
    rep.value(
        "core.step_us",
        s.median() * 1e6,
        "us",
        &s.describe(1e6, "us"),
    );
    rep.value(
        "core.step_overhead_us",
        (s.median() - floor.median()) * 1e6,
        "us",
        &format!("step minus kernel floor {}", floor.describe(1e6, "us")),
    );
    rep.value(
        "core.allocs_per_step",
        allocs,
        "count",
        &format!("over {steps} replayed steps"),
    );

    // FifoQueue handoff: ping-pong between two threads; a round trip is
    // two enqueue -> dequeue handoffs.
    let ping = FifoQueue::new("bench.ping", 1);
    let pong = FifoQueue::new("bench.pong", 1);
    let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
    let echo = std::thread::spawn(move || {
        while let Ok(t) = ping2.dequeue() {
            if pong2.enqueue(t).is_err() {
                break;
            }
        }
    });
    let payload = vec![Tensor::scalar_f64(1.0)];
    let s = tr.span("core", "core.queue_handoff", || {
        per_call(15, 200, || {
            ping.enqueue(payload.clone()).expect("enqueue");
            std::hint::black_box(pong.dequeue().expect("dequeue"));
        })
    });
    ping.close();
    pong.close();
    echo.join().expect("echo thread");
    rep.value(
        "core.queue_handoff_us",
        s.median() * 1e6 / 2.0,
        "us",
        &s.describe(0.5e6, "us"),
    );
}

pub fn wire(tr: &Tracer, rep: &mut Report) {
    let pslice = f64_tensor(&[512], 6);
    let tile = rng::random_uniform(DType::F32, [256, 256], 7).expect("tile");
    for (label, t, batch) in [("pslice", &pslice, 2000), ("tile", &tile, 20)] {
        let s = tr.span("wire", &format!("wire.payload_crc.{label}"), || {
            per_call(15, batch, || {
                std::hint::black_box(tfhpc_dist::wire::payload_crc(t));
            })
        });
        let bytes = t.num_elements() as f64 * t.dtype().size_bytes() as f64;
        rep.value(
            &format!("dist.wire_crc_gbps.{label}"),
            bytes / s.median() / 1e9,
            "GB/s",
            &format!("{} B payload, {}", bytes, s.describe(1e6, "us")),
        );
    }
}

fn gang() -> LaunchConfig {
    LaunchConfig::real(
        tegner_k80(),
        vec![JobSpec::new("reducer", 1, 0), JobSpec::new("worker", 2, 1)],
        Protocol::Grpc,
    )
}

pub fn dist(tr: &Tracer, rep: &mut Report) {
    let mut s = Samples::default();
    for _ in 0..10 {
        let t = Instant::now();
        tr.span("dist", "dist.launch_empty", || launch(&gang(), |_| Ok(())))
            .expect("empty gang");
        s.push(t.elapsed().as_secs_f64());
    }
    rep.value(
        "dist.launch_ms",
        s.median() * 1e3,
        "ms",
        &s.describe(1e3, "ms"),
    );

    const ROUNDS: usize = 300;
    let per_round = Arc::new(Mutex::new(Samples::default()));
    for _ in 0..3 {
        let sink = Arc::clone(&per_round);
        tr.span("dist", "dist.reduce_rounds", || {
            launch(&gang(), move |ctx| {
                if ctx.job() == "reducer" {
                    return Reducer::new(Arc::clone(&ctx.server), "bench", 2, ReduceOp::Sum)
                        .serve(ROUNDS);
                }
                let reducer = TaskKey::new("reducer", 0);
                let v = Tensor::scalar_f64(1.0 + ctx.index() as f64);
                // The first round absorbs start-up; time the rest.
                worker_all_reduce(&ctx.server, &reducer, "bench", ctx.index(), v.clone(), None)?;
                let t = Instant::now();
                for _ in 1..ROUNDS {
                    worker_all_reduce(
                        &ctx.server,
                        &reducer,
                        "bench",
                        ctx.index(),
                        v.clone(),
                        None,
                    )?;
                }
                if ctx.index() == 0 {
                    sink.lock()
                        .expect("samples")
                        .push(t.elapsed().as_secs_f64() / (ROUNDS - 1) as f64);
                }
                Ok(())
            })
        })
        .expect("reduction gang");
    }
    let s = per_round.lock().expect("samples").clone();
    rep.value(
        "dist.reduce_round_us",
        s.median() * 1e6,
        "us",
        &s.describe(1e6, "us"),
    );
}

/// Host µs per DES yield: `procs` processes each advance `steps` times
/// by staggered amounts, so the scheduler hands off on every advance.
fn yield_loop(procs: usize, steps: usize) -> f64 {
    let sim = Sim::new();
    for i in 0..procs {
        let dt = 1e-6 * (1.0 + i as f64 / procs as f64);
        sim.spawn(&format!("yield-{i}"), move || {
            let me = tfhpc_sim::current().expect("sim process");
            for _ in 0..steps {
                me.advance(dt);
            }
        });
    }
    let t = Instant::now();
    sim.run();
    t.elapsed().as_secs_f64() * 1e6 / (procs * steps) as f64
}

/// Host µs per timed `SimCondvar::wait_until` expiry among `procs`
/// processes that are never notified.
fn timer_loop(procs: usize, waits: usize) -> f64 {
    let sim = Sim::new();
    for i in 0..procs {
        let cv = sim.condvar(&format!("timer-{i}"));
        let dt = 1e-4 * (1.0 + i as f64 / procs as f64);
        sim.spawn(&format!("timer-{i}"), move || {
            let me = tfhpc_sim::current().expect("sim process");
            for _ in 0..waits {
                cv.wait_until(me.now() + dt);
            }
        });
    }
    let t = Instant::now();
    sim.run();
    t.elapsed().as_secs_f64() * 1e6 / (procs * waits) as f64
}

pub fn sim(tr: &Tracer, rep: &mut Report) {
    for (procs, steps) in [(3, 4000), (17, 800), (256, 4)] {
        let mut s = Samples::default();
        tr.span("sim", &format!("sim.yield_p{procs}"), || {
            for _ in 0..3 {
                s.push(yield_loop(procs, steps));
            }
        });
        rep.value(
            &format!("sim.yield_us.p{procs}"),
            s.median(),
            "us",
            &s.describe(1.0, "us"),
        );
    }
    let mut s = Samples::default();
    tr.span("sim", "sim.timer_wake_p15", || {
        for _ in 0..3 {
            s.push(timer_loop(15, 800));
        }
    });
    rep.value(
        "sim.timer_wake_us.p15",
        s.median(),
        "us",
        &s.describe(1.0, "us"),
    );
}

pub fn serve(tr: &Tracer, rep: &mut Report) {
    let ac = AdmissionController::new(TenantQuota::default());
    let s = tr.span("serve", "serve.admission", || {
        per_call(15, 20_000, || {
            ac.admit("bench", 1).expect("admit");
            ac.on_dispatch("bench");
            ac.release("bench", 1);
        })
    });
    rep.value(
        "serve.admit_release_ns",
        s.median() * 1e9,
        "ns",
        &s.describe(1e9, "ns"),
    );
}
