//! The tfhpc benchmark driver. See `tfbench/README.md`.
//!
//! `tfbench --workload <real-apps|sim-cg> --seed <n>
//!          --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. The named workload's part is set up
//! several times (the median is `setup_s`); then all three parts take
//! interleaved steps for `--seconds`, the named part half of that time
//! and the other two a quarter each, so that every end-to-end metric
//! appears in every workload's result.
//! The last line of standard output is one JSON object.

mod layers;
mod measure;
mod real_apps;
mod report;
mod sim_cg;
mod sim_serve;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use tfhpc_obs::json::{self, JsonValue};

use measure::{cpu_times, peak_rss_mb, Samples};
use real_apps::RealApps;
use report::Report;
use sim_cg::{PointBits, SimCg};
use sim_serve::SimServe;
use spans::Tracer;

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

const SPEC_PATH: &str = "BENCHMARK.json";
const EXPECTED_PATH: &str = "tfbench/expected.json";
const SPANS_DIR: &str = "tfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let bad = |flag: &str| format!("malformed {flag}");
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or_else(|| bad("--seconds"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
    })
}

/// One metric declared in `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    unit: String,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))
}

fn read_spec() -> Result<Spec, String> {
    let doc = read_json(SPEC_PATH)?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        array(&doc, key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: str_field(m, "name")?,
                    unit: str_field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: array(&doc, "workloads")?
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// What `expected.json` records: the sim-cg sweep's virtual outputs
/// and, for each per-layer metric, the end-to-end metric and workload
/// it should move.
struct Expected {
    sim_cg: Vec<PointBits>,
    moves: BTreeMap<String, (String, String)>,
}

fn read_expected() -> Result<Expected, String> {
    let doc = read_json(EXPECTED_PATH)?;
    let bits = |v: &JsonValue, key: &str| -> Result<u64, String> {
        let s = str_field(v, key)?;
        u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|e| format!("{key}: {e}"))
    };
    let sim = doc.get("sim_cg").ok_or("missing `sim_cg`")?;
    let iters = sim.get("iterations").and_then(JsonValue::as_f64);
    if iters != Some(sim_cg::ITERS as f64) {
        return Err(format!(
            "sim_cg.iterations {iters:?} does not match the benchmark's {}",
            sim_cg::ITERS
        ));
    }
    let sim_cg = array(sim, "points")?
        .iter()
        .map(|p| {
            Ok(PointBits {
                gflops: bits(p, "gflops_bits")?,
                elapsed_s: bits(p, "elapsed_s_bits")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let moves = array(&doc, "per_layer_moves")?
        .iter()
        .map(|m| {
            Ok((
                str_field(m, "metric")?,
                (str_field(m, "moves")?, str_field(m, "workload")?),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Expected { sim_cg, moves })
}

/// The three parts of the benchmark; each workload names one of them.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    RealApps,
    SimCg,
    SimServe,
}

const PARTS: [(Part, &str); 3] = [
    (Part::RealApps, "real-apps"),
    (Part::SimCg, "sim-cg"),
    (Part::SimServe, "sim-serve"),
];

enum State {
    RealApps(RealApps),
    SimCg(SimCg),
    SimServe(SimServe),
}

impl State {
    fn setup(part: Part, seed: u64, tr: &Tracer, rep: &mut Report, exp: &Expected) -> State {
        match part {
            Part::RealApps => State::RealApps(RealApps::setup(tr, rep)),
            Part::SimCg => State::SimCg(SimCg::setup(tr, exp.sim_cg.clone())),
            Part::SimServe => State::SimServe(SimServe::setup(tr, seed)),
        }
    }

    /// One unit of measured work.
    fn step(&mut self, tr: &Tracer, rep: &mut Report) {
        match self {
            State::RealApps(p) => p.round(tr, rep),
            State::SimCg(p) => p.sweep(tr, rep),
            State::SimServe(p) => p.base_run(tr, rep),
        }
    }

    /// Fewest steps in any run, so that every metric has samples even
    /// when `--seconds` is very short.
    fn min_steps(&self) -> usize {
        match self {
            State::RealApps(_) | State::SimCg(_) => 2,
            State::SimServe(_) => sim_serve::P99_RUNS,
        }
    }

    /// Unit of [`State::primary`]'s samples.
    fn primary_unit(&self) -> &'static str {
        match self {
            State::SimServe(_) => "us/job",
            _ => "s",
        }
    }

    /// Host samples of the part's primary operation.
    fn primary(&self) -> &Samples {
        match self {
            State::RealApps(p) => p.primary(),
            State::SimCg(p) => p.primary(),
            State::SimServe(p) => p.primary(),
        }
    }

    /// Once-per-run work after the measured window: checks that are
    /// not tied to a single step, and the sim-serve rate ladder, whose
    /// result is virtual time only.
    fn finish(&mut self, tr: &Tracer, rep: &mut Report) {
        match self {
            State::RealApps(p) => p.verify_matmul(tr, rep),
            State::SimCg(_) => {}
            State::SimServe(p) => {
                p.ladder(tr, rep);
                p.check_determinism(tr, rep);
            }
        }
    }

    fn report(&self, rep: &mut Report) {
        match self {
            State::RealApps(p) => p.report(rep),
            State::SimCg(p) => p.report(rep),
            State::SimServe(p) => p.report(rep),
        }
    }
}

/// Set-up repetitions when the part is measured; `setup_s` is their
/// median. The real-apps set-up generates the CG problem (seconds).
fn setups(part: Part) -> usize {
    match part {
        Part::RealApps => 3,
        Part::SimCg | Part::SimServe => 15,
    }
}

/// Share of the measured window a part gets: half for the named
/// workload's own part, a quarter for each of the other two.
fn share(part: Part, focus: Part) -> f64 {
    if part == focus {
        0.5
    } else {
        0.25
    }
}

/// A part set up for the measured window, with the steps it has taken
/// so far and their host seconds.
struct Running {
    part: Part,
    name: &'static str,
    state: State,
    steps: usize,
    spent: f64,
}

fn run(args: &Args, spec: &Spec, exp: &Expected) -> Report {
    let focus = PARTS
        .iter()
        .find(|(_, name)| *name == args.workload)
        .map(|(p, _)| *p)
        .expect("workload checked against BENCHMARK.json");
    let tr = Tracer::new(args.trace);
    let mut rep = Report::default();
    rep.lines.push(format!(
        "workload {} | seed {} | {} s measured | trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));

    // Set-up of the measured part, repeated; the last state is kept.
    let mut setup = Samples::default();
    let mut state = None;
    for _ in 0..setups(focus) {
        drop(state.take());
        let t = Instant::now();
        state = Some(tr.span("bench", "setup", || {
            State::setup(focus, args.seed, &tr, &mut rep, exp)
        }));
        setup.push(t.elapsed().as_secs_f64());
    }
    rep.host("setup_s", &setup, 1.0, "s");

    // The other two parts are set up once (not counted). All three then
    // take steps interleaved through the whole measured window, each
    // step going to the part furthest below its share of the time so
    // far. On a shared host, speed can drift over seconds; interleaving
    // gives every metric samples from the whole run, so that each one
    // sees the same average speed.
    let mut parts: Vec<Running> = PARTS
        .iter()
        .map(|&(part, name)| Running {
            part,
            name,
            state: if part == focus {
                state.take().expect("set up")
            } else {
                State::setup(part, args.seed, &tr, &mut rep, exp)
            },
            steps: 0,
            spent: 0.0,
        })
        .collect();
    let fi = parts.iter().position(|r| r.part == focus).expect("focus");

    // A traced run records spans on every other step of the measured
    // part, so that the tracing overhead can be read off its primary
    // operation's host time, traced against untraced. CPU time is
    // summed over the measured part's steps only.
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let (mut user, mut sys, mut measured) = (0.0, 0.0, 0.0);
    let focus_min = if args.trace { 4 } else { 2 };
    loop {
        let below_min = |r: &Running| {
            let min = if r.part == focus {
                focus_min.max(r.state.min_steps())
            } else {
                r.state.min_steps()
            };
            r.steps < min
        };
        let next = if measured < args.seconds {
            parts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let due = |r: &Running| r.spent / share(r.part, focus);
                    due(a).total_cmp(&due(b))
                })
                .map(|(i, _)| i)
        } else {
            parts.iter().position(below_min)
        };
        let Some(i) = next else { break };
        let r = &mut parts[i];
        let on = args.trace && (i != fi || r.steps % 2 == 1);
        tr.set_enabled(on);
        let before = r.state.primary().len();
        let (user0, sys0) = cpu_times();
        let t = Instant::now();
        r.state.step(&tr, &mut rep);
        let dt = t.elapsed().as_secs_f64();
        let (user1, sys1) = cpu_times();
        r.steps += 1;
        r.spent += dt;
        measured += dt;
        if i == fi {
            (user, sys) = (user + user1 - user0, sys + sys1 - sys0);
            let new = r.state.primary().range(before, r.state.primary().len());
            let sink = if on { &mut traced } else { &mut untraced };
            new.0.into_iter().for_each(|v| sink.push(v));
        }
    }
    tr.set_enabled(args.trace);
    for r in &mut parts {
        r.state.finish(&tr, &mut rep);
    }
    rep.value("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the whole run");
    rep.value(
        "proc.user_s",
        user,
        "s",
        "user CPU over the measured part's steps",
    );
    rep.value(
        "proc.sys_s",
        sys,
        "s",
        "system CPU over the measured part's steps",
    );
    if args.trace {
        let unit = parts[fi].state.primary_unit();
        rep.value(
            "trace.overhead_pct",
            (traced.median() / untraced.median() - 1.0) * 100.0,
            "%",
            &format!(
                "primary operation traced {} vs untraced {}",
                traced.describe(1.0, unit),
                untraced.describe(1.0, unit)
            ),
        );
    }
    for r in &parts {
        rep.lines.push(format!(
            "-- {}: {:.2} s of steps ({:.0}% share)",
            r.name,
            r.spent,
            share(r.part, focus) * 100.0
        ));
        r.state.report(&mut rep);
    }

    if tr.on() {
        rep.lines.push("-- per-layer probes".into());
        layers::tensor(&tr, &mut rep);
        layers::core(&tr, &mut rep);
        layers::wire(&tr, &mut rep);
        layers::dist(&tr, &mut rep);
        layers::sim(&tr, &mut rep);
        layers::serve(&tr, &mut rep);
        for (layer, s) in tr.self_times() {
            rep.value(
                &format!("self_s.{layer}"),
                s,
                "s",
                "layer self time in this run's spans",
            );
        }
        let path = format!("{SPANS_DIR}/spans-{}-{}.json", args.workload, args.seed);
        let written =
            std::fs::create_dir_all(SPANS_DIR).and_then(|_| std::fs::write(&path, tr.to_json()));
        rep.check("write spans", written.map_err(|e| format!("{path}: {e}")));
        rep.lines
            .push(format!("spans: {} written to {path}", tr.len()));
        for m in &spec.per_layer {
            let (moves, on) = exp
                .moves
                .get(&m.name)
                .map(|(e, w)| (e.as_str(), w.as_str()))
                .unwrap_or(("-", "-"));
            rep.lines.push(format!(
                "layer {:<28} {:>14.6} {:<8} moves {moves} on {on}",
                m.name,
                rep.values.get(&m.name).copied().unwrap_or(f64::NAN),
                m.unit
            ));
        }
    }
    rep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tfbench: {e}");
            eprintln!("usage: tfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (spec, exp) = match read_spec().and_then(|s| Ok((s, read_expected()?))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !spec.workloads.contains(&args.workload) {
        eprintln!(
            "tfbench: unknown workload `{}` (BENCHMARK.json lists {:?})",
            args.workload, spec.workloads
        );
        return ExitCode::from(2);
    }
    let rep = run(&args, &spec, &exp);
    for line in &rep.lines {
        println!("{line}");
    }

    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    let mut complete = true;
    for m in wanted {
        match rep.values.get(&m.name).filter(|v| v.is_finite()) {
            Some(v) => metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::escape(&m.name),
                json::escape(&m.unit)
            )),
            None => {
                eprintln!("tfbench: metric `{}` was not measured", m.name);
                complete = false;
            }
        }
    }
    if !complete {
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
