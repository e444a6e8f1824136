//! Benchmark command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload's episodes (inputs drawn from `--seed`), each in a
//! child process of its own, then repeats them until `--seconds` of wall
//! time are spent; checks that every repeat gives its episode's
//! deterministic outcome; and prints a table followed by one JSON result
//! line. With `--trace 1` the first half of the episodes run, each also
//! traced; the result line then carries the per-layer metrics and the
//! spans go to `.bench_out/`. Any correctness violation exits with
//! status 1 and no result line.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use oceanstore_perfbench::host;
use oceanstore_perfbench::report::{self, Metric};
use oceanstore_perfbench::run::{self, ChildArgs, Run};
use oceanstore_perfbench::workloads;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run only this episode and print its report.
    episode: Option<usize>,
    /// Where a traced child appends its spans.
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut episode = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--episode" => episode = Some(value.parse::<usize>().map_err(bad)?),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        episode,
        spans,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The human-readable notes beside the end-to-end table.
fn print_notes(run: &Run) {
    let o = &run.outcome;
    for (j, e) in run.episodes.iter().enumerate() {
        let per_s = |seconds: fn(&run::Report) -> f64| -> String {
            let rates: Vec<String> = e
                .runs
                .iter()
                .map(|r| format!("{:.2}", r.outcome.committed as f64 / seconds(r)))
                .collect();
            rates.join(" ")
        };
        let rss: Vec<String> = e.runs.iter().map(|r| format!("{:.1}", r.rss_mb)).collect();
        println!(
            "  episode {j}: commits_per_ref_s {}; commits_per_wall_s {}; peak_rss_mb {}",
            per_s(run::Report::ref_run_s),
            per_s(|r| r.run_s),
            rss.join(" ")
        );
    }
    let mut refs = run.references.clone();
    refs.sort_by(f64::total_cmp);
    println!(
        "  commits_per_wall_s {:.2}; host reference over {} timings: min {:.6}, median {:.6}, \
         max {:.6} s (nominal {} s)",
        run.commits_per_wall_s(),
        refs.len(),
        refs[0],
        report::median(&refs),
        refs[refs.len() - 1],
        host::REFERENCE_NOMINAL_S
    );
    let mut setups = run.setups();
    setups.sort_by(f64::total_cmp);
    let raw_setups: Vec<f64> = run
        .episodes
        .iter()
        .flat_map(|e| e.runs.iter().map(|r| r.setup_s))
        .collect();
    println!(
        "  setup_s over {} samples: min {:.6}, median {:.6}, max {:.6}; raw wall median {:.6}",
        setups.len(),
        setups[0],
        report::median(&setups),
        setups[setups.len() - 1],
        report::median(&raw_setups)
    );
    let lat = &o.latencies_us;
    let p50 = report::percentile(lat, 0.5) as f64 / 1e3;
    match report::tail(lat) {
        Some(t) => println!(
            "  commit latency p50 {p50:.3} ms, {} {:.3} ms with {} of {} committed samples beyond it",
            t.label,
            t.value as f64 / 1e3,
            t.beyond,
            o.committed
        ),
        None => println!(
            "  commit latency p50 {p50:.3} ms; {} committed samples support no tail percentile",
            o.committed
        ),
    }
    println!(
        "  failed_frac {:.6} ({} of {} operations); {} of {} reads served stale; lost {}",
        report::failed_frac(o),
        o.failed(),
        o.attempted(),
        o.stale_reads,
        o.reads,
        o.lost
    );
    println!(
        "  message classes by share of bytes: {}",
        report::class_shares(o)
    );
}

fn run_main(args: &Args) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let episodes = workloads::get(&args.workload, args.seed, cpus).ok_or_else(|| {
        format!(
            "unknown workload {:?}; known: {}",
            args.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    if let Some(j) = args.episode {
        let w = episodes.get(j).ok_or_else(|| format!("no episode {j}"))?;
        print!(
            "{}",
            run::run_episode(w, j, args.spans.as_deref())?.encode()
        );
        return Ok(());
    }
    let spans = PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let child = ChildArgs {
        workload: &args.workload,
        seed: args.seed,
        spans: &spans,
    };
    let run = run::repeat(
        &episodes,
        &child,
        Duration::from_secs(args.seconds),
        args.trace,
    )?;
    println!(
        "workload {} seed {} | {} of {} episodes{}, {} repeats | simulator threads {}, cpus {cpus}",
        args.workload,
        args.seed,
        run.episodes.len(),
        episodes.len(),
        if args.trace { ", each also traced" } else { "" },
        run.repeats(),
        episodes[0].threads()
    );
    let e2e = report::end_to_end(&run);
    print_table("end-to-end (untraced episodes)", &e2e);
    print_notes(&run);

    let metrics = if args.trace {
        let layers = report::per_layer(&run);
        print_table(
            "per-layer (traced episodes; seconds summed over them)",
            &layers,
        );
        println!("span times (calls, total s, self s)");
        for (name, t) in &run.layers() {
            println!(
                "  {name:<28} {:>9} {:>12.6} {:>12.6}",
                t.calls, t.total_s, t.self_s
            );
        }
        println!(
            "note: sim.run_s, core.settle_s, core.update_s and plaxton.locate_s include the \
             background protocol work the simulator runs during that call"
        );
        println!("spans written to {}", spans.display());
        layers
    } else {
        e2e
    };
    println!("{}", report::json_line(&run.outcome, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
