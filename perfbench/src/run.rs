//! One benchmark run: a workload's episodes, then repeats of them until
//! the time budget is spent, each episode run in a process of its own.
//!
//! A fresh process per episode makes an episode's peak resident set its
//! own. Run in one process, the episodes' peaks pile up on what the
//! allocator kept from earlier ones, and vary from run to run (see
//! `BASELINE.md`). The parent only orchestrates: it starts one child per
//! episode (`--episode <j>`), times the host reference
//! ([`crate::host::reference_s`]) between children, and folds the
//! reports the children print.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use oceanstore_sim::ParCoverage;

use crate::host;
use crate::outcome::{add_coverage, Outcome};
use crate::report::median;
use crate::trace::{self, LayerTime, Tracer};
use crate::workloads::Workload;

/// Wall seconds one set-up sample covers at least. An episode's own
/// build is one sample; when it is shorter, the parent builds the same
/// deployment over and over between children until the batch covers
/// this, and the batch's mean is the sample, so that sub-millisecond
/// set-ups are not timed one at a time.
const SETUP_SAMPLE_S: f64 = 0.05;

/// What one episode's process reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The episode's deterministic outcome.
    pub outcome: Outcome,
    /// Wall seconds per set-up: the episode's own build, or the mean of
    /// a batch of builds in the parent when that was shorter than
    /// [`SETUP_SAMPLE_S`].
    pub setup_s: f64,
    /// Run-phase wall seconds.
    pub run_s: f64,
    /// Peak resident set of the episode's process, MB.
    pub rss_mb: f64,
    /// The host reference's wall seconds around the episode's process:
    /// the mean of its timings just before and just after. Set by the
    /// parent; not part of the text form.
    pub ref_s: f64,
    /// The simulator's parallel-coverage counters.
    pub coverage: ParCoverage,
    /// Span times, when traced.
    pub layers: BTreeMap<String, LayerTime>,
}

impl Report {
    /// Run-phase seconds at the reference host's speed: `run_s` scaled
    /// by [`host::REFERENCE_NOMINAL_S`] over `ref_s`.
    pub fn ref_run_s(&self) -> f64 {
        self.run_s * host::REFERENCE_NOMINAL_S / self.ref_s
    }

    /// Seconds per set-up at the reference host's speed, scaled as
    /// [`Report::ref_run_s`] is.
    pub fn ref_setup_s(&self) -> f64 {
        self.setup_s * host::REFERENCE_NOMINAL_S / self.ref_s
    }

    /// Text form, one `<key> <values...>` per line.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.outcome.encode(&mut out);
        let c = &self.coverage;
        let _ = writeln!(out, "setup_s {:?}", self.setup_s);
        let _ = writeln!(out, "run_s {:?}", self.run_s);
        let _ = writeln!(out, "rss_mb {:?}", self.rss_mb);
        let _ = writeln!(
            out,
            "coverage {} {} {} {} {} {}",
            c.windows_parallel,
            c.windows_inline,
            c.fallback_entries,
            c.fallback_events,
            c.serial_nanos,
            c.epoch_nanos
        );
        for (name, t) in &self.layers {
            let _ = writeln!(
                out,
                "layer {name} {} {:?} {:?}",
                t.calls, t.total_s, t.self_s
            );
        }
        out
    }

    /// Parses [`Report::encode`]'s text.
    ///
    /// # Errors
    ///
    /// An unknown key or a malformed value.
    pub fn decode(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            if r.outcome.decode_line(key, rest)? {
                continue;
            }
            let f = |v: &str| v.parse::<f64>().map_err(|e| format!("{key} {v:?}: {e}"));
            let u = |v: &str| v.parse::<u64>().map_err(|e| format!("{key} {v:?}: {e}"));
            let fields: Vec<&str> = rest.split_whitespace().collect();
            match (key, fields.as_slice()) {
                ("setup_s", [v]) => r.setup_s = f(v)?,
                ("run_s", [v]) => r.run_s = f(v)?,
                ("rss_mb", [v]) => r.rss_mb = f(v)?,
                ("coverage", [a, b, c, d, e, g]) => {
                    r.coverage = ParCoverage {
                        windows_parallel: u(a)?,
                        windows_inline: u(b)?,
                        fallback_entries: u(c)?,
                        fallback_events: u(d)?,
                        serial_nanos: u(e)?,
                        epoch_nanos: u(g)?,
                    }
                }
                ("layer", [name, calls, total, own]) => {
                    let t = LayerTime {
                        calls: u(calls)?,
                        total_s: f(total)?,
                        self_s: f(own)?,
                    };
                    r.layers.insert((*name).to_string(), t);
                }
                _ => return Err(format!("unexpected report line {line:?}")),
            }
        }
        Ok(r)
    }
}

/// Every run of one episode.
#[derive(Debug)]
pub struct EpisodeRuns {
    /// Untraced runs: the first, then any repeats, each with the first's
    /// outcome.
    pub runs: Vec<Report>,
    /// The traced run, in trace mode.
    pub traced: Option<Report>,
}

/// Every episode run of one benchmark run.
#[derive(Debug)]
pub struct Run {
    /// The episodes run, in order.
    pub episodes: Vec<EpisodeRuns>,
    /// Their outcomes folded together.
    pub outcome: Outcome,
    /// Every timing of the host reference, in order.
    pub references: Vec<f64>,
}

impl Run {
    /// Run-phase seconds: each episode's median over its runs of
    /// `seconds`, summed.
    fn summed_medians(&self, seconds: fn(&Report) -> f64) -> f64 {
        self.episodes
            .iter()
            .map(|e| median(&e.runs.iter().map(seconds).collect::<Vec<_>>()))
            .sum()
    }

    /// Run-phase wall seconds: each episode's median over its runs, summed.
    pub fn run_s(&self) -> f64 {
        self.summed_medians(|r| r.run_s)
    }

    /// Run-phase seconds at the reference host's speed
    /// ([`Report::ref_run_s`]): each episode's median over its runs,
    /// summed.
    pub fn ref_run_s(&self) -> f64 {
        self.summed_medians(Report::ref_run_s)
    }

    /// Committed updates per wall second of the untraced run phases.
    pub fn commits_per_wall_s(&self) -> f64 {
        self.outcome.committed as f64 / self.run_s()
    }

    /// Committed updates per second of the untraced run phases at the
    /// reference host's speed.
    pub fn commits_per_ref_s(&self) -> f64 {
        self.outcome.committed as f64 / self.ref_run_s()
    }

    /// Peak resident set, MB: each episode's median over its runs,
    /// averaged over the episodes.
    pub fn rss_mb(&self) -> f64 {
        let per_episode: Vec<f64> = self
            .episodes
            .iter()
            .map(|e| median(&e.runs.iter().map(|r| r.rss_mb).collect::<Vec<_>>()))
            .collect();
        per_episode.iter().sum::<f64>() / per_episode.len() as f64
    }

    /// Every set-up sample, seconds per set-up at the reference host's
    /// speed.
    pub fn setups(&self) -> Vec<f64> {
        self.episodes
            .iter()
            .flat_map(|e| e.runs.iter().map(Report::ref_setup_s))
            .collect()
    }

    /// Untraced runs beyond each episode's first.
    pub fn repeats(&self) -> usize {
        self.episodes.iter().map(|e| e.runs.len() - 1).sum()
    }

    /// Parallel-coverage counters summed over each episode's first run.
    pub fn coverage(&self) -> ParCoverage {
        let mut c = ParCoverage::default();
        for e in &self.episodes {
            add_coverage(&mut c, &e.runs[0].coverage);
        }
        c
    }

    /// Run-phase seconds at the reference host's speed, summed over the
    /// traced runs.
    pub fn traced_ref_run_s(&self) -> f64 {
        self.episodes
            .iter()
            .filter_map(|e| e.traced.as_ref())
            .map(Report::ref_run_s)
            .sum()
    }

    /// Span times summed over the traced runs.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut sum: BTreeMap<String, LayerTime> = BTreeMap::new();
        for t in self.episodes.iter().filter_map(|e| e.traced.as_ref()) {
            for (name, lt) in &t.layers {
                let s = sum.entry(name.clone()).or_default();
                s.calls += lt.calls;
                s.total_s += lt.total_s;
                s.self_s += lt.self_s;
            }
        }
        sum
    }
}

/// The process's peak resident set (`VmHWM`), megabytes.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Runs episode `j`, `w`, in this process (the child side of [`repeat`]);
/// when `spans` is given, traces it and appends its spans there.
///
/// # Errors
///
/// A correctness violation, or a failure to write the spans.
pub fn run_episode(w: &Workload, j: usize, spans: Option<&Path>) -> Result<Report, String> {
    let mut tr = Tracer::new(spans.is_some());
    let ep = w
        .run(&mut tr)
        .map_err(|v| format!("correctness violation: {v}"))?;
    if let Some(path) = spans {
        trace::append_spans(path, &tr, j)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Report {
        outcome: ep.outcome,
        setup_s: ep.setup_s,
        run_s: ep.run_s,
        rss_mb: peak_rss_mb()?,
        ref_s: 0.0,
        coverage: ep.coverage,
        layers: tr
            .layer_times()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    })
}

/// The arguments that start episode `j` of a run in a child process.
#[derive(Debug, Clone)]
pub struct ChildArgs<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Run seed.
    pub seed: u64,
    /// Where traced episodes append their spans.
    pub spans: &'a Path,
}

/// Runs episode `j` in a child process of this executable and waits for
/// it to exit.
fn spawn_child(args: &ChildArgs<'_>, j: usize, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .args(["--seconds", "1", "--trace", if traced { "1" } else { "0" }])
    .args(["--episode", &j.to_string()]);
    if traced {
        cmd.arg("--spans").arg(args.spans);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting episode {j}: {e}"))?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).trim_end().to_string());
    }
    Report::decode(&String::from_utf8_lossy(&out.stdout))
}

/// Mean wall seconds per build over builds of `w`'s deployment that
/// together cover [`SETUP_SAMPLE_S`].
fn batch_setup_s(w: &Workload) -> f64 {
    let (mut total, mut builds) = (0.0, 0u32);
    while total < SETUP_SAMPLE_S {
        total += w.setup_only();
        builds += 1;
    }
    total / f64::from(builds)
}

/// Starts children one after another, timing the host reference between
/// them, so that every child has a timing just before and just after it.
/// A set-up batch, when one is needed, is built in this process after the
/// child, inside the same two timings. This process's heap stays small
/// and alike from batch to batch, where a child's, after its episode,
/// depends on what the episode left behind.
struct Children<'a> {
    args: &'a ChildArgs<'a>,
    /// Every reference timing so far; the last is the latest.
    references: Vec<f64>,
}

impl<'a> Children<'a> {
    fn new(args: &'a ChildArgs<'a>) -> Self {
        Children {
            args,
            references: vec![host::reference_s()],
        }
    }

    /// Runs episode `j`, `w`, in a child process; replaces a set-up
    /// shorter than a sample by a batch (untraced runs only, the ones
    /// whose set-up is reported); and sets the report's `ref_s` from the
    /// timings around both.
    fn spawn(&mut self, w: &Workload, j: usize, traced: bool) -> Result<Report, String> {
        let before = *self.references.last().expect("timed once at the start");
        let mut r = spawn_child(self.args, j, traced)?;
        if !traced && r.setup_s < SETUP_SAMPLE_S {
            r.setup_s = batch_setup_s(w);
        }
        let after = host::reference_s();
        self.references.push(after);
        r.ref_s = (before + after) / 2.0;
        Ok(r)
    }
}

/// Runs the episodes, each in a process of its own, until `budget` has
/// passed. Every episode runs once; then the episodes run again in turn
/// while the time left covers the next one's first run a quarter over,
/// and each repeat must give the same outcome as the first run. In trace
/// mode only the first half of the episodes run, each untraced and then
/// traced right after, so the tracing overhead compares like with like
/// and a traced run takes about as long as an untraced sweep.
///
/// # Errors
///
/// A correctness violation, a repeat whose outcome differs from the
/// first run's (the determinism contract), or a child that could not run.
pub fn repeat(
    episodes: &[Workload],
    args: &ChildArgs<'_>,
    budget: Duration,
    trace: bool,
) -> Result<Run, String> {
    let start = Instant::now();
    let swept = if trace {
        episodes.len().div_ceil(2)
    } else {
        episodes.len()
    };
    if trace {
        let _ = std::fs::remove_file(args.spans);
    }
    let mut children = Children::new(args);
    let mut runs: Vec<EpisodeRuns> = Vec::with_capacity(swept);
    let mut first_wall = Vec::with_capacity(swept);
    for (j, w) in episodes.iter().enumerate().take(swept) {
        let began = Instant::now();
        let mut e = EpisodeRuns {
            runs: vec![children.spawn(w, j, false)?],
            traced: None,
        };
        first_wall.push(began.elapsed());
        if trace {
            let t = children.spawn(w, j, true)?;
            if t.outcome != e.runs[0].outcome {
                return Err("correctness violation: tracing changed an episode's outcome".into());
            }
            e.traced = Some(t);
        }
        runs.push(e);
    }
    if !trace {
        for j in (0..swept).cycle() {
            if start.elapsed() + first_wall[j].mul_f64(1.25) > budget {
                break;
            }
            let r = children.spawn(&episodes[j], j, false)?;
            if r.outcome != runs[j].runs[0].outcome {
                return Err(format!(
                    "correctness violation: episode {j} repeated the same inputs but its \
                     outcome differs from its first run's (determinism contract)"
                ));
            }
            runs[j].runs.push(r);
        }
    }
    let mut outcome = Outcome::default();
    for e in &runs {
        outcome.absorb(&e.runs[0].outcome);
    }
    Ok(Run {
        episodes: runs,
        outcome,
        references: children.references,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_process_boundary() {
        let mut outcome = Outcome {
            writes: 7,
            committed: 6,
            pending: 1,
            reads: 3,
            stale_views: 11,
            replica_views: 40,
            latencies_us: vec![100_000, 100_000, 113_049],
            lookup_latencies_us: vec![50_000],
            ..Outcome::default()
        };
        outcome.counts.insert("msgs.pbft/commit".into(), 42);
        outcome.counts.insert("event.repush/resend".into(), 5);
        let mut layers = BTreeMap::new();
        layers.insert(
            "sim.run".to_string(),
            LayerTime {
                calls: 3,
                total_s: 0.125,
                self_s: 0.1,
            },
        );
        let r = Report {
            outcome,
            setup_s: 0.000_173,
            run_s: 1.0 / 3.0,
            rss_mb: 190.5,
            ref_s: 0.0,
            coverage: ParCoverage {
                windows_parallel: 9,
                serial_nanos: 12,
                ..ParCoverage::default()
            },
            layers,
        };
        let back = Report::decode(&r.encode()).expect("decodes");
        assert_eq!(back.outcome, r.outcome);
        assert_eq!(back.setup_s, r.setup_s, "floats round-trip exactly");
        assert_eq!(back.run_s, r.run_s);
        assert_eq!(back.rss_mb, r.rss_mb);
        assert_eq!(back.coverage, r.coverage);
        assert_eq!(back.layers, r.layers);
        assert!(Report::decode("bogus 1").is_err());
    }
}
