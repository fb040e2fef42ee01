//! The measuring loops: setup, the timed run, the traced run, and the
//! metrics each reports.

use crate::host::{self, Facts};
use crate::replay::{self, tally, Ledger};
use crate::stats::{mean, median, tail};
use crate::trace::{Recorder, Span};
use crate::workload::{request_seed, setup, Kind, Prepared, Spec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// A timed run makes at least this many passes over its requests, so
/// each has a fastest repetition however slow the host.
const MIN_PASSES: usize = 3;

/// The traced run replays at least this many requests.
const MIN_TRACED: usize = 3;

/// Requests whose per-variant sub-layer spans go into the trace file; later
/// requests contribute their layer spans only, which keeps the file small.
const SUB_LAYER_TRACE_REQUESTS: usize = 2;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("circuits_per_s", "1/s"),
    ("run_ms.best", "ms"),
    ("hellinger_fidelity", "fidelity"),
    ("peak_rss_mb", "MB"),
];

/// Layer spans and the per-layer time metric each feeds.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("cut", "cut.ms"),
    ("plan", "plan.ms"),
    ("eval", "eval.ms"),
    ("eval.variant_build", "eval.variant_build.ms"),
    ("eval.tableau", "eval.tableau.ms"),
    ("eval.support", "eval.support.ms"),
    ("eval.sample", "eval.sample.ms"),
    ("eval.frame", "eval.frame.ms"),
    ("eval.statevec", "eval.statevec.ms"),
    ("eval.statevec_sample", "eval.statevec_sample.ms"),
    ("mlft", "mlft.ms"),
    ("recombine", "recombine.ms"),
    ("joint", "joint.ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("cut.ms", "ms"),
    ("cut.cuts", "count"),
    ("cut.fragments", "count"),
    ("plan.ms", "ms"),
    ("plan.variants", "count"),
    ("eval.ms", "ms"),
    ("eval.variants", "count"),
    ("eval.shots", "count"),
    ("eval.outcomes", "count"),
    ("eval.variant_build.ms", "ms"),
    ("eval.tableau.ms", "ms"),
    ("eval.support.ms", "ms"),
    ("eval.sample.ms", "ms"),
    ("eval.frame.ms", "ms"),
    ("eval.statevec.ms", "ms"),
    ("eval.statevec_sample.ms", "ms"),
    ("eval.accumulate.ms", "ms"),
    ("mlft.ms", "ms"),
    ("mlft.entries", "count"),
    ("recombine.ms", "ms"),
    ("recombine.visited", "count"),
    ("recombine.visited_frac", "ratio"),
    ("joint.ms", "ms"),
    ("joint.support", "count"),
    ("sched.busy_frac", "ratio"),
    ("sched.idle_ms", "ms"),
    ("pool.spawned", "count"),
    ("ledger.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the result file and the Chrome trace are written to.
    pub out: PathBuf,
}

/// The usage line.
pub const USAGE: &str = "usage: supersim-perfbench --workload <hwea_wide|mixed_batch|ladder_deep> \
                         --seed <u64> --seconds <s> --trace <0|1> [--out <dir>]";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace`, and `--out`
    /// (default `perfbench-out`).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out = PathBuf::from("perfbench-out");
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let missing = |name: &str| format!("missing {name}");
        Ok(Args {
            kind: kind.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            out,
        })
    }
}

/// A run's result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)`, in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Facts recorded with the result: host, sizes, median and tail.
    pub notes: Vec<(String, String)>,
    /// Why requests failed, one line each.
    pub errors: Vec<String>,
    /// The traced run's spans as Chrome trace-event JSON.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`. A
    /// metric that is not a finite number is written as `null` and makes
    /// the result incorrect.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result line plus notes and errors, for the result file.
    pub fn report_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        format!(
            "{{\"result\": {}, \"notes\": {{{}}}, \"errors\": [{}]}}\n",
            self.result_json(),
            notes.join(", "),
            errors.join(", ")
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the benchmark: setup [`SETUPS`] times, then the timed or the
/// traced run. Errors (pinned environment set, a failed self-check or
/// warm-up) mean nothing was timed.
pub fn run(args: &Args) -> Result<Outcome, String> {
    host::check_pinned_env()?;
    let facts = Facts::read(std::path::Path::new("."));
    let spec = Spec::paper(args.kind);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(&spec, args.seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one setup");
    let mut outcome = if args.trace {
        traced(&prepared, args)
    } else {
        timed(&prepared, args, median(&setup_times))?
    };
    let mut notes = vec![
        ("workload".into(), args.kind.name().into()),
        ("workload_seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("instances".into(), prepared.instances.len().to_string()),
        ("shots".into(), spec.shots.to_string()),
        ("threads".into(), spec.threads.to_string()),
        ("tableau_engine".into(), facts.tableau_engine),
        (
            "available_parallelism".into(),
            facts.available_parallelism.to_string(),
        ),
        ("cpu_model".into(), facts.cpu_model),
        ("commit".into(), facts.commit),
        ("setup_s.samples".into(), format!("{setup_times:?}")),
    ];
    notes.append(&mut outcome.notes);
    outcome.notes = notes;
    Ok(outcome)
}

/// Checks every member of a request; records failures.
fn check_members(
    prepared: &Prepared,
    r: usize,
    members: &[crate::workload::Member],
    fidelities: &mut Vec<f64>,
    errors: &mut Vec<String>,
) -> (usize, bool) {
    let mut completed = 0;
    let mut ok = true;
    for m in members {
        match prepared.check(m) {
            Ok(f) => {
                completed += 1;
                fidelities.extend(f);
            }
            Err(e) => {
                ok = false;
                errors.push(format!("request {r}, circuit {}: {e}", m.instance));
            }
        }
    }
    (completed, ok)
}

/// The untraced run: closed-loop requests from one caller, in whole
/// passes over the workload's requests ([`Prepared::pass_len`]), until
/// the next pass would end past `--seconds` (at least [`MIN_PASSES`]).
/// Every request is checked. The timings reported are each position's
/// fastest passing repetition: other tenants' memory traffic on a shared
/// host slows memory-bound requests for seconds at a time, which moves
/// a run's median but not its fastest repetitions.
fn timed(prepared: &Prepared, args: &Args, setup_s: f64) -> Result<Outcome, String> {
    let pass_len = prepared.pass_len();
    let start = Instant::now();
    let (mut walls, mut fidelities, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    let mut best = vec![f64::INFINITY; pass_len];
    let mut circuits_per_pass = vec![0usize; pass_len];
    let (mut circuits, mut failed, mut passes) = (0usize, 0usize, 0usize);
    while passes < MIN_PASSES
        || start.elapsed().as_secs_f64() * (passes + 1) as f64 / passes as f64 <= args.seconds
    {
        for i in 0..pass_len {
            let r = passes * pass_len + i;
            let seed = request_seed(args.seed, r);
            let t = Instant::now();
            let members = prepared.run_request(r, seed);
            let wall = ms(t.elapsed());
            walls.push(wall);
            let (completed, ok) =
                check_members(prepared, r, &members, &mut fidelities, &mut errors);
            circuits += completed;
            if ok {
                best[i] = best[i].min(wall);
                circuits_per_pass[i] = completed;
            } else {
                failed += 1;
            }
        }
        passes += 1;
    }
    let best_s: f64 = best.iter().sum::<f64>() / 1e3;
    let values = [
        setup_s,
        circuits_per_pass.iter().sum::<usize>() as f64 / best_s,
        mean(&best),
        mean(&fidelities),
        host::peak_rss_mb().ok_or("VmHWM is unreadable")?,
    ];
    let mut notes = vec![
        ("passes".into(), passes.to_string()),
        ("run_ms.best.per_position".into(), format!("{best:?}")),
        ("run_ms.p50".into(), median(&walls).to_string()),
        (
            "failed_frac".into(),
            (failed as f64 / walls.len() as f64).to_string(),
        ),
        ("circuits_completed".into(), circuits.to_string()),
        ("fidelity.samples".into(), fidelities.len().to_string()),
    ];
    if let Some(tail) = tail(&walls) {
        notes.push(("run_ms.tail".into(), tail.value.to_string()));
        notes.push(("run_ms.tail.percentile".into(), tail.percentile.to_string()));
        notes.push(("run_ms.tail.samples".into(), tail.samples.to_string()));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: walls.len(),
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        notes,
        errors,
        trace_json: None,
    })
}

/// The traced run: each request runs untraced, then is replayed through
/// every layer under spans, then replayed per variant through the
/// evaluation sub-layers; both replay fidelity checks gate the request.
/// Reports the per-layer ledger as medians over requests.
fn traced(prepared: &Prepared, args: &Args) -> Outcome {
    let spec = &prepared.spec;
    let batch = spec.kind == Kind::MixedBatch;
    let mut rec = Recorder::new();
    let spawned_before = runtime::Pool::global().stats().spawned_total;
    let start = Instant::now();
    let (mut ledgers, mut untraced, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fidelities, mut errors) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let mut r = 0;
    while r < MIN_TRACED || start.elapsed().as_secs_f64() < args.seconds {
        let seed = request_seed(args.seed, r);
        let t = Instant::now();
        let members = prepared.run_request(r, seed);
        let wall = t.elapsed();
        let (_, mut ok) = check_members(prepared, r, &members, &mut fidelities, &mut errors);

        rec.set_request(r);
        let first = rec.spans().len();
        let mut ledger = Ledger::new();
        let t = Instant::now();
        let replayed = prepared.replay_request(&mut rec, &members, seed, &mut ledger);
        traced_walls.push(ms(t.elapsed()));
        untraced.push(ms(wall));
        match replayed {
            Err(e) => {
                ok = false;
                errors.push(format!("request {r}: replay failed: {e}"));
            }
            Ok(list) => {
                for (m, (_, out)) in members.iter().zip(&list) {
                    if !matches!(&m.result, Ok(res) if replay::same_bits(res, out)) {
                        ok = false;
                        errors.push(format!(
                            "request {r}, circuit {}: replay differs from the pipeline run",
                            m.instance
                        ));
                    }
                }
                let config = spec.config(seed);
                let checked = rec.span("variants", |rec| {
                    list.iter().try_for_each(|(owned, _)| {
                        replay::replay_variants(
                            rec,
                            &config,
                            prepared.planned(owned),
                            seed,
                            &mut ledger,
                        )
                    })
                });
                if let Err(e) = checked {
                    ok = false;
                    errors.push(format!("request {r}: {e}"));
                }
            }
        }
        failed += usize::from(!ok);
        ledgers.push(finish_ledger(
            &rec,
            first,
            ledger,
            wall,
            batch.then_some(spec.threads),
        ));
        r += 1;
    }
    let spawned = runtime::Pool::global().stats().spawned_total - spawned_before;
    let overhead = median(&traced_walls) / median(&untraced) - 1.0;
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "pool.spawned" => spawned as f64,
                "trace.overhead_frac" => overhead,
                _ => median(
                    &ledgers
                        .iter()
                        .map(|l| l.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            (name, value, unit)
        })
        .collect();
    Outcome {
        correct: failed == 0,
        attempted: ledgers.len(),
        failed,
        metrics,
        notes: vec![
            ("traced_requests".into(), ledgers.len().to_string()),
            ("spans".into(), rec.spans().len().to_string()),
        ],
        errors,
        trace_json: Some(
            rec.chrome_json(|s| {
                s.request < SUB_LAYER_TRACE_REQUESTS || !s.name.starts_with("eval.")
            }),
        ),
    }
}

/// Completes a request's ledger from its spans — `rec.spans()[first..]`,
/// the first of which is the `request` span: layer times, the accumulation
/// self time, ratios, and — on `run_batch` requests with `threads` workers
/// — scheduler busy and idle time against the untraced wall time `wall`.
fn finish_ledger(
    rec: &Recorder,
    first: usize,
    mut ledger: Ledger,
    wall: Duration,
    threads: Option<usize>,
) -> Ledger {
    let spans = &rec.spans()[first..];
    for (span, key) in SPAN_METRICS {
        let total: Duration = spans
            .iter()
            .filter(|s| s.name == span)
            .map(Span::duration)
            .sum();
        tally(&mut ledger, key, ms(total));
    }
    let sub: f64 = SPAN_METRICS
        .iter()
        .filter(|(span, _)| span.starts_with("eval."))
        .map(|(_, key)| ledger[key])
        .sum();
    ledger.insert("eval.accumulate.ms", ledger["eval.ms"] - sub);
    let visited = ledger.get("recombine.visited").copied().unwrap_or(0.0);
    if let Some(all) = ledger.remove("recombine.assignments") {
        ledger.insert("recombine.visited_frac", visited / all);
    }
    let request = spans[0].duration();
    let busy: Duration = spans
        .iter()
        .filter(|s| s.parent == Some(first))
        .map(Span::duration)
        .sum();
    ledger.insert(
        "ledger.unaccounted_frac",
        (request - busy).as_secs_f64() / request.as_secs_f64(),
    );
    if let Some(threads) = threads {
        let capacity = threads as f64 * ms(wall);
        ledger.insert("sched.busy_frac", ms(busy) / capacity);
        ledger.insert("sched.idle_ms", capacity - ms(busy));
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload ladder_deep --seed 7 --seconds 10 --trace 1 --out x").unwrap();
        assert_eq!(a.kind, Kind::LadderDeep);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.out, PathBuf::from("x"));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload hwea_wide --seed 1 --seconds 1").is_err());
        assert!(parse("--workload hwea_wide --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload hwea_wide --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).unwrap();
            let end = json[start..].find(']').unwrap() + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(section("workloads"), workloads);
    }
}
