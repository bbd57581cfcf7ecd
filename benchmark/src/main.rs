//! The repo's wall-clock benchmark. See `README.md` next to this package
//! and `BENCHMARK.json` at the repo root.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints one JSON result as the last line of stdout
//!   (the end-to-end metrics untraced, the per-layer metrics traced);
//! * without `--workload` it is the suite: every workload, each in a process
//!   of its own, with `--trace`, `--smoke` and `--selfcheck` as options.

mod alloc;
mod e2e;
mod host;
mod ladder;
mod layers;
mod report;
mod segment;
mod spans;
mod spec;
mod stats;
mod suite;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use spec::{Workload, END_TO_END, PER_LAYER};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--workload NAME`: run this one workload in this process.
    pub workload: Option<String>,
    /// `--seed N`: the only source of variation.
    pub seed: u64,
    /// `--seconds S`: how long one run measures.
    pub seconds: Option<f64>,
    /// `--trace` / `--trace 1`.
    pub trace: bool,
    /// `--smoke`: op counts and seconds / 50, metrics not comparable.
    pub smoke: bool,
    /// `--selfcheck`: run the untraced suite twice and compare.
    pub selfcheck: bool,
    /// `--out-dir DIR`: where traces and reports go.
    pub out_dir: PathBuf,
    /// `--emit-benchmark-json`: print `BENCHMARK.json` and exit.
    pub emit_json: bool,
    /// `--list`: print the workloads and metrics with their definitions.
    pub list: bool,
}

/// Seconds one run measures when `--seconds` is not given; the value in
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 10;
/// What `--smoke` divides the seconds by; every op count follows, because
/// warm-up and timed parts are both run by the clock.
const SMOKE_DIV: f64 = 50.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
        emit_json: false,
        list: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                a.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                a.seconds = Some(s);
            }
            // `--trace` alone is a flag; the driver passes `--trace 0|1`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            "--out-dir" => a.out_dir = PathBuf::from(value(&mut i, "--out-dir")?),
            "--emit-benchmark-json" => a.emit_json = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(a)
}

impl Args {
    /// Seconds one run measures under these arguments.
    pub fn run_seconds(&self) -> f64 {
        let seconds = self.seconds.unwrap_or(f64::from(RUN_SECONDS));
        if self.smoke {
            seconds / SMOKE_DIV
        } else {
            seconds
        }
    }
}

/// The header every run echoes: what the numbers below were measured on.
fn header(w: &Workload, args: &Args) -> String {
    let llc = host::llc_bytes().map_or("unknown".to_string(), |b| format!("{} MiB", b >> 20));
    let buffers = match w.shape {
        spec::Shape::Stream { words, .. } if words == spec::WORDS_96K => format!(
            "# buffers: messages rotate through {} MiB on each side; LLC {llc}\n",
            workloads::STREAM_SET_BYTES >> 20
        ),
        _ => String::new(),
    };
    format!(
        "# pure-benchmark: workload {} | seed {} | {} s{} | trace {}\n\
         # host: nproc {} | LLC {llc} (sysfs, cpu0) | {}\n\
         # load: closed loop, 1 process, 2 ranks = 2 threads, cooperative progress, 0 helper threads\n\
         # link: {}\n{buffers}",
        w.name,
        args.seed,
        args.run_seconds(),
        if args.smoke { " (smoke: not comparable)" } else { "" },
        u8::from(args.trace),
        host::nproc(),
        host::rustc_version(),
        segment::link_of(w.wire),
    )
}

/// Kill the process if a run outlives any plausible duration: a hang must
/// become a failed run, not a stuck one.
fn arm_process_watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64(seconds * 4.0 + 90.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("pure-benchmark: still running after {limit:?}; giving up");
        std::process::exit(3);
    });
}

/// Run one workload in this process and print its result line.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let seconds = args.run_seconds();
    arm_process_watchdog(seconds);
    print!("{}", header(w, args));
    let (result, declared) = if args.trace {
        (
            layers::run_traced(w, args.seed, seconds, &args.out_dir),
            &PER_LAYER[..],
        )
    } else {
        (e2e::run_untraced(w, args.seed, seconds), &END_TO_END[..])
    };
    print!("{}", result.table(declared));
    println!(
        "  failed_share = {} ({} of {} ops){}",
        result.failed_share(),
        result.fails.failed,
        result.fails.attempted,
        if result.correct() {
            ""
        } else {
            "  ** outputs NOT correct **"
        }
    );
    for note in &result.fails.notes {
        println!("  note: {note}");
    }
    // The names printed must be the names declared, and every value a
    // number: anything else is a broken run, which prints no result.
    let (missing, extra) = result.name_mismatch(declared);
    let not_numbers: Vec<&str> = result
        .metrics
        .iter()
        .filter(|(_, m)| !m.value.is_finite())
        .map(|(n, _)| *n)
        .collect();
    if !missing.is_empty() || !extra.is_empty() || !not_numbers.is_empty() {
        eprintln!(
            "pure-benchmark: no result: missing {missing:?}, undeclared {extra:?}, not a number {not_numbers:?}"
        );
        return ExitCode::from(2);
    }
    println!("#iqr {}", result.iqr_line());
    println!("{}", result.json_line(declared));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pure-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    workloads::epoch();
    if args.emit_json {
        print!("{}", suite::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.list {
        print!("{}", suite::listing());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => match spec::workload(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("pure-benchmark: unknown workload {name:?}");
                ExitCode::from(2)
            }
        },
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload intra_pingpong_8B --seed 42 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("intra_pingpong_8B"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10.0), false));
        let a = args("--workload x --seed 1 --seconds 3 --trace 1").unwrap();
        assert!(a.trace);
    }

    #[test]
    fn trace_is_also_a_bare_flag_and_smoke_divides_by_fifty() {
        let a = args("--trace --smoke --seed 9").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(a.run_seconds(), f64::from(RUN_SECONDS) / 50.0);
        assert!(args("--seconds 0").is_err());
        assert!(args("--seconds 61").is_err());
        assert!(args("--bogus").is_err());
    }
}
