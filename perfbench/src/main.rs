//! Command-line entry point; see the library docs for what is measured.

use std::process::ExitCode;
use supersim_perfbench::bench::{self, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("refusing to time {}: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{stem}.json")), outcome.report_json()))
        .and_then(|()| match &outcome.trace_json {
            Some(trace) => std::fs::write(args.out.join(format!("{stem}.trace.json")), trace),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    for (key, value) in &outcome.notes {
        eprintln!("{key}: {value}");
    }
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
