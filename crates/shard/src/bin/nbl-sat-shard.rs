//! `nbl-sat-shard` — cube-and-conquer a DIMACS `.cnf` file across a fleet of
//! `nbl-satd` servers.
//!
//! ```text
//! nbl-sat-shard --shard HOST:PORT [--shard HOST:PORT ...]
//!               [--backend NAME] [--seed N] [--cubes N] [--max-depth N]
//!               [--wall-ms N] [--solve-timeout-ms N] [--steal-after-ms N]
//!               [--no-local-fallback] FILE.cnf
//! ```
//!
//! Splits the instance into a covering, pairwise-contradictory cube set,
//! farms the cube-restricted residuals to the shards, cancels the fleet on
//! the first verified model and claims UNSAT only when every cube is
//! refuted. Prints conventional DIMACS solver output (`c`/`s`/`v` lines) and
//! exits with the SAT-competition code: 10 SATISFIABLE, 20 UNSATISFIABLE,
//! 0 UNKNOWN. With no `--shard` at all the instance is solved locally.

use nbl_sat_core::SolveVerdict;
use nbl_shard::{ShardConfig, ShardCoordinator};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: nbl-sat-shard --shard HOST:PORT [--shard HOST:PORT ...] [--backend NAME] \
         [--seed N] [--cubes N] [--max-depth N] [--wall-ms N] [--solve-timeout-ms N] \
         [--steal-after-ms N] [--no-local-fallback] FILE.cnf"
    );
    std::process::exit(2);
}

fn parse_u64_arg(value: Option<String>) -> u64 {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => usage(),
    }
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut shards: Vec<String> = Vec::new();
    let mut config = ShardConfig::default();
    let mut file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shard" => match args.next() {
                Some(value) => shards.push(value),
                None => usage(),
            },
            "--backend" => match args.next() {
                Some(value) => config.backend = value,
                None => usage(),
            },
            "--seed" => config.seed = parse_u64_arg(args.next()),
            "--cubes" => config.target_cubes = Some(parse_u64_arg(args.next()) as usize),
            "--max-depth" => config.max_depth = parse_u64_arg(args.next()) as usize,
            "--wall-ms" => config.cube_wall_ms = Some(parse_u64_arg(args.next())),
            "--solve-timeout-ms" => {
                config.solve_timeout = Some(Duration::from_millis(parse_u64_arg(args.next())));
            }
            "--steal-after-ms" => {
                config.steal_after = Duration::from_millis(parse_u64_arg(args.next()));
            }
            "--no-local-fallback" => config.local_fallback = false,
            "--help" | "-h" => usage(),
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg),
            _ => usage(),
        }
    }
    let path = match file {
        Some(path) => path,
        None => usage(),
    };
    let dimacs = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("nbl-sat-shard: cannot read {path}: {e}");
            return 1;
        }
    };
    let formula = match cnf::dimacs::parse_str(&dimacs) {
        Ok(formula) => formula,
        Err(e) => {
            eprintln!("nbl-sat-shard: cannot parse {path}: {e}");
            return 1;
        }
    };

    let backend = config.backend.clone();
    let coordinator = match ShardCoordinator::connect(&shards, config) {
        Ok(coordinator) => coordinator,
        Err(e) => {
            eprintln!("nbl-sat-shard: {e}");
            return 1;
        }
    };
    println!(
        "c sharding {path} over {} server(s) with backend {backend}",
        coordinator.num_shards()
    );
    for addr in coordinator.shard_addrs() {
        println!("c shard {addr}");
    }

    let outcome = coordinator.solve(&formula);
    println!("c fleet: {}", outcome.fleet);
    println!("c stats: {}", outcome.stats);
    match outcome.verdict {
        SolveVerdict::Satisfiable => println!("s SATISFIABLE"),
        SolveVerdict::Unsatisfiable => println!("s UNSATISFIABLE"),
        SolveVerdict::Unknown(cause) => {
            println!("c verdict cause: {cause:?}");
            println!("s UNKNOWN");
        }
    }
    if let Some(model) = &outcome.model {
        print!("v");
        for (var, value) in model.iter().take(formula.num_vars()) {
            let lit = var.index() as i64 + 1;
            print!(" {}", if value { lit } else { -lit });
        }
        println!(" 0");
    }
    outcome.exit_code()
}
