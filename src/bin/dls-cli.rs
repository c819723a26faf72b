//! `dls-cli` — command-line front end for the divisible-load scheduler.
//!
//! ```text
//! dls-cli generate  --clusters 10 --connectivity 0.4 --seed 1 > platform.json
//! dls-cli dot       --platform platform.json > platform.dot
//! dls-cli solve     --platform platform.json --heuristic lprg --objective maxmin
//! dls-cli schedule  --platform platform.json --heuristic g --denominator 1000
//! dls-cli simulate  --platform platform.json --heuristic lprg --periods 10
//! dls-cli bottleneck --platform platform.json
//! dls-cli scenario  --catalog drift --clusters 8 --policy periodic --format json
//! dls-cli scenario  --platform platform.json --trace trace.json --policy stale
//! ```
//!
//! Platforms travel as JSON (see `Platform::to_json`); `--platform -` reads
//! stdin. Payoffs default to uniform; `--payoffs 1,2,0.5` pins them,
//! `--spread 0.5 --payoff-seed 7` samples them.

use dls::core::heuristics::{Greedy, Heuristic, Lpr, Lprg, Lprr, UpperBound};
use dls::core::schedule::ScheduleBuilder;
use dls::core::{bottleneck, Objective, ProblemInstance};
use dls::platform::{to_dot, Platform, PlatformConfig, PlatformGenerator};
use dls::scenario::{
    build_catalog_entry, run_scenario, JobSpec, PolicyKind, Scenario, ScenarioConfig,
};
use dls::service::{
    install_signal_handlers, Client, Op, RespBody, Server, ServiceConfig, TenantSpec,
};
use dls::sim::{SimConfig, Simulator};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage("missing command");
    };
    let opts = parse_flags(&args[1..]);
    match command.as_str() {
        "generate" => cmd_generate(&opts),
        "dot" => cmd_dot(&opts),
        "solve" => cmd_solve(&opts),
        "schedule" => cmd_schedule(&opts),
        "simulate" => cmd_simulate(&opts),
        "scenario" => cmd_scenario(&opts),
        "bottleneck" => cmd_bottleneck(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "query" => cmd_query(&opts),
        "ctl" => cmd_ctl(&opts),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command `{other}`")),
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Flags {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .unwrap_or_else(|| usage(&format!("expected --flag, got `{}`", args[i])));
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("--{key} needs a value")));
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    out
}

fn flag<T: std::str::FromStr>(opts: &Flags, key: &str, default: T) -> T {
    match opts.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage(&format!("cannot parse --{key} {v}"))),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: dls-cli <command> [flags]\n\
         commands:\n\
         \x20 generate    --clusters N --connectivity P --seed S [--heterogeneity H]\n\
         \x20             [--local-bw G] [--backbone-bw BW] [--max-connections M] [--relays R]\n\
         \x20 dot         --platform FILE|-\n\
         \x20 solve       --platform FILE|- [--heuristic g|lpr|lprg|lprr|bound] [--objective sum|maxmin]\n\
         \x20             [--payoffs a,b,…] [--spread S --payoff-seed N]\n\
         \x20             [--threads N]   (lprr pin sweep; 0 = all cores, 1 = sequential)\n\
         \x20 schedule    (solve flags) [--denominator D]\n\
         \x20 simulate    (solve flags) [--periods P]\n\
         \x20 scenario    --catalog steady|bursty|drift|churn|flash|faulty|partition\n\
         \x20             [--clusters N] [--seed S]\n\
         \x20             | --platform FILE|- --trace FILE   (JSON scenario trace)\n\
         \x20             [--policy periodic|periodic-cold|threshold|stale] [--format json|csv|text]\n\
         \x20 bottleneck  --platform FILE|- [objective/payoff flags]\n\
         \x20 serve       [--addr HOST:PORT] [--workers N] [--checkpoint-dir DIR]\n\
         \x20             [--checkpoint-every EPOCHS]   (daemon; SIGTERM drains + exits 0)\n\
         \x20             (--workers N: N tenant shards; at most N tenant ops run at once)\n\
         \x20 submit      --addr HOST:PORT --tenant NAME [--create yes [tenant-spec flags]]\n\
         \x20             [--jobs a:o:s[:w],…|@FILE] [--advance EPOCHS] [--run yes]\n\
         \x20 query       --addr HOST:PORT --tenant NAME [--format json|text]\n\
         \x20 ctl         --addr HOST:PORT --op list|shutdown|checkpoint|advance|run\n\
         \x20             [--tenant NAME] [--epochs N]"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}

fn cmd_generate(opts: &Flags) {
    let clusters = flag(opts, "clusters", 10usize);
    if clusters == 0 {
        usage("--clusters must be at least 1");
    }
    let cfg = PlatformConfig {
        num_clusters: clusters,
        connectivity: flag(opts, "connectivity", 0.4f64),
        heterogeneity: flag(opts, "heterogeneity", 0.4f64),
        mean_local_bw: flag(opts, "local-bw", 250.0f64),
        mean_backbone_bw: flag(opts, "backbone-bw", 50.0f64),
        mean_max_connections: flag(opts, "max-connections", 30.0f64),
        speed: flag(opts, "speed", 100.0f64),
        relay_routers: flag(opts, "relays", 0usize),
    };
    let platform = PlatformGenerator::new(flag(opts, "seed", 42u64)).generate(&cfg);
    println!("{}", platform.to_json());
}

fn load_platform(opts: &Flags) -> Platform {
    let path = opts
        .get("platform")
        .unwrap_or_else(|| usage("--platform FILE (or -) is required"));
    let json = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| usage(&format!("cannot read stdin: {e}")));
        buf
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")))
    };
    Platform::from_json(&json).unwrap_or_else(|e| usage(&format!("invalid platform: {e}")))
}

fn build_instance(opts: &Flags) -> ProblemInstance {
    let platform = load_platform(opts);
    let objective = match opts.get("objective").map(String::as_str) {
        None | Some("maxmin") => Objective::MaxMin,
        Some("sum") => Objective::Sum,
        Some(other) => usage(&format!("unknown objective `{other}`")),
    };
    if let Some(spec) = opts.get("payoffs") {
        let payoffs: Vec<f64> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad payoff `{s}`")))
            })
            .collect();
        ProblemInstance::new(platform, payoffs, objective)
            .unwrap_or_else(|e| usage(&format!("{e}")))
    } else if opts.contains_key("spread") {
        ProblemInstance::with_spread_payoffs(
            platform,
            objective,
            flag(opts, "spread", 0.5f64),
            flag(opts, "payoff-seed", 0u64),
        )
    } else {
        ProblemInstance::uniform(platform, objective)
    }
}

fn solve(opts: &Flags, inst: &ProblemInstance) -> dls::core::Allocation {
    let name = opts.get("heuristic").map(String::as_str).unwrap_or("lprg");
    let result = match name {
        "g" | "G" => Greedy.solve(inst),
        "lpr" => Lpr.solve(inst),
        "lprg" => Lprg.solve(inst),
        "lprr" => Lprr {
            threads: flag(opts, "threads", 0usize),
            ..Lprr::new(flag(opts, "seed", 42u64))
        }
        .solve(inst),
        other => usage(&format!("unknown heuristic `{other}`")),
    };
    let alloc = result.unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1);
    });
    if let Err(v) = alloc.validate(inst) {
        eprintln!("internal error: invalid allocation: {v:?}");
        exit(1);
    }
    alloc
}

fn cmd_dot(opts: &Flags) {
    println!("{}", to_dot(&load_platform(opts)));
}

fn cmd_solve(opts: &Flags) {
    let inst = build_instance(opts);
    if opts.get("heuristic").map(String::as_str) == Some("bound") {
        let b = UpperBound.bound(&inst).unwrap_or_else(|e| {
            eprintln!("solver error: {e}");
            exit(1);
        });
        println!("LP upper bound: {b:.4}");
        return;
    }
    let alloc = solve(opts, &inst);
    println!(
        "objective ({:?}): {:.4}",
        inst.objective,
        alloc.objective_value(&inst)
    );
    println!("throughputs:");
    for (k, t) in alloc.throughputs().iter().enumerate() {
        println!("  A_{k}: {t:.4} (payoff {})", inst.payoffs[k]);
    }
    println!("total load: {:.4}", alloc.total_load());
    let transfers = alloc.beta.iter().filter(|&&b| b > 0).count();
    println!("active transfers: {transfers}");
}

fn cmd_schedule(opts: &Flags) {
    let inst = build_instance(opts);
    let alloc = solve(opts, &inst);
    let builder = ScheduleBuilder {
        denominator: flag(opts, "denominator", 1000i128),
    };
    match builder.build(&inst, &alloc) {
        Ok(s) => print!("{}", s.describe()),
        Err(e) => {
            eprintln!("schedule error: {e}");
            exit(1);
        }
    }
}

fn cmd_simulate(opts: &Flags) {
    let inst = build_instance(opts);
    let alloc = solve(opts, &inst);
    let schedule = ScheduleBuilder::default()
        .build(&inst, &alloc)
        .unwrap_or_else(|e| {
            eprintln!("schedule error: {e}");
            exit(1);
        });
    let report = Simulator::new(&inst).run(
        &schedule,
        &SimConfig {
            periods: flag(opts, "periods", 10usize),
            ..SimConfig::default()
        },
    );
    println!("{}", report.summary());
    println!("per-app predicted vs measured throughput:");
    for (k, (p, m)) in report.predicted.iter().zip(&report.measured).enumerate() {
        println!("  A_{k}: {p:.3} vs {m:.3}");
    }
    println!("local-link utilisation:");
    for (k, u) in report.local_link_utilization.iter().enumerate() {
        println!("  C{k}: {:.1}%", 100.0 * u);
    }
}

fn cmd_scenario(opts: &Flags) {
    // Either a named catalog entry (platform generated internally) or an
    // explicit platform + JSON trace file.
    let (inst, scenario) = if let Some(entry) = opts.get("catalog") {
        let clusters = flag(opts, "clusters", 8usize);
        let seed = flag(opts, "seed", 42u64);
        build_catalog_entry(entry, clusters, seed)
            .unwrap_or_else(|| usage(&format!("unknown catalog entry `{entry}`")))
    } else {
        let inst = build_instance(opts);
        let path = opts
            .get("trace")
            .unwrap_or_else(|| usage("scenario needs --catalog NAME or --trace FILE"));
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
        let scenario = Scenario::from_json(&json, &inst.platform)
            .unwrap_or_else(|e| usage(&format!("invalid trace: {e}")));
        (inst, scenario)
    };

    let policy_name = opts.get("policy").map(String::as_str).unwrap_or("periodic");
    let kind = PolicyKind::parse(policy_name)
        .unwrap_or_else(|| usage(&format!("unknown policy `{policy_name}`")));
    let mut policy = kind.build(&inst).unwrap_or_else(|e| {
        eprintln!("policy setup error: {e}");
        exit(1);
    });
    let report = run_scenario(
        &inst,
        &scenario,
        policy.as_mut(),
        &ScenarioConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("scenario error: {e}");
        exit(1);
    });

    match opts.get("format").map(String::as_str).unwrap_or("text") {
        "json" => println!("{}", report.to_json()),
        "csv" => print!("{}", report.per_job_csv()),
        "text" => {
            println!("{}", report.summary());
            println!(
                "response times: mean {:.3}, max {:.3} over {} completed jobs",
                report.mean_response, report.max_response, report.completed_jobs
            );
        }
        other => usage(&format!("unknown format `{other}`")),
    }
}

fn cmd_bottleneck(opts: &Flags) {
    let inst = build_instance(opts);
    let report = bottleneck::analyze(&inst).unwrap_or_else(|e| {
        eprintln!("solver error: {e}");
        exit(1);
    });
    println!("LP objective: {:.4}", report.objective);
    let ranked = report.ranked();
    if ranked.is_empty() {
        println!("no binding resources (the platform is over-provisioned)");
        return;
    }
    println!("shadow prices (objective gain per unit of capacity):");
    for (what, price) in ranked {
        println!("  {price:>8.4}  {what}");
    }
}

/// `serve`: run the multi-tenant scheduler daemon until SIGTERM/SIGINT
/// (or a client `Shutdown` op) drains it. Prints the bound address on
/// the first stdout line so scripted callers can use `--addr ...:0`.
fn cmd_serve(opts: &Flags) {
    let cfg = ServiceConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".into()),
        workers: flag(opts, "workers", 4usize),
        checkpoint_dir: opts.get("checkpoint-dir").map(std::path::PathBuf::from),
        checkpoint_every: flag(opts, "checkpoint-every", 0usize),
    };
    let server = Server::bind(cfg).unwrap_or_else(|e| {
        eprintln!("dls-service: cannot bind: {e}");
        exit(1);
    });
    install_signal_handlers();
    let addr = server.local_addr().expect("bound listener has an address");
    println!(
        "dls-service listening on {addr} ({} tenants restored)",
        server.restored_tenants()
    );
    std::io::stdout().flush().ok();
    if let Err(e) = server.run() {
        eprintln!("dls-service: {e}");
        exit(1);
    }
}

fn connect(opts: &Flags) -> Client {
    let addr = opts
        .get("addr")
        .unwrap_or_else(|| usage("--addr HOST:PORT is required"));
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1);
    })
}

fn required_tenant(opts: &Flags) -> String {
    opts.get("tenant")
        .cloned()
        .unwrap_or_else(|| usage("--tenant NAME is required"))
}

/// Jobs come inline (`arrival:origin:size[:weight]` comma-separated) or
/// from a JSON file holding an array of job specs (`@jobs.json`, `@-`
/// for stdin).
fn parse_jobs(spec: &str) -> Vec<JobSpec> {
    if let Some(path) = spec.strip_prefix('@') {
        let json = if path == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| usage(&format!("cannot read stdin: {e}")));
            buf
        } else {
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")))
        };
        return dls::serde_json::from_str(&json)
            .unwrap_or_else(|e| usage(&format!("invalid jobs file: {e}")));
    }
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            let parts: Vec<&str> = item.split(':').collect();
            if !(3..=4).contains(&parts.len()) {
                usage(&format!("job `{item}` wants arrival:origin:size[:weight]"));
            }
            let num = |i: usize| -> f64 {
                parts[i].parse().unwrap_or_else(|_| {
                    usage(&format!("bad number `{}` in job `{item}`", parts[i]))
                })
            };
            JobSpec {
                arrival: num(0),
                origin: parts[1]
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad origin in job `{item}`"))),
                size: num(2),
                weight: if parts.len() == 4 { num(3) } else { 1.0 },
            }
        })
        .collect()
}

fn ctl_ok(client: &mut Client, op: Op) -> RespBody {
    client.expect_ok(op).unwrap_or_else(|e| {
        eprintln!("daemon error: {e}");
        exit(1);
    })
}

fn print_body(body: &RespBody) {
    match body {
        RespBody::Created { tenant } => println!("created {tenant}"),
        RespBody::Accepted { tenant, admitted } => println!("admitted {admitted} into {tenant}"),
        RespBody::Advanced {
            tenant,
            epoch,
            done,
        } => println!("{tenant} at epoch {epoch} (done: {done})"),
        RespBody::Checkpointed { tenant, path } => println!("checkpointed {tenant} to {path}"),
        RespBody::Subscribed { tenant } => println!("subscribed to {tenant}"),
        RespBody::Tenants { tenants } => {
            for t in tenants {
                println!("{t}");
            }
        }
        RespBody::Hello { protocol } => println!("protocol {protocol}"),
        RespBody::ShuttingDown => println!("daemon shutting down"),
        RespBody::Report { report, .. } => println!("{}", report.summary()),
    }
}

/// `submit`: optionally create the tenant, then admit jobs and/or step
/// its session.
fn cmd_submit(opts: &Flags) {
    let tenant = required_tenant(opts);
    let mut client = connect(opts);
    if opts.get("create").map(String::as_str) == Some("yes") {
        let spec = TenantSpec {
            clusters: flag(opts, "clusters", 5usize),
            seed: flag(opts, "seed", 42u64),
            policy: opts
                .get("policy")
                .cloned()
                .unwrap_or_else(|| "periodic-cold".into()),
            period: flag(opts, "period", 10.0f64),
            engine: opts
                .get("engine")
                .cloned()
                .unwrap_or_else(|| "incremental".into()),
            record_events: opts.get("record-events").map(String::as_str) == Some("yes"),
        };
        let body = ctl_ok(
            &mut client,
            Op::CreateTenant {
                tenant: tenant.clone(),
                spec,
            },
        );
        print_body(&body);
    }
    if let Some(jobs_spec) = opts.get("jobs") {
        let jobs = parse_jobs(jobs_spec);
        let body = ctl_ok(
            &mut client,
            Op::Submit {
                tenant: tenant.clone(),
                jobs,
            },
        );
        print_body(&body);
    }
    if let Some(epochs) = opts.get("advance") {
        let epochs: usize = epochs
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad --advance {epochs}")));
        let body = ctl_ok(
            &mut client,
            Op::Advance {
                tenant: tenant.clone(),
                epochs,
            },
        );
        print_body(&body);
    }
    if opts.get("run").map(String::as_str) == Some("yes") {
        let body = ctl_ok(&mut client, Op::Run { tenant });
        print_body(&body);
    }
}

/// `query`: fetch a tenant's current report.
fn cmd_query(opts: &Flags) {
    let tenant = required_tenant(opts);
    let mut client = connect(opts);
    let body = ctl_ok(&mut client, Op::Query { tenant });
    let RespBody::Report { report, .. } = body else {
        eprintln!("daemon sent an unexpected body");
        exit(1);
    };
    match opts.get("format").map(String::as_str).unwrap_or("text") {
        "json" => println!("{}", report.to_json()),
        "text" => println!("{}", report.summary()),
        other => usage(&format!("unknown format `{other}`")),
    }
}

/// `ctl`: daemon-wide and tenant-maintenance operations.
fn cmd_ctl(opts: &Flags) {
    let mut client = connect(opts);
    let op = opts
        .get("op")
        .unwrap_or_else(|| usage("--op list|shutdown|checkpoint|advance|run is required"));
    let body = match op.as_str() {
        "list" => ctl_ok(&mut client, Op::ListTenants),
        "shutdown" => ctl_ok(&mut client, Op::Shutdown),
        "checkpoint" => {
            let tenant = required_tenant(opts);
            ctl_ok(&mut client, Op::Checkpoint { tenant })
        }
        "advance" => {
            let tenant = required_tenant(opts);
            let epochs = flag(opts, "epochs", 1usize);
            ctl_ok(&mut client, Op::Advance { tenant, epochs })
        }
        "run" => {
            let tenant = required_tenant(opts);
            ctl_ok(&mut client, Op::Run { tenant })
        }
        other => usage(&format!("unknown ctl op `{other}`")),
    };
    print_body(&body);
}
