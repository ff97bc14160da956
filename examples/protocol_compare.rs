//! Compare the three DSM organizations on one application.
//!
//! ```sh
//! cargo run --release --example protocol_compare [app] [threads]
//! # e.g.
//! cargo run --release --example protocol_compare tomcat 16
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "a command-line example reads its own arguments"
)]

use pimdsm::{ArchSpec, Machine};
use pimdsm_workloads::{build, AppId, Scale, ALL_APPS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = args
        .get(1)
        .and_then(|name| {
            ALL_APPS
                .iter()
                .copied()
                .find(|a| a.name().eq_ignore_ascii_case(name))
        })
        .unwrap_or(AppId::Tomcatv);
    let threads: usize = args.get(2).and_then(|t| t.parse().ok()).unwrap_or(16);

    println!(
        "Comparing DSM organizations on {} with {} threads (75% memory pressure)\n",
        app.name(),
        threads
    );
    let mut base = None;
    for (label, spec) in [
        ("CC-NUMA", ArchSpec::Numa),
        ("flat COMA", ArchSpec::Coma),
        ("1/1 AGG", ArchSpec::Agg { n_d: threads }),
        (
            "1/4 AGG",
            ArchSpec::Agg {
                n_d: (threads / 4).max(1),
            },
        ),
    ] {
        let workload = build(app, threads, Scale::ci());
        let mut machine = Machine::build(spec, workload, 0.75);
        let r = machine.run();
        let b = *base.get_or_insert(r.total_cycles);
        println!(
            "{:<10} {:>12} cycles  ({:.2}x NUMA)  memory {:>5.1}%  2hop {:>6}  3hop {:>6}",
            label,
            r.total_cycles,
            r.total_cycles as f64 / b as f64,
            r.memory_fraction() * 100.0,
            r.proto.reads_by_level[pimdsm_proto::Level::Hop2.index()],
            r.proto.reads_by_level[pimdsm_proto::Level::Hop3.index()],
        );
    }
    println!(
        "\nThe AGG machines use a fraction of the hardware for directory duty, yet the\n\
         tagged local memories absorb the remote working set (compare the 2hop counts)."
    );
}
