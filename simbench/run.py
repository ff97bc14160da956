#!/usr/bin/env python3
"""Build and run the pimdsm simulator benchmark.

Usage, from the root of the repository:

    python3 simbench/run.py --workload svc-serve --seed 1 --seconds 30 --trace 0

Builds the benchmark package next to this file and runs it, pinned to
one vCPU. The build goes through a workspace laid out under the target
directory, in which the package's sources and the repository's crates
appear by relative path, so that the binaries are the same in every
checkout (see `workspace()`). The plain binary measures the end-to-end
metrics. With `--trace 1` a traced binary (feature `traced`: counting
allocator, timed `next_op`) is built too and run with the same
arguments; it measures the per-layer metrics, and the difference of the
two runs' `wall_s` is reported as the tracing overhead. Either binary
starts the reference kernel (`pimdsm-simbench-ref`) as a process of its
own; a run that overstays its time is killed with it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Build output and
diagnostics go to standard error. Exits non-zero without a result line if
the build or a run fails.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "pimdsm-simbench"
# A run measures `--seconds` of host time and verifies outside it; this
# caps the runs of one call (builds excluded).
RUNS_TIMEOUT_S = 170


def workspace(target):
    """Lays out the build workspace under `target`; returns its manifest.

    Cargo hashes the absolute path of a path dependency that lies outside
    the workspace into its symbol names, and rustc writes the absolute
    source paths into panic messages, so a build of this package in place
    differs from checkout to checkout. The code layout differs with it,
    and the simulator's speed moves with the layout (see the steadiness
    record in the README). Here the package's sources and the repository's crates are
    linked into one directory, whose manifest is this package's own plus
    the root manifest's `[workspace.package]` and
    `[workspace.dependencies]` tables that the crates inherit from. Every
    path the build sees is then relative to that directory.
    """
    repo = os.path.dirname(HERE)
    ws = os.path.join(target, "simbench-ws")
    os.makedirs(ws, exist_ok=True)
    for name, dest in (("src", os.path.join(HERE, "src")), ("crates", os.path.join(repo, "crates"))):
        link = os.path.join(ws, name)
        if os.path.lexists(link):
            os.remove(link)
        os.symlink(dest, link)
    with open(os.path.join(repo, "Cargo.toml")) as f:
        tables = re.split(r"(?m)^(?=\[)", f.read())
    inherited = "".join(t for t in tables
                        if t.startswith(("[workspace.package]", "[workspace.dependencies]")))
    with open(MANIFEST) as f:
        own = f.read()
    if "[workspace]\n" not in own or not inherited:
        raise ValueError("unexpected manifest layout")
    text = own.replace('path = "../crates/', 'path = "crates/').replace(
        "[workspace]\n", "[workspace]\n\n" + inherited, 1)
    manifest = os.path.join(ws, "Cargo.toml")
    old = None
    if os.path.exists(manifest):
        with open(manifest) as f:
            old = f.read()
    # Rewriting an unchanged manifest would make cargo rebuild.
    if old != text:
        with open(manifest, "w") as f:
            f.write(text)
    return manifest


def build(manifest, target_dir, traced):
    """Builds one variant into its own target directory; returns the binary."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
           "--target-dir", target_dir]
    if traced:
        cmd += ["--features", "traced"]
    subprocess.run(cmd, stdout=sys.stderr, check=True)
    return os.path.join(target_dir, "release", BINARY)


def pin():
    """Keeps the run, and the reference kernel process it starts, on one
    vCPU, so that the kernel samples the core the simulator runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(binary, args, deadline, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    # A process group of its own, so that a timeout kills the kernel
    # process too.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["svc-serve", "report-io"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    manifest = workspace(target)
    plain = build(manifest, os.path.join(target, "simbench-plain"), traced=False)
    traced = (build(manifest, os.path.join(target, "simbench-traced"), traced=True)
              if args.trace else None)

    deadline = time.monotonic() + RUNS_TIMEOUT_S
    base = run(plain, args, deadline)
    if args.trace == 0:
        runs, metrics = [base], base["end_to_end"]
    else:
        spans_dir = os.path.join(target, "simbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
        layered = run(traced, args, deadline, ["--spans", spans])
        runs, metrics = [base, layered], dict(layered["per_layer"])
        plain_wall = base["end_to_end"]["wall_s"]["value"]
        overhead = layered["end_to_end"]["wall_s"]["value"] - plain_wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / plain_wall, "unit": "%"}

    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError, IndexError) as e:
        print(f"simbench: {e}", file=sys.stderr)
        sys.exit(1)
