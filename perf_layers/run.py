#!/usr/bin/env python3
"""Builds and runs the layered benchmark from the root of a checkout.

    python3 perf_layers/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perf_layers/run.py --selftest

The first form builds `pacman-cli` (the repository workspace) and the
benchmark crate in release mode, offline, into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload; the benchmark's last
stdout line is its JSON result. `--selftest` runs the benchmark's unit
tests, then every workload briefly, traced and untraced, on a held-out
seed, and fails unless every check passes. Build output goes to stderr.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oracle_campaign", "service_mix", "service_durable"]
HELD_OUT_SEED = "4242"


def cargo(*args):
    """Runs cargo with stdout sent to stderr; exits on failure."""
    r = subprocess.run(["cargo", *args], cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perf_layers: cargo {' '.join(args)} failed ({r.returncode})")


def build(target):
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        sys.exit("perf_layers: no repository workspace next to the benchmark")
    cargo("build", "--release", "--offline", "-q", "-p", "pacman-cli")
    cargo("build", "--release", "--offline", "-q",
          "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    return os.path.join(release, "perf_layers"), os.path.join(release, "pacman-cli")


def selftest(bench, cli):
    cargo("test", "--release", "--offline", "-q",
          "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [bench, "--workload", workload, "--seed", HELD_OUT_SEED,
                 "--seconds", "10", "--trace", trace, "--cli", cli],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            ok = bool(result) and result["correct"] and result["failed"] == 0
            print(f"selftest {workload} trace={trace}: {'ok' if ok else 'FAILED'}",
                  file=sys.stderr)
            if not ok:
                sys.exit(f"perf_layers: selftest failed on {workload} trace={trace}")


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.environ["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    bench, cli = build(target)
    if sys.argv[1:] == ["--selftest"]:
        selftest(bench, cli)
        return
    os.chdir(ROOT)
    os.execv(bench, [bench, *sys.argv[1:], "--cli", cli])


if __name__ == "__main__":
    main()
