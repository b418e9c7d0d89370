#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the zombie library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot_kmeans --seed 42 \
        --seconds 25 --trace 0

Builds the library and the `perfbench` binary from source (Release, under
.bench_build/), generates the workload's corpus and its extra set-up corpora
from --seed into a fresh work directory, runs the workload in its own
process and removes the work directory. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer split of a traced run.
See perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("oneshot_kmeans", "session_e8", "stream_store")
DEFAULT_SEED = 42  # the seed perfbench/reference.txt was recorded at
BUILD_TIMEOUT_S = 650
RUN_TIMEOUT_S = 170
# Set-up time depends on the corpus, so set-up is also timed on this many
# extra corpora, generated from seeds derived from --seed.
EXTRA_SETUP_CORPORA = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures and builds the binary; serialized by a lock file."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j3", "--target", "perfbench"],
        ]
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no zombie sources under %s/src; run from a full checkout" % root)
    bench_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(bench_root, "perfbench"))

    work = os.path.join(bench_root, "work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        corpus = os.path.join(work, "corpus.zmbc")
        corpora = {corpus: args.seed}
        for i in range(1, EXTRA_SETUP_CORPORA + 1):
            path = os.path.join(work, "setup-%d.zmbc" % i)
            corpora[path] = (args.seed + 1) * 1000 + i
        for path, seed in corpora.items():
            gen = subprocess.run([binary, "generate", "--seed=%d" % seed,
                                  "--out=" + path],
                                 stdout=sys.stderr, timeout=RUN_TIMEOUT_S,
                                 check=False)
            if gen.returncode != 0:
                fail("corpus generation failed")
        cmd = [binary, "run", "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--corpus=" + corpus,
               "--setup-corpora=" + ",".join(list(corpora)[1:]),
               "--workdir=" + work]
        if args.seed == DEFAULT_SEED:
            cmd.append("--reference=" + os.path.join(root, "perfbench",
                                                     "reference.txt"))
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
        return run.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
