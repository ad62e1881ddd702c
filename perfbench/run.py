#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cwsc_lattice --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `perfbench` binary and the
`scwsc_serve` server in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs one workload. Run records, spans and server
logs go to `.bench_out/`. The last line of standard output is the JSON
result; build output goes to standard error. Exits non-zero, without a
result, when the build fails or the run cannot be set up, and non-zero,
with a result, when an answer fails its check.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
HASHED = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]


def source_revision():
    """The git commit, or a digest of the sources outside git."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in HASHED:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target",) and not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
            "-p", "perfbench", "-p", "scwsc-serve", "--bins",
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    command = [
        binary,
        *sys.argv[1:],
        "--serve-bin", os.path.join(target, "release", "scwsc_serve"),
        "--out", os.path.join(ROOT, ".bench_out"),
        "--rustc", rustc_version(),
        "--source", source_revision(),
    ]
    # Its own process group, so a timeout can stop the servers it spawned.
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
