#!/usr/bin/env python3
"""Build the microbank benchmark and run it on one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mcf-stress --seed 1 --seconds 30 --trace 0

The arguments go to the `perfbench` binary unchanged (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR, or to
`.bench_build` in the current directory when it is unset. Build output is
sent to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for sub in ("crates", "vendor", "perfbench"):
        files += (ROOT / sub).rglob("*")
    for path in sorted(p for p in files if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".json")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    if not (ROOT / "crates" / "sim" / "Cargo.toml").is_file():
        print("run.py: the simulator sources (crates/) are not here; "
              "run this from a checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = target / "release" / "perfbench"
    rev = source_rev()
    # Pin the measured process to one CPU. On a small virtual machine the
    # CPUs differ in speed (the first also serves interrupts and other
    # processes), and a process that lands on either one makes the timings
    # bimodal. The last CPU of the allowed set is the usual quiet one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = subprocess.run([str(exe), *sys.argv[1:], "--rev", rev], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
