#!/usr/bin/env python3
"""Build and run the ByteBrain performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the program's sources
(src/main/scala) together with the benchmark (perfbench/src) through the
stand-alone sbt build in perfbench/, offline; later runs reuse the classes
while the sources are unchanged. The benchmark itself runs in one JVM and
prints one JSON object as the last line of standard output: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
OUT = os.path.join(HERE, "out")
CLASSPATH_FILE = os.path.join(HERE, "target", "perfbench-classpath.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    """Hash of every input of the build, so edited sources force a rebuild."""
    h = hashlib.sha256()
    inputs = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in (PROGRAM_SOURCES, os.path.join(HERE, "src")):
        for d, dirs, files in os.walk(base):
            dirs.sort()
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout, or when this script is
    terminated or interrupted, kill the whole group and wait for it, so
    nothing it started outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE, text=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, out


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as f:
            saved_stamp, classpath = f.read().split("\n", 1)
        if saved_stamp == stamp:
            return classpath.strip()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true -Xmx2g").strip()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in out:
        sys.stderr.write(out)
        fail("build failed")
    classpath = lines[-1].strip()
    os.makedirs(os.path.dirname(CLASSPATH_FILE), exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(stamp + "\n" + classpath + "\n")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES, os.getcwd())}; "
             "run from a checkout of the repository")
    if shutil.which("java") is None:
        fail("java is not on PATH")

    classpath = build()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [
        "java", "-Xms2g", "-Xmx2g", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
        f"-Djava.io.tmpdir={tmp}",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={tmp}",
        f"-Dspark.sql.warehouse.dir={os.path.join(OUT, 'warehouse')}",
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
    ]
    t0 = time.time()
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(f"perfbench: {args.workload} seed {args.seed} ran {time.time() - t0:.1f} s", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
