#!/usr/bin/env python3
"""Data-plane step benchmark.

Usage (from the repository root):
    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (the repository's src/main/scala compiled together with
stepbench/src/main/scala by stepbench/build.sbt) when its sources changed,
then runs one workload in a fresh JVM. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (the span log goes to stepbench/out/).
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "stepbench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "stepbench-sources.sha256")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every file the build reads, so a changed source forces a rebuild."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, subdirs, names in os.walk(r):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Runs cmd, killing it (and waiting for it) if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def build(stamp):
    """Compiles with sbt when sources changed; returns the runtime classpath."""
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH_FILE) as fh:
                    return fh.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    code, out = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("build failed")
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out[-4000:])
        fail("build printed no classpath")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(lines[-1].strip())
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC)}; "
             "run from a checkout of the repository")
    stamp = source_stamp()
    classpath = build(stamp)
    tmp = os.path.join(HERE, ".work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # A fixed, pre-touched heap on huge pages and few JVM helper threads keep
    # run-to-run step times steady on a shared machine.
    cmd = ([java, "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
            "-XX:ParallelGCThreads=2", "-XX:ConcGCThreads=1", "-XX:CICompilerCount=2",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS]
           + ["-cp", classpath, "stepbench.StepBench",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", a.trace, "--bench-dir", HERE,
              # Cached inputs are keyed on the sources that generated them.
              "--inputs-key", stamp[:16]])
    # Spark's scratch space stays inside the checkout, whatever the environment says.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(HERE, ".work", "spark-local"))
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    sys.stdout.write(out)
    if code != 0:
        fail(f"benchmark JVM exited with code {code}")
    last = out.rstrip().splitlines()[-1] if out.strip() else ""
    if not last.startswith("{"):
        fail("benchmark printed no result")


if __name__ == "__main__":
    main()
