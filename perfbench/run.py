"""Run one benchmark workload in a fresh JVM and print its metrics.

    python3 perfbench/run.py --workload ensem-res-jd3-sf10 --seed 1 --seconds 10 --trace 0

Builds the program first when its sources changed (perfbench/build.py). The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the run's
environment (Spark master, heap, JVM and Spark versions, timed calls).
`--sf` overrides the workload's scale factor, for the smoke tests only.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "6g"
# The JVM must finish within this many seconds, build time excluded.
JVM_TIMEOUT_S = 175
# java.base packages Spark reflects into on JDK 17 (spark-submit adds the same).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sf", type=float)
    a = ap.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    state = build.STATE
    tmp = state / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [
        "java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
        # Fault the whole heap in, on huge pages, before main: page faults on
        # fresh heap regions otherwise land in the timed calls (±15% noise).
        "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={build.ROOT / 'perfbench' / 'log4j2.properties'}",
        *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS],
        "-cp", f"{classes}{os.pathsep}{jars / '*'}",
        "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--state-dir", str(state),
        "--launched-ms", str(int(time.time() * 1000)),
    ]
    if a.sf is not None:
        cmd += ["--sf", str(a.sf)]

    t0 = time.monotonic()
    # A SIGTERM to this launcher still stops and reaps the JVM (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark JVM killed after {time.monotonic() - t0:.0f} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"benchmark JVM exited with {proc.returncode}", file=sys.stderr)
        return 1

    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("benchmark JVM printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
