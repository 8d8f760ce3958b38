"""Build file of the benchmark.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) using the Scala compiler that ships
in Spark's jars directory, so no build tool or network is needed. The classes
go to .bench_build/perfbench/classes/<hash of the sources>; an unchanged tree
is not compiled again.

    python3 perfbench/build.py      # prints the class directory
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


def spark_jars() -> Path:
    """Spark's jars directory, from SPARK_HOME or the spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(os.path.realpath(shutil.which("spark-submit"))).parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not jars.is_dir():
        raise RuntimeError("Spark's jars directory not found; set SPARK_HOME")
    return jars


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise RuntimeError(f"source directory missing: {missing[0].relative_to(ROOT)}")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build() -> Path:
    """Compile if the sources changed; return the class directory."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    out = STATE / "classes" / digest.hexdigest()[:16]
    if (out / ".done").exists():
        return out
    jars = spark_jars()
    compiler = os.pathsep.join(
        str(next(jars.glob(f"{name}-2.13.*.jar")))
        for name in ("scala-compiler", "scala-library", "scala-reflect"))
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    subprocess.run(
        ["java", "-XX:-UsePerfData", "-Xss4m", "-Xmx1g", "-cp", compiler, "scala.tools.nsc.Main",
         "-classpath", str(jars / "*"), "-d", str(tmp), *map(str, files)],
        check=True, timeout=600, stdout=sys.stderr)
    (tmp / ".done").touch()
    tmp.rename(out)
    return out


if __name__ == "__main__":
    print(build())
