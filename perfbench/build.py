"""Build file of the benchmark.

Compiles the program's sources (src/main/scala) together with the harness
(perfbench/src) using the Scala compiler that ships in the Spark
distribution's jars directory, the same Scala version the program's own
build uses. Output goes to .bench_build/perfbench at the repository root; a
digest of every source makes later runs skip the compile.

    python3 perfbench/build.py        # prints the runtime classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, else
    the one next to spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found "
                         "(set SPARK_HOME)")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError("missing source directory: "
                         + ", ".join(str(d.relative_to(ROOT)) for d in missing))
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def digest(srcs, jars: Path) -> str:
    h = hashlib.sha256()
    h.update(",".join(sorted(p.name for p in jars.glob("scala-*.jar"))).encode())
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build() -> str:
    """Compiles if any source changed; returns the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    classes = OUT / "classes"
    stamp = OUT / "stamp"
    want = digest(srcs, jars)
    if not (stamp.is_file() and stamp.read_text() == want):
        shutil.rmtree(classes, ignore_errors=True)
        classes.mkdir(parents=True)
        (OUT / "tmp").mkdir(exist_ok=True)
        cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
               f"-Djava.io.tmpdir={OUT / 'tmp'}",
               "-cp", f"{jars}/*", "scala.tools.nsc.Main",
               "-usejavacp", "-nowarn", "-d", str(classes)] + [str(p) for p in srcs]
        print(f"compiling {len(srcs)} sources", file=sys.stderr)
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BuildError("compilation failed")
        stamp.write_text(want)
    return f"{classes}{os.pathsep}{jars}/*"


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build: {e}")
