"""Build the benchmark: compile the program's sources and the benchmark's
own Scala sources into one class directory, with scalac from the Spark
distribution (Spark 4 ships the Scala 2.13 compiler).

    python3 perfbench/build.py        # prints the class directory

The build is skipped when the sources' hash matches the last build's.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "classes")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]


class BuildFailed(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not os.path.isdir(jars):
        raise BuildFailed("Spark jars not found: set SPARK_HOME")
    return jars


def sources():
    found = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildFailed(f"source directory missing: {os.path.relpath(d, ROOT)}")
        for dirpath, _, files in os.walk(d):
            found += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    if not found:
        raise BuildFailed("no Scala sources found")
    return sorted(found)


def build():
    """Compile if needed; return the class directory."""
    srcs = sources()
    digest = hashlib.sha256()
    for s in srcs:
        digest.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(CLASSES, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return CLASSES
    jars = os.path.join(spark_jars(), "*")
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", jars, "scala.tools.nsc.Main",
           "-nowarn", "-d", tmp, "-classpath", jars] + srcs
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildFailed("scalac failed")
    with open(os.path.join(tmp, ".stamp"), "w") as f:
        f.write(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildFailed as e:
        sys.exit(f"build failed: {e}")
