"""GIANT benchmark entry point.

    python3 perfbench/run.py --workload reproduce|refresh|tag --seed N \
        --seconds S --trace 0|1

Builds the program and the benchmark from source if needed (see build.py),
then runs one workload in one JVM (Spark local mode) and relays its report.
The last stdout line is the JSON result; without a valid result the exit
code is non-zero.

    python3 perfbench/run.py --workload W --seed N --record

runs set-up and one op, and stores the op's outputs as the reference for
(W, N) in perfbench/reference.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

JVM_TIMEOUT_S = 170
JAVA_OPTS = [
    "-Xmx3g", "-Xss8m", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()

    try:
        classes = build.build()
        jars = os.path.join(build.spark_jars(), "*")
    except build.BuildFailed as e:
        sys.exit(f"build failed: {e}")

    out = os.path.join(build.BUILD, "out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JAVA_OPTS +
           [f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
            "-cp", classes + os.pathsep + jars, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", out,
            "--reference", os.path.join(build.HERE, "reference.json")] +
           (["--record"] if a.record else []))
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1")
    env.pop("SPARK_LOCAL_DIRS", None)  # would override spark.local.dir inside the checkout
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"benchmark JVM timed out after {JVM_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise

    lines = stdout.rstrip("\n").split("\n")
    if a.record:
        sys.stdout.write(stdout)
        sys.exit(proc.returncode)
    try:
        result = json.loads(lines[-1])
        ok = proc.returncode == 0 and set(result) == RESULT_KEYS
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(stdout)
        sys.exit(f"benchmark JVM failed (exit code {proc.returncode}) without a result")
    print("\n".join(lines[:-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
