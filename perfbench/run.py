#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload xmark-scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/main.exe with dune from the checkout's sources, runs it,
and passes its output through; the last line is the JSON result. Exits
non-zero, without a result, when the checkout lacks the program's sources,
when the calibration kernel could reach code under lib/, or when the build
or the run fails.
"""

import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def strip_comments_and_strings(src):
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif depth:
            i += 1
        elif src[i] == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


def check_kernel_independence():
    """The calibration kernel must not call any code under lib/: neither
    its library stanza nor its source may name a library or module there."""
    lib = os.path.join(ROOT, "lib")
    names = set()
    for d in sorted(os.listdir(lib)):
        path = os.path.join(lib, d)
        if not os.path.isdir(path):
            continue
        for f in os.listdir(path):
            if f.endswith(".ml"):
                names.add(f[:-3].capitalize())
            if f == "dune":
                with open(os.path.join(path, f)) as fh:
                    for m in re.finditer(r"\(name\s+([A-Za-z0-9_]+)\)", fh.read()):
                        names.add(m.group(1))
    libraries = {n.lower() for n in names}
    with open(os.path.join(HERE, "calib", "dune")) as fh:
        stanza = re.sub(r";[^\n]*", "", fh.read())
    for m in re.finditer(r"\(libraries([^)]*)\)", stanza):
        for dep in m.group(1).split():
            if dep.split(".")[0].lower() in libraries:
                fail("calibration kernel depends on lib/ library " + dep)
    with open(os.path.join(HERE, "calib", "calib.ml")) as fh:
        src = strip_comments_and_strings(fh.read())
    for m in re.finditer(r"\b([A-Z][A-Za-z0-9_']*)\s*\.", src):
        if m.group(1) in names or m.group(1).lower() in libraries:
            fail("calibration kernel refers to lib/ module " + m.group(1))


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return [os.path.join(prefix, "bin", "dune")]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found")


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a checkout of the program: %s is missing" % needed)
    check_kernel_independence()
    build = subprocess.run(
        dune_command() + ["build", "--root", ROOT, "perfbench/main.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        universal_newlines=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed", 1)
    try:
        proc = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
