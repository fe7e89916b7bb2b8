"""Process spawning, the report gate and the golden digests.

Every workload runs as fresh ``python -m hierlabel.cli`` processes (or
``traced.py`` processes in the traced run) against the ``src/`` tree of the
checkout this file lives in, with BLAS/OpenMP pinned to one thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench"
GOLDEN = HERE / "golden.json"

# the manifest echoes the config (absolute paths); only its input digests
# are compared
MANIFEST = "run_manifest.json"


def child_env() -> dict:
    env = dict(os.environ)
    # the default kernel selection is what users get
    env.pop("HIERLABEL_NO_NUMBA", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


def program_present() -> bool:
    return (SRC / "hierlabel" / "cli.py").is_file()


def environment() -> dict:
    """Versions and the kernel path, read in a child with the workload env;
    results whose ``environment`` differs are not comparable.  The import
    also leaves the program's bytecode cache filled before any timing."""
    probe = ("import json, platform, numpy, scipy, hierlabel, hierlabel.cli, "
             "hierlabel._kernels as k; print(json.dumps({"
             "'python': platform.python_version(), 'numpy': numpy.__version__,"
             " 'scipy': scipy.__version__, 'using_numba': k.USING_NUMBA,"
             " 'hierlabel': hierlabel.__file__}))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    env = json.loads(out)
    where = Path(env.pop("hierlabel")).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"hierlabel imported from {where}, not {SRC}")
    env["cpu_count"] = os.cpu_count()
    env["blas_threads"] = 1
    return env


@dataclass
class Proc:
    rc: int
    rss_mb: float
    stderr: str


def spawn(argv, log: Path, deadline: float) -> Proc:
    """Run one process to completion; rusage comes from wait4.  A process
    still running at ``deadline`` (a perf_counter value) is killed.  The
    wait blocks (a timer thread does the kill), so the benchmark takes no
    CPU from the program while it runs."""
    with open(log, "wb") as err:
        p = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                             stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=err)
    # Popen.kill polls first, so a kill racing the reap below sends nothing
    killer = threading.Timer(max(0.0, deadline - time.perf_counter()), p.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    p.returncode = rc = os.waitstatus_to_exitcode(status)
    return Proc(rc, ru.ru_maxrss / 1024.0,
                log.read_text(errors="replace")[-2000:] if rc else "")


def cli_argv(cmd, config: Path, out: Path, spans: Path | None = None):
    args = [*cmd, "--config", str(config), "--out", str(out)]
    if spans is None:
        return [sys.executable, "-m", "hierlabel.cli", *args]
    return [sys.executable, str(HERE / "traced.py"), str(spans), *args]


@dataclass
class SequenceRun:
    wall_s: float
    peak_rss_mb: float
    problems: list


def run_sequence(commands, inputs: Path, out: Path, deadline: float,
                 spans_dir: Path | None = None) -> SequenceRun:
    """Run a workload's commands one after another on a fresh output dir;
    stops at the first process that fails."""
    shutil.rmtree(out, ignore_errors=True)
    procs, problems = [], []
    t0 = time.perf_counter()
    for k, cmd in enumerate(commands):
        spans = None if spans_dir is None else spans_dir / f"{k}.json"
        p = spawn(cli_argv(cmd, inputs / "config.json", out, spans),
                  out.parent / f"{out.name}.{k}.stderr", deadline)
        procs.append(p)
        if p.rc != 0:
            problems.append(f"{' '.join(cmd)} exited {p.rc}: {p.stderr}")
            break
    wall = time.perf_counter() - t0
    return SequenceRun(wall, max(p.rss_mb for p in procs), problems)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def report_digests(out: Path) -> dict:
    """Top-level reports by name; the per-method plot files folded into one
    ``plots/`` digest over their sorted (name, sha256) pairs."""
    files = {p.relative_to(out).as_posix(): sha256(p)
             for p in sorted(out.rglob("*")) if p.is_file()}
    files.pop(MANIFEST, None)
    plots = [f"{k} {v}\n" for k, v in files.items() if "/" in k]
    top = {k: v for k, v in files.items() if "/" not in k}
    top["plots/"] = hashlib.sha256("".join(plots).encode()).hexdigest()
    return top


def check_reports(out: Path, inputs: Path, expected: dict | None) -> list:
    """Problems found in ``out``: report bytes against the expected digests,
    and the manifest's input digests against the files they name."""
    if expected is None:
        return ["no expected digests for these inputs"]
    got = report_digests(out)
    problems = [f"{name}: expected {want[:12]}, got "
                f"{got.get(name, 'missing')[:12]}"
                for name, want in expected.items() if got.get(name) != want]
    problems += [f"{name}: unexpected report" for name in got
                 if name not in expected]
    try:
        manifest = json.loads((out / MANIFEST).read_text())
        recorded = {k: v["sha256"] for k, v in manifest["inputs"].items()}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return problems + [f"{MANIFEST}: unreadable ({e})"]
    cfg = json.loads((inputs / "config.json").read_text())
    names = ["matrix", "vocabulary", "hierarchy", "reference_corpus"]
    want = {k: sha256(inputs / cfg[k]) for k in names if k in cfg}
    for report in ("labels.csv", "metrics.csv"):
        if report in got:
            want[report] = got[report]
    differ = sorted(k for k in want.keys() | recorded.keys()
                    if want.get(k) != recorded.get(k))
    if differ:
        problems.append(f"{MANIFEST}: input digests differ for {differ}")
    return problems


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return {}


def expected_for(golden: dict, workload: str, seed: int) -> dict | None:
    return golden.get(workload, {}).get(str(workloads.variant(workload, seed)))


def write_golden(log=print) -> None:
    """Record the report digests of every input variant.  ``wide-staged``
    is also run through ``all``; its reports must match the staged ones."""
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        golden[name] = {}
        for v in range(wl.variants):
            inputs = WORK / "golden" / name
            shutil.rmtree(inputs, ignore_errors=True)
            wl.generate(inputs, v)
            paths = [wl.commands]
            if len(wl.commands) > 1:
                paths.append([["all"]])
            digests = []
            for k, commands in enumerate(paths):
                out = inputs / f"out{k}"
                run = run_sequence(commands, inputs, out,
                                   time.perf_counter() + 600)
                if run.problems:
                    raise RuntimeError(f"{name} variant {v}: {run.problems}")
                digests.append(report_digests(out))
                log(f"{name} variant {v} path {k}: {run.wall_s:.1f}s")
            if any(d != digests[0] for d in digests):
                raise RuntimeError(f"{name} variant {v}: staged and all "
                                   f"reports differ")
            golden[name][str(v)] = digests[0]
            shutil.rmtree(inputs, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
