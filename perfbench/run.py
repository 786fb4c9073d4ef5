"""diarkit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload stub-score --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 55

Run it from the root of a checkout: the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones from a
traced run. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the run then uses one of the
# machine's cores, with no BLAS pool competing with the interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_BATCHES = 5  # before the first pass; one more comes before each later pass
SETUP_MIN_S = 0.2  # time cheap set-ups in batches at least this long
MIN_PASSES = 3
MAX_MEASURE_S = 120.0  # a run must end within 180 s

# Names, units and directions of the metrics live in BENCHMARK.json; the
# end-to-end metrics there are all lower-is-better.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed beside the end-to-end metrics but not bounded. The last two can
# read exactly 0, which a bound relative to the parent's median cannot judge;
# rtf_max rests on one operation and spread wider than any allowed bound.
UNBOUNDED = {"rtf_max": "s/s", "speaker_count_err": "count", "failed_frac": "ratio"}

# Per-layer `.s` metrics are self time in seconds per pass over the
# workload's inputs, except the inclusive spans here.
INCLUSIVE = {
    "pipeline.process_recording.s": "pipeline.process_recording",
    "clustering.spectral_cluster.s": "clustering.spectral_cluster",
}
# Self times that carry another name than their span's.
RENAMED_SELF = {
    "pipeline.other.s": "pipeline.process_recording",
    "clustering.eigensolve.s": "clustering.spectral_cluster",
}


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_library(numpy),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_library(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


# ---------------------------------------------------------------------------
# measuring


class Run:
    """Op timings, failures and the per-pass walls of one benchmark run."""

    def __init__(self, wl, state, tracer=None):
        self.wl = wl
        self.state = state
        self.ops = wl.ops()
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[tuple[int, str], str] = {}
        self.times: dict[str, list[float]] = defaultdict(list)
        self.walls = {"plain": [], "traced": [], "alloc": []}  # kind -> pass walls
        self.passes = 0

    def one_pass(self, kind: str = "plain") -> None:
        """Run every operation once. Only "plain" passes, with no wrappers
        installed, time the operations."""
        clock = time.perf_counter
        wall = 0.0
        for op in self.ops:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.rec = op.id
            t0 = clock()
            try:
                output = self.wl.run(self.state, op)
            except Exception as exc:  # one failed operation must not end the run
                wall += clock() - t0
                self.failures[(self.passes, op.id)] = f"{type(exc).__name__}: {exc}"
                continue
            elapsed = clock() - t0
            wall += elapsed
            if kind == "plain":
                self.times[op.id].append(elapsed)
            try:
                self.wl.check(op, output)
            except Exception as exc:  # a failed check counts the operation failed
                self.failures[(self.passes, op.id)] = f"{type(exc).__name__}: {exc}"
        self.walls[kind].append(wall)
        self.passes += 1

    def keep_going(self, started: float, seconds: float) -> bool:
        elapsed = time.perf_counter() - started
        last = max(w for walls in self.walls.values() for w in walls)
        if elapsed + last > MAX_MEASURE_S:
            return False
        return self.passes < MIN_PASSES or elapsed + last <= seconds

    def final_checks(self) -> None:
        for key, problem in self.wl.final_checks(self.state):
            for p in range(self.passes):
                for op in self.ops:
                    if op.item.get("id") == key:
                        self.failures.setdefault((p, op.id), problem)

    def result(self, metrics: dict, extra_ok: bool = True) -> dict:
        for (p, op_id), why in sorted(self.failures.items()):
            print(f"failed: pass {p} {op_id}: {why}", file=sys.stderr)
        return {
            "correct": extra_ok and not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def setup_batch(wl):
    """Seconds per set-up over a batch of at least SETUP_MIN_S, and the
    state the last set-up built. The caller holds no state while it runs,
    so one set of components is alive at a time, as in a real run."""
    clock = time.perf_counter
    n, busy, state = 0, 0.0, None
    while busy < SETUP_MIN_S:
        state = None  # free the previous set untimed
        t0 = clock()
        state = wl.setup()
        busy += clock() - t0
        n += 1
    return busy / n, state


def rtf(op_seconds: dict, audio: dict) -> float:
    if not op_seconds:
        return float("nan")
    return sum(op_seconds.values()) / sum(audio[k] for k in op_seconds)


def end_to_end(wl, seconds: float) -> tuple[dict, dict]:
    # Other tenants of a shared machine only ever add time, in phases that
    # last from seconds to minutes. Each operation therefore takes its
    # least-disturbed pass, which kept `rtf` steadier than the median pass
    # while the machine slowed. Set-up takes the median batch; the batches
    # are spread over the run as the passes are.
    setup, state = [], None
    for _ in range(SETUP_BATCHES):
        state = None
        seconds_per, state = setup_batch(wl)
        setup.append(seconds_per)
    run = Run(wl, state)
    del state
    started = time.perf_counter()
    run.one_pass()
    while run.keep_going(started, seconds):
        run.state = None
        seconds_per, run.state = setup_batch(wl)
        setup.append(seconds_per)
        run.one_pass()
    run.final_checks()
    per_op = {op.id: min(run.times[op.id]) for op in run.ops if run.times[op.id]}
    medians = {op.id: median(run.times[op.id]) for op in run.ops if run.times[op.id]}
    audio = {op.id: op.audio_s for op in run.ops}
    quality = wl.quality()
    values = {
        "setup_s": median(setup),
        "rtf": rtf(per_op, audio),
        "der": quality["der"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    unbounded = {
        "rtf_max": max((t / audio[k] for k, t in per_op.items()), default=float("nan")),
        "speaker_count_err": quality["speaker_count_err"],
        "failed_frac": len(run.failures) / run.attempted,
    }
    summary = dict(
        metrics,
        **{k: {"value": v, "unit": UNBOUNDED[k]} for k, v in unbounded.items()},
        rtf_median={"value": rtf(medians, audio), "unit": "s/s"},
        passes={"value": run.passes, "unit": "count"},
    )
    return run.result(metrics), summary


def layer_metrics(spans, counts_by_rec, setup_spans) -> dict:
    """Per-layer figures of one traced pass, or of any part of it whose
    spans are indexed among themselves."""
    from tracing import layer_totals

    seconds, counts = layer_totals(spans)
    for (_, name), n in counts_by_rec.items():
        counts[name + ".calls"] += n
    inclusive = defaultdict(float)
    for s in spans:
        inclusive[s.name] += s.duration
    setup_seconds, _ = layer_totals(setup_spans)
    out = {}
    for name in PER_LAYER:
        if name in INCLUSIVE:
            out[name] = inclusive[INCLUSIVE[name]]
        elif name in RENAMED_SELF:
            out[name] = seconds[RENAMED_SELF[name]]
        elif name == "nn.conv2d.gflop_per_s":
            busy = seconds["nn.conv2d"]
            out[name] = counts["nn.conv2d.gflop"] / busy if busy > 0 else 0.0
        elif name == "tsvad.rounds":
            out[name] = counts["tsvad.run_rounds.rounds"]
        elif name == "weights.load_weights.s":
            out[name] = setup_seconds["weights.load_weights"]
        elif name in ("trace.overhead", "metrics.compute_der.alloc_mb"):
            continue  # whole-run figures, filled in by `traced`
        elif name.endswith(".s"):
            out[name] = seconds[name[:-2]]
        else:
            out[name] = counts[name]
    return out


def unpublished_time(spans, tol: float = 1e-9) -> list[str]:
    """Recordings whose published self-time metrics do not add up to their
    `pipeline.process_recording` span. A span whose time no metric
    publishes makes the sum fall short."""
    from tracing import subtrees

    self_metrics = [n for n in PER_LAYER if n.endswith(".s") and n not in INCLUSIVE]
    problems = []
    for sub in subtrees(spans):
        if sub[0].name != "pipeline.process_recording":
            continue
        figures = layer_metrics(sub, {}, [])
        total = sum(figures[n] for n in self_metrics)
        root = figures["pipeline.process_recording.s"]
        if abs(total - root) > tol * max(1.0, root):
            problems.append(f"{sub[0].rec}: published self times sum to {total}, "
                            f"process_recording took {root}")
    return problems


def traced(wl, seconds: float, spans_path: Path, env: dict) -> dict:
    """Per-layer metrics from traced passes, between untraced passes whose
    RTTMs the traced ones must match byte for byte."""
    from tracing import Tracer, nesting_problems, span_records
    from workloads import ALLOC_LAYERS, EMBED_SPAN, LAYERS

    tracer = Tracer()
    tracer.install(LAYERS)
    tracer.rec = "setup"
    try:
        state = wl.setup()
    finally:
        tracer.restore()
    setup_spans, _ = tracer.take()

    run = Run(wl, state, tracer)
    per_pass, archive, problems = [], [], []
    started = time.perf_counter()
    run.one_pass()  # the reference outputs every later pass is checked against
    alloc_mb = 0.0
    if wl.alloc_pass:
        # tracemalloc hooks every allocation and slows the call severalfold,
        # so peak allocation has a pass of its own and no traced time.
        tracer.install(ALLOC_LAYERS)
        try:
            run.one_pass("alloc")
        finally:
            tracer.restore()
        spans, _ = tracer.take()
        alloc_mb = max((s.counts.get("alloc_mb", 0.0) for s in spans), default=0.0)
        archive.append(("alloc", spans))
    while True:
        tracer.install(LAYERS)
        for comp in wl.components(state):
            tracer.wrap(comp, "embedder", EMBED_SPAN)
        try:
            run.one_pass("traced")
        finally:
            tracer.restore()
        spans, counts = tracer.take()
        problems += nesting_problems(spans) + unpublished_time(spans)
        per_pass.append(layer_metrics(spans, counts, setup_spans))
        archive.append((len(per_pass) - 1, spans))
        if not run.keep_going(started, seconds):
            break
        run.one_pass()
    run.final_checks()

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            value = min(run.walls["traced"]) / min(run.walls["plain"])
        elif name == "metrics.compute_der.alloc_mb":
            value = alloc_mb
        elif unit == "count" or name == "nn.conv2d.gflop":
            value = per_pass[0][name]  # deterministic: identical on every pass
        else:
            value = median(p[name] for p in per_pass)
        metrics[name] = {"value": value, "unit": unit}

    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for rec in span_records(setup_spans, "setup"):
            fh.write(json.dumps(rec) + "\n")
        for pass_no, spans in archive:
            for rec in span_records(spans, pass_no):
                fh.write(json.dumps(rec) + "\n")
    for p in problems:
        print(f"trace: {p}", file=sys.stderr)
    return run.result(metrics, extra_ok=not problems)


def make_workload(manifest: dict, inputs: Path, out: Path):
    from workloads import CombinedWorkload, DiarizationWorkload, ScoringWorkload

    if manifest["workload"] == "stub-score":
        return CombinedWorkload(
            DiarizationWorkload(manifest, inputs, out), ScoringWorkload(manifest, inputs, ROOT)
        )
    return DiarizationWorkload(manifest, inputs, out)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-s{seed}-", dir=OUT) as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "rttm"
        out.mkdir()
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inputs)],
            check=True,
            timeout=170,
        )
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        wl = make_workload(manifest, inputs, out)
        if trace:
            return traced(wl, seconds, OUT / f"spans-{workload}-s{seed}.jsonl", env)
        result, summary = end_to_end(wl, seconds)
        print("summary " + json.dumps({"workload": workload, **summary}))
        return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one table of the metrics."""
    rows, ok = [], True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        summary = [json.loads(l[8:]) for l in lines if l.startswith("summary ")]
        if proc.returncode != 0 or not summary:
            print(f"{workload}: run failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        rows.append((workload, result["correct"], summary[0]))
    names = list(END_TO_END) + list(UNBOUNDED)
    print(f"{'workload':<12} {'correct':<8}" + "".join(f"{n:>22}" for n in names))
    for workload, correct, summary in rows:
        cells = "".join(
            f"{summary[n]['value']:>14.6g} {summary[n]['unit']:<7}" for n in names
        )
        print(f"{workload:<12} {str(correct):<8}{cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="diarkit benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, print one table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "diarkit" / "__init__.py").is_file():
        print("perfbench: no diarkit sources under src/; run it from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        p.error("give --workload or --all")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
