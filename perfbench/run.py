"""Benchmark of cremona-lab: one workload per run, single process, closed loop.

    python3 perfbench/run.py --workload full_report --seed 1 --seconds 30 --trace 0

With `--trace 0` the run sets up (imports, golden-table load and checksum,
the workload's inputs) three times and reports the median, then runs items
one after another until `--seconds` of item wall time have passed and the
sample prefix is complete, checks every output, and prints the end-to-end
metrics.  Every time it reports is scaled to a host of reference speed (see
`probe`); the raw wall times are in the metadata line.  With `--trace 1` it
wraps every layer (see tracer.py), sets up once and runs the workload's
fixed trace corpus, prints the per-layer metrics,
then re-runs the sample prefix untraced: the payloads must be byte-identical,
and the difference in wall time is the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the `# meta` line above it
holds the run's metadata (machine, versions, digest, tail percentile, speed
factor, raw wall times).
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# duration of one timed `_probe_work` on a host of reference speed: about
# the mean of what the 2-vCPU VM the benchmark was written on measured
REF_PROBE_S = 0.00022
SAMPLE_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_min": "1/min",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan_invariants", "full_report", "special_inputs"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                         "for confirming a claimed gain)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int,
                    help="run exactly this many items (ignores --seconds)")
    return ap.parse_args(argv)


def _import_package():
    """Import cremona_lab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cremona_lab

    if Path(cremona_lab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cremona_lab imported from {cremona_lab.__file__}, not {SRC}")
    import numpy  # the inverse imports it lazily; users pay it once per process

    return numpy


# -------------------------------------------------------------- host speed
#
# The benchmark runs on shared hosts whose speed drifts: a fixed pure-Python
# loop measured in 30 s windows on a 2-vCPU VM ran 83 to 113 times per
# second, and the same scan item took 0.31 to 0.57 s.  Raw wall times of two
# runs therefore differ by more than a regression bound.  So while items run,
# a timer signal times a fixed probe, which no change to the program can
# speed up, every SAMPLE_EVERY_S of wall time.  Each item's time is scaled by
# REF_PROBE_S / (the mean probe time sampled during it), and the run's time
# budget is counted in these scaled seconds, so that a run on a slow host
# completes the same items as one on a fast host.  A faster program still
# reads faster by the same ratio; a slower host mostly does not.


def _probe_work() -> int:
    """A GF(p) multiply-add chain, the arithmetic the program's kernels
    spend their time on.  Of four probes tried (this one, a polynomial
    product on dicts, scattered dict lookups, list sorting), its duration
    tracked the program's item times most closely across the host's slow
    and fast phases."""
    s = 0
    for i in range(2000):
        s = (s * 31 + i) % 1000003
    return s


def _time_probe() -> float:
    """Seconds of one `_probe_work`, after a run that warms it, with the
    garbage collector off so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work()
        t0 = time.perf_counter()
        _probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Samples the host's speed while items run: a SIGALRM every
    SAMPLE_EVERY_S times the probe and files the sample under the running
    item.  `start_item` and `end_item` bracket each item."""

    def __init__(self):
        self.samples = []  # (item index, probe seconds)
        self.raw = []  # wall seconds of each item
        self.item = None

    def _sample(self, signum, frame):
        if self.item is not None:
            self.samples.append((self.item, _time_probe()))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start_item(self):
        self.item = len(self.raw)

    def end_item(self, dt: float) -> float:
        """The running item took `dt` wall seconds: its seconds at reference
        speed, from the samples taken during it, or from every sample so
        far when it was shorter than one period."""
        mine = [p for i, p in self.samples if i == self.item]
        self.item = None
        self.raw.append(dt)
        if not mine:
            mine = [p for _, p in self.samples] or [_time_probe()]
        return dt * REF_PROBE_S / statistics.mean(mine)

    def factor(self) -> float:
        """The run's mean ratio of reference to measured speed."""
        return REF_PROBE_S / statistics.mean([p for _, p in self.samples] or [_time_probe()])


# ----------------------------------------------------------------- running


def run_items(stream, seconds: float, min_items: int, exact: int | None, tracer=None,
              meter: SpeedMeter | None = None) -> list:
    """Closed loop with one client.  Returns one record per item:
    (label, seconds, payload, problems).  With a `meter` the seconds, and
    the budget they are counted against, are at reference speed."""
    records = []
    busy = 0.0
    while True:
        if exact is not None:
            if len(records) >= exact:
                break
        elif busy >= seconds and len(records) >= min_items:
            break
        if tracer is not None:
            tracer.begin_item()
        item = stream.next()
        if meter is not None:
            meter.start_item()
        t0 = time.perf_counter()
        try:
            out = item.run()
            err = None
        except Exception as e:  # a failed item is counted, never skipped
            err = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if meter is not None:
            dt = meter.end_item(dt)
        busy += dt
        if err is None:
            try:
                payload, problems = item.check(out)
            except Exception as e:
                payload, problems = f"check error {e!r}", [f"check raised {type(e).__name__}: {e}"]
        else:
            payload, problems = f"error: {err}", [err]
        records.append((item.label, dt, payload, problems))
    return records


def digest(records) -> str:
    h = hashlib.sha256()
    for _, _, payload, _ in records:
        h.update(payload.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def items_per_min(records, seconds: float, exact: bool) -> float:
    """Correct items per minute of item time.  When the time budget
    ended the loop, the window is exactly `seconds` and the item running
    across its end counts with the share that fell inside, so the figure
    does not jump when one more item squeezes in."""
    total = sum(dt for _, dt, _, _ in records)
    start = total - records[-1][1]
    if exact or total < seconds or start >= seconds:
        window = total
    else:
        window = seconds
    done = 0.0
    t = 0.0
    for _, dt, _, problems in records:
        inside = min(dt, max(0.0, window - t))
        t += dt
        if not problems and dt > 0:
            done += inside / dt
    return 60.0 * done / window


def quantile(xs: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta((n+1)q, (n+1)(1-q)) density.  On a sample of a dozen
    items of very different cost it varies much less from run to run than
    the one or two order statistics a sample quantile picks."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule on each order statistic's share of (0, 1)
    h = 1.0 / (n * steps)
    total = norm = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(steps):
            u = (i * steps + k + 0.5) * h
            w += math.exp(logc + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += w * x
        norm += w
    return total / norm


def tail(durations: list) -> tuple:
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least TAIL_BEYOND samples above it.  When that
    percentile would not lie above the median (fewer than 2 * TAIL_BEYOND + 1
    samples) the tail is the 90th percentile, which the Harrell-Davis
    estimate takes mostly from the top few items: the single slowest item
    varies too much with the seed."""
    n = len(durations)
    rank = n - TAIL_BEYOND
    if 2 * rank <= n:
        return quantile(durations, 0.9), 90.0, n / 10
    return quantile(durations, rank / n), 100.0 * rank / n, TAIL_BEYOND


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# times the imports `main` makes, in a fresh interpreter
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
                "import cremona_lab, numpy, tracer, workloads; print(time.perf_counter() - t0)")


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _setup(hudson, wl) -> tuple:
    """Golden-table load and checksum, then chunk 0 of the workload."""
    t0 = time.perf_counter()
    hudson.load_table(verify=True)
    chunk = wl.chunk(0)
    return time.perf_counter() - t0, chunk


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        numpy = _import_package()
        import tracer as tracing
        import workloads
        from cremona_lab import hudson
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tr = None
    if args.trace:
        # installed before set-up, so that building the inputs is traced too
        tr = tracing.Tracer()
        tr.install()
        if tr.unwrapped_bindings():
            raise RuntimeError(f"tracer left originals bound: {tr.unwrapped_bindings()}")
    # set-up is repeated and the median reported; the repeats import in a
    # fresh interpreter, since this one has its modules loaded already
    setup_raw = []
    for k in range(1 if args.trace else SETUP_REPEATS):
        imports = import_s if k == 0 else _import_seconds()
        t, chunk = _setup(hudson, wl)
        setup_raw.append(imports + t)
    stream = workloads.ItemStream(wl, chunk)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
    exact = args.items
    if tr is not None:
        try:
            records = run_items(stream, args.seconds, 0, exact or wl.trace_items, tr)
        finally:
            tr.uninstall()
        k = min(len(records), wl.sample_items)
        # fresh inputs: objects of the traced pass may hold cached bases
        untraced = run_items(workloads.ItemStream(wl, wl.chunk(0)), 0, 0, k)
        traced_s = sum(dt for _, dt, _, _ in records[:k])
        untraced_s = sum(dt for _, dt, _, _ in untraced)
        meta["digest"] = digest(records[:k])
        meta["digest_untraced"] = digest(untraced)
        meta["tracing_overhead"] = {"items": k, "traced_s": traced_s, "untraced_s": untraced_s,
                                    "overhead_s": traced_s - untraced_s}
        metrics = {name: {"value": value, "unit": tracing.metric_units()[name]}
                   for name, value in tr.metrics().items()}
        identical = meta["digest"] == meta["digest_untraced"]
    else:
        meter = SpeedMeter()
        meter.start()
        try:
            records = run_items(stream, args.seconds, wl.sample_items, exact, meter=meter)
        finally:
            meter.stop()
        raw = meter.raw
        factor = meter.factor()
        durations = [dt for _, dt, _, _ in records]
        t_val, t_pct, t_beyond = tail(durations)
        failed = sum(1 for r in records if r[3])
        values = {
            "setup_s": statistics.median(setup_raw) * factor,
            "items_per_min": items_per_min(records, args.seconds, exact is not None),
            "item_s.p50": quantile(durations, 0.5),
            "item_s.tail": t_val,
            "ok_frac": 1.0 - failed / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        meta["digest"] = digest(records[:wl.sample_items])
        meta["tail"] = {"percentile": t_pct, "samples": len(durations), "beyond": t_beyond}
        meta["failed_frac"] = failed / len(records)
        meta["items"] = len(records)
        meta["speed_factor"] = factor
        meta["raw"] = {"setup_s": statistics.median(setup_raw),
                       "item_s.p50": quantile(raw, 0.5), "item_s.tail": tail(raw)[0],
                       "item_s": [round(dt, 4) for dt in raw],
                       "probe_s": [round(dt, 7) for _, dt in meter.samples],
                       "probe_item": [i for i, _ in meter.samples],
                       "item_wall_s": sum(raw)}
        identical = True

    failures = [(label, problems) for label, _, _, problems in records if problems]
    meta["failures"] = failures[:5]
    print("# meta " + json.dumps(meta, sort_keys=True))
    for label, problems in failures:
        print(f"# FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    if not identical:
        print("# traced and untraced payloads differ", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures and identical, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
