"""Seeded end-to-end benchmark of galois-factor, with a traced split by module.

Run from the repository root:

    python3 perfbench/run.py --workload lattice-dense --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  One client in one process runs
sessions back to back (a closed loop) in seeded order, in whole passes over
the workload's contexts.  ``--seconds`` sets the number of passes from each
workload's pass time on the reference machine, so a run times about that
long there and the same ``--seconds`` runs the same sessions on every
commit.  Output digests are compared between sessions and the outputs are
checked after the timed loop.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced passes for half the time, replays the last pass
traced and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object.  The exit status is 0
when every check passed, 1 when any failed and 2 on a usage or set-up error.

``--smoke`` runs tiny inputs (used by ``test_smoke.py``).
``--record-digests`` runs every session of the default seed once and
stores the SHA-256 of each job's output in ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # sessions that must lie beyond the reported tail percentile

sys.path.insert(0, str(HERE))
from checks import check_session  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, bounds_pipeline, seeded_order  # noqa: E402

JOB_METRICS = ("lattice", "factor", "cn", "bounds", "fn", "check")
SPAN_METRICS = (
    "io.parse", "io.serialize", "contexts.concepts", "contexts.normalize", "order.covers",
    "factorization.factorize", "factorization.reassemble", "factorization.rstar",
    "factorization.cn_enumerate", "factorization.cn_covers", "factorization.block_bounds",
    "fuzzy.fn_enumerate", "fuzzy.concepts", "fuzzy.checks",
)
COUNT_METRICS = (
    "contexts.concepts", "order.cover_edges", "factorization.atoms", "factorization.cn_pairs",
    "fuzzy.fn_pairs", "fuzzy.concepts", "fuzzy.grid_candidates",
)


class SetupError(Exception):
    pass


def import_cli():
    """Import ``galois_factor.cli`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "galois_factor" or n.startswith("galois_factor.")]:
        del sys.modules[name]
    cli = importlib.import_module("galois_factor.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"galois_factor was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, job) -> int:
    """Exit status of one job; an exception escaping the program counts as -1."""
    try:
        if job.argv is None:
            return bounds_pipeline(cli, job.source, job.out)
        return cli.main(list(job.argv))
    except Exception:
        traceback.print_exc()
        return -1


class Runner:
    """Runs sessions, times them and checks their outputs."""

    def __init__(self, workload, seed: int, work: Path, smoke: bool, stored: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.runs: Counter = Counter()  # job key -> runs
        self.failures: Counter = Counter()  # job key -> failed runs
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}  # job key -> SHA-256 of its first output
        self.expected = stored.get(workload.name, {})  # job key -> digest to match

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def setup(self):
        """Import, write the inputs, warm up; returns (cli, sessions, seconds)."""
        start = time.perf_counter()
        cli = import_cli()
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "warm").mkdir(parents=True)
        sessions = self.workload.sessions(self.seed, self.work, self.smoke)
        for session in self.workload.sessions(self.seed, self.work / "warm", True):
            for job in session.jobs:
                if run_job(cli, job) != 0:
                    raise SetupError(f"warm-up job {job.name} failed")
        return cli, sessions, time.perf_counter() - start

    def run_session(self, cli, session) -> tuple[float, dict[str, float], dict[str, int]]:
        """Run one session untraced; returns its time, job times and exit codes."""
        job_times = {}
        codes = {}
        start = time.perf_counter()
        for job in session.jobs:
            t = time.perf_counter()
            codes[job.name] = run_job(cli, job)
            job_times[job.name] = time.perf_counter() - t
        return time.perf_counter() - start, job_times, codes

    def _fail(self, key: str, problem: str, runs: int = 1) -> None:
        self.failures[key] = min(self.runs[key], self.failures[key] + runs)
        self.problems.append(f"{key}: {problem}")

    def verify(self, session, codes: dict[str, int]) -> dict[str, str]:
        """Exit status and output digest of one session's jobs; returns the digests.

        Every run of a job must write the bytes of its first run, and on the
        default seed the stored bytes.
        """
        digests = {}
        for job in session.jobs:
            key = f"{session.key}:{job.name}"
            self.runs[key] += 1
            digest = hashlib.sha256(job.out.read_bytes() if job.out.exists() else b"").hexdigest()
            digests[job.name] = digest
            want = self.expected.get(key) or self.digests.setdefault(key, digest)
            if codes[job.name] != 0:
                self._fail(key, f"exit status {codes[job.name]}")
            elif want != digest:
                self._fail(key, "output differs from the stored digest")
        return digests

    def check(self, session) -> None:
        """Check a session's last outputs against the definitions.

        Digests showed every run wrote the same bytes, so a wrong output
        fails every run of its job.
        """
        texts = {
            job.name: job.out.read_bytes().decode(errors="replace") if job.out.exists() else ""
            for job in session.jobs
        }
        try:
            found = check_session(session, texts)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            found = {name: [f"unreadable output: {exc!r}"] for name in texts}
        for name, problems in found.items():
            if problems:
                key = f"{session.key}:{name}"
                self._fail(key, "; ".join(problems), self.runs[key])


def _stored_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND sessions beyond it, and its value."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def passes(workload, seconds: float) -> int:
    """Whole passes that take about ``seconds`` on the reference machine."""
    return max(1, int(seconds / workload.pass_seconds + 0.5))


def measure(runner: Runner, cli, sessions, n_passes: int):
    """Closed loop: ``n_passes`` passes over the contexts in the seeded order.

    Digests are compared between sessions; the checks against the
    definitions run after the loop, so they disturb no timed session.
    """
    order = [sessions[i] for i in seeded_order(runner.seed, len(sessions))]
    ran, times, job_times = [], [], {}
    for session in order * n_passes:
        elapsed, jobs, codes = runner.run_session(cli, session)
        runner.verify(session, codes)
        ran.append(session)
        times.append(elapsed)
        for name, t in jobs.items():
            job_times.setdefault(name, []).append(t)
    for session in order:
        runner.check(session)
    return ran, times, job_times


def traced_replay(runner: Runner, cli, ran):
    """Replay the sessions traced; outputs must match the untraced bytes."""
    tracer = Tracer()
    restore = instrument(cli, tracer)
    times, output_bytes = [], []
    try:
        for session in ran:
            written = 0
            with tracer.span("session"):
                start = time.perf_counter()
                codes = {}
                for job in session.jobs:
                    with tracer.span(f"job.{job.name}"):
                        codes[job.name] = run_job(cli, job)
                times.append(time.perf_counter() - start)
            for job in session.jobs:
                written += job.out.stat().st_size if job.out.exists() else 0
            output_bytes.append(written)
            runner.verify(session, codes)
    finally:
        restore()
    return tracer, times, output_bytes


def layer_metrics(tracer: Tracer, output_bytes: list[int]):
    """Per-session medians of summed self times, count totals, per-session sums."""
    own = tracer.self_times()
    n_sessions = len(tracer.counts)
    per_session = [dict.fromkeys(SPAN_METRICS + ("cli.self", "session"), 0.0) for _ in range(n_sessions)]
    for (name, _, _, _, session), t in zip(tracer.spans, own):
        key = "cli.self" if name.startswith("job.") else name
        per_session[session][key] += t
    times = {
        key: statistics.median(s[key] for s in per_session)
        for key in SPAN_METRICS + ("cli.self",)
    }
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for c in tracer.counts:
        for name in COUNT_METRICS:
            counts[name] += c[name]
    counts["io.output_mb"] = sum(output_bytes) / 1e6
    return times, counts, per_session


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    parser.add_argument("--record-digests", action="store_true",
                        help="store output digests of every session of the default seed")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "galois_factor" / "__init__.py").is_file():
        print(f"error: no galois_factor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}"
    compare = args.seed == DEFAULT_SEED and not (args.smoke or args.record_digests)
    runner = Runner(workload, args.seed, work, args.smoke, _stored_digests() if compare else {})
    try:
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            cli, sessions, seconds = runner.setup()
            setups.append(seconds)
        if args.record_digests:
            return record_digests(runner, cli, sessions)
        return report(args, runner, cli, sessions, setups)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_digests(runner: Runner, cli, sessions) -> int:
    if runner.seed != DEFAULT_SEED:
        print(f"error: digests are stored for the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    found = {}
    for session in sessions:
        _, _, codes = runner.run_session(cli, session)
        for name, digest in runner.verify(session, codes).items():
            found[f"{session.key}:{name}"] = digest
        runner.check(session)
    if runner.failed:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    stored = _stored_digests()
    stored[runner.workload.name] = found
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(found)} digests for {runner.workload.name}")
    return 0


def report(args, runner: Runner, cli, sessions, setups) -> int:
    workload = runner.workload
    lines = [
        f"workload {workload.name}: {workload.size}",
        f"why: {workload.why}",
        f"seed {args.seed}, {len(sessions)} contexts per pass",
    ]
    if args.trace == 0:
        _, times, _ = measure(runner, cli, sessions, passes(workload, args.seconds))
        pct, tail_s = tail(times)
        metrics = {
            "session_p50_s": metric(statistics.median(times), "s"),
            "session_tail_s": metric(tail_s, "s"),
            "sessions_per_s": metric(len(times) / sum(times), "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        lines.append(f"{len(times)} sessions; session_tail_s is p{pct:.1f} ({TAIL_BEYOND} sessions beyond it)")
        lines.append(f"setup_s is the median of {len(setups)} set-ups")
    else:
        ran, times, job_times = measure(runner, cli, sessions, passes(workload, args.seconds / 2))
        last_pass = ran[-len(sessions):]
        tracer, traced_times, output_bytes = traced_replay(runner, cli, last_pass)
        span_times, counts, per_session = layer_metrics(tracer, output_bytes)
        metrics = {}
        for name in JOB_METRICS:
            values = job_times.get(name)
            metrics[f"job.{name}_s"] = metric(statistics.median(values) if values else 0.0, "s")
        metrics["cli.self_s"] = metric(span_times["cli.self"], "s")
        for name in SPAN_METRICS:
            metrics[f"{name}_s"] = metric(span_times[name], "s")
        metrics["io.output_mb"] = metric(counts.pop("io.output_mb"), "MB")
        for name, value in counts.items():
            metrics[name] = metric(value, "count")
        untraced = statistics.median(times[-len(sessions):])
        overhead = statistics.median(traced_times) / untraced - 1.0
        metrics["bench.trace_overhead_frac"] = metric(overhead, "fraction")
        lines.append(f"{len(times)} sessions untraced, then the last pass of "
                     f"{len(traced_times)} again traced; counts are totals over that pass")
        by_time = sorted(range(len(traced_times)), key=traced_times.__getitem__)
        totals = {key: sum(s[key] for s in per_session) for key in per_session[0]}
        lines.append(f"span self times sum to {sum(totals.values()) / sum(traced_times):.4f} of traced session time")
        lines += _shares("all traced sessions", totals)
        lines += _shares("the median traced session", per_session[by_time[len(by_time) // 2]])
        lines += _shares("the slowest traced session", per_session[by_time[-1]])
        lines.append("grid candidates are computed as |L2|^|B| per grid scan, not counted in the program")
        _write_spans(tracer, workload.name, args.seed)
    attempted, failed = runner.attempted, runner.failed
    lines.append(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    lines.extend(runner.problems[:20])
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _shares(title: str, self_times: dict) -> list[str]:
    total = sum(self_times.values())
    out = [f"self-time shares, {title} ({total:.3f} s):"]
    for key, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        if value >= 0.005 * total:
            out.append(f"  {key:28s} {value / total:6.1%}")
    return out


def _write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps(tracer.as_jsonable()))


if __name__ == "__main__":
    sys.exit(main())
